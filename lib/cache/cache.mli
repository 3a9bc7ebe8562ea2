(** Generic set-associative cache directory with LRU replacement.

    Tracks presence only — data values live in {!Asf_mem.Ram}. Used for the
    three data-cache levels and the L2 TLB. Keys are non-negative
    cache-line indices (or page indices for TLB use) below 2{^31} - 1: a
    lookup or a fill of any other key raises [Invalid_argument] rather
    than aliasing a truncated tag. Each set keeps its ways in recency
    order, so a lookup scans a set once and LRU needs no timestamps.

    The tags are signed 32-bit entries in one [Bytes] block, [-1] for an
    invalid way: 4 bytes a way, in a block the GC never scans. A scan
    compares each entry, sign-extended once as it is loaded, with the
    key converted once per call, both unboxed (DESIGN.md, "The tag
    store"). The type is a private record that no other module reads:
    it tells the compiler that an array of caches is not a float array,
    so indexing one needs no float-array test. *)

type t = private { n_sets : int; assoc : int; tags : Bytes.t }

val create : sets:int -> assoc:int -> t
(** [sets] and [assoc] must be positive; [sets] must be a power of two. *)

val create_bytes : size_bytes:int -> assoc:int -> line_bytes:int -> t
(** Convenience: [sets = size / (assoc * line)]. *)

val sets : t -> int

val mem : t -> int -> bool
(** Presence test without touching LRU state. *)

val find_way_idx : t -> int -> int
(** Index of the way holding the key, or [-1] — the allocation-free form
    of a presence/lookup test for per-access hot paths. Does not touch
    LRU state. The index stays valid for {!touch_evict_at} on the same
    key until this cache is next touched or invalidated. *)

val is_most_recent : t -> int -> int -> bool
(** [is_most_recent t key idx], with [idx = find_way_idx t key]: whether
    the key sits in its set's most-recent way, where a touch changes
    nothing. *)

val touch : t -> int -> bool * int option
(** [touch t key] performs an access: on hit, updates LRU and returns
    [(true, None)]; on miss, fills the entry, returning [(false, evicted)]
    where [evicted] is the victim line pushed out, if the set was full. *)

val touch_evict : t -> int -> int
(** Allocation-free {!touch}: performs the access and returns the evicted
    tag, or [-1] when nothing was pushed out (a hit, or a fill into an
    invalid way). Behaviour and LRU effects are identical to {!touch}. *)

val touch_evict_at : t -> int -> int -> int
(** [touch_evict_at t key idx] is [touch_evict t key] with the lookup
    already done: [idx] must be [find_way_idx t key], with no change to
    [t] in between. A hit moves the way to the front of its set; a miss
    fills at the front. Returns the evicted tag when the set was full,
    else [-1]. Lets a caller that probed the set scan it only once. *)

val invalidate : t -> int -> bool
(** Removes an entry; returns whether it was present. *)
