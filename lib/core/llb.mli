(** Locked-line buffer.

    A small fully-associative CPU structure holding, per protected line,
    whether it has been speculatively written and — if so — a backup of the
    line's pre-transactional contents, written back on abort. Because it is
    fully associative it is not subject to cache-index conflicts; its only
    limit is the entry count. *)

type t

val create : capacity:int -> t

val capacity : t -> int
(** The nominal (hardware) entry count. *)

val set_limit : t -> int option -> unit
(** Transiently cap the usable entry count at [min limit capacity] —
    the fault-injection model of a transient capacity reduction (the ASF
    spec only promises a {e minimum} guaranteed capacity; an
    implementation may offer less at times). [None] restores the nominal
    capacity; already-protected lines are never evicted by a new limit.
    @raise Invalid_argument on a non-positive limit. *)

val effective_capacity : t -> int
(** [min limit capacity], the bound {!protect_read}/{!protect_write}
    enforce. *)

val entries : t -> int
(** Number of protected lines currently held. *)

val mem : t -> int -> bool
(** Is the line protected (read or written)? *)

val written : t -> int -> bool

type read_outcome =
  | Protected  (** the line is (now) held for reading *)
  | Written  (** the line is already written; its write entry covers the read *)
  | Full  (** the line was absent and the buffer is full; nothing added *)

val protect_read : t -> int -> read_outcome
(** Adds a read-only entry for the line unless it is present. Idempotent
    for present lines. *)

val protect_write : t -> int -> backup:int array -> bool
(** Marks the line written, storing [backup] (its pre-transactional
    contents) if it was not already written; upgrades an existing read
    entry in place. Returns [false] if a new entry would not fit. *)

val release : t -> int -> bool
(** Drops a read-only entry (the RELEASE hint). Returns [false] — and
    leaves the buffer unchanged — if the line is absent or written:
    a pending speculative store cannot be cancelled. *)

val read_count : t -> int
(** Number of read-only protected lines ([entries t - written_count t]). *)

val protected_lines : t -> int list
(** All currently protected line indices, ascending (diagnostics and
    capacity analysis). *)

(** {1 L1 set geometry}

    The hybrid variants ({!Variant.l1_read_set} / cache-based) keep part
    of the protected set in the L1 data cache, so their capacity limit is
    per-{e set} associativity, not an entry count. These helpers expose
    the line-to-set mapping used by {!Asf_cache.Cache.create_bytes}
    without needing a cache instance — the static analyzer predicts
    set-conflict evictions from them. *)

val l1_sets : Asf_machine.Params.t -> int
(** Number of L1 sets: [l1_bytes / (l1_assoc * line_bytes)], a power of
    two for every machine profile. *)

val set_index : Asf_machine.Params.t -> int -> int
(** [set_index params line] is the L1 set a cache-line index maps to:
    [line land (l1_sets params - 1)], matching the cache directory's
    power-of-two indexing. *)

val iter_written : t -> (int -> int array -> unit) -> unit
(** Iterates over written lines and their backups (abort rollback), in
    an unspecified order. *)

val written_count : t -> int

val clear : t -> unit
(** Flash-clear on commit or after rollback. *)
