(** Simulated-memory allocator.

    Hands out word addresses from a growing arena with exact-shape free
    lists: a freed block is reused only by an allocation of the same size
    and alignment, most recently freed first. Each block's size lives in
    the allocator's host-side table, not in simulated memory, so {!free}
    needs only the address and simulated memory holds no allocator
    headers. Address 0 is never allocated and serves as the null pointer
    of simulated data structures.

    {!alloc_lines} is the allocation mode used for shared data-structure
    nodes: it line-aligns the block and rounds its size up to whole cache
    lines, which is the padding the paper applies to data-structure entry
    points to avoid contention aborts from false sharing. *)

type t

val create : unit -> t
(** An empty arena; the first address it may return is one page. *)

val alloc : t -> ?align:int -> int -> Addr.t
(** [alloc t ~align n] returns a block of [n > 0] words aligned to [align]
    words (default 1, must be a power of two). *)

val alloc_lines : t -> int -> Addr.t
(** [alloc_lines t n] allocates [n] words, line-aligned and padded to a
    whole number of cache lines. *)

val free : t -> Addr.t -> unit
(** Returns a block to its free list.
    @raise Invalid_argument on a double free or an address that was not
    returned by this allocator. *)

val size_of : t -> Addr.t -> int
(** Usable size in words of an allocated block. *)

val live_words : t -> int
(** Words currently allocated. *)
