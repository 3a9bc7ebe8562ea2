(** Simulated-memory allocator.

    Hands out word addresses from a growing arena with exact-size free
    lists. A one-word header precedes each block, recording its size so
    {!free} needs only the address. Address 0 is never allocated and serves
    as the null pointer of simulated data structures.

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
(** Words currently allocated (excluding headers). *)
