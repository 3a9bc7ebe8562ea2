(** Simulated physical memory.

    A flat, word-addressed, demand-grown store. Reads of never-written words
    return 0, like zero-fill-on-demand pages. Host memory is materialised
    one 4 KB page at a time, on the first write into it. [Ram] is purely
    functional state with no timing: latencies are the cache hierarchy's
    business, and page mapping (first-touch fault behaviour) is the TLB's. *)

type t

val create : unit -> t

val read : t -> Addr.t -> int

val write : t -> Addr.t -> int -> unit

val resident_pages : t -> int
(** Pages materialised so far: one per page that has seen a write. Reads
    never materialise a page. *)

val read_line : t -> int -> int array
(** [read_line t line] copies the 8 words of a cache line into a fresh
    array; mutating it leaves the memory unchanged. *)

val write_line : t -> int -> int array -> unit
(** [write_line t line words] restores the 8 words of a line (used for ASF
    write-set rollback). *)
