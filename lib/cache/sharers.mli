(** Exact per-line sharer sets for the coherence directory.

    A sharer set is a run of {!words} ints inside one of the
    directory's shard arrays, read and written in place: core [c] is
    bit [c mod 62] of word [c / 62] (62 bits keep every [1 lsl b] a
    positive tagged int). A line holds one word at up to 62 cores and
    five at 256. Every operation takes the array and the offset [off]
    of the line's first word, and touches no slot outside
    [off .. off + words - 1].

    The set is exact at every core count: it holds precisely the cores
    recorded as sharers, so a write probe visits only those, in
    ascending core order. *)

type ctx
(** The topology a set is read under: its word count and socket map. *)

val make_ctx : n_cores:int -> n_sockets:int -> ctx
(** Raises [Invalid_argument] when either count is below 1. *)

val words : ctx -> int
(** [ceil (n_cores / 62)]: the ints one set takes. *)

val socket : ctx -> int -> int
(** [socket ctx core] is the socket that holds [core]:
    [core * n_sockets / n_cores], read from a table built once, so the
    sockets are contiguous ascending core ranges. *)

val add : ctx -> int array -> int -> int -> unit
(** [add ctx a off core] records [core] as a sharer. Idempotent. *)

val set_singleton : ctx -> int array -> int -> int -> unit
(** [set_singleton ctx a off core] makes [core] the only sharer. *)

val others : ctx -> int array -> int -> except:int -> bool
(** [others ctx a off ~except]: does some core other than [except]
    share the line? *)

val crossed : ctx -> int array -> int -> socket:int -> bool
(** [crossed ctx a off ~socket]: does some sharer live outside
    [socket]? A core lies in its own socket, so a writer asking about
    its socket never counts itself. *)

val iter_others : ctx -> int array -> int -> except:int -> (int -> unit) -> unit
(** Visit the sharers other than [except] in ascending core order. The
    words are read as [f] is called: [f] must not change this set. *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a non-zero int, read from a byte
    table. Allocation-free. *)
