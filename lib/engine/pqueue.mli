(** Priority queue used by the event scheduler.

    Elements carry two integer keys compared lexicographically: the primary
    key is the event time in cycles (must be non-negative), the secondary
    key a monotonically increasing sequence number that makes the schedule
    deterministic (FIFO among simultaneous events).

    The representation is a tournament (winner) tree over payload slots:
    keys in unboxed int arrays, a payload written once into its slot and
    never moved, and for every tree node the slot of the smallest key
    below it. {!swap_min} and {!drop_min} replay only the minimum's
    leaf-to-root path, one key comparison per level; a free slot holds
    the key [(max_int, max_int)], which every element beats. Only a
    {!push} that finds no free slot allocates: it doubles the capacity.

    Popped slots are vacated: a queue retains (pins) at most one payload
    beyond its live [length] elements — a dummy captured from the first
    push, stored in every free slot. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** @raise Invalid_argument if [time] is negative. *)

val min_time : 'a t -> int
(** Time of the minimum element, or [max_int] when the queue is empty —
    shaped for "would anything run before cycle [t]?" comparisons. *)

val drop_min : 'a t -> 'a
(** Removes the minimum element and returns its payload (read its time
    beforehand with {!min_time} if needed).
    @raise Invalid_argument if the queue is empty. *)

val swap_min : 'a t -> time:int -> seq:int -> 'a -> 'a
(** [swap_min q ~time ~seq v] removes the minimum element, returns its
    payload and inserts [v] under [(time, seq)] into the minimum's slot,
    in one path replay rather than a pop's and a push's two. Read the
    removed element's time beforehand with {!min_time} if needed. [v] is
    inserted after the minimum is taken, so the result is the old minimum
    even when [v]'s key is smaller: to get a push-then-pop, call it only
    when [(time, seq)] is not below the minimum's key.
    @raise Invalid_argument if the queue is empty or [time] is negative. *)
