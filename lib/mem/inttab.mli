(** A map from non-negative ints to ints, in two [int array]s.

    The simulator's one hash table for int keys: the LLB's protected
    lines, the hybrids' L1-tracked read set, TinySTM's owned orecs and
    write-back buffer, the allocator's books and Txcheck's line maps.
    Open addressing: a key's home slot is the top bits of
    [key * 2^63/phi] (Fibonacci hashing) and a collision probes the next
    slots in turn. {!remove_at} deletes by backward shift, so there are
    no tombstones and a chain ends at its first empty slot. The slot
    count is a power of two, and an insertion that would leave the table
    more than three-quarters full doubles it first; nothing shrinks it.
    Lookups, updates, removals and {!clear} allocate nothing and call no
    polymorphic hash: only growth allocates.

    A slot index, from {!find} or {!bind}, names a binding until the
    next {!bind}, {!add}, {!remove_at} or {!clear}. *)

type t

val create : int -> t
(** [create n] is an empty table of [n] slots, rounded up to a power of
    two (at least 2). *)

val length : t -> int
(** The number of bindings. *)

val find : t -> int -> int
(** The slot holding [key], or -1 if it is absent. A negative key is
    always absent. *)

val mem : t -> int -> bool

val value : t -> int -> int
(** The value in a slot {!find} or {!bind} returned. *)

val set_value : t -> int -> int -> unit

val bind : t -> int -> int
(** The slot of [key], bound to 0 first if it was absent.
    @raise Invalid_argument on a negative key. *)

val add : t -> int -> int -> unit
(** [add t key v] binds [key] to [v], replacing any binding.
    @raise Invalid_argument on a negative key. *)

val remove_at : t -> int -> unit
(** Removes the binding in a slot {!find} or {!bind} returned.
    @raise Invalid_argument on an empty slot. *)

val clear : t -> unit
(** Removes every binding; the table keeps its slot count. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f key value] on every binding, in slot order. [f]
    must not change [t]. *)
