(** The capability record a workload thread is written against.

    Each workload's worker (a STAMP application, bank, the IntegerSet
    benchmark) is written once against {!t} and runs in two worlds:
    {!of_ctx} forwards every field to the {!Asf_tm_rt.Tm} call of a
    simulated thread, and Txstatic's abstract memory
    ([Asf_analyze.Amem.cap]) records the same calls with no machine at
    all. Inside [atomic], [o]'s loads and stores are transactional;
    outside, they are plain accesses. *)

type t = {
  o : Asf_dstruct.Ops.t;  (** loads, stores, allocation; [o.release] is a no-op *)
  nld : Asf_mem.Addr.t -> int;  (** annotated (selective) load *)
  nst : Asf_mem.Addr.t -> int -> unit;  (** annotated store *)
  release : Asf_mem.Addr.t -> unit;
      (** ASF early release of a read-only line. A worker that wants its
          structure to release passes [{ o with release }] to it *)
  rand : int -> int;  (** [rand n]: a draw in [\[0, n)] from the thread's stream *)
  work : int -> unit;  (** application compute, in cycles *)
  atomic : 'a. string -> (unit -> 'a) -> 'a;
      (** [atomic name body] runs [body] as one transaction; [name] is
          the transaction class Txstatic files it under *)
  retry : 'a. unit -> 'a;
      (** abort and re-execute the current transaction (labyrinth's
          failed path revalidation) *)
}

val of_ctx : Asf_tm_rt.Tm.ctx -> t
(** The simulated thread: [o] is {!Asf_dstruct.Ops.tx}, [rand] draws
    from {!Asf_tm_rt.Tm.prng}, and every other field is the [Tm] call of
    the same name. *)
