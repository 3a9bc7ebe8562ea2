(** Shared infrastructure for the workloads: the result record every
    program run returns, a transactional sense-reversing barrier, and the
    one way a program (a STAMP application, bank, the IntegerSet
    benchmark) runs on the simulated machine. *)

type result = {
  name : string;
  threads : int;
  cycles : int;  (** simulated makespan (setup is untimed) *)
  stats : Asf_tm_rt.Stats.t;  (** aggregated over worker threads *)
  checks : (string * bool) list;  (** named validation outcomes *)
}

val ok : result -> bool
(** All checks passed. *)

val ms : Asf_machine.Params.t -> result -> float
(** Execution time in simulated milliseconds. *)

module Barrier : sig
  (** Transactional sense-reversing barrier (counter + generation in
      simulated memory): arrival is a small transaction (class
      ["barrier"]), the wait is a plain-load spin. *)

  type t

  val create : Asf_dstruct.Ops.t -> n:int -> t
  (** Allocated and zeroed through the setup operations. *)

  val wait : Cap.t -> t -> unit
end

type instance = {
  worker : Cap.t -> int -> unit;  (** the body of thread [tid] *)
  checks : unit -> (string * bool) list;
      (** validation, once every worker has returned *)
}

type program = seed:int -> threads:int -> Asf_dstruct.Ops.t -> instance
(** A workload: build its shared state through the given setup
    operations (seeded by [seed], sized for [threads] workers) and
    return its workers. The simulated run passes {!Asf_dstruct.Ops.setup};
    Txstatic passes its abstract memory's and runs worker 0 alone. *)

val run : name:string -> Asf_tm_rt.Tm.config -> threads:int -> program -> result
(** Build the program on a fresh system, spawn worker [tid] on core
    [tid] for [tid] in [0 .. threads-1] over {!Cap.of_ctx}, run the
    engine to completion, and validate. *)

val chunk : int -> threads:int -> tid:int -> int * int
(** [chunk n ~threads ~tid] is the [(start, stop)] half-open range of the
    [tid]-th of [threads] near-equal slices of [0..n-1]. *)
