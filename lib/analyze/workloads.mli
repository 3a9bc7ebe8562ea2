(** The workloads the static analyzer explores.

    A workload is a single-threaded program over a
    {!Asf_stamp.Cap.t} capability record; every atomic block it runs is
    one analyzed transaction, filed under the block's class name. Each
    STAMP application runs its own program ({!Asf_stamp.Stamp.program},
    single-threaded at {!stamp_scale}): the same worker code the
    simulator times, so its footprints include everything that depends
    on the program's phases. The intset family, bank and the fixtures are
    driven by a weighted class schedule instead: their class bodies are
    the real data-structure code ({!Asf_dstruct.Ops}) and bank's own
    transfer and audit bodies ({!Asf_stamp.Bank}), with inputs drawn
    through [rand] inside the block so a restart (the analyzer's double
    execution) replays them identically. *)

type t = {
  w_name : string;
  w_er : bool;  (** early release wired into the capability record *)
  w_program : seed:int -> txns:int -> Asf_dstruct.Ops.t -> Asf_stamp.Cap.t -> unit;
      (** [w_program ~seed ~txns so] builds the workload's shared state
          through the setup operations [so] (unrecorded, seeded like the
          runtime benchmark) and returns the program to run. [txns] sizes
          the class schedule (every class once, then a weighted pick up
          to [txns] transactions); a STAMP program ignores it. *)
}

(** {1 Shared parameters}

    Used verbatim by the runtime cross-validation runs, so static and
    dynamic sides analyze the same configuration. *)

val intset_range : int

val intset_update_pct : int

val intset_init : int

val intset_buckets : int

val stamp_scale : float
(** 0.2: the input scale of every STAMP application, on both sides. *)

val stock : t list
(** Every stock workload: the intset family (plus the early-release
    linked list), bank, and the eight STAMP applications. *)

val fixtures : t list
(** Deliberately broken workloads for negative tests: unsafe annotation,
    an over-capacity transaction, a host-state restart hazard, and a
    released-then-reread line. Never part of {!stock}. *)

val find : string -> t option
(** By name, searching {!stock} then {!fixtures}. *)
