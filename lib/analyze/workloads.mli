(** The workloads the static analyzer explores.

    A workload is a {!Asf_stamp.Stamp_common.program}: the very program
    the simulator runs on its runtime twin ({!Asf_stamp.Stamp_common.run}).
    Txstatic builds it over its abstract memory and runs worker 0 alone;
    every atomic block the worker runs is one analyzed transaction, filed
    under the block's class name. The intset family runs
    {!Asf_intset.Intset.program}, bank {!Asf_stamp.Bank.program}, and each
    STAMP application {!Asf_stamp.Stamp.program} at scale 0.2, so a
    footprint includes everything that depends on the program's phases
    and draws. *)

type t = { w_name : string; w_program : Asf_stamp.Stamp_common.program }

val stock : t list
(** Every stock workload: the intset family (range 256, 128 initial
    keys, 20 % updates, 4096 hash buckets, 200 transactions per thread;
    the linked list also with early release), bank (200 transactions per
    thread), and the eight STAMP applications at scale 0.2. *)

val fixtures : t list
(** Deliberately broken workloads for negative tests: unsafe annotation,
    an over-capacity transaction, a host-state restart hazard, and a
    released-then-reread line. Each runs one named block ten times and
    has no check. Never part of {!stock}. *)

val find : string -> t option
(** By name, searching {!stock} then {!fixtures}. *)
