(** Cross-validation of Txstatic against the runtime abort census.

    Every stock workload ({!Asf_analyze.Workloads.stock}) has one runtime
    twin: its program, the value Txstatic analyzes, on a simulated
    4-core machine through {!Asf_stamp.Stamp_common.run}. A twin runs
    under a Txcheck lint observer that gathers per-attempt access
    profiles, and the static capacity verdicts are checked against what
    the hardware actually did: a workload statically judged to {e fit}
    an LLB variant must not produce a single runtime capacity abort at
    that LLB size — if it does, the analyzer under-approximated a
    footprint and the build fails. The opposite direction (static
    overflow, no runtime abort observed) is only a note: the explored
    inputs may simply not have hit the worst case at runtime. Only LLB-8
    and LLB-256 are censused, so no twin tests an L1-variant
    [set-conflict] verdict. *)

type census = {
  v_workload : string;  (** analyzer workload name *)
  v_variant : Asf_core.Variant.t;
  v_attempts : int;  (** hardware attempts profiled *)
  v_cap_aborts : int;  (** attempts ended by a capacity abort *)
  v_max_footprint : int;  (** largest per-attempt protected set seen *)
}

val workload_names : string list
(** The workloads with a runtime twin: every stock workload, in
    {!Asf_analyze.Workloads.stock} order. *)

val census : seed:int -> variant:Asf_core.Variant.t -> string -> census option
(** Run one workload's runtime twin on [variant] with a lint checker
    attached; [None] for a name without a twin. *)

val cross_validate :
  seed:int -> Asf_analyze.Analyze.t -> census list * Asf_analyze.Findings.t list * string list
(** All censuses at LLB-8 and LLB-256 for every twin workload present in
    the analysis, the contradiction findings (static fits + runtime
    capacity abort — analyzer bugs, severity violation), and the soft
    notes. *)
