(** Txstatic: the engine-free static transaction analyzer.

    Runs every workload's program ({!Workloads}) against {!Amem}'s
    abstract memory at a few seeds — no timing, no scheduler, no caches —
    and distils per-class {e access summaries} (lines read/written, peak protected-set size, worst L1
    set occupancy under {!Asf_machine.Params}, annotated/transactional
    alias sets, allocation and early-release events). A pure lint layer
    then issues the verdicts the DTMC compiler side of the paper's stack
    produced before any run:

    - {e capacity} per hardware variant — fits / overflows /
      set-conflict-possible ({!cap_verdict});
    - {e annotation safety} — an [nload]/[nstore] that may alias a
      transactionally-written line is a static race;
    - {e restart hygiene} — host-side state observed to differ between
      two abstract executions of one body;
    - {e early-release misuse} — a released line re-protected later in
      the same attempt. *)

type cap_verdict = Fits | Overflows | Set_conflict

val verdict_name : cap_verdict -> string
(** ["fits"], ["overflows"], ["set-conflict"]. *)

val abi_lines : int
(** Protected lines the runtime ABI adds to every hardware attempt
    beyond the body's own footprint: 1, the transactional serial-lock
    subscription. *)

type class_summary = {
  cs_workload : string;
  cs_class : string;
  cs_execs : int;
  cs_rd_max : int;  (** most distinct transactionally-read lines seen *)
  cs_wr_max : int;
  cs_peak_max : int;  (** worst peak protected-set size *)
  cs_peak_min : int;
  cs_rd_set_occ : int;
      (** worst per-L1-set occupancy among read-only protected lines *)
  cs_all_set_occ : int;
      (** ... among every line the transaction touches (protected and
          annotated): the eviction-pressure bound for the hybrid
          variants *)
  cs_releases : int;
  cs_rereads : int;
  cs_allocs : int;
  cs_diverged : int;  (** executions whose replay diverged *)
}

type wreport = {
  wr_workload : string;
  wr_classes : class_summary list;
  wr_alias_nload : int;
      (** lines annotated-read by some execution and transactionally
          written by some execution of the same workload (may-alias) *)
  wr_alias_nstore : int;
      (** annotated-written lines that may alias any protected line *)
  wr_alias_sample : int option;  (** one offending line, for the report *)
}

type t = {
  a_params : Asf_machine.Params.t;
  a_seeds : int list;
  a_reports : wreport list;
}

val variants : Asf_core.Variant.t list
(** The hardware variants verdicts are issued for: the four LLB variants
    plus the cache-based design. *)

val capacity_verdict :
  params:Asf_machine.Params.t ->
  variant:Asf_core.Variant.t ->
  class_summary ->
  cap_verdict
(** Plain-LLB variants: [peak + abi_lines] against the entry count
    (exact for the explored inputs). L1-hybrid variants: written lines
    against the LLB, read lines against per-set associativity, with
    [Set_conflict] when a set is full enough that unrelated fills could
    evict a tracked line. *)

val workload_verdict :
  params:Asf_machine.Params.t -> variant:Asf_core.Variant.t -> wreport -> cap_verdict
(** Worst class verdict ([Overflows] > [Set_conflict] > [Fits]). *)

val run : ?seeds:int list -> params:Asf_machine.Params.t -> Workloads.t list -> t
(** Analyze each workload: for every seed (default [1;2;3]), build its
    program single-threaded over a fresh {!Amem}, run worker 0, and fold
    the atomic blocks it executed into per-class summaries. *)

val findings : t -> Findings.t list
(** The lint verdicts as shared findings: annotation races, restart
    hazards and release misuse as violations; capacity overflows and
    set conflicts per variant as advisories (a truthful "this class
    runs serial on that hardware" is not an error). *)

val ok : t -> bool
(** No violation findings. *)

val artifact_json : t -> extra:Findings.t list -> string
(** The [ANALYZE_asf.json] document: parameters, per-class summaries
    with per-variant verdicts, and all findings (static ones plus
    [extra], e.g. cross-validation contradictions). Passes
    {!Findings.validate_json}. *)
