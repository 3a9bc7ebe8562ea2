(** Txcheck: dynamic isolation/serializability checking and a
    capacity/annotation lint for the whole TM stack.

    A checker is a {e passive} observer: it watches the run through the
    {!Asf_cache.Memsys} access hook, the {!Asf_core.Asf} lifecycle
    observer, and the {!Asf_stm.Tinystm} transaction observer, and never
    calls {!Asf_engine.Engine.elapse}. Checked and unchecked runs are
    therefore cycle-identical — the same guarantee the tracing layer
    gives, and the property the equivalence tests pin down.

    Three parts, individually selectable:

    - {e Isolation} — a shadow-memory checker. Every access entering the
      memory system is compared against every core's live protected sets:
      a plain access observing another region's uncommitted speculative
      write is a strong-isolation violation; a plain write hitting a line
      another region only read is an unannotated-shared race; a plain
      access by a region to a line it wrote speculatively itself is a
      colocation hazard. Each finding carries a trail of the newest
      accesses to the offending line (at most 8). The pass asks every
      core's exact LLB ({!Asf_core.Asf.line_written},
      {!Asf_core.Asf.line_protected}), never a conflict signature, so it
      stays independent of the filter it checks.
    - {e Serial} — a conflict-serializability oracle plus abort hygiene.
      Committed attempts' read/write sets (hardware regions via the access
      hook, STM transactions via the observer) form a conflict graph with
      edges ordered by observed access time; a cycle means the committed
      history was not serializable. On every abort, the RAM image of each
      speculatively-written line is compared against its pre-SPECULATE
      snapshot — a mismatch means the rollback leaked speculative state.
    - {e Lint} — a static capacity/annotation analysis over the access
      profiles gathered above: transactions whose protected set provably
      exceeds a variant's capacity (serial-only on that hardware),
      read-only lines eligible for early RELEASE, and lines touched by a
      single core that could safely stay unannotated.

    Violations are hard errors (the stack broke a guarantee); advisories
    are profile-grounded suggestions for the programmer. On stock
    workloads with stock hardware the checker reports zero violations.

    Where a report has to pick, it follows fixed rules, so the same run
    always prints the same findings:
    - the lint's [(e.g. ...)] examples are the four lowest qualifying
      lines;
    - a [conflict-cycle] starts at the earliest-committed attempt left
      once every attempt outside a cycle is peeled off and, from each
      attempt, follows its earliest-created in-edge from another
      leftover attempt; the finding's line is that of the first edge it
      follows;
    - the [abort-hygiene] findings of one abort come in the order its
      lines were first written.

    The bookkeeping is flat int tables: an observed access hashes no key
    through [Hashtbl] and allocates only when it meets a new line or
    outgrows a table. *)

type part = Isolation | Serial | Lint

val part_name : part -> string

val parts_of_names : string list -> part list
(** Parse ["isolation"], ["serial"], ["lint"] (or ["all"]); an empty list
    means all parts. @raise Invalid_argument on an unknown name. *)

type severity = Violation | Advisory

type finding = {
  part : part;
  severity : severity;
  kind : string;
      (** ["strong-isolation"], ["unannotated-race"], ["colocation"],
          ["unresolved-conflict"], ["conflict-cycle"], ["abort-hygiene"],
          ["serial-only"], ["early-release"], ["unannotated-ok"] *)
  line : int option;  (** base word address of the offending cache line *)
  cores : int list;
  cycle : int;  (** simulated cycle of the first occurrence *)
  mutable count : int;  (** occurrences folded into this finding *)
  detail : string;
  trail : string list;
      (** the newest accesses to the line (at most 8), oldest first,
          ending with the offending one; a [conflict-cycle] lists its
          attempts instead *)
}

type attempt_profile = {
  p_run : int;
  p_core : int;
  p_attempt : int;
  p_footprint : int;  (** peak distinct protected lines *)
  p_written : int;  (** distinct written lines *)
  p_committed : bool;
  p_capacity_abort : bool;
}

type t

val create : ?parts:part list -> unit -> t
(** A fresh checker running the given parts (default: all three). *)

val parts : t -> part list

val reset : t -> unit
(** Return the checker to its just-{!create}d state (same parts, no runs,
    no findings, [T] numbers from 1 again), keeping the instance and the
    int tables it has grown — equivalent to [create ~parts:(parts t) ()]
    for every observable purpose. The pool workers reset one cached
    checker between cells instead of creating a fresh one per cell. *)

(** {1 Global installation}

    Mirrors {!Asf_trace.Trace.install}: the CLI installs a checker once
    and every TM system built afterwards attaches to it, so the harness
    layers need no plumbing. *)

val install : t -> unit

val uninstall : unit -> unit

val installed : unit -> t option

(** {1 Attachment} *)

val attach :
  t ->
  ?asf:Asf_core.Asf.t ->
  ?stm:Asf_stm.Tinystm.t ->
  ?variant:Asf_core.Variant.t ->
  Asf_cache.Memsys.t ->
  unit
(** Hook the checker into one simulated system (one {e run}). Installs the
    memory-system access hook and the ASF observer only when [asf] is
    given, so STM and sequential systems pay nothing per plain access,
    and the STM observer when [stm] is given. Attaching again (a new
    system) first finalizes the previous run's oracle and lint, so one
    checker can span an experiment's whole sequence of runs; the [T]
    numbers that name committed attempts keep counting across runs. *)

val finalize : t -> unit
(** Close the current run: sweep the committed accesses once in observed
    order into the conflict graph and check it for a cycle, and emit lint
    advisories. Idempotent. *)

(** {1 Results} *)

val findings : t -> finding list
(** All findings, in first-occurrence order, violations and advisories
    alike. Call {!finalize} first. *)

val violations : t -> finding list

val advisories : t -> finding list

val attempt_profiles : t -> attempt_profile list
(** Per-attempt access profiles, in completion order across all runs. *)

val lint_capacity : t -> capacity:int -> finding list
(** The capacity part of the lint, against an arbitrary LLB capacity:
    one [serial-only] advisory per attempt whose minimum protected-set
    need provably exceeds [capacity] (an attempt that capacity-aborted
    needed at least one line more than it managed to protect). Pure —
    does not add to {!findings}. *)

(** {1 Finding merging}

    For the parallel cell runner: each cell runs with its own checker, and
    the findings are folded back into the main checker in cell order, so
    the merged table is identical to a sequential run's. *)

val export : t -> finding list
(** {!finalize} then {!findings}: everything this checker found, ready to
    be {!absorb}ed elsewhere. *)

val absorb : t -> finding list -> unit
(** Fold exported findings into this checker's table: a finding whose
    (part, kind, line) key is already present adds its count; a new key is
    appended in arrival order. An absorbing checker must only aggregate —
    attaching it to runs as well would mix raw and base line addresses in
    the dedup keys. *)
