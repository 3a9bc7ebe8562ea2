(** Txlin: an async linearizability oracle for the serve harness.

    The open-system harness ({!Asf_serve.Serve}) reports throughput and
    tail latency, but a runtime that committed stale reads under overload
    would sail through as long as the outcome partition held. Txlin closes
    that gap: with [cfg.record] on, every request becomes an
    invocation/response event (operation, observation, invoke/respond
    cycles, and the final attempt's commit cycle), and this module decides
    whether {e some} total order of the committed requests — consistent
    with real time and with each service's sequential specification —
    explains every recorded observation.

    The construction follows verified-betrfs's [AsyncSpec] (SNIPPETS.md
    #2): requests live in a pending-request multiset from invocation,
    move atomically across the sequential spec at their linearization
    point, and leave a pending-response multiset at response. Shed and
    timed-out requests are {e no-op-or-absent obligations}: admission
    rejected the former before execution and [Tm.atomic_until] guarantees
    the latter committed nothing, so neither constrains the order — but
    any effect they leak (lying hardware) surfaces as an unexplainable
    observation of a {e committed} request.

    The linearization-point search is exact (Wing-Gong style) with three
    prunings that keep it tractable:
    - {b per-key independence}: linearizability is local, so KV histories
      split into connected components of the touched-key relation and are
      checked independently (scans merge the groups they span; the ledger
      is one group);
    - {b commit-cycle ordering}: candidates are tried in commit order.
      The commit witness satisfies invoke <= commit <= respond, so on
      correct hardware the first candidate always linearizes and a clean
      history explores one search node per committed request plus one
      per group — the search only backtracks when something is actually
      wrong;
    - {b memoization + budget}: failed (remaining-set, spec-state) pairs
      are never re-explored, and a budget of 500_000 search nodes per
      check turns pathological searches into an explicit
      {e inconclusive} advisory rather than a hang.

    A search node costs O(log K) for K keys in its KV group (the
    ledger's order step copies its balance array) and allocates nothing
    outside the specification step, so a clean KV check takes
    O(n log K) time for n committed requests. The remaining set is two
    intrusive doubly-linked lists over the group's commit-ordered events
    (commit order for the candidates, respond order for the minimum
    response), unlinked on descent and relinked on backtrack; the KV
    specification is an [int] map; and a memo entry is keyed by a hash
    of the remaining set and the state, both maintained step by step,
    with every hit confirmed by exact comparison before it prunes.

    What the oracle cannot see: effects on locations no committed request
    ever observes (e.g. settlement marks), and anything in a run whose
    history was not recorded. It checks linearizability against the
    sequential spec under sequential consistency; the TSO-aware extension
    is the ROADMAP follow-on. *)

module Serve = Asf_serve.Serve
module Findings = Asf_analyze.Findings

(** {1 Checking} *)

type verdict = {
  v_service : string;
  v_obligations : int;  (** committed requests (events searched) *)
  v_absent : int;  (** shed + timed-out requests (unconstraining) *)
  v_groups : int;  (** independent key groups checked *)
  v_states : int;  (** search nodes explored, all groups *)
  v_ok : bool;  (** linearizable (conclusively) *)
  v_inconclusive : bool;
      (** some group exceeded the state budget; [v_ok] is [false] but no
          violation is claimed *)
  v_witness : Serve.event list;
      (** on violation: a 1-minimal violating history (every single-event
          removal makes it linearizable again), in commit order *)
  v_detail : string;  (** human-readable one-line summary *)
}

val check :
  service:Serve.service ->
  records:int ->
  accounts:int ->
  Serve.event array ->
  verdict
(** [check ~service ~records ~accounts events] runs the oracle over a
    recorded history. [records]/[accounts] must match the run's
    [Serve.cfg] (they fix the initial spec state: key [k < records] maps
    to [k + 1]; every account starts at {!Serve.initial_balance}). The
    ledger's order-log capacity is the number of [Order] obligations in
    [events] — all outcomes, matching how the run sizes the log. *)

val check_result : Serve.cfg -> Serve.result -> verdict
(** {!check} over [r.r_events] with the spec parameters taken from the
    run's own [cfg] (requires the run to have had [cfg.record] set). *)

(** {1 Reporting} *)

val findings : workload:string -> verdict -> Findings.t list
(** [[]] on a clean verdict; one ["non-linearizable"] violation carrying
    the rendered minimal witness, or one ["lin-inconclusive"] advisory
    when only the budget was exhausted. *)

val partition_finding : workload:string -> Serve.result -> Findings.t option
(** The hoisted outcome-partition check: [Some] ["partition"] violation
    when [r_completed + r_shed + r_timeout <> r_arrivals]. *)

val render_event : Serve.event -> string
(** One event as ["#id op -> obs @invoke..respond commit=c"]. *)
