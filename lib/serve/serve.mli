(** Open-system serving harness with overload robustness.

    The paper (and the rest of this repository) measures closed loops: N
    threads hammer a structure until an operation budget runs out, so
    offered load can never exceed capacity by construction. A service
    facing "heavy traffic from millions of users" (ROADMAP north star)
    lives in the opposite regime: requests arrive on their own schedule,
    queue while the cores are busy, and keep arriving when the system is
    saturated. This module builds that client model on the deterministic
    engine:

    - {b arrivals} are generated purely from the seed by a Poisson,
      bursty, or diurnal-ramp process and injected at absolute cycles via
      [Engine.spawn_at] — an open system by construction (the arrival
      process never observes service times);
    - {b admission control}: each core owns a bounded run queue; a
      request arriving to a full queue is shed explicitly (counted, never
      silently dropped or blocked);
    - {b deadlines}: each request may carry a relative deadline, enforced
      by [Tm.atomic_until] — a request past its deadline stops retrying
      and reports [Timeout] instead of spinning in backoff;
    - {b graceful degradation}: an overload governor watches queue depth
      and commit throughput (the PR 3 watchdog signals) and walks a
      Normal -> Shedding -> Serial ladder, halving the admission cap and
      finally forcing the serial-irrevocable path, then recovers when the
      queues drain — sustained overload degrades throughput instead of
      raising [Tm.Livelock].

    Everything reported (latency percentiles, throughput, censuses) is a
    function of simulated time only, so reports are byte-identical per
    seed, including under the Faultline injection plans. *)

module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats

(** {1 Workloads} *)

(** YCSB-style operation mixes over the transactional KV store:
    A = 50/50 read/update, B = 95/5 read/update, C = read-only,
    D = 95/5 read-latest/insert, E = 95/5 scan/insert,
    F = 50/50 read/read-modify-write. *)
type mix = A | B | C | D | E | F

type service =
  | Kv of mix  (** hash-map KV store, YCSB-style key-value requests *)
  | Ledger
      (** the bank example grown into an order/ledger service: account
          transfers with an append-only order log, settlements against
          logged orders, and full-balance audit requests *)

val service_name : service -> string
(** ["kv-a"] .. ["kv-f"], ["ledger"]. *)

val initial_balance : int
(** Every ledger account's starting balance (the audit invariant's
    conserved quantity). *)

(** {1 Requests and history events}

    One request = one client-visible operation. When [cfg.record] is on,
    the run returns its complete invocation/response history — the input
    to the Txlin linearizability oracle ([Asf_txlin]). Recording is
    host-side only: it never advances simulated time, so every reported
    number is byte-identical with recording on or off. *)

type op =
  | Read of int  (** key *)
  | Update of int * int  (** key, new value *)
  | Insert of int * int  (** fresh key, value (put-if-absent) *)
  | Scan of int * int  (** first key, length *)
  | Rmw of int  (** key: read, then write (old + 1) *)
  | Order of { src : int; dst : int; amount : int }
      (** ledger transfer + order-log append *)
  | Settle of int  (** settle the (idx mod log-length)-th logged order *)
  | Audit  (** sum every balance, flag any leak *)

type obs =
  | O_unit  (** Update: no observable return *)
  | O_val of int option  (** Read: the value found (or absence) *)
  | O_vals of int option list  (** Scan: values for k, k+1, ... *)
  | O_flag of bool
      (** Insert: key was absent; Order: log slot appended; Settle: some
          order existed; Audit: balances summed correctly *)
  | O_rmw of int  (** Rmw: the old value read (new value = old + 1) *)

type outcome_ev =
  | Ev_done of { obs : obs; commit : int }
      (** committed with observation [obs]; [commit] is the final
          attempt's commit cycle ([Tm.last_commit_cycle]), a witness
          satisfying invoke <= commit <= respond *)
  | Ev_timeout
      (** deadline passed while queued or retrying: committed nothing
          ([Tm.atomic_until] guarantees no effect), a no-op obligation *)
  | Ev_shed  (** rejected at admission: never executed *)

type event = {
  ev_id : int;  (** request id (schedule order) *)
  ev_op : op;
  ev_invoke : int;  (** arrival cycle (the client's send) *)
  ev_respond : int;  (** cycle the outcome was decided *)
  ev_outcome : outcome_ev;
}

(** {1 Arrival processes}

    All gaps are in cycles. Every process is generated from the seed
    before the simulation starts. *)

type arrival =
  | Poisson of { mean_gap : int }  (** exponential inter-arrival gaps *)
  | Bursty of {
      mean_gap : int;  (** gap outside bursts *)
      burst_gap : int;  (** gap inside bursts (smaller = heavier) *)
      on_window : int;  (** burst length, cycles *)
      off_window : int;  (** quiet length, cycles *)
    }
  | Ramp of {
      low_gap : int;  (** gap at peak load (fastest arrivals) *)
      high_gap : int;  (** gap at trough load *)
      period : int;  (** cycles per diurnal cycle (triangle wave) *)
    }
  | Closed
      (** every request available at cycle 0 — the closed-loop capacity
          probe used by {!measure_capacity}; disables admission shedding *)

(** {1 Configuration} *)

type cfg = {
  service : service;
  arrival : arrival;
  requests : int;  (** total arrivals *)
  queue_cap : int;  (** per-core run-queue bound (admission control) *)
  deadline : int option;  (** per-request relative deadline, cycles *)
  poll : int;  (** idle worker re-poll interval, cycles *)
  governor : bool;  (** overload governor enabled *)
  records : int;  (** KV: preloaded keys; also sizes the bucket array *)
  accounts : int;  (** ledger: number of accounts *)
  scan_len : int;  (** KV mix E: keys per scan *)
  sample_every : int;  (** governor sampling interval, cycles *)
  record : bool;
      (** record the invocation/response history into [r_events]
          (default off; free in simulated time either way) *)
}

val default_cfg : service -> cfg

(** {1 Overload governor}

    Pure state machine, exposed for unit tests. Transitions (evaluated at
    most once per [sample_every] cycles):
    - Normal -> Shedding after [streak] consecutive samples with total
      queue depth at the high watermark and not draining (sustained queue
      growth);
    - Shedding -> Serial when no transaction committed system-wide for
      [zero_window] cycles while still backed up (the watchdog's
      zero-commit signal, acted on {e before} it becomes a [Livelock]);
    - Shedding/Serial -> Normal when total depth falls to the low
      watermark (recovery).

    Shedding and Serial halve the admission cap; Serial additionally
    routes every request through the serial-irrevocable path
    ([Tm.set_force_serial]). *)

type gov_state = Normal | Shedding | Serial

val gov_state_name : gov_state -> string

type governor

val governor_create :
  ?streak:int -> ?zero_window:int -> hi:int -> lo:int -> unit -> governor

val governor_step : governor -> now:int -> depth:int -> commits:int -> unit

val governor_state : governor -> gov_state

val governor_census : governor -> int * int * int
(** (to-shedding, to-serial, recoveries) transition counts. *)

(** {1 Running} *)

type result = {
  r_service : string;
  r_arrivals : int;
  r_completed : int;  (** committed (possibly late, see [r_late]) *)
  r_shed : int;  (** rejected at admission (queue full) *)
  r_timeout : int;  (** deadline passed while queued or retrying *)
  r_late : int;  (** completed, but after their own deadline *)
  r_retries : int;  (** extra attempts beyond the first, all requests *)
  r_retry_hist : int array;  (** buckets: 0, 1, 2-3, 4-7, 8+ retries *)
  r_timeout_aborts : int;  (** attempts abandoned mid-flight ([Abort.Timeout]) *)
  r_serial_served : int;  (** requests served while the governor was Serial *)
  r_max_depth : int;  (** deepest any core's run queue ever got *)
  r_max_dl_wait : int;
      (** max over requests of [Tm.deadline_wait]: cumulative backoff +
          spin under a deadline — bounded by deadline + one
          [Tm.serial_spin_window] tail (the deadline property) *)
  r_gov_to_shed : int;
  r_gov_to_serial : int;
  r_gov_recovered : int;
  r_final_gov : string;
  r_p50 : int;  (** latency percentiles over completed requests, cycles *)
  r_p90 : int;
  r_p99 : int;
  r_p999 : int;
  r_max_lat : int;
  r_mean_lat : float;
  r_span : int;  (** last arrival cycle *)
  r_makespan : int;
  r_offered : float;  (** offered load, requests per millisecond *)
  r_achieved : float;  (** completion throughput, requests per millisecond *)
  r_stats : Stats.t;  (** aggregated worker statistics *)
  r_invariant_ok : bool;  (** service-level consistency check *)
  r_invariant_msg : string;
  r_partition_ok : bool;
      (** the outcome partition
          [r_completed + r_shed + r_timeout = r_arrivals] held — recorded
          (not asserted) so a violation still yields a full report the
          caller can turn into a structured Finding *)
  r_events : event array;
      (** the recorded history in request-id order when [cfg.record];
          empty otherwise. With a clean partition it has exactly
          [r_arrivals] entries. *)
}

val run : Tm.config -> threads:int -> cfg -> result
(** Run one open-system serving experiment. Arrival schedule, request
    contents and every reported number are functions of
    [tm_cfg.seed] (plus any installed fault plan's seed) only.
    [r_shed + r_timeout + r_completed = r_arrivals] — the outcome
    partition invariant the property tests pin — is reported in
    [r_partition_ok]. *)

val measure_capacity : Tm.config -> threads:int -> cfg -> float
(** Closed-loop capacity probe, requests per millisecond: the same
    service and request population executed back-to-back with admission
    and deadlines disabled. The sweep expresses offered load as a
    multiple of this. *)

val sweep :
  Tm.config ->
  threads:int ->
  cfg ->
  mults:float list ->
  (float * result) list * float option
(** [sweep tm_cfg ~threads cfg ~mults] measures capacity, then runs one
    Poisson experiment per multiplier (offered = mult x capacity).
    Returns the per-multiplier results and the detected knee. *)

val knee_point : ?threshold:float -> (float * float) list -> float option
(** [knee_point pts] over (offered, achieved) points sorted by offered
    load: the largest offered load still served at [threshold] (default
    0.9) efficiency, reported only when some later point falls below the
    threshold ([Some 0.] if even the first point is saturated; [None]
    when no point in range saturates — no knee visible). *)
