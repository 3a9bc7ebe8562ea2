(** ASF-TM: the transactional-memory runtime.

    This is the software layer the paper's DTMC compiler targets: it
    implements the TM ABI ([atomic] + transactional [load]/[store]) on top
    of either ASF speculative regions with a serial-irrevocable software
    fallback, or the TinySTM baseline, or direct uninstrumented execution
    (the "sequential" baseline).

    The ASF execution path per attempt:
    + service any page fault recorded by the previous abort;
    + if the transaction exceeded its retry budget or hit a capacity /
      malloc / syscall abort, run in serial-irrevocable mode under a global
      lock that all hardware transactions monitor;
    + otherwise wait for the serial lock to be free, SPECULATE, subscribe
      to the serial lock with a transactional load, run the body with
      transactional accesses, COMMIT;
    + on abort, classify the reason (contention aborts back off
      exponentially and retry; capacity and malloc aborts go serial, as in
      the paper's study; page faults are serviced and retried).

    Re-execution uses closure restart — the moral equivalent of the ABI's
    software setjmp: the body must keep its mutable state in simulated
    memory (or reinitialise host state at the top of the closure). *)

type mode =
  | Asf_mode of Asf_core.Variant.t
  | Stm_mode
  | Seq_mode  (** uninstrumented; for the sequential baseline *)
  | Phased_mode of Asf_core.Variant.t
      (** PhasedTM-style hybrid (the "more elaborate fallback" of the
          paper's Section 3.2): runs hardware transactions like
          [Asf_mode], but a capacity overflow switches the whole system
          into a software (TinySTM) phase for [phase_quantum]
          transactions instead of serialising; malloc/syscall aborts
          still use the serial-irrevocable path. *)

type config = {
  mode : mode;
  n_cores : int;
  params : Asf_machine.Params.t;
  seed : int;
  backoff : bool;  (** exponential back-off after contention aborts *)
  selective_annotation : bool;  (** when off, {!nload}/{!nstore} are
                                    treated as transactional (ablation) *)
  abort_on_tlb_miss : bool;  (** Rock-style ablation *)
  requester_wins : bool;  (** ASF's contention policy; [false] is the
                              requester-loses ablation *)
  resolve_conflicts : bool;
      (** broken-hardware ablation (default [true]): when [false], ASF
          stops detecting conflicts between concurrent regions — commits
          of racy regions succeed and the run is not serializable. Exists
          for negative tests of the checking layers. *)
  rollback_on_abort : bool;
      (** broken-hardware ablation (default [true]): when [false], an
          aborted ASF region's speculative stores are {e not} rolled
          back, leaking partial effects. Negative-test fixture only. *)
  phase_quantum : int;  (** [Phased_mode]: software-phase length in
                            transactions *)
  stm_strategy : Asf_stm.Tinystm.strategy;
      (** versioning of the STM baseline; the paper uses write-through *)
  watchdog_abort_limit : int;
      (** consecutive aborts of one transaction before it is forced onto
          the serial path regardless of remaining retry budget (catches
          abort loops that never charge the budget, e.g. endless injected
          page faults); default 64 *)
  watchdog_window : int;
      (** cycles without {e any} commit system-wide before every
          unbounded wait raises {!Livelock}; default 20,000,000 *)
}

val default_config : mode -> n_cores:int -> config
(** The paper's configuration. The runtime's fixed costs are constants,
    not fields: 8 contention retries before the serial fallback, 45
    cycles of software begin (setjmp, descriptor setup), 18 of software
    commit and 40 per [malloc]. The progress watchdog is always on. *)

type system

type ctx
(** Per-thread execution context (one per core in the benchmarks). *)

val create : config -> system

val engine : system -> Asf_engine.Engine.t

val memsys : system -> Asf_cache.Memsys.t

val config : system -> config

val asf : system -> Asf_core.Asf.t option

val stm : system -> Asf_stm.Tinystm.t option

val make_ctx : system -> core:int -> ctx

val core : ctx -> int

val system : ctx -> system

val prng : ctx -> Asf_engine.Prng.t

val stats : ctx -> Stats.t

val now : ctx -> int
(** Current cycle on this context's core. *)

val last_commit_cycle : ctx -> int
(** Cycle at which this context last committed a transaction on any path
    ([-1] if it has not committed yet). For a request served by
    {!atomic}/{!atomic_until}, the final attempt's commit lies between
    the request's invocation and response cycles, which makes this the
    linearizability oracle's commit-cycle witness: trying linearization
    points in commit order finds a valid order greedily on correct
    hardware. *)

val backoff_window : int -> int
(** [backoff_window retries] is the exponential back-off window (in cycles)
    sampled from after [retries] contention aborts: [64 lsl min retries 10],
    i.e. doubling from 64 and saturating at 65536 cycles. Exposed for
    tests; {!config.backoff} controls whether it is used at all.

    The delay is drawn from the context's per-core PRNG. Core [i]'s
    stream is the [i+1]-th {!Asf_engine.Prng.split} of a single root
    generator seeded from [config.seed], so every stream's initial state
    passes through the SplitMix64 finalizer and the streams are pairwise
    decorrelated — two cores that abort at the same cycle draw
    independent windows. (The previous arithmetic derivation,
    [seed + f(core)], left nearby cores' sequences correlated, which can
    synchronise their backoff and turn one conflict into a convoy.) *)

val serial_spin_window : int -> int
(** [serial_spin_window attempt] is the bounded spin-backoff window (in
    cycles) a serial-lock waiter sleeps before its [attempt]-th re-poll:
    [64 lsl min attempt 7], doubling from 64 and saturating at 8192. The
    cap bounds every waiter's poll interval, so a released lock is
    re-acquired within a bounded delay (no waiter backs off
    indefinitely). *)

(** {1 Transactions} *)

val atomic : ctx -> (unit -> 'a) -> 'a
(** Run the body as a transaction (flat-nested if already inside one). *)

type deadline_info = { dl_core : int; dl_deadline : int; dl_now : int }

exception Deadline_exceeded of deadline_info
(** The request's deadline passed at a retry point; the transaction did
    not (and will not) commit. *)

val atomic_until : ctx -> deadline:int -> (unit -> 'a) -> 'a
(** [atomic_until ctx ~deadline f] runs [f] as a transaction that stops
    retrying once the core clock reaches absolute cycle [deadline],
    raising {!Deadline_exceeded} instead of spinning in backoff — the
    open-system serving contract (a late response is useless, so the
    runtime must hand the core back rather than keep burning it).

    Enforcement happens at {e retry points} only: attempt entry, backoff
    delays, and serial-lock spin polls. A body that is already executing
    is never interrupted (an attempt that commits after the deadline
    still returns normally — the caller decides whether a late result is
    worth anything), and serial-irrevocable execution runs to completion
    once the lock is held. Backoff delays switch to decorrelated jitter
    ({!decorrelated_window}) clamped to the remaining budget, and spin
    waits re-check the deadline before every poll, so the cumulative
    backoff + spin a request observes is bounded by its budget plus one
    {!serial_spin_window} tail. A deadline that interrupts an open
    attempt is accounted as an abort of class [Abort.Timeout].

    Top-level transactions only ([Invalid_argument] when nested). *)

val deadline_wait : ctx -> int
(** Cumulative backoff + serial-spin cycles charged during the most
    recent (or current) {!atomic_until} — the quantity whose bound the
    deadline property in the test suite checks. *)

val decorrelated_window : Asf_engine.Prng.t -> prev:int -> int
(** One decorrelated-jitter draw: uniform in [16, 16 + 3 * max 16 prev),
    capped at [backoff_window 10] (65536 cycles). {!atomic_until} backoff
    feeds each draw the previous one; exposed for tests. *)

val set_force_serial : ctx -> bool -> unit
(** Governor escalation hook: while set, every top-level ASF transaction
    on this context runs directly on the serial-irrevocable path
    (guaranteed progress, no speculation). Honoured by the ASF path only
    — STM transactions do not subscribe to the serial lock, so forcing
    them serial would not be isolated; [Phased_mode] honours it during
    hardware phases. *)

val load : ctx -> Asf_mem.Addr.t -> int
(** Transactional load (inside [atomic]); direct load outside. *)

val store : ctx -> Asf_mem.Addr.t -> int -> unit

val nload : ctx -> Asf_mem.Addr.t -> int
(** Non-transactional (selectively annotated) load: thread-local data that
    needs no protection — consumes no ASF capacity. *)

val nstore : ctx -> Asf_mem.Addr.t -> int -> unit

val release : ctx -> Asf_mem.Addr.t -> unit
(** Early release of a read-set line (ASF path only; no-op otherwise). *)

val work : ctx -> int -> unit
(** Charge [n] cycles of application compute. *)

val serial_mode : ctx -> bool
(** Is this context currently executing in serial-irrevocable mode? *)

val retry : ctx -> 'a
(** Explicitly abort and re-execute the current transaction (the ABI's
    user-initiated retry; ASF's ABORT instruction). Used when application
    validation fails, e.g. labyrinth's path revalidation. Never returns.
    Must not be called in serial-irrevocable mode (which cannot observe
    concurrent invalidation, so never needs to retry). *)

val irrevocable : ctx -> unit
(** Ensure the current transaction is serial-irrevocable (aborting the
    hardware attempt with reason [Syscall] if necessary) — the ABI's
    mechanism for external actions. Inside a transaction only. *)

(** {1 Memory management} *)

val malloc : ctx -> int -> Asf_mem.Addr.t
(** Words, rounded up to whole cache lines (false-sharing padding). *)

val free : ctx -> Asf_mem.Addr.t -> int -> unit
(** [free ctx addr words]: deferred to commit inside transactions. *)

(** {1 Setup (untimed)} *)

val setup_poke : system -> Asf_mem.Addr.t -> int -> unit
(** Untimed store that also maps the page (benchmark initialisation). *)

val setup_peek : system -> Asf_mem.Addr.t -> int

val setup_alloc : system -> int -> Asf_mem.Addr.t
(** Untimed line-padded allocation from the global allocator, with pages
    pre-mapped (setup-phase data structures are warm). *)

(** {1 Running threads} *)

val spawn : system -> core:int -> (ctx -> unit) -> ctx
(** Spawns a worker thread with a fresh context on [core]; returns the
    context so its statistics can be read after {!run}. *)

val run : system -> unit

val makespan : system -> int
(** Max core time after {!run} (simulated execution time in cycles). *)

val phase_switches : system -> (int * int) option
(** [Phased_mode] only: (switches to software, switches back to
    hardware). *)

(** {1 Progress watchdog}

    The runtime's graceful-degradation ladder under adversarial
    conditions (see {!Asf_faults.Faults}): a transaction accumulating
    [watchdog_abort_limit] consecutive aborts is forced onto the serial
    path even with retry budget left; if the whole system then still
    commits nothing for [watchdog_window] cycles, every unbounded wait
    (serial-lock spins, back-off, phase transitions, the injected-hang
    loop) raises {!Livelock} with a structured diagnosis, which
    propagates out of {!run}. *)

type core_report = {
  rep_core : int;
  rep_path : string;  (** execution path at diagnosis time:
                          [direct]/[hw]/[serial]/[stm] *)
  rep_commits : int;
  rep_serial_commits : int;
  rep_attempts : int;
  rep_aborts : int;
  rep_consec_aborts : int;  (** current consecutive-abort run *)
}

type diagnosis = {
  diag_cycle : int;  (** cycle at which the watchdog fired *)
  diag_window : int;
  diag_commits : int;  (** commits system-wide before the stall *)
  diag_last_commit_cycle : int;
  diag_serial_holder : int option;
      (** core holding the serial lock, if any — the prime suspect *)
  diag_cores : core_report list;  (** per-context state, by core *)
}

exception Livelock of diagnosis

val pp_diagnosis : Format.formatter -> diagnosis -> unit

val total_commits : system -> int
(** Commits system-wide, across all contexts and paths. *)

val forced_serial_count : system -> int
(** Times the consecutive-abort escalation forced a transaction onto the
    serial path. *)
