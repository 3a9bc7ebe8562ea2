(** Deterministic discrete-event multicore execution engine.

    Each simulated hardware thread is an OCaml-5 effect-handled computation
    pinned to a core. A thread runs uninterrupted until it performs
    {!elapse_on}, which advances its core-local cycle clock and yields to the
    scheduler; the scheduler always resumes the runnable thread with the
    smallest (time, sequence-number) key, so interleavings are fully
    deterministic and everything that happens between two [elapse] calls is
    atomic with respect to other threads (the model's analogue of a single
    instruction retiring).

    Scheduling fast path: when the elapsing thread would be popped right
    back (its advanced time is strictly earlier than every queued task),
    {!elapse_on} advances the clock in place — no effect capture, no heap
    round-trip. Fusion is observationally equivalent to scheduling (same
    (time, seq) total order, same counters and trace stream); see
    DESIGN.md, "Engine scheduling and the fusion fast path".

    Timing model: an operation takes effect at the moment the thread executes
    it and its latency is charged afterwards with [elapse]. This is the
    first-order, in-order approximation of PTLsim's out-of-order core
    documented in DESIGN.md. *)

type t

val create : ?always_schedule:bool -> n_cores:int -> unit -> t
(** A fresh engine with [n_cores] cores, all clocks at cycle 0.
    [always_schedule] (default [false]) disables the fusion fast path so
    every [elapse] yields to the scheduler — the reference the
    equivalence battery compares against. *)

val n_cores : t -> int

val spawn : t -> core:int -> (unit -> unit) -> unit
(** [spawn t ~core f] schedules thread [f] on [core], starting at the core's
    current local time. Several threads may share a core; they interleave at
    [elapse] points. *)

val spawn_at : t -> core:int -> time:int -> (unit -> unit) -> unit
(** [spawn_at t ~core ~time f] schedules thread [f] on [core] to start at
    absolute cycle [time] — the arrival-event primitive of the open-system
    serving harness ({!Asf_serve}): client requests are injected at their
    seeded arrival instants independently of what the cores are doing.
    [time] may be in the core's future (the core clock advances to it if
    the core is idle by then) or logically in its past (the event runs
    when the global order reaches it and the clock is untouched). Unlike
    {!spawn}, the start time does not track the core's current clock. *)

val run : t -> unit
(** Runs until every spawned thread has terminated. Exceptions escaping a
    thread propagate out of [run]. *)

val elapse_on : t -> int -> unit
(** [elapse_on t n] advances the calling thread's core clock by [n >= 0]
    cycles and yields. The thread must run on [t]: library code passes
    the engine it holds (its {!Asf_cache.Memsys}'s, its system's).
    Calling it outside [run t] raises [Effect.Unhandled], leaving every
    clock and counter as it was. *)

val elapse : int -> unit
(** The ambient form of {!elapse_on}: the engine is the one running on
    the calling domain, looked up on every call. For callers that hold
    no engine (the repository benchmark's replay, tests). Calling it
    outside any engine's thread raises [Effect.Unhandled]. *)

val core_time : t -> int -> int
(** Current cycle count of a core's local clock. *)

val current_core : t -> int
(** Core of the thread currently executing (meaningful inside [run]). *)

val now : t -> int
(** Local time of the currently executing core. *)

val max_time : t -> int
(** Maximum over all core clocks; after {!run} this is the makespan of the
    simulated execution. *)

val events : t -> int
(** Number of scheduling events processed so far — fused elapses count
    exactly like their scheduled equivalents (for diagnostics). *)

val fused_elapses : t -> int
(** Elapses this engine handled on the fusion fast path. *)

val scheduled_elapses : t -> int
(** Elapses this engine yielded to the scheduler. *)

val heap_high_water : t -> int
(** Largest number of tasks ever pending at once in this engine: queued,
    or yielded and about to be swapped into the queue. *)

val cycles_retired : unit -> int
(** The calling domain's {!Counters.sim_cycles}: total cycles simulated by
    every engine created on it. Kept, like {!sched_counters}, because the
    repository benchmark (bench/perf) reads it. *)

val sched_counters : unit -> int * int
(** The calling domain's [(fused, scheduled)] elapse totals
    ({!Counters.fused_elapses}, {!Counters.scheduled_elapses}). *)
