(** Transaction-level structured tracing.

    A zero-cost-when-disabled event layer: every simulator layer (engine,
    ASF core, TM runtime, STM, memory system) emits typed events into a
    per-core bounded ring buffer, each stamped with (run, core, cycle,
    tx-attempt id). This is the visibility the paper's authors had through
    PTLsim-ASF's pipeline traces: {i why} an individual transaction
    aborted, which cache line conflicted, when a core fell back to
    serial-irrevocable mode, and how long it backed off.

    Emission never advances simulated time, so enabling tracing cannot
    change any experiment number; when no tracer is installed the cost of
    an emission point is a single mutable-field check on the shared
    {!null} tracer.

    Two sinks are provided: a Chrome [trace-event] JSON exporter (one lane
    per simulated core, one process per simulated system/run — openable in
    [chrome://tracing] or Perfetto) and a CSV exporter, plus per-kind
    event counts for summary tables. *)

(** {1 Events} *)

type payload =
  | Tx_begin  (** a transaction attempt starts (hardware, STM, or serial) *)
  | Tx_commit of { serial : bool }
  | Tx_abort of { abort_class : string; addr : int option }
      (** [abort_class] is {!Asf_core.Abort.class_name}; [addr] is the
          base address of the conflicting / displaced cache line when the
          hardware knows it (contention and capacity aborts). *)
  | Probe_rollback of { requester : int; line_addr : int }
      (** emitted on the victim's lane when a requester-wins coherence
          probe from [requester] dooms its region over [line_addr] *)
  | Fallback_enter  (** entering serial-irrevocable mode *)
  | Fallback_exit
  | Backoff of { cycles : int }  (** contention back-off of [cycles] *)
  | Cache_evict of { level : string; line_addr : int }
      (** eviction that displaced a speculatively tracked line *)
  | Fault_service of { page : int }  (** OS services a page fault *)
  | Stm_rollback of { reads : int; writes : int }
      (** TinySTM validation/contention rollback with read/write-set sizes *)
  | Thread_spawn
  | Thread_finish
  | Thread_resume
      (** scheduler resumes a core after an elapse; very hot, excluded
          from the default filter *)
  | Check_violation of { check : string; line_addr : int option }
      (** the {!Asf_check} subsystem flagged an invariant violation
          ([check] names it, e.g. ["strong-isolation"]) at [line_addr] *)
  | Fault_inject of { kind : string }
      (** the fault-injection layer perturbed the run here ([kind] is the
          injection site, e.g. ["spurious-abort"], ["page-unmap"],
          ["serial-stall"], or the watchdog escalation ["forced-serial"]) *)

type event = {
  run : int;  (** simulated system id ([run_start] increments) *)
  core : int;
  cycle : int;  (** the core's local clock at emission *)
  attempt : int;  (** globally unique tx-attempt id; 0 outside attempts *)
  seq : int;  (** global emission order *)
  payload : payload;
}

val kind_name : payload -> string
(** Constructor name, e.g. ["Tx_abort"] — the event name in both sinks. *)

val filter_names : string list
(** Valid [filter] elements: [begin], [commit], [abort], [probe],
    [fallback], [backoff], [evict], [fault], [stm], [spawn], [finish],
    [resume], [check], [inject]. *)

(** {1 Tracers} *)

type t

val null : t
(** The shared disabled tracer: emission on it is one field check. *)

val create : ?capacity_per_core:int -> ?filter:string list -> unit -> t
(** A fresh enabled tracer. [capacity_per_core] bounds each core's ring
    (default 16384; oldest events are dropped and counted). [filter]
    selects event kinds by {!filter_names}; the default is every kind
    except [resume]. Raises [Invalid_argument] on an unknown name. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val install : t -> unit
(** Make [t] the global tracer picked up by systems created afterwards
    ({!Asf_engine.Engine.create}, {!Asf_cache.Memsys.create}, ...). *)

val uninstall : unit -> unit
(** Restore the {!null} tracer. *)

val installed : unit -> t

val run_start : t -> unit
(** Begin a new simulated system: bumps the run id (the Chrome [pid])
    and resets per-core attempt tracking. *)

val emit : t -> core:int -> cycle:int -> payload -> unit
(** Record an event. [Tx_begin] allocates a fresh attempt id for [core];
    subsequent events on that core carry it. No-op when disabled or when
    the kind is filtered out. *)

(** {1 Reading} *)

val events : t -> event list
(** All retained events in emission order. *)

val core_events : t -> core:int -> event list
(** Retained events of one core, in emission (= cycle) order. *)

val counts : t -> (string * int) list
(** Emitted events per kind (counted even when the ring later dropped
    them), in taxonomy order. *)

val dropped : t -> int
(** Events lost to ring-buffer bounds. *)

(** {1 Sinks} *)

val chrome_json : t -> string
(** Chrome trace-event JSON: one instant event per retained event
    ([tid] = core, [pid] = run) plus one complete ("X") span per
    reconstructed transaction attempt. *)

val csv : t -> string
(** [run,core,cycle,attempt,event,detail] rows. *)

val write_chrome_json : t -> string -> unit

val write_csv : t -> string -> unit
