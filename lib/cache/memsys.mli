(** The timed memory system: RAM + TLB + cache hierarchy + engine charging.

    Every simulated memory operation goes through this facade. An access

    + translates the address (possibly faulting on a first touch),
    + runs the registered {e probe hook} — the mechanism by which ASF's
      requester-wins contention management observes coherence traffic and
      dooms conflicting speculative regions {e before} the access takes
      effect. A speculative store or write touch skips it: ASF probes
      those itself, before it backs the line up,
    + updates the cache hierarchy and directory, reads or writes RAM,
    + charges the OOO-scaled latency to the calling core via
      {!Asf_engine.Engine.elapse}.

    Everything between two charges is atomic (engine property), which is
    how x86 [LOCK]-prefixed read-modify-writes ({!cas}, {!faa}) are
    modelled: the value check and the write happen at one scheduling point.

    Fault delivery: if a {e fault hook} is registered it is called first
    and is expected to raise (an ASF region abort); if it returns or is
    absent, the OS services the minor fault ([page_fault_latency] cycles,
    page mapped, access retried). *)

type t

type fault = Unmapped of int  (** page index *) | Tlb_miss

val create : Asf_machine.Params.t -> Asf_engine.Engine.t -> t

val params : t -> Asf_machine.Params.t

val engine : t -> Asf_engine.Engine.t

val ram : t -> Asf_mem.Ram.t

val tlb : t -> Tlb.t

val hierarchy : t -> Hierarchy.t

val tracer : t -> Asf_trace.Trace.t
(** The tracer that was installed when this memory system was created
    ({!Asf_trace.Trace.null} when tracing is off); shared by the layers
    built on top (ASF core, TM runtime, STM). *)

val set_probe_hook : t -> (requester:int -> line:int -> write:bool -> unit) -> unit

val set_access_hook :
  t -> (core:int -> addr:Asf_mem.Addr.t -> write:bool -> speculative:bool -> unit) option -> unit
(** Install (or clear) a passive per-access observer, called after the
    coherence probe has resolved conflicts but before the data transfer
    takes effect. Used by the {!Asf_check} layer; the observer must not
    advance simulated time, so observed and unobserved runs produce
    identical numbers. *)

val set_fault_hook : t -> (core:int -> fault -> unit) -> unit

val set_evict_hook : t -> core:int -> (int -> unit) -> unit

(** {1 Timed accesses} *)

val load : t -> core:int -> ?speculative:bool -> Asf_mem.Addr.t -> int

val store : t -> core:int -> ?speculative:bool -> Asf_mem.Addr.t -> int -> unit

val cas : t -> core:int -> Asf_mem.Addr.t -> expect:int -> value:int -> bool
(** Atomic compare-and-swap; returns whether the swap happened. *)

val faa : t -> core:int -> Asf_mem.Addr.t -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val touch_line : t -> core:int -> ?speculative:bool -> write:bool -> Asf_mem.Addr.t -> unit
(** Timing and coherence effects of an access without a data transfer
    (WATCHR / WATCHW). *)

val service_fault : t -> page:int -> unit
(** OS minor-fault service: charges [page_fault_latency] and maps the page.
    Used by the TM runtime after a page-fault region abort. *)

(** {1 Untimed setup accesses}

    Used only to initialise benchmark state before the measured run: no
    latency, no cache effects; [poke] maps the touched page, mirroring an
    OS that has already served those faults during setup. *)

val peek : t -> Asf_mem.Addr.t -> int

val poke : t -> Asf_mem.Addr.t -> int -> unit

val map_page : t -> int -> unit

(** {1 Counters} *)

val faults_serviced : t -> int
