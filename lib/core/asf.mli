(** The ASF instruction-set surface.

    One value of type {!t} models the ASF hardware of the whole simulated
    machine for one implementation {!Variant.t}: per-core speculative
    regions, the locked-line buffer(s), and — for the hybrid variants — L1
    read-set tracking. It hooks into {!Asf_cache.Memsys} so that coherence
    probes implement requester-wins contention management and first-touch
    page faults abort in-flight regions.

    The seven ASF instructions map to {!speculate}, {!commit},
    {!abort_explicit}, {!lock_load}/{!lock_store} (LOCK MOV), {!watchr},
    {!watchw}, and {!release}. Aborts are delivered as the {!Aborted}
    exception — the analogue of control transferring back to the
    instruction following SPECULATE with an error code in rAX; the software
    layer (ASF-TM) catches it and re-executes or falls back.

    Abort semantics mirror the specification: all speculative modifications
    are undone {e before} a conflicting probe completes (strong isolation,
    instantaneous aborts), registers are not restored (re-execution is the
    runtime's job), and a region doomed by a remote probe observes its
    abort at its next ASF operation. *)

exception Aborted of Abort.t

exception Colocation_fault of { core : int; line : int }
(** Raised on an unprotected write to a line the same region has modified
    speculatively — a program error per the ASF specification, not an
    abort. *)

type t

val create :
  ?requester_wins:bool ->
  ?rollback_on_abort:bool ->
  ?resolve_conflicts:bool ->
  Asf_cache.Memsys.t ->
  Variant.t ->
  t
(** Installs the probe, eviction, and fault hooks into the memory system.
    At most one [Asf.t] may be attached to a given [Memsys.t].

    [requester_wins] (default [true]) selects the contention policy. ASF
    specifies requester-wins: a conflicting probe aborts the region already
    holding the line. With [requester_wins:false] (an ablation of that
    design choice) a speculative access that would conflict with another
    region aborts the {e requesting} region instead — without disturbing
    the holder; non-speculative requesters still abort holders, as strong
    isolation demands.

    [rollback_on_abort] and [resolve_conflicts] (both default [true]) are
    deliberately-broken-hardware ablations for testing the {!Asf_check}
    layer: [rollback_on_abort:false] skips restoring the LLB backups when
    a region is doomed, leaving aborted speculative stores visible in
    memory; [resolve_conflicts:false] makes coherence probes
    conflict-blind, so conflicting regions are never doomed and strong
    isolation / serializability no longer hold. *)

val variant : t -> Variant.t

val memsys : t -> Asf_cache.Memsys.t

val max_nesting : int
(** 256, per the specification. *)

(** {1 The seven instructions} *)

val speculate : ?extra:int -> t -> core:int -> unit
(** Enter (or, dynamically nested, deepen) a speculative region. Nesting is
    flat: inner regions extend the outermost one. [extra] cycles of caller
    bookkeeping (the TM ABI entry cost) are folded into the instruction's
    own latency charge — one scheduling point instead of two back-to-back
    [elapse]s.
    @raise Aborted with [Disallowed] beyond {!max_nesting}. *)

val commit : ?extra:int -> t -> core:int -> unit
(** Leave the current nesting level; at the outermost level, atomically
    publish all speculative stores and flash-clear the protected sets.
    [extra] is folded into the commit latency as in {!speculate}.
    @raise Aborted if the region was doomed in the meantime. *)

val abort_explicit : t -> core:int -> code:int -> 'a
(** The ABORT instruction: roll back and deliver [Explicit code]. *)

val lock_load : t -> core:int -> Asf_mem.Addr.t -> int
(** Speculative load; protects the containing line (read set). *)

val lock_store : t -> core:int -> Asf_mem.Addr.t -> int -> unit
(** Speculative store; backs up and protects the containing line
    (write set). *)

val watchr : t -> core:int -> Asf_mem.Addr.t -> unit
(** Monitor a line for remote stores without loading data. *)

val watchw : t -> core:int -> Asf_mem.Addr.t -> unit
(** Monitor a line for remote loads and stores (joins the write set). *)

val release : t -> core:int -> Asf_mem.Addr.t -> unit
(** Drop a read-only line from the read set (a hint; never fails — a
    written or unprotected line is left untouched). *)

(** {1 Unannotated accesses inside regions (selective annotation)} *)

val plain_load : t -> core:int -> Asf_mem.Addr.t -> int

val plain_store : t -> core:int -> Asf_mem.Addr.t -> int -> unit
(** @raise Colocation_fault on a line the same region wrote speculatively. *)

(** {1 Runtime support} *)

val self_abort : ?line:int -> t -> core:int -> Abort.t -> 'a
(** Roll back the calling core's region and raise {!Aborted} with the given
    reason (used by ASF-TM for [Syscall] and [Malloc] aborts). [line] is
    the cache line responsible, when known (recorded for tracing). *)

val in_region : t -> core:int -> bool

val last_conflict : t -> core:int -> int option
(** Base address of the cache line behind this core's most recent abort —
    the conflicting line of a requester-wins probe, or the line whose
    capacity displacement doomed the region — when the hardware knows it.
    Survives the abort; cleared at the next outermost SPECULATE. *)

val protected_lines : t -> core:int -> int
(** Current protected-set size in lines (read + write). *)

val written_lines : t -> core:int -> int

(** {1 Observation (checking layer)} *)

type observer_event =
  | Obs_speculate  (** outermost region entry (state already initialised) *)
  | Obs_commit  (** outermost commit (stores already authoritative) *)
  | Obs_doom of Abort.t
      (** the region was doomed — by a remote probe, a capacity overflow,
          a fault, or itself; the rollback (when enabled) has already been
          applied when the observer runs *)
  | Obs_release of int  (** RELEASE executed on the given line *)

val set_observer : t -> (core:int -> observer_event -> unit) option -> unit
(** Install (or clear) a passive lifecycle observer. Observers must not
    advance simulated time: checked and unchecked runs produce identical
    numbers. *)

val line_protected : t -> core:int -> int -> bool
(** Is the line in the core's live (non-doomed) protected set? *)

val line_written : t -> core:int -> int -> bool
(** Is the line in the core's live (non-doomed) write set? *)

(** {1 Counters} *)

val speculates : t -> int

val commits : t -> int

val aborts : t -> int array
(** Aborts delivered, indexed by {!Abort.index}. The array is live. *)
