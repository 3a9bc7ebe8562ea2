module Engine = Asf_engine.Engine
module Prng = Asf_engine.Prng
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Alloc = Asf_mem.Alloc
module Memsys = Asf_cache.Memsys
module Tlb = Asf_cache.Tlb
module Abort = Asf_core.Abort
module Variant = Asf_core.Variant
module Asf = Asf_core.Asf
module Stm = Asf_stm.Tinystm
module Check = Asf_check.Check
module Trace = Asf_trace.Trace
module Faults = Asf_faults.Faults

type mode = Asf_mode of Variant.t | Stm_mode | Seq_mode | Phased_mode of Variant.t

type config = {
  mode : mode;
  n_cores : int;
  params : Params.t;
  seed : int;
  backoff : bool;
  selective_annotation : bool;
  abort_on_tlb_miss : bool;
  requester_wins : bool;
  resolve_conflicts : bool;
  rollback_on_abort : bool;
  phase_quantum : int;
  stm_strategy : Stm.strategy;
  watchdog_abort_limit : int;
  watchdog_window : int;
}

let default_config mode ~n_cores =
  {
    mode;
    n_cores;
    params = Params.barcelona;
    seed = 1;
    backoff = true;
    selective_annotation = true;
    abort_on_tlb_miss = false;
    requester_wins = true;
    resolve_conflicts = true;
    rollback_on_abort = true;
    phase_quantum = 400;
    stm_strategy = Stm.Write_through;
    watchdog_abort_limit = 64;
    watchdog_window = 20_000_000;
  }

(* Contention retries before the serial fallback. *)
let max_retries = 8

(* Software begin cost (setjmp, descriptor). The ABI begin path is a
   software setjmp plus descriptor setup; its cost is of the same order
   as an STM begin, which is why Table 1 shows similar start/commit
   cycles for ASF-TM and TinySTM. *)
let begin_abi_cycles = 45

let commit_abi_cycles = 18

let malloc_cycles = 40

type path = Direct | Hw | Serial | Stm_path

(* PhasedTM-style global phase (the paper's Section 3.2 "switch between
   STM or ASF transactions" alternative fallback): the whole system is
   either in the hardware phase or, after a capacity overflow, in a
   software (STM) phase for [phase_quantum] transactions. The phase word
   shares the serial lock's cache line, so hardware regions subscribe to
   both with a single protected load and any transition dooms them. *)
type phase_state = {
  mutable current_phase : [ `Hw | `Sw ];
  mutable transitioning : bool;
  mutable active_stm : int;
  mutable sw_txns_left : int;
  mutable to_sw_switches : int;
  mutable to_hw_switches : int;
}

(* System-wide progress record backing the watchdog: updated at every
   commit on any path, polled from every unbounded wait. *)
type progress = {
  mutable total_commits : int;
  mutable last_commit_cycle : int;
  mutable forced_serial : int;
}

type core_report = {
  rep_core : int;
  rep_path : string;
  rep_commits : int;
  rep_serial_commits : int;
  rep_attempts : int;
  rep_aborts : int;
  rep_consec_aborts : int;
}

type diagnosis = {
  diag_cycle : int;
  diag_window : int;
  diag_commits : int;
  diag_last_commit_cycle : int;
  diag_serial_holder : int option;
  diag_cores : core_report list;
}

exception Livelock of diagnosis

type deadline_info = { dl_core : int; dl_deadline : int; dl_now : int }

exception Deadline_exceeded of deadline_info

type system = {
  cfg : config;
  engine : Engine.t;
  mem : Memsys.t;
  galloc : Alloc.t;
  asf : Asf.t option;
  stm : Stm.t option;
  serial_lock : Addr.t;
  phase_word : Addr.t;  (** serial_lock + 1; 0 = hardware phase *)
  phase : phase_state option;
  tracer : Trace.t;
  faults : Faults.t;
  progress : progress;
  mutable ctxs : ctx list;  (** every context, for watchdog diagnosis *)
}

and ctx = {
  sys : system;
  core : int;
  prng : Prng.t;
  stats : Stats.t;
  tx : Stm.tx option;
  pool : Txmalloc.t;
  mutable depth : int;
  mutable path : path;
  mutable pending_fault : int option;
  mutable consec_aborts : int;
  mutable pending_cycles : int;
      (** accumulated bookkeeping charges awaiting the next ASF op's elapse *)
  mutable deadline : int;
      (** absolute cycle after which the current request stops retrying
          ([max_int] = none); set only by {!atomic_until} *)
  mutable jitter_prev : int;
      (** previous decorrelated-jitter draw (deadline-scoped backoff) *)
  mutable dl_wait : int;
      (** cumulative backoff + serial-spin cycles charged while a deadline
          was active — the quantity the deadline-overshoot property bounds *)
  mutable force_serial : bool;
      (** governor escalation: route every ASF transaction straight to the
          serial-irrevocable path *)
  mutable last_commit : int;
      (** cycle of this context's most recent commit on any path ([-1] =
          none yet) — the linearizability oracle's commit-cycle witness:
          for a completed request, invoke <= last_commit <= respond *)
}

let create cfg =
  if cfg.mode = Seq_mode && cfg.n_cores > 1 then
    invalid_arg "Tm.create: Seq_mode is uninstrumented and single-threaded";
  let engine = Engine.create ~n_cores:cfg.n_cores () in
  let mem = Memsys.create cfg.params engine in
  if cfg.abort_on_tlb_miss then Tlb.set_abort_on_tlb_miss (Memsys.tlb mem) true;
  let galloc = Alloc.create () in
  let serial_lock = Alloc.alloc_lines galloc 1 in
  Memsys.poke mem serial_lock 0;
  Memsys.poke mem (serial_lock + 1) 0;
  let variant =
    match cfg.mode with
    | Asf_mode v | Phased_mode v -> Some v
    | Stm_mode | Seq_mode -> None
  in
  let asf =
    Option.map
      (Asf.create mem ~requester_wins:cfg.requester_wins
         ~resolve_conflicts:cfg.resolve_conflicts
         ~rollback_on_abort:cfg.rollback_on_abort)
      variant
  in
  let stm =
    match cfg.mode with
    | Stm_mode | Phased_mode _ ->
        Some (Stm.create ~strategy:cfg.stm_strategy mem galloc)
    | Asf_mode _ | Seq_mode -> None
  in
  let phase =
    match cfg.mode with
    | Phased_mode _ ->
        Some
          {
            current_phase = `Hw;
            transitioning = false;
            active_stm = 0;
            sw_txns_left = 0;
            to_sw_switches = 0;
            to_hw_switches = 0;
          }
    | Asf_mode _ | Stm_mode | Seq_mode -> None
  in
  let tracer = Memsys.tracer mem in
  Trace.run_start tracer;
  (* An installed checker spans runs the way the installed tracer does:
     each new system attaches (finalizing the previous run's oracle). *)
  (match Check.installed () with
  | Some chk -> Check.attach chk ?asf ?stm ?variant mem
  | None -> ());
  {
    cfg;
    engine;
    mem;
    galloc;
    asf;
    stm;
    serial_lock;
    phase_word = serial_lock + 1;
    phase;
    tracer;
    faults = Faults.installed ();
    progress = { total_commits = 0; last_commit_cycle = 0; forced_serial = 0 };
    ctxs = [];
  }

let engine t = t.engine

let memsys t = t.mem

let config t = t.cfg

let asf t = t.asf

let stm t = t.stm

(* Core [i]'s PRNG is the [i+1]-th split of one root generator seeded from
   [cfg.seed]: each stream's initial state passes through the SplitMix64
   finalizer, so the streams are pairwise decorrelated. Deriving them
   arithmetically ([seed + f(core)]) leaves nearby cores' sequences
   correlated, which can synchronise their backoff draws and turn one
   conflict into a convoy. *)
let core_prng cfg ~core =
  let root = Prng.create cfg.seed in
  for _ = 1 to core do
    ignore (Prng.split root)
  done;
  Prng.split root

let make_ctx sys ~core =
  let ctx =
    {
      sys;
      core;
      prng = core_prng sys.cfg ~core;
      stats = Stats.create ();
      tx = (match sys.stm with Some s -> Some (Stm.make_tx s ~core) | None -> None);
      pool = Txmalloc.create sys.galloc;
      depth = 0;
      path = Direct;
      pending_fault = None;
      consec_aborts = 0;
      pending_cycles = 0;
      deadline = max_int;
      jitter_prev = 16;
      dl_wait = 0;
      force_serial = false;
      last_commit = -1;
    }
  in
  sys.ctxs <- ctx :: sys.ctxs;
  ctx

let core ctx = ctx.core

let system ctx = ctx.sys

let prng ctx = ctx.prng

let stats ctx = ctx.stats

let[@inline] now ctx = Engine.core_time ctx.sys.engine ctx.core

let emit ctx payload = Trace.emit ctx.sys.tracer ~core:ctx.core ~cycle:(now ctx) payload

(* Brackets are written by hand, with no finaliser closure: the
   exceptions that cross them (ASF and STM aborts, deadlines, the
   watchdog's diagnosis) are control flow, so a plain re-raise is
   enough. *)
let[@inline] exit_cat ctx = Stats.exit_ ctx.stats ~now:(now ctx)

let with_cat ctx cat f =
  Stats.enter ctx.stats ~now:(now ctx) cat;
  match f () with
  | r ->
      exit_cat ctx;
      r
  | exception e ->
      exit_cat ctx;
      raise e

(* ------------------------------------------------------------------ *)
(* Progress watchdog                                                    *)
(* ------------------------------------------------------------------ *)

let path_name = function
  | Direct -> "direct"
  | Hw -> "hw"
  | Serial -> "serial"
  | Stm_path -> "stm"

let diagnose sys ~cycle =
  let holder =
    (* Untimed peek: the diagnosis must not advance simulated time. *)
    match Memsys.peek sys.mem sys.serial_lock with
    | 0 -> None
    | v -> Some (v - 1)
  in
  let cores =
    List.sort
      (fun a b -> compare a.rep_core b.rep_core)
      (List.rev_map
         (fun c ->
           {
             rep_core = c.core;
             rep_path = path_name c.path;
             rep_commits = Stats.commits c.stats;
             rep_serial_commits = Stats.serial_commits c.stats;
             rep_attempts = Stats.attempts c.stats;
             rep_aborts = Stats.total_aborts c.stats;
             rep_consec_aborts = c.consec_aborts;
           })
         sys.ctxs)
  in
  {
    diag_cycle = cycle;
    diag_window = sys.cfg.watchdog_window;
    diag_commits = sys.progress.total_commits;
    diag_last_commit_cycle = sys.progress.last_commit_cycle;
    diag_serial_holder = holder;
    diag_cores = cores;
  }

let pp_diagnosis ppf d =
  Format.fprintf ppf
    "@[<v>livelock: no transaction committed for %d cycles (window %d)@,\
     cycle %d; last commit at cycle %d; %d commits system-wide@,\
     serial lock: %s@,"
    (d.diag_cycle - d.diag_last_commit_cycle)
    d.diag_window d.diag_cycle d.diag_last_commit_cycle d.diag_commits
    (match d.diag_serial_holder with
    | Some c -> Printf.sprintf "held by core %d" c
    | None -> "free");
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  core %d: path=%s commits=%d (serial %d) attempts=%d aborts=%d \
         consecutive-aborts=%d@,"
        r.rep_core r.rep_path r.rep_commits r.rep_serial_commits r.rep_attempts
        r.rep_aborts r.rep_consec_aborts)
    d.diag_cores;
  Format.fprintf ppf "@]"

(* Every unbounded wait in the runtime polls this: when no transaction in
   the whole system has committed for [watchdog_window] cycles, the run is
   not making progress — raise a structured diagnosis instead of spinning
   forever. *)
let watchdog_check ctx =
  let sys = ctx.sys in
  let cycle = now ctx in
  if cycle - sys.progress.last_commit_cycle > sys.cfg.watchdog_window then
    raise (Livelock (diagnose sys ~cycle))

let note_commit ctx =
  ctx.consec_aborts <- 0;
  let p = ctx.sys.progress in
  p.total_commits <- p.total_commits + 1;
  let cycle = now ctx in
  ctx.last_commit <- cycle;
  if cycle > p.last_commit_cycle then p.last_commit_cycle <- cycle

let last_commit_cycle ctx = ctx.last_commit

let note_abort ctx = ctx.consec_aborts <- ctx.consec_aborts + 1

(* ------------------------------------------------------------------ *)
(* Request deadlines                                                    *)
(* ------------------------------------------------------------------ *)

(* Deadlines are enforced at *retry points* only: attempt entry, backoff,
   and serial-lock spin polls. A transaction body is never interrupted and
   serial-irrevocable execution always runs to completion once the lock is
   held, so the only post-deadline residue a request can accumulate is the
   bounded tail of the wait it was in when the deadline passed — at most
   one [serial_spin_window] (backoff delays are clamped to the remaining
   budget). *)

let deadline_active ctx = ctx.deadline <> max_int

let check_deadline ctx =
  if deadline_active ctx then begin
    let c = now ctx in
    if c >= ctx.deadline then
      raise
        (Deadline_exceeded { dl_core = ctx.core; dl_deadline = ctx.deadline; dl_now = c })
  end

let note_wait ctx n = if deadline_active ctx then ctx.dl_wait <- ctx.dl_wait + n

let[@inline] the_asf ctx =
  match ctx.sys.asf with Some a -> a | None -> invalid_arg "Tm: no ASF in this mode"

let[@inline] the_tx ctx =
  match ctx.tx with Some tx -> tx | None -> invalid_arg "Tm: no STM in this mode"

(* ------------------------------------------------------------------ *)
(* Attempt bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

(* Every attempt on the ASF, STM and serial paths opens with
   [open_attempt] and closes with [close_commit] or [close_abort]. *)

(* An injected stall of [n] cycles (none when [n = 0]). *)
let stall ctx kind n =
  if n > 0 then begin
    emit ctx (Trace.Fault_inject { kind });
    Engine.elapse n
  end

(* Per-core preemption stall, drawn once per transaction attempt. *)
let inject_preempt ctx =
  let fl = ctx.sys.faults in
  if Faults.enabled fl then stall ctx "preempt-stall" (Faults.preempt_stall fl ~core:ctx.core)

let open_attempt ctx =
  inject_preempt ctx;
  Stats.begin_attempt ctx.stats ~now:(now ctx);
  emit ctx Trace.Tx_begin;
  Txmalloc.attempt_begin ctx.pool

let close_commit ctx ~serial =
  Txmalloc.attempt_commit ctx.pool;
  Stats.commit_attempt ctx.stats ~now:(now ctx) ~serial;
  note_commit ctx;
  emit ctx (Trace.Tx_commit { serial })

let close_abort ctx reason addr =
  Txmalloc.attempt_abort ctx.pool;
  Stats.abort_attempt ctx.stats ~now:(now ctx) reason;
  note_abort ctx;
  emit ctx (Trace.Tx_abort { abort_class = Abort.class_name (Abort.index reason); addr })

(* Abort accounting for a deadline abandonment that interrupts an *open*
   attempt (the deadline passed while waiting for the serial lock): the
   attempt's cycles fold into abort waste under the [Timeout] class, so
   deadline-abandoned work is visible next to the architectural abort
   census. *)
let abandon_attempt ctx e =
  close_abort ctx Abort.Timeout None;
  raise e

(* ------------------------------------------------------------------ *)
(* Transactional and annotated accesses                                 *)
(* ------------------------------------------------------------------ *)

(* [load]/[store] run once per transactional access, so they write the
   category bracket inline instead of allocating [with_cat]'s closure. *)

let[@inline] enter_ld_st ctx = Stats.enter ctx.stats ~now:(now ctx) Stats.cat_ld_st

let[@inline] load ctx addr =
  match ctx.path with
  | Serial | Direct -> Memsys.load ctx.sys.mem ~core:ctx.core addr
  | (Hw | Stm_path) as path -> (
      enter_ld_st ctx;
      match
        (match path with
        | Hw -> Asf.lock_load (the_asf ctx) ~core:ctx.core addr
        | _ -> Stm.load (the_tx ctx) addr)
      with
      | v ->
          exit_cat ctx;
          v
      | exception e ->
          exit_cat ctx;
          raise e)

let[@inline] store ctx addr v =
  let fl = ctx.sys.faults in
  if
    ctx.depth > 0 && Faults.enabled fl
    && Faults.lost_update fl ~core:ctx.core
  then
    (* Lying hardware: the transactional store is silently dropped, so the
       transaction commits without its effect ever reaching memory. Pure
       negative fixture for the linearizability oracle. *)
    emit ctx (Trace.Fault_inject { kind = "lost-update" })
  else
  match ctx.path with
  | Serial | Direct -> Memsys.store ctx.sys.mem ~core:ctx.core addr v
  | (Hw | Stm_path) as path -> (
      enter_ld_st ctx;
      match
        (match path with
        | Hw -> Asf.lock_store (the_asf ctx) ~core:ctx.core addr v
        | _ -> Stm.store (the_tx ctx) addr v)
      with
      | () -> exit_cat ctx
      | exception e ->
          exit_cat ctx;
          raise e)

let nload ctx addr =
  if not ctx.sys.cfg.selective_annotation then load ctx addr
  else
    match ctx.path with
    | Hw -> Asf.plain_load (the_asf ctx) ~core:ctx.core addr
    | Stm_path | Serial | Direct -> Memsys.load ctx.sys.mem ~core:ctx.core addr

let nstore ctx addr v =
  if not ctx.sys.cfg.selective_annotation then store ctx addr v
  else
    match ctx.path with
    | Hw -> Asf.plain_store (the_asf ctx) ~core:ctx.core addr v
    | Stm_path | Serial | Direct -> Memsys.store ctx.sys.mem ~core:ctx.core addr v

let release ctx addr =
  match ctx.path with
  | Hw -> Asf.release (the_asf ctx) ~core:ctx.core addr
  | Stm_path | Serial | Direct -> ()

let work _ctx n = Engine.elapse n

let serial_mode ctx = ctx.path = Serial

(* ------------------------------------------------------------------ *)
(* Memory management                                                    *)
(* ------------------------------------------------------------------ *)

let malloc ctx words =
  Engine.elapse malloc_cycles;
  match ctx.path with
  | Hw -> (
      match Txmalloc.alloc_tx ctx.pool words with
      | Some addr -> addr
      | None -> Asf.self_abort (the_asf ctx) ~core:ctx.core Abort.Malloc)
  | Serial | Direct | Stm_path -> Txmalloc.alloc_direct ctx.pool words

let free ctx addr words =
  Engine.elapse (malloc_cycles / 2);
  match ctx.path with
  | Hw | Stm_path -> Txmalloc.free_tx ctx.pool addr words
  | Serial | Direct -> Txmalloc.free_direct ctx.pool addr words

(* ------------------------------------------------------------------ *)
(* Serial-irrevocable mode                                              *)
(* ------------------------------------------------------------------ *)

(* Spin-wait window before the [attempt]-th re-poll of the serial lock:
   doubles from 64 cycles and saturates at [64 lsl 7 = 8192]. Backing off
   keeps waiters from hammering the lock's cache line (every probe of
   which dooms hardware regions subscribed to it), while the cap bounds
   any waiter's poll interval, so release-to-acquire latency is bounded
   and no waiter can be starved by ever-growing sleeps. *)
let serial_spin_window attempt = 64 lsl min attempt 7

(* Poll [ready] until it holds. Every failed poll is a retry point (the
   watchdog and the deadline are checked) followed by a spin window. *)
let spin_until ctx ready =
  let rec loop attempt =
    if not (ready ()) then begin
      watchdog_check ctx;
      check_deadline ctx;
      let w = serial_spin_window attempt in
      note_wait ctx w;
      Engine.elapse w;
      loop (attempt + 1)
    end
  in
  loop 0

let wait_serial_free ctx =
  spin_until ctx (fun () ->
      Memsys.load ctx.sys.mem ~core:ctx.core ctx.sys.serial_lock = 0)

let acquire_serial ctx =
  spin_until ctx (fun () ->
      Memsys.cas ctx.sys.mem ~core:ctx.core ctx.sys.serial_lock ~expect:0
        ~value:(ctx.core + 1))

let release_serial ctx = Memsys.store ctx.sys.mem ~core:ctx.core ctx.sys.serial_lock 0

let in_body ctx path f =
  ctx.depth <- 1;
  ctx.path <- path;
  match f () with
  | r ->
      ctx.depth <- 0;
      ctx.path <- Direct;
      r
  | exception e ->
      ctx.depth <- 0;
      ctx.path <- Direct;
      raise e

(* Serial-holder fault injection: a stall (or, for the livelock fixture, a
   permanent hang) after the lock is taken, while every other core waits.
   The hang loop polls the holder's own watchdog, so even a
   single-threaded run ends with a diagnosis rather than spinning. *)
let inject_serial_hold ctx =
  let fl = ctx.sys.faults in
  if Faults.enabled fl then begin
    stall ctx "serial-stall" (Faults.serial_stall fl ~core:ctx.core);
    if Faults.serial_hang fl then begin
      emit ctx (Trace.Fault_inject { kind = "serial-hang" });
      let rec hang () =
        watchdog_check ctx;
        Engine.elapse 10_000;
        hang ()
      in
      hang ()
    end
  end

let run_serial ctx f =
  check_deadline ctx;
  open_attempt ctx;
  (try with_cat ctx Stats.cat_start_commit (fun () -> acquire_serial ctx)
   with Deadline_exceeded _ as e -> abandon_attempt ctx e);
  (* Past this point the transaction is irrevocable: it holds the serial
     lock and runs to completion even if the deadline passes mid-body. *)
  emit ctx Trace.Fallback_enter;
  inject_serial_hold ctx;
  let r = in_body ctx Serial (fun () -> with_cat ctx Stats.cat_non_instr f) in
  emit ctx Trace.Fallback_exit;
  with_cat ctx Stats.cat_start_commit (fun () -> release_serial ctx);
  close_commit ctx ~serial:true;
  r

(* ------------------------------------------------------------------ *)
(* ASF execution path                                                   *)
(* ------------------------------------------------------------------ *)

(* Exponential back-off window after [retries] contention aborts: doubles
   from 64 cycles and saturates at [64 lsl 10 = 65536] cycles — the single
   place the maximum window is defined. The delay is sampled from the
   context's per-core PRNG stream; see {!core_prng} for why those streams
   are split off one root generator rather than seeded arithmetically —
   two cores aborting at the same cycle must draw uncorrelated windows or
   they re-collide in lockstep. *)
let backoff_window retries = 64 lsl min retries 10

(* Decorrelated-jitter backoff (deadline-scoped requests only): each draw
   is uniform in [16, 16 + 3 * previous draw), capped at the same 65536
   cycles the exponential ladder saturates at ([backoff_window 10]).
   Successive windows grow geometrically in expectation like the ladder
   but desynchronise faster — aborting requests spread over the whole
   interval instead of clustering at power-of-two boundaries, which
   matters in an open system where a burst delivers many conflicting
   requests in the same few cycles. *)
let decorrelated_window prng ~prev =
  min (backoff_window 10) (16 + Prng.int prng (3 * max 16 prev))

let do_backoff ctx retries =
  watchdog_check ctx;
  check_deadline ctx;
  with_cat ctx Stats.cat_abort_waste (fun () ->
      let delay =
        if deadline_active ctx then begin
          (* Bounded retry under a deadline: decorrelated jitter, clamped
             to the remaining budget so a request never sleeps past the
             cycle at which it would stop retrying anyway. *)
          let w = decorrelated_window ctx.prng ~prev:ctx.jitter_prev in
          ctx.jitter_prev <- w;
          max 1 (min w (ctx.deadline - now ctx))
        end
        else if ctx.sys.cfg.backoff then 16 + Prng.int ctx.prng (backoff_window retries)
        else 16
      in
      emit ctx (Trace.Backoff { cycles = delay });
      note_wait ctx delay;
      Engine.elapse delay)

let service_pending_fault ctx =
  match ctx.pending_fault with
  | Some page ->
      ctx.pending_fault <- None;
      with_cat ctx Stats.cat_abort_waste (fun () ->
          Memsys.service_fault ctx.sys.mem ~page)
  | None -> ()

(* Latency batching: back-to-back ABI/bookkeeping charges accumulate in
   [ctx.pending_cycles] and are folded into the next ASF instruction's
   single [elapse] (its [?extra] argument) instead of each paying its own
   scheduling point. Charges are always taken by the immediately following
   ASF op, so nothing lingers across an abort. *)
let charge ctx n = ctx.pending_cycles <- ctx.pending_cycles + n

let take_charges ctx =
  let n = ctx.pending_cycles in
  ctx.pending_cycles <- 0;
  n

(* Abort code used when a hardware region observes a phase change. *)
let phase_change_code = 42

(* One speculative attempt on the ASF or STM path: open it, run [start],
   the body on [path] and [commit], and close it. Returns the committed
   value, or the abort's reason once the abort is accounted; the retry
   policy is the caller's. A deadline can only pass inside [start], while
   waiting for the serial lock before SPECULATE, so no region is live and
   the attempt is closed as abandoned. *)
let speculative_attempt ctx path ~start ~commit f =
  open_attempt ctx;
  match
    with_cat ctx Stats.cat_start_commit start;
    let r = in_body ctx path (fun () -> with_cat ctx Stats.cat_app f) in
    with_cat ctx Stats.cat_start_commit commit;
    r
  with
  | r ->
      close_commit ctx ~serial:false;
      Ok r
  | exception (Deadline_exceeded _ as e) -> abandon_attempt ctx e
  | exception Asf.Aborted reason ->
      close_abort ctx reason
        (match reason with
        | Abort.Contention | Abort.Capacity ->
            Asf.last_conflict (the_asf ctx) ~core:ctx.core
        | Abort.Page_fault page -> Some (Addr.page_base page)
        | _ -> None);
      Error reason
  | exception Stm.Stm_abort { orec } ->
      close_abort ctx Abort.Contention
        (Option.map (fun o -> Addr.line_base (Addr.line_of o)) orec);
      Error Abort.Contention

let rec asf_attempt ctx f retries =
  check_deadline ctx;
  service_pending_fault ctx;
  (* Graceful degradation, stage 1: a transaction that keeps aborting
     without consuming retry budget (page-fault retries are free) is
     forced onto the serial path, which cannot abort. Stage 2 — when even
     serial execution makes no progress — is the {!Livelock} diagnosis
     from {!watchdog_check}. *)
  let forced =
    retries <= max_retries && ctx.consec_aborts >= ctx.sys.cfg.watchdog_abort_limit
  in
  if forced then begin
    ctx.sys.progress.forced_serial <- ctx.sys.progress.forced_serial + 1;
    emit ctx (Trace.Fault_inject { kind = "forced-serial" })
  end;
  if forced || ctx.force_serial || retries > max_retries then run_serial ctx f
  else begin
    let a = the_asf ctx in
    match
      speculative_attempt ctx Hw f
        ~start:(fun () ->
          (* Do not even start while a serial transaction holds the lock. *)
          wait_serial_free ctx;
          charge ctx begin_abi_cycles;
          Asf.speculate a ~core:ctx.core ~extra:(take_charges ctx);
          (* Subscribe to the serial lock: its acquisition by any fallback
             transaction dooms this region via requester-wins. The phase
             word shares the line, so one subscription covers both. *)
          if Asf.lock_load a ~core:ctx.core ctx.sys.serial_lock <> 0 then
            Asf.self_abort a ~core:ctx.core Abort.Contention;
          if
            ctx.sys.phase <> None
            && Asf.lock_load a ~core:ctx.core ctx.sys.phase_word <> 0
          then Asf.self_abort a ~core:ctx.core (Abort.Explicit phase_change_code))
        ~commit:(fun () ->
          charge ctx commit_abi_cycles;
          Asf.commit a ~core:ctx.core ~extra:(take_charges ctx))
    with
    | Ok r -> r
    | Error (Abort.Page_fault page) ->
        (* Service the fault and retry: the access will then succeed (no
           retry-budget charge; the fault is not contention). *)
        ctx.pending_fault <- Some page;
        asf_attempt ctx f retries
    | Error Abort.Capacity when ctx.sys.phase <> None ->
        (* PhasedTM fallback: a capacity overflow moves the whole system
           into the software phase instead of serialising. *)
        switch_to_sw ctx;
        phased_dispatch ctx f
    | Error (Abort.Explicit c) when c = phase_change_code -> phased_dispatch ctx f
    | Error (Abort.Capacity | Abort.Malloc | Abort.Syscall | Abort.Disallowed) ->
        (* The paper's policy: capacity overflows (and transactions the
           hardware cannot run) restart directly in serial mode. *)
        run_serial ctx f
    | Error Abort.Timeout ->
        (* Never delivered by the hardware model; the class exists for
           the runtime's own deadline accounting. *)
        assert false
    | Error
        ( Abort.Contention | Abort.Interrupt | Abort.Tlb_miss | Abort.Spurious
        | Abort.Explicit _ ) ->
        do_backoff ctx retries;
        asf_attempt ctx f (retries + 1)
  end

and phase_of ctx =
  match ctx.sys.phase with Some p -> p | None -> assert false

and switch_to_sw ctx =
  let ps = phase_of ctx in
  if ps.current_phase = `Hw then
    with_cat ctx Stats.cat_start_commit (fun () ->
        acquire_serial ctx;
        (* Re-check under the lock: another thread may have switched. *)
        if ps.current_phase = `Hw then begin
          Memsys.store ctx.sys.mem ~core:ctx.core ctx.sys.phase_word 1;
          ps.current_phase <- `Sw;
          ps.sw_txns_left <- ctx.sys.cfg.phase_quantum;
          ps.to_sw_switches <- ps.to_sw_switches + 1
        end;
        release_serial ctx)

and switch_to_hw ctx =
  (* Called by the thread that exhausted the software quantum: block new
     software transactions, drain the in-flight ones, flip the phase. *)
  let ps = phase_of ctx in
  ps.transitioning <- true;
  with_cat ctx Stats.cat_start_commit (fun () ->
      let rec drain () =
        if ps.active_stm > 0 then begin
          watchdog_check ctx;
          Engine.elapse 200;
          drain ()
        end
      in
      drain ();
      Memsys.store ctx.sys.mem ~core:ctx.core ctx.sys.phase_word 0;
      ps.current_phase <- `Hw;
      ps.to_hw_switches <- ps.to_hw_switches + 1;
      ps.transitioning <- false)

and stm_phased ctx f =
  let ps = phase_of ctx in
  if ps.transitioning then begin
    watchdog_check ctx;
    check_deadline ctx;
    Engine.elapse 200;
    stm_phased ctx f
  end
  else if ps.current_phase <> `Sw then phased_dispatch ctx f
  else begin
    (* No [elapse] between the checks above and this increment, so entry
       is atomic with respect to the drain in {!switch_to_hw}. *)
    ps.active_stm <- ps.active_stm + 1;
    match stm_attempt ctx f 0 with
    | exception e ->
        ps.active_stm <- ps.active_stm - 1;
        raise e
    | r ->
        ps.active_stm <- ps.active_stm - 1;
        ps.sw_txns_left <- ps.sw_txns_left - 1;
        if ps.sw_txns_left <= 0 && (not ps.transitioning) && ps.current_phase = `Sw then
          switch_to_hw ctx;
        r
  end

and phased_dispatch ctx f =
  if (phase_of ctx).current_phase = `Hw then asf_attempt ctx f 0 else stm_phased ctx f

(* ------------------------------------------------------------------ *)
(* STM execution path                                                   *)
(* ------------------------------------------------------------------ *)

and stm_attempt ctx f retries =
  check_deadline ctx;
  let tx = the_tx ctx in
  match
    speculative_attempt ctx Stm_path f
      ~start:(fun () -> Stm.start tx)
      ~commit:(fun () -> Stm.commit tx)
  with
  | Ok r -> r
  | Error _ ->
      do_backoff ctx retries;
      stm_attempt ctx f (retries + 1)

(* ------------------------------------------------------------------ *)
(* atomic                                                               *)
(* ------------------------------------------------------------------ *)

let atomic ctx f =
  if ctx.depth > 0 then f () (* flat nesting at the language level *)
  else begin
    (* Housekeeping outside any region: keep the speculative allocation
       pool topped up (chunk refills are unsafe inside transactions). *)
    if Txmalloc.refill ctx.pool then Engine.elapse 200;
    match ctx.sys.cfg.mode with
    | Seq_mode ->
        (* Uninstrumented baseline; still counted as a committed
           transaction so commit totals are comparable across modes. It
           draws no preempt fault and its pool lists stay empty, so it
           opens without [open_attempt]. *)
        Stats.begin_attempt ctx.stats ~now:(now ctx);
        emit ctx Trace.Tx_begin;
        let r = in_body ctx Direct f in
        close_commit ctx ~serial:false;
        r
    | Stm_mode -> stm_attempt ctx f 0
    | Asf_mode _ -> asf_attempt ctx f 0
    | Phased_mode _ -> phased_dispatch ctx f
  end

let atomic_until ctx ~deadline f =
  if ctx.depth > 0 then
    invalid_arg "Tm.atomic_until: deadlines apply to top-level transactions only";
  if deadline < 0 then invalid_arg "Tm.atomic_until: negative deadline";
  ctx.deadline <- deadline;
  ctx.jitter_prev <- 16;
  ctx.dl_wait <- 0;
  match
    check_deadline ctx;
    atomic ctx f
  with
  | r ->
      ctx.deadline <- max_int;
      r
  | exception e ->
      ctx.deadline <- max_int;
      raise e

let deadline_wait ctx = ctx.dl_wait

let set_force_serial ctx v = ctx.force_serial <- v

let retry ctx =
  match ctx.path with
  | Hw -> Asf.abort_explicit (the_asf ctx) ~core:ctx.core ~code:1
  | Stm_path -> Stm.abort (the_tx ctx)
  | Serial -> invalid_arg "Tm.retry: serial-irrevocable transactions cannot retry"
  | Direct -> invalid_arg "Tm.retry: outside a transaction"

let irrevocable ctx =
  match ctx.path with
  | Hw -> Asf.self_abort (the_asf ctx) ~core:ctx.core Abort.Syscall
  | Serial -> ()
  | Stm_path ->
      (* TinySTM's benchmarks never need irrevocability; treated as a
         no-op for the STM baseline. *)
      ()
  | Direct -> invalid_arg "Tm.irrevocable: outside a transaction"

(* ------------------------------------------------------------------ *)
(* Setup helpers and thread management                                  *)
(* ------------------------------------------------------------------ *)

let setup_poke sys addr v = Memsys.poke sys.mem addr v

let setup_peek sys addr = Memsys.peek sys.mem addr

let setup_alloc sys words =
  let addr = Alloc.alloc_lines sys.galloc words in
  Tlb.map_range (Memsys.tlb sys.mem) addr (Addr.lines_of_words words * Addr.words_per_line);
  addr

let spawn sys ~core f =
  let ctx = make_ctx sys ~core in
  Engine.spawn sys.engine ~core (fun () ->
      (* Close the cycle accounting when the thread ends, so the category
         totals sum to the thread's exact simulated lifetime. *)
      match f ctx with
      | () -> Stats.finalize ctx.stats ~now:(now ctx)
      | exception e ->
          Stats.finalize ctx.stats ~now:(now ctx);
          raise e);
  ctx

let run sys = Engine.run sys.engine

let makespan sys = Engine.max_time sys.engine

let phase_switches sys =
  Option.map (fun ps -> (ps.to_sw_switches, ps.to_hw_switches)) sys.phase

let total_commits sys = sys.progress.total_commits

let forced_serial_count sys = sys.progress.forced_serial
