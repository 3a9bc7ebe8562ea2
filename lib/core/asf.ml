module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Ram = Asf_mem.Ram
module Memsys = Asf_cache.Memsys
module Tlb = Asf_cache.Tlb
module Trace = Asf_trace.Trace
module Faults = Asf_faults.Faults

exception Aborted of Abort.t

exception Colocation_fault of { core : int; line : int }

type costs = {
  speculate_cycles : int;
  commit_cycles : int;
  abort_cycles : int;
  release_cycles : int;
}

let default_costs =
  { speculate_cycles = 8; commit_cycles = 14; abort_cycles = 40; release_cycles = 2 }

let max_nesting = 256

type region = {
  mutable active : bool;
  mutable nesting : int;
  mutable doomed : Abort.t option;
  llb : Llb.t;
  (* Hybrid variants: speculatively-read lines tracked via the L1. *)
  tracked : (int, unit) Hashtbl.t;
  mutable start_time : int;
  (* The cache line behind the most recent doom, when the hardware knows
     it (conflicting probe, capacity displacement). Survives the abort so
     the runtime can attribute it; cleared at the next outermost
     SPECULATE. *)
  mutable last_conflict : int option;
}

(* Passive lifecycle observer for the checking layer: notified at region
   boundaries and dooms, after the hardware state change has been applied.
   Observers must not elapse simulated time. *)
type observer_event =
  | Obs_speculate
  | Obs_commit
  | Obs_doom of Abort.t
  | Obs_release of int

type t = {
  mem : Memsys.t;
  engine : Engine.t;
  variant : Variant.t;
  costs : costs;
  requester_wins : bool;
  (* Test-only broken-hardware ablations: [rollback_on_abort:false] skips
     the write-back of LLB backups when a region is doomed, violating
     abort semantics; [resolve_conflicts:false] makes coherence probes
     conflict-blind, violating requester-wins isolation. The checking
     layer must detect the resulting stale or unserializable state. *)
  rollback_on_abort : bool;
  resolve_conflicts : bool;
  regions : region array;
  (* Per-core read and write signatures: one bit per protected line
     ([sig_bit]), a superset of the region's read / written lines. *)
  rsig : int array;
  wsig : int array;
  quantum : int;
  tracer : Trace.t;
  faults : Faults.t;
  mutable observer : (core:int -> observer_event -> unit) option;
  mutable speculates : int;
  mutable commits : int;
  aborts : int array;
}

let variant t = t.variant

let memsys t = t.mem

let region t core = t.regions.(core)

let set_observer t f = t.observer <- f

let notify t ~core ev =
  match t.observer with Some f -> f ~core ev | None -> ()

(* A line's signature bit, one of 62: multiply-shift hashing of [line]
   into 30 bits, then [h * 62 / 2^30] maps those onto 0..61. *)
let sig_bit line =
  1 lsl ((((line * 0x4F1BBCDCBFA53E0B) lsr 33) * 62) lsr 30)

let clear_sigs t core =
  t.rsig.(core) <- 0;
  t.wsig.(core) <- 0

(* Roll back a region's speculative stores and clear its protected sets,
   recording the first abort reason. Idempotent; the victim observes the
   doom at its next ASF operation. The rollback writes RAM directly: the
   hardware answers the conflicting probe only after write-back, so the
   requester's access (which reads RAM after this hook) sees pre-
   transactional data. *)
let doom ?line t core reason =
  let r = region t core in
  if r.active && r.doomed = None then begin
    r.doomed <- Some reason;
    r.last_conflict <- line;
    let ram = Memsys.ram t.mem in
    if t.rollback_on_abort then
      Llb.iter_written r.llb (fun line backup -> Ram.write_line ram line backup);
    Llb.clear r.llb;
    Hashtbl.reset r.tracked;
    clear_sigs t core;
    notify t ~core (Obs_doom reason)
  end

(* A write probe conflicts with read and write sets; a read probe
   conflicts with write sets only. *)
let region_conflicts t r ~line ~write =
  Llb.written r.llb line
  || (write
     && (Llb.mem r.llb line
        || (t.variant.Variant.l1_read_set && Hashtbl.mem r.tracked line)))

(* The signature filter: [false] proves that [core]'s region cannot
   conflict with a probe of the line whose bit is [bit]; [true] only
   says it may, and [region_conflicts] decides. *)
let may_conflict t core bit ~write =
  (Array.unsafe_get t.wsig core
  lor if write then Array.unsafe_get t.rsig core else 0)
  land bit
  <> 0

(* Requester-wins: any conflicting probe dooms the region that already
   holds the line. This runs once per memory access over every core, so
   a region is first tested against its signatures (two array loads) and
   the exact LLB lookup runs only on a signature hit. A signature is a
   superset of the region's lines, so the filter skips only regions
   [region_conflicts] would reject, and the ascending core order keeps
   dooms, trace events and observer calls in the same order. Plain
   index loops, not [Array.iteri]: the iteration closure would allocate
   on every access. *)
let resolve t ~requester ~line ~write =
  if t.resolve_conflicts then begin
    let bit = sig_bit line in
    for core = 0 to Array.length t.regions - 1 do
      let r = Array.unsafe_get t.regions core in
      if
        may_conflict t core bit ~write
        && core <> requester && r.active && r.doomed = None
        && region_conflicts t r ~line ~write
      then begin
        doom ~line t core Abort.Contention;
        Trace.emit t.tracer ~core
          ~cycle:(Engine.core_time t.engine core)
          (Trace.Probe_rollback { requester; line_addr = Addr.line_base line })
      end
    done
  end

let any_remote_conflict t ~requester ~line ~write =
  let bit = sig_bit line in
  let found = ref false in
  for core = 0 to Array.length t.regions - 1 do
    let r = Array.unsafe_get t.regions core in
    if
      may_conflict t core bit ~write
      && core <> requester && r.active && r.doomed = None
      && region_conflicts t r ~line ~write
    then found := true
  done;
  !found

(* Deliver an abort to the calling core: reason from the doomed flag (the
   region is already rolled back), pipeline-flush cost, region reset. *)
let finish_abort t core =
  let r = region t core in
  let reason = match r.doomed with Some x -> x | None -> assert false in
  r.active <- false;
  r.nesting <- 0;
  r.doomed <- None;
  t.aborts.(Abort.index reason) <- t.aborts.(Abort.index reason) + 1;
  Engine.elapse t.costs.abort_cycles;
  raise (Aborted reason)

let self_abort ?line t ~core reason =
  let r = region t core in
  if not r.active then invalid_arg "Asf.self_abort: no active region";
  doom ?line t core reason;
  finish_abort t core

(* Interrupts abort in-flight regions: a region whose lifetime crosses a
   timer-tick boundary is rolled back when it next executes an ASF op. *)
let interrupt_pending t core =
  let now = Engine.core_time t.engine core in
  let r = region t core in
  now / t.quantum <> r.start_time / t.quantum

let emit_inject t core kind =
  Trace.emit t.tracer ~core
    ~cycle:(Engine.core_time t.engine core)
    (Trace.Fault_inject { kind })

let check t core =
  let r = region t core in
  if not r.active then invalid_arg "Asf: ASF operation outside a speculative region";
  if r.doomed <> None then finish_abort t core;
  if interrupt_pending t core then begin
    doom t core Abort.Interrupt;
    finish_abort t core
  end;
  (* Fault injection: the spec permits an implementation to abort a region
     spuriously at any time, and a timer interrupt may arrive ahead of the
     quantum boundary. Both are drawn per ASF operation, so injection
     pressure scales with region length — like the real hazards do. *)
  if Faults.enabled t.faults then begin
    if Faults.spurious_abort t.faults ~core then begin
      emit_inject t core "spurious-abort";
      doom t core Abort.Spurious;
      finish_abort t core
    end;
    if Faults.timer_jitter t.faults ~core then begin
      emit_inject t core "timer-jitter";
      doom t core Abort.Interrupt;
      finish_abort t core
    end
  end

let create ?(costs = default_costs) ?(requester_wins = true)
    ?(rollback_on_abort = true) ?(resolve_conflicts = true) mem variant =
  let engine = Memsys.engine mem in
  let n_cores = Engine.n_cores engine in
  let t =
    {
      mem;
      engine;
      variant;
      costs;
      requester_wins;
      rollback_on_abort;
      resolve_conflicts;
      regions =
        Array.init n_cores (fun _ ->
            {
              active = false;
              nesting = 0;
              doomed = None;
              llb = Llb.create ~capacity:variant.Variant.llb_entries;
              tracked = Hashtbl.create 64;
              start_time = 0;
              last_conflict = None;
            });
      rsig = Array.make n_cores 0;
      wsig = Array.make n_cores 0;
      quantum = (Memsys.params mem).Asf_machine.Params.interrupt_quantum;
      tracer = Memsys.tracer mem;
      faults = Faults.installed ();
      observer = None;
      speculates = 0;
      commits = 0;
      aborts = Array.make Abort.n_classes 0;
    }
  in
  Memsys.set_probe_hook mem (fun ~requester ~line ~write ->
      resolve t ~requester ~line ~write);
  (* L1-resident protection: displacement of a tracked read line from the
     L1 is a (possibly transient) capacity overflow — unless the line is
     in the write set and an LLB protects it independently. In the pure
     cache-based variant written lines are also L1-resident, so their
     displacement aborts too. *)
  if variant.Variant.l1_read_set then
    for core = 0 to n_cores - 1 do
      Memsys.set_evict_hook mem ~core (fun line ->
          let r = region t core in
          if r.active && r.doomed = None then begin
            let written = Llb.written r.llb line in
            if
              (Hashtbl.mem r.tracked line && not written)
              || (written && variant.Variant.l1_write_set)
            then begin
              Trace.emit t.tracer ~core
                ~cycle:(Engine.core_time t.engine core)
                (Trace.Cache_evict { level = "L1"; line_addr = Addr.line_base line });
              doom ~line t core Abort.Capacity
            end
          end)
    done;
  Memsys.set_fault_hook mem (fun ~core fault ->
      let r = region t core in
      if r.active then begin
        let reason =
          match fault with
          | Memsys.Unmapped page -> Abort.Page_fault page
          | Memsys.Tlb_miss -> Abort.Tlb_miss
        in
        doom t core reason;
        finish_abort t core
      end);
  t

(* [extra] lets the caller fold its own back-to-back charge (the TM ABI's
   setjmp/descriptor cost) into the operation's single [elapse], so region
   entry and exit each cost one scheduling point instead of two. *)
let speculate ?(extra = 0) t ~core =
  let r = region t core in
  if r.active then begin
    check t core;
    if r.nesting >= max_nesting then self_abort t ~core Abort.Disallowed;
    r.nesting <- r.nesting + 1;
    if extra > 0 then Engine.elapse extra
  end
  else begin
    r.active <- true;
    r.nesting <- 1;
    r.doomed <- None;
    r.last_conflict <- None;
    r.start_time <- Engine.core_time t.engine core;
    (* Transient capacity reduction, drawn once per outermost region: ASF
       only guarantees a minimum protected-line capacity, so a region may
       find fewer entries usable than the nominal LLB size. *)
    if Faults.enabled t.faults then begin
      match Faults.capacity_throttle t.faults ~core with
      | Some lines ->
          emit_inject t core "capacity-throttle";
          Llb.set_limit r.llb (Some lines)
      | None -> Llb.set_limit r.llb None
    end;
    t.speculates <- t.speculates + 1;
    notify t ~core Obs_speculate;
    Engine.elapse (t.costs.speculate_cycles + extra)
  end

let commit ?(extra = 0) t ~core =
  check t core;
  let r = region t core in
  if r.nesting > 1 then begin
    r.nesting <- r.nesting - 1;
    if extra > 0 then Engine.elapse extra
  end
  else begin
    (* Outermost commit: speculative values in RAM become authoritative;
       flash-clear the protected sets. *)
    Llb.clear r.llb;
    Hashtbl.reset r.tracked;
    clear_sigs t core;
    r.active <- false;
    r.nesting <- 0;
    t.commits <- t.commits + 1;
    notify t ~core Obs_commit;
    Engine.elapse (t.costs.commit_cycles + extra)
  end

let abort_explicit t ~core ~code = self_abort t ~core (Abort.Explicit code)

let track_read t core line =
  let r = region t core in
  if not (Llb.written r.llb line) then begin
    if t.variant.Variant.l1_read_set then Hashtbl.replace r.tracked line ()
    else if not (Llb.protect_read r.llb line) then
      self_abort ~line t ~core Abort.Capacity;
    t.rsig.(core) <- t.rsig.(core) lor sig_bit line
  end

(* Requester-loses ablation: a speculative access that would conflict
   with another region aborts itself before touching memory, leaving the
   holder undisturbed. *)
let loses_check t ~core ~line ~write =
  if (not t.requester_wins) && any_remote_conflict t ~requester:core ~line ~write
  then self_abort ~line t ~core Abort.Contention

(* Protection must be established at issue time, before the access's
   latency is charged: a remote store arriving while this load is in
   flight must observe the conflict. *)
let lock_load t ~core addr =
  check t core;
  loses_check t ~core ~line:(Addr.line_of addr) ~write:false;
  track_read t core (Addr.line_of addr);
  Memsys.load t.mem ~core ~speculative:true addr

(* Stores must resolve remote conflicts *before* snapshotting the backup:
   a conflicting victim's rollback restores the line first, so the backup
   captures committed data only. The page-presence precheck keeps fault
   delivery ahead of any victim dooming. *)
let prepare_store t ~core addr =
  check t core;
  let page = Addr.page_of addr in
  if not (Tlb.page_mapped (Memsys.tlb t.mem) page) then begin
    doom t core (Abort.Page_fault page);
    finish_abort t core
  end;
  let line = Addr.line_of addr in
  loses_check t ~core ~line ~write:true;
  resolve t ~requester:core ~line ~write:true;
  let r = region t core in
  if not (Llb.written r.llb line) then begin
    let backup = Ram.read_line (Memsys.ram t.mem) line in
    if not (Llb.protect_write r.llb line ~backup) then
      self_abort ~line t ~core Abort.Capacity;
    t.wsig.(core) <- t.wsig.(core) lor sig_bit line;
    if t.variant.Variant.l1_read_set then Hashtbl.remove r.tracked line
  end

let lock_store t ~core addr v =
  prepare_store t ~core addr;
  Memsys.store t.mem ~core ~speculative:true addr v

let watchr t ~core addr =
  check t core;
  loses_check t ~core ~line:(Addr.line_of addr) ~write:false;
  track_read t core (Addr.line_of addr);
  Memsys.touch_line t.mem ~core ~speculative:true ~write:false addr

let watchw t ~core addr =
  prepare_store t ~core addr;
  Memsys.touch_line t.mem ~core ~speculative:true ~write:true addr

let release t ~core addr =
  check t core;
  let r = region t core in
  let line = Addr.line_of addr in
  if t.variant.Variant.l1_read_set then begin
    if not (Llb.written r.llb line) then Hashtbl.remove r.tracked line
  end
  else ignore (Llb.release r.llb line);
  notify t ~core (Obs_release line);
  Engine.elapse t.costs.release_cycles

let plain_load t ~core addr = Memsys.load t.mem ~core ~speculative:false addr

let plain_store t ~core addr v =
  let r = region t core in
  let line = Addr.line_of addr in
  if r.active && r.doomed = None && Llb.written r.llb line then
    raise (Colocation_fault { core; line });
  Memsys.store t.mem ~core ~speculative:false addr v

let in_region t ~core = (region t core).active

(* Live protected-set membership queries for the checking layer: a doomed
   region's sets were already flash-cleared, so both are [false] there. *)
let line_protected t ~core line =
  let r = region t core in
  r.active && r.doomed = None
  && (Llb.mem r.llb line
     || (t.variant.Variant.l1_read_set && Hashtbl.mem r.tracked line))

let line_written t ~core line =
  let r = region t core in
  r.active && r.doomed = None && Llb.written r.llb line

let last_conflict t ~core =
  Option.map Addr.line_base (region t core).last_conflict

let protected_lines t ~core =
  let r = region t core in
  Llb.entries r.llb + Hashtbl.length r.tracked

let written_lines t ~core = Llb.written_count (region t core).llb

(* Injection entry points: doom passively (the victim observes the abort
   at its next ASF operation, exactly like a remote probe) rather than
   raising here — the injector is not running on the victim core. *)
let inject_abort t ~core reason =
  let r = region t core in
  if r.active && r.doomed = None then begin
    emit_inject t core (Abort.to_string reason);
    doom t core reason
  end

let throttle_capacity t ~core limit = Llb.set_limit (region t core).llb limit

let speculates t = t.speculates

let commits t = t.commits

let aborts t = t.aborts
