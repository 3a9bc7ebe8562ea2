module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Ram = Asf_mem.Ram
module Memsys = Asf_cache.Memsys
module Tlb = Asf_cache.Tlb
module Sharers = Asf_cache.Sharers
module Trace = Asf_trace.Trace
module Faults = Asf_faults.Faults

exception Aborted of Abort.t

exception Colocation_fault of { core : int; line : int }

(* Cycles charged by SPECULATE, COMMIT, an abort (pipeline flush +
   rollback initiation) and RELEASE. *)
let speculate_cycles = 8
let commit_cycles = 14
let abort_cycles = 40
let release_cycles = 2

let max_nesting = 256

type region = {
  mutable active : bool;
  mutable nesting : int;
  mutable doomed : Abort.t option;
  llb : Llb.t;
  (* Hybrid variants: speculatively-read lines tracked via the L1. *)
  tracked : (int, unit) Hashtbl.t;
  (* The first cycle of the timer quantum after the one the outermost
     SPECULATE ran in: the region is interrupted once its core's clock
     reaches it. *)
  mutable tick_end : int;
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
     ([sig_bit]), a superset of the region's read / written lines. The
     row view holds one word per core. The column view is its exact
     transpose, so a probe can list the cores that may hold a line:
     bit [k] of [rhold.(b * sig_words + w)] is set iff bit [b] of
     [rsig.(w * 62 + k)] is set. Both views change only in [add_sig]
     and [clear_sigs]. *)
  rsig : int array;
  wsig : int array;
  rhold : int array;
  whold : int array;
  sig_words : int;
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

let[@inline] region t core = t.regions.(core)

let set_observer t f = t.observer <- f

let[@inline] notify t ~core ev =
  match t.observer with Some f -> f ~core ev | None -> ()

(* A line's signature bit index, one of 0..61: multiply-shift hashing
   of [line] into 30 bits, then [h * 62 / 2^30] maps those onto 0..61. *)
let[@inline] sig_bit line = (((line * 0x4F1BBCDCBFA53E0B) lsr 33) * 62) lsr 30

(* Set [line]'s bit in [core]'s [row] word and, if it was clear, [core]'s
   bit in the matching [hold] column word. *)
let[@inline] add_sig t row hold core line =
  let b = sig_bit line in
  let word = row.(core) in
  if word land (1 lsl b) = 0 then begin
    row.(core) <- word lor (1 lsl b);
    let i = (b * t.sig_words) + (core / 62) in
    hold.(i) <- hold.(i) lor (1 lsl (core mod 62))
  end

(* Clear [core]'s row word and its bit in each column the word names:
   O(bits set), not O(cores). *)
let clear_row t row hold core =
  let w = core / 62 and keep = lnot (1 lsl (core mod 62)) in
  let m = ref row.(core) in
  while !m <> 0 do
    let i = (Sharers.lowest_bit !m * t.sig_words) + w in
    hold.(i) <- hold.(i) land keep;
    m := !m land (!m - 1)
  done;
  row.(core) <- 0

let[@inline] clear_sigs t core =
  clear_row t t.rsig t.rhold core;
  clear_row t t.wsig t.whold core

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
let[@inline] region_conflicts t r ~line ~write =
  Llb.written r.llb line
  || (write
     && (Llb.mem r.llb line
        || (t.variant.Variant.l1_read_set && Hashtbl.mem r.tracked line)))

(* The probe: visit the cores whose signatures have the line's bit (its
   writers, plus its readers on a write probe), in ascending core order,
   and ask the exact LLB of each live remote region. A signature is a
   superset of its region's lines, so the candidates include every
   region [region_conflicts] accepts. Returns whether one conflicts;
   with [~doom:true] each such region is doomed (requester-wins).

   Each column word is loaded once and its bits visited lowest first, so
   cores keep ascending order and dooms, trace events and observer calls
   keep theirs. A doom clears only the doomed core's own bits, and every
   lower core of the loaded word has already been visited, so working on
   the loaded snapshot skips nobody. Plain loops over locals: a local
   closure would allocate on every access. *)
let[@inline] probe t ~requester ~line ~write ~doom:dooms =
  let n = t.sig_words in
  let col = sig_bit line * n in
  let found = ref false in
  for w = 0 to n - 1 do
    let m =
      ref
        (Array.unsafe_get t.whold (col + w)
        lor if write then Array.unsafe_get t.rhold (col + w) else 0)
    in
    while !m <> 0 do
      let core = (w * 62) + Sharers.lowest_bit !m in
      m := !m land (!m - 1);
      let r = Array.unsafe_get t.regions core in
      if
        core <> requester && r.active && r.doomed = None
        && region_conflicts t r ~line ~write
      then begin
        found := true;
        if dooms then begin
          doom ~line t core Abort.Contention;
          Trace.emit t.tracer ~core
            ~cycle:(Engine.core_time t.engine core)
            (Trace.Probe_rollback { requester; line_addr = Addr.line_base line })
        end
      end
    done
  done;
  !found

let[@inline] resolve t ~requester ~line ~write =
  if t.resolve_conflicts then ignore (probe t ~requester ~line ~write ~doom:true)

let any_remote_conflict t ~requester ~line ~write =
  probe t ~requester ~line ~write ~doom:false

(* Deliver an abort to the calling core: reason from the doomed flag (the
   region is already rolled back), pipeline-flush cost, region reset. *)
let finish_abort t core =
  let r = region t core in
  let reason = match r.doomed with Some x -> x | None -> assert false in
  r.active <- false;
  r.nesting <- 0;
  r.doomed <- None;
  t.aborts.(Abort.index reason) <- t.aborts.(Abort.index reason) + 1;
  Engine.elapse_on t.engine abort_cycles;
  raise (Aborted reason)

let self_abort ?line t ~core reason =
  let r = region t core in
  if not r.active then invalid_arg "Asf.self_abort: no active region";
  doom ?line t core reason;
  finish_abort t core

let emit_inject t core kind =
  Trace.emit t.tracer ~core
    ~cycle:(Engine.core_time t.engine core)
    (Trace.Fault_inject { kind })

let[@inline] check t core =
  let r = region t core in
  if not r.active then invalid_arg "Asf: ASF operation outside a speculative region";
  if r.doomed <> None then finish_abort t core;
  (* Interrupts abort in-flight regions: a region whose lifetime crosses a
     timer-tick boundary is rolled back when it next executes an ASF op. *)
  if Engine.core_time t.engine core >= r.tick_end then begin
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

let create ?(requester_wins = true)
    ?(rollback_on_abort = true) ?(resolve_conflicts = true) mem variant =
  let engine = Memsys.engine mem in
  let n_cores = Engine.n_cores engine in
  let sig_words = (n_cores + 61) / 62 in
  let t =
    {
      mem;
      engine;
      variant;
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
              tick_end = 0;
              last_conflict = None;
            });
      rsig = Array.make n_cores 0;
      wsig = Array.make n_cores 0;
      rhold = Array.make (62 * sig_words) 0;
      whold = Array.make (62 * sig_words) 0;
      sig_words;
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
    if extra > 0 then Engine.elapse_on t.engine extra
  end
  else begin
    r.active <- true;
    r.nesting <- 1;
    r.doomed <- None;
    r.last_conflict <- None;
    r.tick_end <- (Engine.core_time t.engine core / t.quantum + 1) * t.quantum;
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
    Engine.elapse_on t.engine (speculate_cycles + extra)
  end

let commit ?(extra = 0) t ~core =
  check t core;
  let r = region t core in
  if r.nesting > 1 then begin
    r.nesting <- r.nesting - 1;
    if extra > 0 then Engine.elapse_on t.engine extra
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
    Engine.elapse_on t.engine (commit_cycles + extra)
  end

let abort_explicit t ~core ~code = self_abort t ~core (Abort.Explicit code)

let[@inline] track_read t core line =
  let r = region t core in
  if t.variant.Variant.l1_read_set then begin
    if not (Llb.written r.llb line) then begin
      Hashtbl.replace r.tracked line ();
      add_sig t t.rsig t.rhold core line
    end
  end
  else
    match Llb.protect_read r.llb line with
    | Llb.Protected -> add_sig t t.rsig t.rhold core line
    | Llb.Written -> ()
    | Llb.Full -> self_abort ~line t ~core Abort.Capacity

(* Requester-loses ablation: a speculative access that would conflict
   with another region aborts itself before touching memory, leaving the
   holder undisturbed. *)
let loses_check t ~core ~line ~write =
  if (not t.requester_wins) && any_remote_conflict t ~requester:core ~line ~write
  then self_abort ~line t ~core Abort.Contention

(* Protection must be established at issue time, before the access's
   latency is charged: a remote store arriving while this load is in
   flight must observe the conflict. *)
let[@inline] lock_load t ~core addr =
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
    add_sig t t.wsig t.whold core line;
    if t.variant.Variant.l1_read_set then Hashtbl.remove r.tracked line
  end

let[@inline] lock_store t ~core addr v =
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
  Engine.elapse_on t.engine release_cycles

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

let speculates t = t.speculates

let commits t = t.commits

let aborts t = t.aborts
