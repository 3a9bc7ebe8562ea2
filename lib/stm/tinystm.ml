module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Alloc = Asf_mem.Alloc
module Memsys = Asf_cache.Memsys
module Trace = Asf_trace.Trace

(* [orec] is the conflicting ownership record when the STM knows it —
   the locked orec a load/store ran into, the CAS that lost a race, or
   the first read-set entry that failed validation. Parity with
   [Asf.last_conflict] so STM aborts trace and check with the same
   detail as hardware aborts. *)
exception Stm_abort of { orec : Asf_mem.Addr.t option }

type strategy = Write_through | Write_back

(* Passive per-transaction observer for the checking layer: logical
   data-access and lifecycle events at address granularity (the internal
   orec/clock/redo-log traffic is not reported). Observers must not
   elapse simulated time. *)
type observer_event =
  | Ev_start
  | Ev_read of Asf_mem.Addr.t
  | Ev_write of Asf_mem.Addr.t
  | Ev_commit
  | Ev_abort of Asf_mem.Addr.t option  (** conflicting orec, when known *)

(* Instruction-overhead estimates for TinySTM's hot paths (beyond the
   memory traffic, which the simulator charges explicitly): the
   descriptor setup per attempt; an inlined stm_load is a few dozen
   instructions (orec hash, lock tests, read-log append); stores add undo
   logging and the CAS shadow work. *)
let start_cycles = 45
let load_cycles = 26
let store_cycles = 30
let commit_cycles = 35
let abort_cycles = 40

(* The orec table holds 2^[orec_bits] words. *)
let orec_bits = 16
let n_orecs = 1 lsl orec_bits

type t = {
  mem : Memsys.t;
  strategy : strategy;
  alloc : Alloc.t;
  orec_base : Addr.t;
  clock_addr : Addr.t;
  mutable starts : int;
  mutable commits : int;
  mutable aborts : int;
  mutable extensions : int;
  mutable observer : (core:int -> observer_event -> unit) option;
}

type read_entry = { orec : Addr.t; observed : int }

type undo_entry = { waddr : Addr.t; old_value : int }

type tx = {
  stm : t;
  core : int;
  mutable running : bool;
  mutable start_ts : int;
  mutable reads : read_entry list;
  mutable nreads : int;
  mutable undo : undo_entry list;
  mutable nwrites : int;
  (* orec address -> word observed before acquisition (even = version). *)
  owned : (Addr.t, int) Hashtbl.t;
  (* Write-back only: buffered values, their program order, and the
     simulated-memory redo log the buffering is charged against. *)
  wlog : (Addr.t, int) Hashtbl.t;
  mutable worder : Addr.t list;
  mutable log_base : Addr.t;
  log_capacity : int;
  (* The conflicting orec behind this descriptor's most recent abort,
     when known. Survives the abort; cleared at the next [start]. *)
  mutable last_conflict : Addr.t option;
}

let create ?(strategy = Write_through) mem alloc =
  let orec_base = Alloc.alloc alloc ~align:Addr.words_per_line n_orecs in
  let clock_addr = Alloc.alloc_lines alloc 1 in
  (* The STM library's data segment is mapped at load time: touching it
     must never page-fault during transactions. *)
  for i = 0 to n_orecs - 1 do
    Memsys.poke mem (orec_base + i) 0
  done;
  Memsys.poke mem clock_addr 0;
  {
    mem;
    strategy;
    alloc;
    orec_base;
    clock_addr;
    starts = 0;
    commits = 0;
    aborts = 0;
    extensions = 0;
    observer = None;
  }

let strategy t = t.strategy

let set_observer t f = t.observer <- f

let notify tx ev =
  match tx.stm.observer with Some f -> f ~core:tx.core ev | None -> ()

let make_tx t ~core =
  {
    stm = t;
    core;
    running = false;
    start_ts = 0;
    reads = [];
    nreads = 0;
    undo = [];
    nwrites = 0;
    owned = Hashtbl.create 64;
    wlog = Hashtbl.create 64;
    worder = [];
    log_base = 0;
    log_capacity = 512;
    last_conflict = None;
  }

(* Fibonacci-hash a line index into the orec table. *)
let orec_of tx addr =
  let line = Addr.line_of addr in
  tx.stm.orec_base + (line * 0x9E3779B1 lsr 8 land (n_orecs - 1))

let locked word = word land 1 = 1

let owner word = word lsr 1

let version word = word lsr 1

let locked_word core = (core lsl 1) lor 1

let version_word v = v lsl 1

let mem_load tx a = Memsys.load tx.stm.mem ~core:tx.core a

let mem_store tx a v = Memsys.store tx.stm.mem ~core:tx.core a v

let start tx =
  assert (not tx.running);
  tx.running <- true;
  tx.last_conflict <- None;
  tx.reads <- [];
  tx.nreads <- 0;
  tx.undo <- [];
  tx.nwrites <- 0;
  Hashtbl.reset tx.owned;
  Hashtbl.reset tx.wlog;
  tx.worder <- [];
  if tx.stm.strategy = Write_back && tx.log_base = 0 then
    tx.log_base <- Alloc.alloc tx.stm.alloc ~align:Addr.words_per_line tx.log_capacity;
  tx.stm.starts <- tx.stm.starts + 1;
  notify tx Ev_start;
  tx.start_ts <- mem_load tx tx.stm.clock_addr;
  Engine.elapse start_cycles

(* Undo writes in reverse order, release owned orecs at their pre-
   acquisition version, and deliver the abort. Write-through means the
   undo log replays through memory, costing real stores. [conflict] is
   the orec behind the abort, when known. *)
let rollback ?conflict tx =
  List.iter (fun { waddr; old_value } -> mem_store tx waddr old_value) tx.undo;
  Hashtbl.iter (fun orec old_word -> mem_store tx orec old_word) tx.owned;
  tx.running <- false;
  tx.last_conflict <- conflict;
  tx.stm.aborts <- tx.stm.aborts + 1;
  notify tx (Ev_abort conflict);
  (let tr = Memsys.tracer tx.stm.mem in
   Trace.emit tr ~core:tx.core
     ~cycle:(Engine.core_time (Memsys.engine tx.stm.mem) tx.core)
     (Trace.Stm_rollback { reads = tx.nreads; writes = tx.nwrites }));
  Engine.elapse abort_cycles

let abort_on ?conflict tx =
  rollback ?conflict tx;
  raise (Stm_abort { orec = conflict })

let abort tx = abort_on tx

(* Check that every logged read is still at its observed version (or is an
   orec this transaction now owns); returns the first stale orec. *)
let validate tx =
  List.find_opt
    (fun { orec; observed } ->
      let cur = mem_load tx orec in
      not
        (cur = observed
        || (locked cur && owner cur = tx.core && Hashtbl.mem tx.owned orec)))
    tx.reads
  |> Option.map (fun { orec; _ } -> orec)

(* Timestamp extension: the snapshot is stale but may still be consistent;
   revalidate the read set and move the snapshot forward. *)
let extend tx =
  let now = mem_load tx tx.stm.clock_addr in
  match validate tx with
  | None ->
      tx.stm.extensions <- tx.stm.extensions + 1;
      tx.start_ts <- now
  | Some stale -> abort_on ~conflict:stale tx

let load tx addr =
  assert tx.running;
  Engine.elapse load_cycles;
  let orec = orec_of tx addr in
  let rec attempt tries =
    if tries = 0 then abort_on ~conflict:orec tx
    else begin
      let o1 = mem_load tx orec in
      if locked o1 then
        if owner o1 = tx.core && Hashtbl.mem tx.owned orec then begin
          notify tx (Ev_read addr);
          match Hashtbl.find_opt tx.wlog addr with
          | Some v ->
              (* Write-back: the buffered value shadows memory. *)
              Engine.elapse 4;
              v
          | None -> mem_load tx addr
        end
        else abort_on ~conflict:orec tx (* suicide contention management *)
      else begin
        let v = mem_load tx addr in
        let o2 = mem_load tx orec in
        if o1 <> o2 then attempt (tries - 1)
        else begin
          if version o1 > tx.start_ts then extend tx;
          tx.reads <- { orec; observed = o1 } :: tx.reads;
          tx.nreads <- tx.nreads + 1;
          notify tx (Ev_read addr);
          v
        end
      end
    end
  in
  attempt 64

(* After the orec is owned, effectuate one store according to the
   versioning strategy: write-through logs the old word and writes in
   place; write-back appends to the redo log (a sequential, cache-warm
   region of simulated memory). *)
let effectuate_store tx addr value =
  tx.nwrites <- tx.nwrites + 1;
  notify tx (Ev_write addr);
  match tx.stm.strategy with
  | Write_through ->
      let old_value = mem_load tx addr in
      tx.undo <- { waddr = addr; old_value } :: tx.undo;
      mem_store tx addr value
  | Write_back ->
      if not (Hashtbl.mem tx.wlog addr) then begin
        tx.worder <- addr :: tx.worder;
        let slot = (tx.nwrites - 1) land (tx.log_capacity - 1) in
        mem_store tx (tx.log_base + slot) value
      end;
      Hashtbl.replace tx.wlog addr value

let store tx addr value =
  assert tx.running;
  Engine.elapse store_cycles;
  let orec = orec_of tx addr in
  if Hashtbl.mem tx.owned orec then effectuate_store tx addr value
  else begin
    let o = mem_load tx orec in
    if locked o then abort_on ~conflict:orec tx
    else begin
      if version o > tx.start_ts then extend tx;
      if not (Memsys.cas tx.stm.mem ~core:tx.core orec ~expect:o ~value:(locked_word tx.core))
      then abort_on ~conflict:orec tx
      else begin
        Hashtbl.replace tx.owned orec o;
        effectuate_store tx addr value
      end
    end
  end

let commit tx =
  assert tx.running;
  Engine.elapse commit_cycles;
  if Hashtbl.length tx.owned = 0 then begin
    (* Read-only: the snapshot was consistent throughout. *)
    tx.running <- false;
    tx.stm.commits <- tx.stm.commits + 1;
    notify tx Ev_commit
  end
  else begin
    let ts = 1 + Memsys.faa tx.stm.mem ~core:tx.core tx.stm.clock_addr 1 in
    let stale = if ts > tx.start_ts + 1 then validate tx else None in
    match stale with
    | Some orec -> abort_on ~conflict:orec tx
    | None ->
        if tx.stm.strategy = Write_back then
          List.iter
            (fun addr -> mem_store tx addr (Hashtbl.find tx.wlog addr))
            (List.rev tx.worder);
        Hashtbl.iter (fun orec _ -> mem_store tx orec (version_word ts)) tx.owned;
        tx.running <- false;
        tx.stm.commits <- tx.stm.commits + 1;
        notify tx Ev_commit
  end

let active tx = tx.running

let last_conflict tx = tx.last_conflict

let starts t = t.starts

let commits t = t.commits

let aborts t = t.aborts

let extensions t = t.extensions
