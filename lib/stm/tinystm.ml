module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Alloc = Asf_mem.Alloc
module Inttab = Asf_mem.Inttab
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

(* The descriptor keeps its logs in flat int arrays that grow by
   doubling, and its sets in int tables ([Inttab]), all reused by every
   transaction it runs, so a write-through load or store allocates
   nothing and calls no polymorphic hash:
   - [reads]: (orec, observed word) pairs, oldest first;
   - [undo]: write-through (address, old word) pairs, oldest first;
   - [owned]: (orec, word observed before acquisition) pairs in
     acquisition order;
   - [oset]: the owned orecs, for O(1) membership (values unused);
   - write-back only: [wlog], (address, buffered value) pairs in
     first-write order, and [wset], each buffered address's pair.
   The read and undo logs are walked newest first: rollback must undo
   in reverse, and validation's loads are simulated accesses whose
   order is part of the output. So is the order of the owned orecs'
   release stores (see [release_order]) and of the write-back. *)
type tx = {
  stm : t;
  core : int;
  mutable running : bool;
  mutable start_ts : int;
  mutable reads : int array;
  mutable nreads : int;
  mutable undo : int array;
  mutable nundo : int;
  mutable nwrites : int;
  mutable owned : int array;
  mutable nowned : int;
  oset : Inttab.t;
  (* Scratch for [release_order]: one sort key per owned entry. *)
  mutable order : int array;
  (* Write-back only: the buffered stores and the simulated-memory redo
     log the buffering is charged against. *)
  mutable wlog : int array;
  mutable nwlog : int;
  wset : Inttab.t;
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

let[@inline] notify tx ev =
  match tx.stm.observer with Some f -> f ~core:tx.core ev | None -> ()

(* The per-access events, built only when an observer is installed. *)
let[@inline] notify_read tx addr =
  match tx.stm.observer with Some f -> f ~core:tx.core (Ev_read addr) | None -> ()

let[@inline] notify_write tx addr =
  match tx.stm.observer with Some f -> f ~core:tx.core (Ev_write addr) | None -> ()

let make_tx t ~core =
  let wb = t.strategy = Write_back in
  {
    stm = t;
    core;
    running = false;
    start_ts = 0;
    reads = Array.make 128 0;
    nreads = 0;
    undo = Array.make 64 0;
    nundo = 0;
    nwrites = 0;
    owned = Array.make 32 0;
    nowned = 0;
    oset = Inttab.create 32;
    order = Array.make 16 0;
    wlog = Array.make (if wb then 64 else 2) 0;
    nwlog = 0;
    wset = Inttab.create (if wb then 64 else 2);
    log_base = 0;
    log_capacity = 512;
    last_conflict = None;
  }

(* A log's array at twice the size, its contents kept. Out of line: the
   logs reach their working size within a few transactions. *)
let[@inline never] grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] log_read tx orec observed =
  let i = 2 * tx.nreads in
  if i = Array.length tx.reads then tx.reads <- grow tx.reads;
  tx.reads.(i) <- orec;
  tx.reads.(i + 1) <- observed;
  tx.nreads <- tx.nreads + 1

let[@inline] log_undo tx addr old_value =
  let i = 2 * tx.nundo in
  if i = Array.length tx.undo then tx.undo <- grow tx.undo;
  tx.undo.(i) <- addr;
  tx.undo.(i + 1) <- old_value;
  tx.nundo <- tx.nundo + 1

let[@inline] owns tx orec = Inttab.mem tx.oset orec

let acquire tx orec old_word =
  let j = tx.nowned in
  if 2 * (j + 1) > Array.length tx.owned then tx.owned <- grow tx.owned;
  tx.owned.(2 * j) <- orec;
  tx.owned.((2 * j) + 1) <- old_word;
  Inttab.add tx.oset orec 0;
  tx.nowned <- j + 1

(* The bucket count of a [Hashtbl.create 64] after [n] fresh [replace]s:
   64, doubled while the count exceeds twice the buckets. *)
let hashtbl_buckets n =
  let b = ref 64 in
  while n > 2 * !b do
    b := 2 * !b
  done;
  !b

(* Sort the owned entries into [tx.order] in the order [Hashtbl.iter]
   visits a [Hashtbl.create 64] fed the same acquisitions, the order
   commit and rollback have always released them in, so the simulated
   output keeps it: buckets in ascending order of
   [Hashtbl.hash orec land (b - 1)], newest first within a bucket (a
   [replace] prepends to its bucket, and a resize keeps each bucket's
   order). A key is the bucket above the entry's age. Insertion sort
   suffices: no stock workload releases more than 67 orecs at once
   (labyrinth; rb-tree 13). Returns the count; [release_entry] maps a
   key back to its entry. *)
let release_order tx =
  let n = tx.nowned in
  if Array.length tx.order < n then tx.order <- Array.make (Array.length tx.owned / 2) 0;
  let mask = hashtbl_buckets n - 1 in
  let order = tx.order in
  for j = 0 to n - 1 do
    let key = ((Hashtbl.hash tx.owned.(2 * j) land mask) lsl 32) lor (n - 1 - j) in
    let i = ref (j - 1) in
    while !i >= 0 && order.(!i) > key do
      order.(!i + 1) <- order.(!i);
      decr i
    done;
    order.(!i + 1) <- key
  done;
  n

let[@inline] release_entry tx r = tx.nowned - 1 - (tx.order.(r) land 0xFFFF_FFFF)

(* Fibonacci-hash a line index into the orec table. *)
let[@inline] orec_of tx addr =
  let line = Addr.line_of addr in
  tx.stm.orec_base + (line * 0x9E3779B1 lsr 8 land (n_orecs - 1))

let[@inline] locked word = word land 1 = 1

let[@inline] owner word = word lsr 1

let[@inline] version word = word lsr 1

let[@inline] locked_word core = (core lsl 1) lor 1

let version_word v = v lsl 1

let[@inline] engine tx = Memsys.engine tx.stm.mem

let[@inline] mem_load tx a = Memsys.load tx.stm.mem ~core:tx.core a

let[@inline] mem_store tx a v = Memsys.store tx.stm.mem ~core:tx.core a v

let start tx =
  assert (not tx.running);
  tx.running <- true;
  tx.last_conflict <- None;
  tx.nreads <- 0;
  tx.nundo <- 0;
  tx.nwrites <- 0;
  Inttab.clear tx.oset;
  tx.nowned <- 0;
  if tx.stm.strategy = Write_back then begin
    Inttab.clear tx.wset;
    tx.nwlog <- 0;
    if tx.log_base = 0 then
      tx.log_base <- Alloc.alloc tx.stm.alloc ~align:Addr.words_per_line tx.log_capacity
  end;
  tx.stm.starts <- tx.stm.starts + 1;
  notify tx Ev_start;
  tx.start_ts <- mem_load tx tx.stm.clock_addr;
  Engine.elapse_on (engine tx) start_cycles

(* Undo writes in reverse order, release owned orecs at their pre-
   acquisition version, and deliver the abort. Write-through means the
   undo log replays through memory, costing real stores. [conflict] is
   the orec behind the abort, when known. *)
let rollback ?conflict tx =
  for i = tx.nundo - 1 downto 0 do
    mem_store tx tx.undo.(2 * i) tx.undo.((2 * i) + 1)
  done;
  for r = 0 to release_order tx - 1 do
    let j = release_entry tx r in
    mem_store tx tx.owned.(2 * j) tx.owned.((2 * j) + 1)
  done;
  tx.running <- false;
  tx.last_conflict <- conflict;
  tx.stm.aborts <- tx.stm.aborts + 1;
  notify tx (Ev_abort conflict);
  (let tr = Memsys.tracer tx.stm.mem in
   Trace.emit tr ~core:tx.core
     ~cycle:(Engine.core_time (engine tx) tx.core)
     (Trace.Stm_rollback { reads = tx.nreads; writes = tx.nwrites }));
  Engine.elapse_on (engine tx) abort_cycles

let abort_on ?conflict tx =
  rollback ?conflict tx;
  raise (Stm_abort { orec = conflict })

let abort tx = abort_on tx

(* Check that every logged read from entry [i] down, newest first, is
   still at its observed version (or is an orec this transaction now
   owns); returns the first stale orec, or -1. *)
let rec validate_from tx i =
  if i < 0 then -1
  else begin
    let orec = tx.reads.(2 * i) in
    let cur = mem_load tx orec in
    if cur = tx.reads.((2 * i) + 1) || (locked cur && owner cur = tx.core && owns tx orec)
    then validate_from tx (i - 1)
    else orec
  end

let validate tx = validate_from tx (tx.nreads - 1)

(* Timestamp extension: the snapshot is stale but may still be consistent;
   revalidate the read set and move the snapshot forward. *)
let extend tx =
  let now = mem_load tx tx.stm.clock_addr in
  let stale = validate tx in
  if stale < 0 then begin
    tx.stm.extensions <- tx.stm.extensions + 1;
    tx.start_ts <- now
  end
  else abort_on ~conflict:stale tx

(* [load]'s orec / data / orec read, retried while the orec moves under
   it. Top-level, so [load] builds no closure. *)
let rec load_attempt tx addr orec tries =
  if tries = 0 then abort_on ~conflict:orec tx
  else begin
    let o1 = mem_load tx orec in
    if locked o1 then
      if owner o1 = tx.core && owns tx orec then begin
        notify_read tx addr;
        let i =
          if tx.stm.strategy = Write_back then Inttab.find tx.wset addr else -1
        in
        if i >= 0 then begin
          (* Write-back: the buffered value shadows memory. *)
          Engine.elapse_on (engine tx) 4;
          tx.wlog.((2 * Inttab.value tx.wset i) + 1)
        end
        else mem_load tx addr
      end
      else abort_on ~conflict:orec tx (* suicide contention management *)
    else begin
      let v = mem_load tx addr in
      let o2 = mem_load tx orec in
      if o1 <> o2 then load_attempt tx addr orec (tries - 1)
      else begin
        if version o1 > tx.start_ts then extend tx;
        log_read tx orec o1;
        notify_read tx addr;
        v
      end
    end
  end

let load tx addr =
  assert tx.running;
  Engine.elapse_on (engine tx) load_cycles;
  load_attempt tx addr (orec_of tx addr) 64

(* After the orec is owned, effectuate one store according to the
   versioning strategy: write-through logs the old word and writes in
   place; write-back appends to the redo log (a sequential, cache-warm
   region of simulated memory). *)
let effectuate_store tx addr value =
  tx.nwrites <- tx.nwrites + 1;
  notify_write tx addr;
  match tx.stm.strategy with
  | Write_through ->
      log_undo tx addr (mem_load tx addr);
      mem_store tx addr value
  | Write_back ->
      let i = Inttab.find tx.wset addr in
      if i >= 0 then tx.wlog.((2 * Inttab.value tx.wset i) + 1) <- value
      else begin
        let k = tx.nwlog in
        if 2 * (k + 1) > Array.length tx.wlog then tx.wlog <- grow tx.wlog;
        tx.wlog.(2 * k) <- addr;
        tx.wlog.((2 * k) + 1) <- value;
        tx.nwlog <- k + 1;
        Inttab.add tx.wset addr k;
        let slot = (tx.nwrites - 1) land (tx.log_capacity - 1) in
        mem_store tx (tx.log_base + slot) value
      end

let store tx addr value =
  assert tx.running;
  Engine.elapse_on (engine tx) store_cycles;
  let orec = orec_of tx addr in
  if owns tx orec then effectuate_store tx addr value
  else begin
    let o = mem_load tx orec in
    if locked o then abort_on ~conflict:orec tx
    else begin
      if version o > tx.start_ts then extend tx;
      if not (Memsys.cas tx.stm.mem ~core:tx.core orec ~expect:o ~value:(locked_word tx.core))
      then abort_on ~conflict:orec tx
      else begin
        acquire tx orec o;
        effectuate_store tx addr value
      end
    end
  end

let commit tx =
  assert tx.running;
  Engine.elapse_on (engine tx) commit_cycles;
  if tx.nowned = 0 then begin
    (* Read-only: the snapshot was consistent throughout. *)
    tx.running <- false;
    tx.stm.commits <- tx.stm.commits + 1;
    notify tx Ev_commit
  end
  else begin
    let ts = 1 + Memsys.faa tx.stm.mem ~core:tx.core tx.stm.clock_addr 1 in
    let stale = if ts > tx.start_ts + 1 then validate tx else -1 in
    if stale >= 0 then abort_on ~conflict:stale tx
    else begin
      for k = 0 to tx.nwlog - 1 do
        mem_store tx tx.wlog.(2 * k) tx.wlog.((2 * k) + 1)
      done;
      for r = 0 to release_order tx - 1 do
        mem_store tx tx.owned.(2 * release_entry tx r) (version_word ts)
      done;
      tx.running <- false;
      tx.stm.commits <- tx.stm.commits + 1;
      notify tx Ev_commit
    end
  end

let active tx = tx.running

let last_conflict tx = tx.last_conflict

let starts t = t.starts

let commits t = t.commits

let aborts t = t.aborts

let extensions t = t.extensions
