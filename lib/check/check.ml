module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Ram = Asf_mem.Ram
module Inttab = Asf_mem.Inttab
module Memsys = Asf_cache.Memsys
module Abort = Asf_core.Abort
module Asf = Asf_core.Asf
module Variant = Asf_core.Variant
module Stm = Asf_stm.Tinystm
module Trace = Asf_trace.Trace

type part = Isolation | Serial | Lint

let part_name = function
  | Isolation -> "isolation"
  | Serial -> "serial"
  | Lint -> "lint"

let all_parts = [ Isolation; Serial; Lint ]

let parts_of_names names =
  let names = List.filter (fun s -> s <> "") names in
  if names = [] then all_parts
  else
    List.concat_map
      (fun s ->
        match String.lowercase_ascii s with
        | "isolation" | "iso" -> [ Isolation ]
        | "serial" -> [ Serial ]
        | "lint" -> [ Lint ]
        | "all" -> all_parts
        | other -> invalid_arg ("Check.parts_of_names: unknown part " ^ other))
      names

type severity = Violation | Advisory

type finding = {
  part : part;
  severity : severity;
  kind : string;
  line : int option;
  cores : int list;
  cycle : int;
  mutable count : int;
  detail : string;
  trail : string list;
}

type attempt_profile = {
  p_run : int;
  p_core : int;
  p_attempt : int;
  p_footprint : int;
  p_written : int;
  p_committed : bool;
  p_capacity_abort : bool;
}

(* {1 Flat tables}

   Every per-access structure is a flat array of ints or an [Inttab],
   so an observed access hashes no key through [Hashtbl] and allocates
   only when it meets a new line or outgrows a table. *)

(* A growable int array: [a.(0 .. n - 1)] are its elements. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = [||]; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (max 8 (2 * v.n)) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

(* The value bound to [key] in an int table of non-negative values, or
   -1. *)
let lookup tab key =
  let i = Inttab.find tab key in
  if i < 0 then -1 else Inttab.value tab i

(* What the checker knows about one line over a run. *)
type line_rec = {
  line : int;
  mutable flags : int;  (* 1 tx-read, 2 tx-written, 4 plain-written, 8 released *)
  mutable cores : int;
      (* bitmask of cores that touched the line at all; cores >= 62 share
         bit 62 so the shift stays in range on big topologies (the mask
         only ever feeds popcount-based distinct-core heuristics) *)
  mutable seen : int;  (* accesses pushed onto [ring] *)
  ring : int array;
      (* the newest [history_depth] accesses; access [i] sits at slot
         [i mod history_depth] as its cycle, then
         [core lsl 2 lor write lsl 1 lor speculative] *)
  mutable writer : int;  (* oracle sweep: last committed writer, or -1 *)
  mutable readers : int;  (* oracle sweep: chain of readers since, or -1 *)
}

let history_depth = 8

let no_line =
  { line = -1; flags = 0; cores = 0; seen = 0; ring = [||]; writer = -1; readers = -1 }

(* A core's attempt in flight. Op [k] is one line the attempt touched,
   in first-access order: [op_read.a.(k)] and [op_write.a.(k)] are the
   sequence numbers of its first read and first write, or -1. A RELEASEd
   read resets its op to (-1, -1), the state of a line not yet touched.
   [pre_line] lists the speculatively written lines in first-write
   order, [pre] their pre-SPECULATE images, [Addr.words_per_line] words
   each. *)
type attempt = {
  mutable active : bool;
  mutable id : int;  (* per-core attempt number, 1-based *)
  mutable live : int;  (* ops not dropped by RELEASE *)
  mutable peak : int;  (* peak [live], survives RELEASE *)
  op_of : Inttab.t;  (* line index -> op *)
  op_read : vec;
  op_write : vec;
  pre_line : vec;
  pre : vec;
}

let fresh_attempt () =
  {
    active = false;
    id = 0;
    live = 0;
    peak = 0;
    op_of = Inttab.create 16;
    op_read = vec ();
    op_write = vec ();
    pre_line = vec ();
    pre = vec ();
  }

type t = {
  chk_iso : bool;
  chk_serial : bool;
  chk_lint : bool;
  mutable run : int;
  mutable finalized : bool;
  mutable mem : Memsys.t option;
  mutable asf : Asf.t option;
  mutable variant : Variant.t option;
  mutable cur : attempt array;  (* one per core *)
  line_ids : Inttab.t;  (* line -> index into [lines] *)
  mutable lines : line_rec array;  (* this run, in first-access order *)
  mutable n_lines : int;
  (* Every first read and first write of a line by an attempt of this run
     takes the next sequence number [s]: [seq_line.a.(s)] is its line
     index, [seq_op.a.(s)] is 0 until the attempt commits as this run's
     [x]-th, then [(x + 1) lsl 1 lor write]. *)
  seq_op : vec;
  seq_line : vec;
  mutable tx_base : int;  (* T numbers given out in earlier runs *)
  tx_info : vec;  (* committed attempt [x]: core, attempt number, lines at [3x] *)
  mutable profiles : attempt_profile list;  (* all runs, reverse order *)
  mutable found : finding list;  (* reverse first-occurrence order *)
  index : (string * string * int option, finding) Hashtbl.t;
}

let create ?(parts = all_parts) () =
  {
    chk_iso = List.mem Isolation parts;
    chk_serial = List.mem Serial parts;
    chk_lint = List.mem Lint parts;
    run = 0;
    finalized = true;
    mem = None;
    asf = None;
    variant = None;
    cur = [||];
    line_ids = Inttab.create 16;
    lines = [||];
    n_lines = 0;
    seq_op = vec ();
    seq_line = vec ();
    tx_base = 0;
    tx_info = vec ();
    profiles = [];
    found = [];
    index = Hashtbl.create 64;
  }

let parts t =
  List.filter
    (function
      | Isolation -> t.chk_iso | Serial -> t.chk_serial | Lint -> t.chk_lint)
    all_parts

(* Empty the per-run tables, keeping their arrays; the T numbers of the
   finished run stay given out. *)
let new_run t =
  Inttab.clear t.line_ids;
  Array.fill t.lines 0 t.n_lines no_line;
  t.n_lines <- 0;
  t.seq_op.n <- 0;
  t.seq_line.n <- 0;
  t.tx_base <- t.tx_base + (t.tx_info.n / 3);
  t.tx_info.n <- 0

(* Restore the [create] state while keeping the instance and its grown
   tables alive — the pool workers reuse one cached checker per domain
   across cells instead of re-deriving a fresh one per cell. *)
let reset t =
  t.run <- 0;
  t.finalized <- true;
  t.mem <- None;
  t.asf <- None;
  t.variant <- None;
  t.cur <- [||];
  new_run t;
  t.tx_base <- 0;
  t.profiles <- [];
  t.found <- [];
  Hashtbl.reset t.index

(* {1 Findings} *)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* The newest accesses to [line], oldest first. *)
let trail_of t line =
  let id = lookup t.line_ids line in
  if id < 0 then []
  else
    let r = t.lines.(id) in
    let n = min r.seen history_depth in
    List.init n (fun i ->
        let slot = 2 * ((r.seen - n + i) land (history_depth - 1)) in
        let info = r.ring.(slot + 1) in
        Printf.sprintf "cycle %d core %d %s %s line 0x%x" r.ring.(slot) (info lsr 2)
          (if info land 1 = 1 then "spec" else "plain")
          (if info land 2 = 2 then "store" else "load")
          (Addr.line_base line))

(* Findings are deduplicated by (part, kind, line): the first occurrence
   keeps its event trail, repeats only bump [count]. Every violation
   occurrence also lands in the trace stream so [--trace] and [--check]
   tell one story. *)
let report t ~part ~severity ~kind ?line ?(cores = []) ?(trail = []) detail =
  let cycle, tracer =
    match t.mem with
    | None -> (0, None)
    | Some m ->
        let core = match cores with c :: _ -> c | [] -> 0 in
        (Engine.core_time (Memsys.engine m) core, Some (Memsys.tracer m))
  in
  (if severity = Violation then
     match tracer with
     | Some tr ->
         let core = match cores with c :: _ -> c | [] -> 0 in
         Trace.emit tr ~core ~cycle
           (Trace.Check_violation
              { check = kind; line_addr = Option.map Addr.line_base line })
     | None -> ());
  let key = (part_name part, kind, line) in
  match Hashtbl.find_opt t.index key with
  | Some f -> f.count <- f.count + 1
  | None ->
      let trail =
        if trail <> [] then trail
        else match line with Some l -> trail_of t l | None -> []
      in
      let f =
        {
          part;
          severity;
          kind;
          line = Option.map Addr.line_base line;
          cores;
          cycle;
          count = 1;
          detail;
          trail;
        }
      in
      Hashtbl.add t.index key f;
      t.found <- f :: t.found

let findings t = List.rev t.found

let violations t =
  List.filter (fun f -> f.severity = Violation) (findings t)

let advisories t =
  List.filter (fun f -> f.severity = Advisory) (findings t)

let attempt_profiles t = List.rev t.profiles

(* {1 Per-access bookkeeping} *)

(* The index of line [l]'s record in this run, created on first sight. *)
let line_index t l =
  let id = lookup t.line_ids l in
  if id >= 0 then id
  else begin
    let id = t.n_lines in
    if id = Array.length t.lines then begin
      let lines = Array.make (max 64 (2 * id)) no_line in
      Array.blit t.lines 0 lines 0 id;
      t.lines <- lines
    end;
    t.lines.(id) <-
      {
        line = l;
        flags = 0;
        cores = 0;
        seen = 0;
        ring = Array.make (2 * history_depth) 0;
        writer = -1;
        readers = -1;
      };
    t.n_lines <- id + 1;
    Inttab.add t.line_ids l id;
    id
  end

let touch r ~core flag =
  r.flags <- r.flags lor flag;
  r.cores <- r.cores lor (1 lsl min core 62)

let push_history r mem ~core ~write ~speculative =
  let slot = 2 * (r.seen land (history_depth - 1)) in
  r.ring.(slot) <- Engine.core_time (Memsys.engine mem) core;
  r.ring.(slot + 1) <-
    (core lsl 2) lor (if write then 2 else 0) lor if speculative then 1 else 0;
  r.seen <- r.seen + 1

let clear_ops cur =
  Inttab.clear cur.op_of;
  cur.op_read.n <- 0;
  cur.op_write.n <- 0;
  cur.pre_line.n <- 0;
  cur.pre.n <- 0;
  cur.live <- 0

let begin_attempt t core =
  let cur = t.cur.(core) in
  cur.active <- true;
  cur.id <- cur.id + 1;
  clear_ops cur;
  cur.peak <- 0

(* The access hook can observe an attempt the checker was attached into
   the middle of; open a profile for it on first contact. *)
let ensure_attempt t core =
  let cur = t.cur.(core) in
  if not cur.active then begin_attempt t core;
  cur

(* Records an access to line [id] in the attempt's ops. True when it is
   the attempt's first write of the line. *)
let record_op t cur id ~write =
  if not (t.chk_serial || t.chk_lint) then false
  else begin
    let k = lookup cur.op_of id in
    let k =
      if k >= 0 then k
      else begin
        let k = cur.op_read.n in
        push cur.op_read (-1);
        push cur.op_write (-1);
        Inttab.add cur.op_of id k;
        k
      end
    in
    let firsts = if write then cur.op_write else cur.op_read in
    if firsts.a.(k) >= 0 then false
    else begin
      if cur.op_read.a.(k) < 0 && cur.op_write.a.(k) < 0 then begin
        cur.live <- cur.live + 1;
        if cur.live > cur.peak then cur.peak <- cur.live
      end;
      firsts.a.(k) <- t.seq_op.n;
      push t.seq_op 0;
      push t.seq_line id;
      write
    end
  end

let end_attempt t core ~committed ~capacity_abort =
  let cur = t.cur.(core) in
  if cur.active then begin
    cur.active <- false;
    let ops = cur.op_read.n in
    if t.chk_serial && committed && cur.live > 0 then begin
      (* The attempt becomes this run's next committed attempt [x]. *)
      let code = ((t.tx_info.n / 3) + 1) lsl 1 in
      push t.tx_info core;
      push t.tx_info cur.id;
      push t.tx_info cur.live;
      for k = 0 to ops - 1 do
        let r = cur.op_read.a.(k) and w = cur.op_write.a.(k) in
        if r >= 0 then t.seq_op.a.(r) <- code;
        if w >= 0 then t.seq_op.a.(w) <- code lor 1
      done
    end;
    if t.chk_lint then begin
      let written = ref 0 in
      for k = 0 to ops - 1 do
        if cur.op_write.a.(k) >= 0 then incr written
      done;
      t.profiles <-
        {
          p_run = t.run;
          p_core = core;
          p_attempt = cur.id;
          p_footprint = cur.peak;
          p_written = !written;
          p_committed = committed;
          p_capacity_abort = capacity_abort;
        }
        :: t.profiles
    end;
    clear_ops cur
  end

let on_access t a mem ~core ~addr ~write ~speculative =
  let l = Addr.line_of addr in
  let id = line_index t l in
  let r = Array.unsafe_get t.lines id in
  touch r ~core
    (match (speculative, write) with
    | true, true -> 2
    | true, false -> 1
    | false, true -> 4
    | false, false -> 0);
  if t.chk_iso then push_history r mem ~core ~write ~speculative;
  if speculative then begin
    let cur = ensure_attempt t core in
    if record_op t cur id ~write && t.chk_serial then begin
      let ram = Memsys.ram mem and base = Addr.line_base l in
      push cur.pre_line id;
      for w = 0 to Addr.words_per_line - 1 do
        push cur.pre (Ram.read ram (base + w))
      done
    end
  end;
  if t.chk_iso then
    for c = 0 to Array.length t.cur - 1 do
      if c = core then begin
        if (not speculative) && Asf.line_written a ~core:c l then
          report t ~part:Isolation ~severity:Violation ~kind:"colocation"
            ~line:l ~cores:[ core ]
            (Printf.sprintf
               "core %d plain %s on line 0x%x inside its own speculative \
                write set (on LLB hardware the committed copy would be \
                observed, not the speculative one)"
               core
               (if write then "store" else "load")
               (Addr.line_base l))
      end
      else if Asf.line_written a ~core:c l then
        if speculative then
          report t ~part:Isolation ~severity:Violation
            ~kind:"unresolved-conflict" ~line:l ~cores:[ core; c ]
            (Printf.sprintf
               "core %d speculative %s on line 0x%x conflicts with core \
                %d's write set, yet neither region was doomed"
               core
               (if write then "store" else "load")
               (Addr.line_base l) c)
        else
          report t ~part:Isolation ~severity:Violation
            ~kind:"strong-isolation" ~line:l ~cores:[ core; c ]
            (Printf.sprintf
               "core %d plain %s observes core %d's uncommitted \
                speculative store on line 0x%x"
               core
               (if write then "store" else "load")
               c (Addr.line_base l))
      else if write && Asf.line_protected a ~core:c l then
        if speculative then
          report t ~part:Isolation ~severity:Violation
            ~kind:"unresolved-conflict" ~line:l ~cores:[ core; c ]
            (Printf.sprintf
               "core %d speculative store on line 0x%x conflicts with \
                core %d's read set, yet neither region was doomed"
               core (Addr.line_base l) c)
        else
          report t ~part:Isolation ~severity:Violation
            ~kind:"unannotated-race" ~line:l ~cores:[ core; c ]
            (Printf.sprintf
               "core %d plain store races core %d's protected read of \
                line 0x%x without dooming it"
               core c (Addr.line_base l))
    done

(* {1 Lifecycle observers} *)

(* Reports each line the aborted attempt wrote whose memory differs from
   its pre-image, in first-write order. *)
let check_hygiene t mem ~core =
  let cur = t.cur.(core) and ram = Memsys.ram mem and words = Addr.words_per_line in
  for i = 0 to cur.pre_line.n - 1 do
    let l = t.lines.(cur.pre_line.a.(i)).line in
    let rec clean w =
      w = words
      || Ram.read ram (Addr.line_base l + w) = cur.pre.a.((i * words) + w)
         && clean (w + 1)
    in
    if not (clean 0) then
      report t ~part:Serial ~severity:Violation ~kind:"abort-hygiene" ~line:l
        ~cores:[ core ]
        (Printf.sprintf
           "core %d's aborted region left its speculative store on line \
            0x%x: memory differs from the pre-SPECULATE image"
           core (Addr.line_base l))
  done

let on_asf_event t mem ~core ev =
  match ev with
  | Asf.Obs_speculate -> begin_attempt t core
  | Asf.Obs_commit -> end_attempt t core ~committed:true ~capacity_abort:false
  | Asf.Obs_doom reason ->
      if t.chk_serial then check_hygiene t mem ~core;
      end_attempt t core ~committed:false
        ~capacity_abort:(reason = Abort.Capacity)
  | Asf.Obs_release l ->
      let id = line_index t l in
      t.lines.(id).flags <- t.lines.(id).flags lor 8;
      (* The programmer asserted the read need not stay serialized; drop
         it from the oracle's history like the hardware drops the
         protection. Peak footprint keeps the slot it used. An inactive
         attempt has no ops. *)
      let cur = t.cur.(core) in
      let k = lookup cur.op_of id in
      if k >= 0 && cur.op_read.a.(k) >= 0 && cur.op_write.a.(k) < 0 then begin
        cur.op_read.a.(k) <- -1;
        cur.live <- cur.live - 1
      end

let stm_access t ~core addr ~write =
  let id = line_index t (Addr.line_of addr) in
  touch t.lines.(id) ~core (if write then 2 else 1);
  ignore (record_op t (ensure_attempt t core) id ~write)

let on_stm_event t ~core ev =
  match ev with
  | Stm.Ev_start -> begin_attempt t core
  | Stm.Ev_read a -> stm_access t ~core a ~write:false
  | Stm.Ev_write a -> stm_access t ~core a ~write:true
  | Stm.Ev_commit -> end_attempt t core ~committed:true ~capacity_abort:false
  | Stm.Ev_abort _ -> end_attempt t core ~committed:false ~capacity_abort:false

(* {1 The conflict-serializability oracle} *)

let check_serializability t =
  let n = t.tx_info.n / 3 in
  if n > 0 then begin
    let info x i = t.tx_info.a.((3 * x) + i) in
    let label x = Printf.sprintf "T%d(c%d#%d)" (t.tx_base + x + 1) (info x 0) (info x 1) in
    (* Conflict edges in creation order, a pair repeating once per
       conflict; [readers] chains the readers of a line since its last
       write. *)
    let src = vec () and dst = vec () and eline = vec () in
    let rd_tx = vec () and rd_next = vec () in
    let edge u v l =
      if u <> v then begin
        push src u;
        push dst v;
        push eline l
      end
    in
    (* Sweep every committed access once, in observed order: a write
       conflicts with the line's previous writer and every reader since;
       a read conflicts with the previous writer. Edge direction = order
       of first access. *)
    for s = 0 to t.seq_op.n - 1 do
      let op = t.seq_op.a.(s) in
      if op <> 0 then begin
        let x = (op lsr 1) - 1 and r = t.lines.(t.seq_line.a.(s)) in
        if r.writer >= 0 then edge r.writer x r.line;
        if op land 1 = 1 then begin
          let k = ref r.readers in
          while !k >= 0 do
            edge rd_tx.a.(!k) x r.line;
            k := rd_next.a.(!k)
          done;
          r.writer <- x;
          r.readers <- -1
        end
        else begin
          push rd_tx x;
          push rd_next r.readers;
          r.readers <- rd_tx.n - 1
        end
      end
    done;
    (* Kahn's peel, with each attempt's out-edges chained from [out];
       whatever keeps a positive in-degree sits on or behind a cycle. *)
    let m = src.n in
    let indeg = Array.make n 0 and out = Array.make n (-1) and next = Array.make m (-1) in
    for e = 0 to m - 1 do
      indeg.(dst.a.(e)) <- indeg.(dst.a.(e)) + 1;
      next.(e) <- out.(src.a.(e));
      out.(src.a.(e)) <- e
    done;
    let queue = Array.make n 0 and tail = ref 0 in
    let ready v =
      if indeg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    in
    for x = 0 to n - 1 do
      ready x
    done;
    let head = ref 0 in
    while !head < !tail do
      let e = ref out.(queue.(!head)) in
      incr head;
      while !e >= 0 do
        let v = dst.a.(!e) in
        indeg.(v) <- indeg.(v) - 1;
        ready v;
        e := next.(!e)
      done
    done;
    if !tail < n then begin
      (* From the earliest-committed attempt left over, follow each
         attempt's earliest-created in-edge from another leftover until
         an attempt repeats; that closes a concrete cycle to show the
         user. *)
      let pred = Array.make n (-1) in
      for e = m - 1 downto 0 do
        if indeg.(src.a.(e)) > 0 && indeg.(dst.a.(e)) > 0 then pred.(dst.a.(e)) <- e
      done;
      let start = ref 0 in
      while indeg.(!start) = 0 do
        incr start
      done;
      let seen = Array.make n false in
      let rec walk v path =
        if seen.(v) then (v, path)
        else begin
          seen.(v) <- true;
          walk src.a.(pred.(v)) (v :: path)
        end
      in
      let v, path = walk !start [] in
      (* [path] is newest first, and each attempt in it conflicts with the
         one before it, so [v] then [path] up to [v] follows the edges. *)
      let rec upto = function u :: rest when u <> v -> u :: upto rest | _ -> [] in
      let cycle = v :: upto path in
      report t ~part:Serial ~severity:Violation ~kind:"conflict-cycle"
        ~line:eline.a.(pred.(!start))
        ~cores:(List.sort_uniq compare (List.map (fun x -> info x 0) cycle))
        ~trail:
          (List.map
             (fun x -> Printf.sprintf "%s: %d line(s) accessed" (label x) (info x 2))
             cycle)
        (Printf.sprintf "committed attempts are not conflict-serializable: %s -> %s"
           (String.concat " -> " (List.map label cycle))
           (label v))
    end
  end

(* {1 The capacity / annotation lint} *)

let serial_only_finding ~capacity p =
  let need = p.p_footprint + if p.p_capacity_abort then 1 else 0 in
  if need > capacity then
    Some
      {
        part = Lint;
        severity = Advisory;
        kind = "serial-only";
        line = None;
        cores = [ p.p_core ];
        cycle = 0;
        count = 1;
        detail =
          Printf.sprintf
            "core %d attempt %d needs >= %d protected lines; capacity %d \
             forces the serial fallback"
            p.p_core p.p_attempt need capacity;
        trail = [];
      }
  else None

let lint_capacity t ~capacity =
  List.filter_map (serial_only_finding ~capacity) (attempt_profiles t)

let lint_run t =
  (match t.variant with
  | Some v
    when (not v.Variant.l1_read_set)
         && (not v.Variant.l1_write_set)
         && v.Variant.llb_entries < max_int ->
      List.iter
        (fun p ->
          if p.p_run = t.run then
            match serial_only_finding ~capacity:v.Variant.llb_entries p with
            | Some f ->
                report t ~part:Lint ~severity:Advisory ~kind:"serial-only"
                  ~cores:f.cores f.detail
            | None -> ())
        t.profiles
  | _ -> ());
  if t.asf <> None then begin
    (* How many lines pass [keep], and the four lowest of them. *)
    let sample keep =
      let ex = ref [] in
      for id = 0 to t.n_lines - 1 do
        let r = t.lines.(id) in
        if keep r then ex := r.line :: !ex
      done;
      ( List.length !ex,
        String.concat ", "
          (List.filteri (fun i _ -> i < 4) (List.sort compare !ex)
          |> List.map (fun l -> Printf.sprintf "0x%x" (Addr.line_base l))) )
    in
    (* Read-only protected lines: no transactional or plain write anywhere
       in the run, never already released. *)
    let n, ex = sample (fun r -> r.flags land 15 = 1) in
    if n > 0 then
      report t ~part:Lint ~severity:Advisory ~kind:"early-release"
        (Printf.sprintf
           "%d protected line(s) were only ever read — RELEASE candidates \
            (e.g. %s)"
           n ex);
    (* Transactionally-touched lines private to one core. *)
    let n, ex = sample (fun r -> r.flags land 3 <> 0 && popcount r.cores = 1) in
    if n > 0 then
      report t ~part:Lint ~severity:Advisory ~kind:"unannotated-ok"
        (Printf.sprintf
           "%d protected line(s) were touched by a single core — plain \
            accesses would be safe (e.g. %s)"
           n ex)
  end

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    if t.chk_serial then check_serializability t;
    if t.chk_lint then lint_run t
  end

(* {1 Attachment} *)

let attach t ?asf ?stm ?variant mem =
  finalize t;
  t.run <- t.run + 1;
  t.finalized <- false;
  t.mem <- Some mem;
  t.asf <- asf;
  t.variant <- variant;
  t.cur <- Array.init (Engine.n_cores (Memsys.engine mem)) (fun _ -> fresh_attempt ());
  new_run t;
  (match asf with
  | Some a ->
      Memsys.set_access_hook mem
        (Some
           (fun ~core ~addr ~write ~speculative ->
             on_access t a mem ~core ~addr ~write ~speculative));
      Asf.set_observer a (Some (fun ~core ev -> on_asf_event t mem ~core ev))
  | None -> ());
  match stm with
  | Some s -> Stm.set_observer s (Some (fun ~core ev -> on_stm_event t ~core ev))
  | None -> ()

(* {1 Finding export / merge}

   Support for the parallel cell runner: each cell runs under its own
   fresh checker; [export] finalizes it and returns its findings, and
   [absorb] merges exported findings into an aggregating checker in cell
   order. The merge replicates [report]'s dedup-by-(part, kind, line)
   behaviour — first occurrence (in absorption order) keeps its detail
   and trail, repeats only add counts — so absorbing per-cell exports in
   canonical cell order yields the same findings table as one checker
   observing the same cells sequentially.

   [absorb] keys on the finding's stored (already line-base-rebased)
   address, so an aggregator must only ever *absorb* (never observe runs
   directly); the repro driver's top-level checker satisfies this. *)

let export t =
  finalize t;
  findings t

let absorb t fs =
  List.iter
    (fun f ->
      let key = (part_name f.part, f.kind, f.line) in
      match Hashtbl.find_opt t.index key with
      | Some g -> g.count <- g.count + f.count
      | None ->
          let g = { f with count = f.count } in
          Hashtbl.add t.index key g;
          t.found <- g :: t.found)
    fs

(* {1 Global installation} *)

(* Domain-local, like the tracer and the fault injector: pool worker
   domains install their own per-cell checkers and export their findings
   for order-canonical absorption on the main domain. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install t = Domain.DLS.set current (Some t)

let uninstall () = Domain.DLS.set current None

let installed () = Domain.DLS.get current
