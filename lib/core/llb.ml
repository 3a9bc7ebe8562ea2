(* [lines] maps each protected cache line to 1 if it is written, else
   0. The ASF conflict probe runs [mem]/[written] on it for every
   coherence event (DESIGN.md, "The int table"). The written lines and
   their pre-transactional contents sit apart, in write order, in
   [wlines] and [backups], so the table holds ints only: a written line
   is never released, so the log has no holes. The table starts at
   [2 * min capacity 32] slots and the log at [min capacity 32], so an
   LLB-8 never grows either and a larger buffer grows them only as far
   as its transactions' footprints. *)

module Inttab = Asf_mem.Inttab

type t = {
  capacity : int;
  mutable limit : int option;
  lines : Inttab.t;
  mutable wlines : int array;
  mutable backups : int array array;
  mutable n_written : int;
}

let no_backup : int array = [||]

let create ~capacity =
  if capacity <= 0 then invalid_arg "Llb.create: capacity must be positive";
  let n = min capacity 32 in
  {
    capacity;
    limit = None;
    lines = Inttab.create (2 * n);
    wlines = Array.make n 0;
    backups = Array.make n no_backup;
    n_written = 0;
  }

let capacity t = t.capacity

let set_limit t limit =
  (match limit with
  | Some n when n <= 0 -> invalid_arg "Llb.set_limit: limit must be positive"
  | _ -> ());
  t.limit <- limit

let[@inline] effective_capacity t =
  match t.limit with Some n -> min n t.capacity | None -> t.capacity

let entries t = Inttab.length t.lines

let[@inline] mem t line = Inttab.mem t.lines line

let[@inline] written t line =
  let i = Inttab.find t.lines line in
  i >= 0 && Inttab.value t.lines i = 1

type read_outcome = Protected | Written | Full

(* One lookup, which also answers [written]: a speculative read needs
   both. *)
let[@inline] protect_read t line =
  let i = Inttab.find t.lines line in
  if i >= 0 then if Inttab.value t.lines i = 1 then Written else Protected
  else if Inttab.length t.lines >= effective_capacity t then Full
  else begin
    Inttab.add t.lines line 0;
    Protected
  end

let log_write t line backup =
  let n = t.n_written in
  if n = Array.length t.wlines then begin
    let wlines = Array.make (2 * n) 0 and backups = Array.make (2 * n) no_backup in
    Array.blit t.wlines 0 wlines 0 n;
    Array.blit t.backups 0 backups 0 n;
    t.wlines <- wlines;
    t.backups <- backups
  end;
  t.wlines.(n) <- line;
  t.backups.(n) <- backup;
  t.n_written <- n + 1

let protect_write t line ~backup =
  let i = Inttab.find t.lines line in
  if i >= 0 then begin
    if Inttab.value t.lines i = 0 then begin
      (* Upgrade in place: entry count unchanged. *)
      Inttab.set_value t.lines i 1;
      log_write t line backup
    end;
    true
  end
  else if Inttab.length t.lines >= effective_capacity t then false
  else begin
    Inttab.add t.lines line 1;
    log_write t line backup;
    true
  end

let release t line =
  let i = Inttab.find t.lines line in
  if i >= 0 && Inttab.value t.lines i = 0 then begin
    Inttab.remove_at t.lines i;
    true
  end
  else false

let read_count t = Inttab.length t.lines - t.n_written

let protected_lines t =
  let ls = ref [] in
  Inttab.iter (fun line _ -> ls := line :: !ls) t.lines;
  List.sort compare !ls

(* L1 geometry, for the hybrid variants whose read (and, cache-based,
   write) sets live in the data cache rather than the LLB. The mapping
   must agree with [Asf_cache.Cache.create_bytes]/its power-of-two set
   indexing, but is exposed here so capacity analysis needs no cache
   instance. *)

let l1_sets (p : Asf_machine.Params.t) = p.l1_bytes / (p.l1_assoc * p.line_bytes)

let set_index (p : Asf_machine.Params.t) line = line land (l1_sets p - 1)

let iter_written t f =
  for k = 0 to t.n_written - 1 do
    f t.wlines.(k) t.backups.(k)
  done

let written_count t = t.n_written

let clear t =
  Inttab.clear t.lines;
  for k = 0 to t.n_written - 1 do
    t.backups.(k) <- no_backup
  done;
  t.n_written <- 0
