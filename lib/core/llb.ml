(* One open-addressing table of ints. [slots.(i)] is 0 when slot [i] is
   empty, otherwise [((line + 1) lsl 1) lor written] for a protected
   cache line (lines are non-negative, so a full slot is never 0);
   [backups.(i)] holds a written line's pre-transactional contents. The
   ASF conflict probe runs [mem]/[written] for every coherence event, so
   lookups are linear probing from a multiplicative hash with no boxing,
   no C call and no allocation. [release] deletes by backward shift, so
   there are no tombstones and a probe chain ends at the first empty
   slot. The table has a power-of-two size and doubles when it is more
   than half full; it starts at [2 * min capacity 32] slots, rounded up
   to a power of two, so an LLB-8 never grows and a larger buffer grows
   only as far as its transactions' footprints. The table keeps that
   size, so [clear] zeroes only the slots [placed] names rather than
   filling the whole table on every commit and doom. *)

type t = {
  capacity : int;
  mutable limit : int option;
  mutable slots : int array;
  mutable backups : int array array;
  (* [Array.length slots - 1] and [63 - log2 (Array.length slots)]. *)
  mutable mask : int;
  mutable shift : int;
  mutable count : int;
  mutable n_written : int;
  (* The slots [place] filled since the table was last cleared or
     allocated, [n_placed] of them: a superset of the occupied slots,
     since a release only moves entries into slots already held. Past
     [Array.length placed] the log has overflowed (lines released and
     taken again) and [clear] fills the whole table. *)
  mutable placed : int array;
  mutable n_placed : int;
}

let no_backup : int array = [||]

let slot_line s = (s lsr 1) - 1

(* Fibonacci hashing: the top bits of [line * 2^63/phi]. *)
let[@inline] home shift line = (line * 0x4F1BBCDCBFA53E0B) lsr shift

(* [size] is a power of two. *)
let alloc t size =
  t.slots <- Array.make size 0;
  t.backups <- Array.make size no_backup;
  t.placed <- Array.make size 0;
  t.n_placed <- 0;
  t.mask <- size - 1;
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  t.shift <- Sys.int_size - log2 size

let create ~capacity =
  if capacity <= 0 then invalid_arg "Llb.create: capacity must be positive";
  let t =
    {
      capacity;
      limit = None;
      slots = [||];
      backups = [||];
      mask = 0;
      shift = 0;
      count = 0;
      n_written = 0;
      placed = [||];
      n_placed = 0;
    }
  in
  let rec pow2 n = if n >= 2 * min capacity 32 then n else pow2 (2 * n) in
  alloc t (pow2 1);
  t

(* The slot holding [line], or -1. Top-level and tail-recursive on its
   arguments, so the probe loop allocates nothing. The home slot is
   compared inline, in every caller; a collision walks the rest of the
   chain out of line. *)
let rec find_rest slots mask key i =
  let s = Array.unsafe_get slots i in
  if s = 0 then -1
  else if s lsr 1 = key then i
  else find_rest slots mask key ((i + 1) land mask)

let[@inline] find slots mask key i =
  let s = Array.unsafe_get slots i in
  if s = 0 then -1
  else if s lsr 1 = key then i
  else find_rest slots mask key ((i + 1) land mask)

let[@inline] index t line = find t.slots t.mask (line + 1) (home t.shift line)

(* The first empty slot of [line]'s probe chain; [line] must be absent. *)
let rec free_slot slots mask i =
  if Array.unsafe_get slots i = 0 then i
  else free_slot slots mask ((i + 1) land mask)

let place t line ~written backup =
  let i = free_slot t.slots t.mask (home t.shift line) in
  t.slots.(i) <- ((line + 1) lsl 1) lor written;
  t.backups.(i) <- backup;
  if t.n_placed < Array.length t.placed then t.placed.(t.n_placed) <- i;
  t.n_placed <- t.n_placed + 1

let grow t =
  let slots = t.slots and backups = t.backups in
  alloc t (2 * Array.length slots);
  for i = 0 to Array.length slots - 1 do
    let s = slots.(i) in
    if s <> 0 then place t (slot_line s) ~written:(s land 1) backups.(i)
  done

let[@inline] insert t line ~written backup =
  if 2 * (t.count + 1) > Array.length t.slots then grow t;
  place t line ~written backup;
  t.count <- t.count + 1;
  t.n_written <- t.n_written + written

(* Backward-shift deletion: walk the chain after the hole at [i] and
   move back every entry whose home slot does not lie cyclically in
   (i, j], so each remaining entry stays reachable from its home. *)
let rec shift_back t i j =
  let j = (j + 1) land t.mask in
  let s = t.slots.(j) in
  if s = 0 then begin
    t.slots.(i) <- 0;
    t.backups.(i) <- no_backup
  end
  else
    let k = home t.shift (slot_line s) in
    let reachable = if i <= j then i < k && k <= j else i < k || k <= j in
    if reachable then shift_back t i j
    else begin
      t.slots.(i) <- s;
      t.backups.(i) <- t.backups.(j);
      shift_back t j j
    end

let capacity t = t.capacity

let set_limit t limit =
  (match limit with
  | Some n when n <= 0 -> invalid_arg "Llb.set_limit: limit must be positive"
  | _ -> ());
  t.limit <- limit

let[@inline] effective_capacity t =
  match t.limit with Some n -> min n t.capacity | None -> t.capacity

let entries t = t.count

let[@inline] mem t line = index t line >= 0

let[@inline] written t line =
  let i = index t line in
  i >= 0 && Array.unsafe_get t.slots i land 1 = 1

type read_outcome = Protected | Written | Full

(* One index lookup, which also answers [written]: a speculative read
   needs both. *)
let[@inline] protect_read t line =
  let i = index t line in
  if i >= 0 then
    if Array.unsafe_get t.slots i land 1 = 1 then Written else Protected
  else if t.count >= effective_capacity t then Full
  else begin
    insert t line ~written:0 no_backup;
    Protected
  end

let protect_write t line ~backup =
  let i = index t line in
  if i >= 0 then begin
    if t.slots.(i) land 1 = 0 then begin
      (* Upgrade in place: entry count unchanged. *)
      t.slots.(i) <- t.slots.(i) lor 1;
      t.backups.(i) <- backup;
      t.n_written <- t.n_written + 1
    end;
    true
  end
  else if t.count >= effective_capacity t then false
  else begin
    insert t line ~written:1 backup;
    true
  end

let release t line =
  let i = index t line in
  if i >= 0 && t.slots.(i) land 1 = 0 then begin
    shift_back t i i;
    t.count <- t.count - 1;
    true
  end
  else false

let read_count t = t.count - t.n_written

let protected_lines t =
  Array.fold_left (fun ls s -> if s = 0 then ls else slot_line s :: ls) [] t.slots
  |> List.sort compare

(* L1 geometry, for the hybrid variants whose read (and, cache-based,
   write) sets live in the data cache rather than the LLB. The mapping
   must agree with [Asf_cache.Cache.create_bytes]/its power-of-two set
   indexing, but is exposed here so capacity analysis needs no cache
   instance. *)

let l1_sets (p : Asf_machine.Params.t) = p.l1_bytes / (p.l1_assoc * p.line_bytes)

let set_index (p : Asf_machine.Params.t) line = line land (l1_sets p - 1)

let iter_written t f =
  if t.n_written > 0 then
    for i = 0 to Array.length t.slots - 1 do
      let s = t.slots.(i) in
      if s land 1 = 1 then f (slot_line s) t.backups.(i)
    done

let written_count t = t.n_written

let clear t =
  if t.count > 0 then begin
    if t.n_placed <= Array.length t.placed then
      for k = 0 to t.n_placed - 1 do
        let i = Array.unsafe_get t.placed k in
        t.slots.(i) <- 0;
        t.backups.(i) <- no_backup
      done
    else begin
      Array.fill t.slots 0 (Array.length t.slots) 0;
      Array.fill t.backups 0 (Array.length t.backups) no_backup
    end;
    t.count <- 0;
    t.n_written <- 0
  end;
  t.n_placed <- 0
