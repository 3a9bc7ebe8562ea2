type t = {
  n_sets : int;
  assoc : int;
  (* Way [i = set * assoc + way] holds its tag as a signed 32-bit entry
     at byte [4 * i]; [-1] = invalid. Each set keeps its valid ways
     most-recently-used first and its invalid ways after them, so the
     LRU way of a full set is its last way. A [Bytes] block holds no
     pointers, so the GC neither fills nor marks it word by word. *)
  tags : Bytes.t;
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Way [i]'s tag, sign-extended once as it is loaded. A scan compares it
   with the key converted once per call by [Nativeint.of_int], using [=]
   at that type, so both sides stay unboxed ([Nativeint.equal] is a
   three-way [compare]). Not [int32]: the compiler re-extends an unboxed
   [int32] at every use, so an [int32] key would be re-extended on every
   way. The unchecked reads stay inside the block: [set_of] masks the
   set and the associativity is fixed. *)
let[@inline] tag tags i = Nativeint.of_int32 (get32 tags (i lsl 2))

let[@inline] set_tag tags i v = set32 tags (i lsl 2) (Nativeint.to_int32 v)

(* Keys lie in [0, key_bound): a stored entry sign-extends back to its
   key, and no key reads as the invalid [-1]. *)
let key_bound = 0x7FFF_FFFF

let invalid_key key =
  invalid_arg (Printf.sprintf "Cache: key %d outside [0, 2^31 - 1)" key)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~sets ~assoc =
  if not (is_power_of_two sets) then
    invalid_arg "Cache.create: sets must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  { n_sets = sets; assoc; tags = Bytes.make (4 * sets * assoc) '\255' }

let create_bytes ~size_bytes ~assoc ~line_bytes =
  let sets = size_bytes / (assoc * line_bytes) in
  create ~sets ~assoc

let sets t = t.n_sets

let[@inline] set_of t key = key land (t.n_sets - 1)

(* Index of the way holding [key], or -1. The allocation-free primitive
   the per-access hot path uses; [mem]/[touch] are wrappers. Nearly
   every hit is in the most-recent way (a set's scan averages about one
   way), so that compare is inlined into every caller and the rest of
   the set is scanned out of line, from way 1. The scan stops at the
   first invalid way, since no valid way follows it. It is a while loop
   over hoisted fields: a local [let rec] would close over [base]/[key]
   and cost a closure allocation per probe. The key crosses the call as
   an int (a [nativeint] argument would be boxed).

   The scan reads two ways per 8-byte load, and the loop only decides
   whether the pair holds the key or an invalid way; the ways themselves
   are then read one at a time, so byte order does not matter.

   The key's bound is checked off the most-recent hit: a stored tag is
   -1 or inside the bound, so a key outside it equals no valid way, and
   [find_way_idx] tests for an invalid way before the key. Such a key
   therefore ends on one of the two miss paths, and each checks it. *)
let find_way_rest tags key base stop =
  if key < 0 || key >= key_bound then invalid_key key
  else begin
    let k = Nativeint.of_int key in
    let i = ref (base + 1) and stop1 = stop - 1 in
    while
      !i < stop1
      &&
      let w = get64 tags (!i lsl 2) in
      let lo = Nativeint.of_int32 (Int64.to_int32 w) in
      let hi = Int64.to_nativeint (Int64.shift_right w 32) in
      lo <> k && lo <> -1n && hi <> k && hi <> -1n
    do
      i := !i + 2
    done;
    let i = !i in
    if i >= stop then -1
    else
      let tg = tag tags i in
      if tg = k then i
      else if tg = -1n || i >= stop1 then -1
      else if tag tags (i + 1) = k then i + 1
      else -1
  end

let[@inline] find_way_idx t key =
  let tags = t.tags in
  let base = set_of t key * t.assoc in
  let tg = tag tags base in
  if tg = -1n then if key < 0 || key >= key_bound then invalid_key key else -1
  else if tg = Nativeint.of_int key then base
  else find_way_rest tags key base (base + t.assoc)

let mem t key = find_way_idx t key >= 0

let[@inline] is_most_recent t key idx = idx = set_of t key * t.assoc

(* Move ways [base, j) back by one, to [base + 1, j + 1), and put [key]
   in way [base]. The move runs from the back, two ways per 8-byte load
   and store, and an odd way left over at [base] moves last. *)
let[@inline] push_front tags key base j =
  let o = ref ((j - 2) lsl 2) and lo = base lsl 2 in
  while !o >= lo do
    set64 tags (!o + 4) (get64 tags !o);
    o := !o - 8
  done;
  if !o > lo - 8 then set_tag tags (base + 1) (tag tags base);
  set_tag tags base (Nativeint.of_int key)

(* A hit in way [idx], behind the most-recent way, moves to the front. *)
let move_to_front tags key base idx = push_front tags key base idx

(* A miss fills the front. A full set pushes its last way out and
   returns its tag; otherwise the ways up to the first invalid one move
   back and nothing is evicted. A fill may come without a lookup, so
   the key is checked here too. *)
let fill tags key base stop =
  if key < 0 || key >= key_bound then invalid_key key
  else begin
    let last = stop - 1 in
    let evicted = tag tags last in
    if evicted <> -1n then begin
      push_front tags key base last;
      Nativeint.to_int evicted
    end
    else begin
      let j = ref base in
      while tag tags !j <> -1n do
        incr j
      done;
      push_front tags key base !j;
      -1
    end
  end

(* A hit in the most-recent way changes nothing, so it returns at once;
   the moves run out of line. *)
let[@inline] touch_evict_at t key idx =
  let base = set_of t key * t.assoc in
  if idx = base then -1
  else if idx >= 0 then begin
    move_to_front t.tags key base idx;
    -1
  end
  else fill t.tags key base (base + t.assoc)

let touch_evict t key = touch_evict_at t key (find_way_idx t key)

let touch t key =
  let i = find_way_idx t key in
  let evicted = touch_evict_at t key i in
  (i >= 0, if evicted = -1 then None else Some evicted)

(* Remove [key] and close the gap, so invalid ways stay at the back. *)
let invalidate t key =
  let i = find_way_idx t key in
  if i >= 0 then begin
    let tags = t.tags in
    let last = (set_of t key * t.assoc) + t.assoc - 1 in
    let j = ref i in
    while !j < last && tag tags (!j + 1) <> -1n do
      set_tag tags !j (tag tags (!j + 1));
      incr j
    done;
    set_tag tags !j (-1n);
    true
  end
  else false
