type t = {
  n_sets : int;
  assoc : int;
  (* tags.(set * assoc + way); -1 = invalid. Each set keeps its valid
     ways most-recently-used first and its invalid ways after them, so
     the LRU way of a full set is its last way. *)
  tags : int array;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~sets ~assoc =
  if not (is_power_of_two sets) then
    invalid_arg "Cache.create: sets must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  { n_sets = sets; assoc; tags = Array.make (sets * assoc) (-1) }

let create_bytes ~size_bytes ~assoc ~line_bytes =
  let sets = size_bytes / (assoc * line_bytes) in
  create ~sets ~assoc

let sets t = t.n_sets

let assoc t = t.assoc

let[@inline] set_of t key = key land (t.n_sets - 1)

(* Index of the way holding [key], or -1. The allocation-free primitive
   the per-access hot path uses; [mem]/[touch] are wrappers. Nearly
   every hit is in the most-recent way (a set's scan averages about one
   way), so that compare is inlined into every caller and the rest of
   the set is scanned out of line, from way 1. The scan stops at the
   first invalid way, since no valid way follows it. Written as a while
   loop over hoisted fields: a local [let rec] would close over
   [base]/[key] and cost a closure allocation per probe. [unsafe_get]
   is bounded by [set_of]'s mask and the fixed associativity. *)
let find_way_rest tags key base stop =
  let i = ref (base + 1) in
  while
    !i < stop
    &&
    let tag = Array.unsafe_get tags !i in
    tag <> key && tag <> -1
  do
    incr i
  done;
  if !i < stop && Array.unsafe_get tags !i = key then !i else -1

let[@inline] find_way_idx t key =
  let tags = t.tags in
  let base = set_of t key * t.assoc in
  let tag = Array.unsafe_get tags base in
  if tag = key then base
  else if tag = -1 then -1
  else find_way_rest tags key base (base + t.assoc)

let mem t key = find_way_idx t key >= 0

(* Move the ways in front of the hit way [idx] (or, on a miss, the whole
   set) back by one and put [key] at the front. The shift carries each
   way into the next slot and stops once it has carried an invalid way
   into place: a miss in a set with room evicts nothing. A hit in the
   most-recent way changes nothing, so it returns before the loop; the
   loop itself runs out of line. *)
let touch_shift tags key base stop =
  let i = ref base in
  let carry = ref key in
  while !i < stop && !carry <> -1 do
    let tag = Array.unsafe_get tags !i in
    Array.unsafe_set tags !i !carry;
    carry := tag;
    incr i
  done;
  !carry

let[@inline] touch_evict_at t key idx =
  let base = set_of t key * t.assoc in
  if idx = base then -1
  else if idx >= 0 then begin
    ignore (touch_shift t.tags key base (idx + 1));
    -1
  end
  else touch_shift t.tags key base (base + t.assoc)

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
    while !j < last && Array.unsafe_get tags (!j + 1) <> -1 do
      Array.unsafe_set tags !j (Array.unsafe_get tags (!j + 1));
      incr j
    done;
    Array.unsafe_set tags !j (-1);
    true
  end
  else false

let iter t f =
  Array.iter (fun tag -> if tag <> -1 then f tag) t.tags

let clear t = Array.fill t.tags 0 (Array.length t.tags) (-1)
