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

let set_of t key = key land (t.n_sets - 1)

(* Index of the way holding [key], or -1. The allocation-free primitive
   the per-access hot path uses; [mem]/[touch] are wrappers. The scan
   runs from the most-recent way and stops at the first invalid one,
   since no valid way follows it. Written as a while loop over hoisted
   fields: a local [let rec] would close over [base]/[key] and cost a
   closure allocation per probe — the dominant allocation of the whole
   access path, since each access probes up to six caches.
   [unsafe_get] is bounded by [set_of]'s mask and the fixed
   associativity. *)
let find_way_idx t key =
  let tags = t.tags in
  let i = ref (set_of t key * t.assoc) in
  let stop = !i + t.assoc in
  while
    !i < stop
    &&
    let tag = Array.unsafe_get tags !i in
    tag <> key && tag <> -1
  do
    incr i
  done;
  if !i < stop && Array.unsafe_get tags !i = key then !i else -1

let mem t key = find_way_idx t key >= 0

(* Move the ways in front of the hit way [idx] (or, on a miss, the whole
   set) back by one and put [key] at the front. The shift carries each
   way into the next slot and stops once it has carried an invalid way
   into place: a miss in a set with room evicts nothing. *)
let touch_evict_at t key idx =
  let tags = t.tags in
  let i = ref (set_of t key * t.assoc) in
  let stop = if idx >= 0 then idx + 1 else !i + t.assoc in
  let carry = ref key in
  while !i < stop && !carry <> -1 do
    let tag = Array.unsafe_get tags !i in
    Array.unsafe_set tags !i !carry;
    carry := tag;
    incr i
  done;
  if idx >= 0 then -1 else !carry

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
