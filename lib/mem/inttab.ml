(* [keys.(i)] is 0 when slot [i] is empty, otherwise the key plus one
   (keys are non-negative, so a full slot is never 0); [vals.(i)] is its
   value. A lookup compares the home slot inline, in every caller, and
   walks the rest of a collision chain out of line. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  (* [Array.length keys - 1] and [63 - log2 (Array.length keys)]. *)
  mutable mask : int;
  mutable shift : int;
  mutable count : int;
}

(* Fibonacci hashing: the top bits of [key * 2^63/phi]. *)
let[@inline] home shift key = (key * 0x4F1BBCDCBFA53E0B) lsr shift

(* Empty arrays of [size] slots, a power of two; [count] is kept. *)
let alloc t size =
  t.keys <- Array.make size 0;
  t.vals <- Array.make size 0;
  t.mask <- size - 1;
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  t.shift <- Sys.int_size - log2 size

let create n =
  let t = { keys = [||]; vals = [||]; mask = 0; shift = 0; count = 0 } in
  let rec pow2 s = if s >= n then s else pow2 (2 * s) in
  alloc t (pow2 2);
  t

let length t = t.count

let rec find_rest keys mask k i =
  let s = Array.unsafe_get keys i in
  if s = 0 then -1 else if s = k then i else find_rest keys mask k ((i + 1) land mask)

(* An empty slot is tested first, so the key -1 (stored as 0) is never
   found. *)
let[@inline] find t key =
  let i = home t.shift key in
  let s = Array.unsafe_get t.keys i in
  if s = 0 then -1
  else if s = key + 1 then i
  else find_rest t.keys t.mask (key + 1) ((i + 1) land t.mask)

let[@inline] mem t key = find t key >= 0

let[@inline] value t i = t.vals.(i)

let[@inline] set_value t i v = t.vals.(i) <- v

(* The slot holding [k] (a key plus one), or the empty slot that ends
   its chain. *)
let rec slot keys mask k i =
  let s = Array.unsafe_get keys i in
  if s = 0 || s = k then i else slot keys mask k ((i + 1) land mask)

(* Writes [key], which is absent, into the empty slot ending its chain. *)
let place t key v =
  let i = slot t.keys t.mask (key + 1) (home t.shift key) in
  t.keys.(i) <- key + 1;
  t.vals.(i) <- v;
  i

let[@inline never] grow t =
  let keys = t.keys and vals = t.vals in
  alloc t (2 * Array.length keys);
  for i = 0 to Array.length keys - 1 do
    let s = keys.(i) in
    if s <> 0 then ignore (place t (s - 1) vals.(i))
  done

let bind t key =
  if key < 0 then invalid_arg "Inttab: negative key";
  let i = slot t.keys t.mask (key + 1) (home t.shift key) in
  if Array.unsafe_get t.keys i <> 0 then i
  else begin
    t.count <- t.count + 1;
    if 4 * t.count <= 3 * Array.length t.keys then begin
      t.keys.(i) <- key + 1;
      t.vals.(i) <- 0;
      i
    end
    else begin
      grow t;
      place t key 0
    end
  end

let add t key v = t.vals.(bind t key) <- v

(* Backward-shift deletion: walk the chain after the hole at [i] and
   move back every entry whose home slot does not lie cyclically in
   (i, j], so each remaining entry stays reachable from its home. *)
let rec shift_back t i j =
  let j = (j + 1) land t.mask in
  let s = t.keys.(j) in
  if s = 0 then t.keys.(i) <- 0
  else
    let k = home t.shift (s - 1) in
    let reachable = if i <= j then i < k && k <= j else i < k || k <= j in
    if reachable then shift_back t i j
    else begin
      t.keys.(i) <- s;
      t.vals.(i) <- t.vals.(j);
      shift_back t j j
    end

let remove_at t i =
  if t.keys.(i) = 0 then invalid_arg "Inttab.remove_at: empty slot";
  t.count <- t.count - 1;
  shift_back t i i

(* A loop rather than [Array.fill], which is a C call: a table is
   cleared once per transaction, and most hold 16 to 64 slots. *)
let clear t =
  if t.count > 0 then begin
    let keys = t.keys in
    for i = 0 to Array.length keys - 1 do
      Array.unsafe_set keys i 0
    done;
    t.count <- 0
  end

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let s = t.keys.(i) in
    if s <> 0 then f (s - 1) t.vals.(i)
  done
