(* Exact sharer sets for the coherence directory: [words] ints per line,
   core [c] at bit [c mod 62] of word [c / 62], held in place in the
   directory's shard array from offset [off] on. The empty set is all
   zeroes. *)

type ctx = {
  words : int;
  (* core -> [core / 62] and core -> [1 lsl (core mod 62)]: two loads
     in place of a division on every access. *)
  word : int array;
  bit : int array;
  sock : int array;  (* core -> socket: [core * n_sockets / n_cores] *)
  (* [socket_words.(s * words + w)]: the bits of socket [s]'s cores in
     word [w]. *)
  socket_words : int array;
}

let make_ctx ~n_cores ~n_sockets =
  if n_cores < 1 then invalid_arg "Sharers.make_ctx: n_cores < 1";
  if n_sockets < 1 then invalid_arg "Sharers.make_ctx: n_sockets < 1";
  let words = (n_cores + 61) / 62 in
  let word = Array.init n_cores (fun c -> c / 62) in
  let bit = Array.init n_cores (fun c -> 1 lsl (c mod 62)) in
  let sock = Array.init n_cores (fun c -> c * n_sockets / n_cores) in
  let socket_words = Array.make (n_sockets * words) 0 in
  for c = 0 to n_cores - 1 do
    let i = (sock.(c) * words) + word.(c) in
    socket_words.(i) <- socket_words.(i) lor bit.(c)
  done;
  { words; word; bit; sock; socket_words }

let words ctx = ctx.words

let[@inline] socket ctx core = ctx.sock.(core)

let[@inline] add ctx a off core =
  let i = off + ctx.word.(core) in
  Array.unsafe_set a i (Array.unsafe_get a i lor Array.unsafe_get ctx.bit core)

let[@inline] set_singleton ctx a off core =
  for w = 0 to ctx.words - 1 do
    Array.unsafe_set a (off + w) 0
  done;
  add ctx a off core

let[@inline] others ctx a off ~except =
  let ew = ctx.word.(except) and keep = lnot (Array.unsafe_get ctx.bit except) in
  let found = ref false in
  for w = 0 to ctx.words - 1 do
    let m = Array.unsafe_get a (off + w) in
    if (if w = ew then m land keep else m) <> 0 then found := true
  done;
  !found

let[@inline] crossed ctx a off ~socket =
  let hit = ref false in
  for w = 0 to ctx.words - 1 do
    let outside = lnot (Array.unsafe_get ctx.socket_words ((socket * ctx.words) + w)) in
    if Array.unsafe_get a (off + w) land outside <> 0 then hit := true
  done;
  !hit

(* Trailing-zero count per byte; slot 0 is unused (callers skip zero
   bytes). *)
let ctz8 =
  Array.init 256 (fun b ->
      if b = 0 then 8
      else begin
        let n = ref 0 in
        while b land (1 lsl !n) = 0 do
          incr n
        done;
        !n
      end)

(* Index of the lowest set bit of a non-zero int: skip zero bytes, then
   one [ctz8] lookup. A loop over locals, so it allocates nothing. *)
let lowest_bit m =
  let m = ref m and base = ref 0 in
  while !m land 0xff = 0 do
    m := !m lsr 8;
    base := !base + 8
  done;
  !base + Array.unsafe_get ctz8 (!m land 0xff)

(* Each word's set bits, lowest first: ascending core order. Plain loops
   over locals, so no closure or ref cell is allocated per
   invalidation. *)
let iter_others ctx a off ~except f =
  for w = 0 to ctx.words - 1 do
    let m = ref (Array.unsafe_get a (off + w)) in
    while !m <> 0 do
      let c = (w * 62) + lowest_bit !m in
      m := !m land (!m - 1);
      if c <> except then f c
    done
  done
