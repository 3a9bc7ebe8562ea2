(* Packed sharer sets for the coherence directory.

   One immutable OCaml int per directory line, under either of two
   layouts selected per hierarchy at creation time:

   - [Bitmask]: bit [c] set iff core [c] holds a copy. Exact, O(1)
     membership, but capped at 62 cores by the tagged-int width.

   - [Limited]: a limited-pointer directory with coarse-vector overflow
     (Agarwal's Dir_k-CV). Up to [k = 4] exact 9-bit core pointers kept
     sorted ascending; the fifth distinct sharer switches the word to
     coarse mode, a per-socket presence mask. Coarse mode
     over-approximates (every core of a flagged socket is probed), which
     can send spurious invalidations — harmless because invalidating a
     line a cache does not hold is a no-op (see cache.ml), and the
     cross-socket verdict stays exact because socket bits are derived
     from the true sharers' sockets.

   Limited layout (bit 62..0):
     exact mode:  [count:3 @ 36] [p3 p2 p1 p0 : 9 bits each @ 0]
     coarse mode: [flag @ 39] [socket mask : 16 bits @ 0]
   The empty set is 0 in every layout. *)

type kind = Bitmask | Limited

type ctx = {
  kind : kind;
  n_cores : int;
  n_sockets : int;
  sock : int array;  (* core -> socket: [core * n_sockets / n_cores] *)
  socket_masks : int array;  (* Bitmask only: per-socket core-bit mask *)
  socket_lo : int array;  (* Limited only: first core of each socket *)
  socket_hi : int array;  (* Limited only: last core (inclusive) *)
}

type t = int

let k = 4
let ptr_bits = 9
let ptr_mask = (1 lsl ptr_bits) - 1
let ptrs_mask = (1 lsl (k * ptr_bits)) - 1
let count_shift = k * ptr_bits
let coarse_flag = 1 lsl 39
let max_limited_cores = 1 lsl ptr_bits
let max_sockets = 16
let max_bitmask_cores = 62

let kind ctx = ctx.kind

let make_ctx ~kind ~n_cores ~n_sockets =
  if n_cores < 1 then invalid_arg "Sharers.make_ctx: n_cores < 1";
  if n_sockets < 1 then invalid_arg "Sharers.make_ctx: n_sockets < 1";
  (match kind with
  | Bitmask ->
      if n_cores > max_bitmask_cores then
        invalid_arg
          (Printf.sprintf
             "Sharers.make_ctx: bitmask backend holds at most %d cores \
              (got %d); use the limited-pointer backend"
             max_bitmask_cores n_cores)
  | Limited ->
      if n_cores > max_limited_cores then
        invalid_arg
          (Printf.sprintf
             "Sharers.make_ctx: limited backend holds at most %d cores \
              (got %d)"
             max_limited_cores n_cores);
      if n_sockets > max_sockets then
        invalid_arg
          (Printf.sprintf
             "Sharers.make_ctx: limited backend holds at most %d sockets \
              (got %d)"
             max_sockets n_sockets));
  let sock = Array.init n_cores (fun c -> c * n_sockets / n_cores) in
  let socket_masks = Array.make n_sockets 0 in
  let socket_lo = Array.make n_sockets n_cores in
  let socket_hi = Array.make n_sockets (-1) in
  for c = 0 to n_cores - 1 do
    let s = sock.(c) in
    if kind = Bitmask then socket_masks.(s) <- socket_masks.(s) lor (1 lsl c);
    if c < socket_lo.(s) then socket_lo.(s) <- c;
    if c > socket_hi.(s) then socket_hi.(s) <- c
  done;
  { kind; n_cores; n_sockets; sock; socket_masks; socket_lo; socket_hi }

let[@inline] socket ctx core = ctx.sock.(core)

let empty = 0
let[@inline] is_empty s = s = 0

(* --- limited-layout helpers --- *)

let[@inline] lim_count s = (s lsr count_shift) land 7
let[@inline] lim_ptr s i = (s lsr (i * ptr_bits)) land ptr_mask
let[@inline] is_coarse s = s land coarse_flag <> 0

let coarse ctx s = ctx.kind = Limited && is_coarse s
let exact ctx s = not (coarse ctx s)

let[@inline] singleton ctx core =
  match ctx.kind with
  | Bitmask -> 1 lsl core
  | Limited -> (1 lsl count_shift) lor core

(* Coarse word carrying the sockets of the exact pointers plus [extra]. *)
let lim_to_coarse ctx s extra_core =
  let m = ref (1 lsl ctx.sock.(extra_core)) in
  for i = 0 to lim_count s - 1 do
    m := !m lor (1 lsl ctx.sock.(lim_ptr s i))
  done;
  coarse_flag lor !m

let[@inline] add ctx s core =
  match ctx.kind with
  | Bitmask -> s lor (1 lsl core)
  | Limited ->
      if is_coarse s then s lor (1 lsl ctx.sock.(core))
      else begin
        let n = lim_count s in
        (* Sorted-pointer scan: find the insertion point, bail if the
           core is already recorded. *)
        let pos = ref 0 in
        let dup = ref false in
        for i = 0 to n - 1 do
          let p = lim_ptr s i in
          if p = core then dup := true;
          if p < core then pos := i + 1
        done;
        if !dup then s
        else if n = k then lim_to_coarse ctx s core
        else begin
          let pos = !pos in
          let ptrs = s land ptrs_mask in
          let low = ptrs land ((1 lsl (pos * ptr_bits)) - 1) in
          let high = (ptrs lsr (pos * ptr_bits)) lsl ((pos + 1) * ptr_bits) in
          low lor (core lsl (pos * ptr_bits)) lor high
          lor ((n + 1) lsl count_shift)
        end
      end

let mem ctx s core =
  match ctx.kind with
  | Bitmask -> s land (1 lsl core) <> 0
  | Limited ->
      if is_coarse s then s land (1 lsl ctx.sock.(core)) <> 0
      else begin
        let n = lim_count s in
        let found = ref false in
        for i = 0 to n - 1 do
          if lim_ptr s i = core then found := true
        done;
        !found
      end

let[@inline] others ctx s ~except =
  match ctx.kind with
  | Bitmask -> s land lnot (1 lsl except) <> 0
  | Limited ->
      if is_coarse s then
        (* Coarse mode is only entered with >= k+1 distinct sharers, so
           some core other than [except] is always recorded. *)
        true
      else begin
        let n = lim_count s in
        n >= 2 || (n = 1 && lim_ptr s 0 <> except)
      end

let[@inline] crossed ctx s ~socket ~except =
  match ctx.kind with
  | Bitmask ->
      s land lnot (1 lsl except) land lnot ctx.socket_masks.(socket) <> 0
  | Limited ->
      if is_coarse s then s land lnot coarse_flag land lnot (1 lsl socket) <> 0
      else begin
        let n = lim_count s in
        let hit = ref false in
        for i = 0 to n - 1 do
          let p = lim_ptr s i in
          if p <> except && ctx.sock.(p) <> socket then hit := true
        done;
        !hit
      end

(* Trailing-zero count per byte; slot 0 is unused (callers skip zero
   bytes). Table lookups keep the bitmask probe loop allocation-free. *)
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

(* Ascending-bit iteration; top-level and tail-recursive so no closure
   or ref cell is allocated per invalidation event. *)
let rec iter_bits_excl m base except f =
  if m <> 0 then begin
    let low = m land 0xff in
    if low = 0 then iter_bits_excl (m lsr 8) (base + 8) except f
    else begin
      let b = ctz8.(low) in
      let c = base + b in
      if c <> except then f c;
      iter_bits_excl (m land lnot (1 lsl b)) base except f
    end
  end

let iter_others ctx s ~except f =
  match ctx.kind with
  | Bitmask -> iter_bits_excl s 0 except f
  | Limited ->
      if is_coarse s then begin
        (* Sockets are contiguous ascending core ranges, so probing
           flagged sockets low-to-high visits cores in ascending order —
           the same order the bitmask backend drops them in. *)
        let m = s land lnot coarse_flag in
        for sck = 0 to ctx.n_sockets - 1 do
          if m land (1 lsl sck) <> 0 then
            for c = ctx.socket_lo.(sck) to ctx.socket_hi.(sck) do
              if c <> except then f c
            done
        done
      end
      else
        (* Pointers are kept sorted, so this is ascending too. *)
        for i = 0 to lim_count s - 1 do
          let p = lim_ptr s i in
          if p <> except then f p
        done

let to_list ctx s =
  let acc = ref [] in
  iter_others ctx s ~except:(-1) (fun c -> acc := c :: !acc);
  List.rev !acc

let cardinal ctx s = List.length (to_list ctx s)
