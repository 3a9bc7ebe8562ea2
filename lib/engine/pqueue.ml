(* Event queue: a structure-of-arrays binary min-heap. The (time, seq)
   keys live in two unboxed int arrays and the payloads in a parallel
   value array, so a push/pop cycle allocates nothing and key comparisons
   never chase a pointer. Sifting moves a hole instead of swapping: each
   level costs three array writes rather than a full element exchange.
   [swap_min] replaces the minimum in one sift down, where a push and a
   pop take two: the scheduler's yield uses it.

   Vacated slots: popping an element clears the array slot the sift's
   displaced copy left behind, by storing a dummy payload captured from
   the first value ever pushed. Without this, popped payloads — for the
   scheduler, effect continuations and their closures — stayed reachable
   from the value array beyond [len] for the rest of a run. The dummy
   itself pins exactly one payload per queue, which the liveness
   regression test accounts for. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable dummy : 'a array;  (* [||] until the first push; then [|d|] *)
}

let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0; dummy = [||] }

let is_empty q = q.len = 0

let length q = q.len

let grow q =
  let cap = Array.length q.times in
  if q.len = cap then begin
    let d = q.dummy.(0) in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nt = Array.make ncap 0 and ns = Array.make ncap 0 in
    let nv = Array.make ncap d in
    Array.blit q.times 0 nt 0 q.len;
    Array.blit q.seqs 0 ns 0 q.len;
    Array.blit q.vals 0 nv 0 q.len;
    q.times <- nt;
    q.seqs <- ns;
    q.vals <- nv
  end

let push q ~time ~seq v =
  if time < 0 then invalid_arg "Pqueue.push: negative time";
  if Array.length q.dummy = 0 then q.dummy <- [| v |];
  grow q;
  let ts = q.times and ss = q.seqs and vs = q.vals in
  (* Sift the hole up from the new leaf. *)
  let i = ref q.len in
  q.len <- q.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < ts.(p) || (time = ts.(p) && seq < ss.(p)) then begin
      ts.(!i) <- ts.(p);
      ss.(!i) <- ss.(p);
      vs.(!i) <- vs.(p);
      i := p
    end
    else continue := false
  done;
  ts.(!i) <- time;
  ss.(!i) <- seq;
  vs.(!i) <- v

let min_time q = if q.len = 0 then max_int else q.times.(0)

(* Place (time, seq, v) by sifting a hole down from the root of the
   first [n] slots; the root's old occupant must already be taken. *)
let sift_down q n ~time ~seq v =
  let ts = q.times and ss = q.seqs and vs = q.vals in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && (ts.(r) < ts.(l) || (ts.(r) = ts.(l) && ss.(r) < ss.(l)))
        then r
        else l
      in
      if ts.(c) < time || (ts.(c) = time && ss.(c) < seq) then begin
        ts.(!i) <- ts.(c);
        ss.(!i) <- ss.(c);
        vs.(!i) <- vs.(c);
        i := c
      end
      else continue := false
    end
  done;
  ts.(!i) <- time;
  ss.(!i) <- seq;
  vs.(!i) <- v

let drop_min q =
  if q.len = 0 then invalid_arg "Pqueue.drop_min: empty";
  let top = q.vals.(0) in
  let n = q.len - 1 in
  q.len <- n;
  (* The displaced last element sifts down as a hole from the root. *)
  if n > 0 then sift_down q n ~time:q.times.(n) ~seq:q.seqs.(n) q.vals.(n);
  (* Vacate the slot the displaced last element left: its only remaining
     live copy is inside the heap proper. *)
  q.vals.(n) <- q.dummy.(0);
  top

(* A push followed by a pop would sift twice; when the new element is not
   the minimum, taking the root and sifting the new element down from it
   is the same exchange in one pass. The length does not change, so no
   slot is vacated. *)
let swap_min q ~time ~seq v =
  if q.len = 0 then invalid_arg "Pqueue.swap_min: empty";
  if time < 0 then invalid_arg "Pqueue.swap_min: negative time";
  let top = q.vals.(0) in
  sift_down q q.len ~time ~seq v;
  top
