(* Event queue: a tournament (winner) tree over payload slots. Slot [s]
   holds one element's (time, seq) key in two unboxed int arrays and its
   payload in a parallel value array; [win] holds, for every node of a
   complete binary tree whose [cap] leaves are the slots, the slot of the
   smallest key below it (node 1 is the root, node [cap + s] the leaf of
   slot [s], node [i]'s children [2i] and [2i + 1]). A payload is written
   once into its slot and never moves, so no operation moves a boxed value
   level by level. An operation that changes one slot's key replays that
   slot's leaf-to-root path, one key comparison per level against the
   sibling's winner; [swap_min] and [drop_min] change the winner's slot.

   A free slot holds the sentinel key (max_int, max_int) and the dummy
   payload, so it loses to every element, one at time [max_int] included
   (its seq is below [max_int]), and the winner's slot is free only when
   the queue is empty. Free slots sit on a stack; a push that finds none
   doubles the capacity and rebuilds the tree.

   Vacated slots: popping an element stores a dummy payload captured from
   the first value ever pushed into its slot. Without this, popped
   payloads — for the scheduler, effect continuations and their closures —
   stayed reachable from the value array for the rest of a run. The dummy
   itself pins exactly one payload per queue, which the liveness
   regression test accounts for. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable win : int array;  (* 2 * cap nodes; [win.(cap + s) = s] *)
  mutable free : int array;  (* free slots, a stack of [cap - len] *)
  mutable len : int;
  mutable dummy : 'a array;  (* [||] until the first push; then [|d|] *)
}

let create () =
  { times = [||]; seqs = [||]; vals = [||]; win = [||]; free = [||]; len = 0; dummy = [||] }

let[@inline] is_empty q = q.len = 0

let[@inline] length q = q.len

(* Recompute the winners on slot [s]'s path to the root. *)
let replay q s =
  let ts = q.times and ss = q.seqs and w = q.win in
  let node = ref (s + Array.length ts) in
  let cur = ref s and ct = ref ts.(s) and cs = ref ss.(s) in
  while !node > 1 do
    let o = w.(!node lxor 1) in
    let ot = ts.(o) in
    if ot < !ct || (ot = !ct && ss.(o) < !cs) then begin
      cur := o;
      ct := ot;
      cs := ss.(o)
    end;
    node := !node lsr 1;
    w.(!node) <- !cur
  done

(* Double the capacity (from none to one slot on the first push): the old
   slots keep their indices, the new ones are free, and the tree is
   rebuilt bottom up. Called only when no slot is free. *)
let grow q =
  let cap = Array.length q.times in
  let ncap = if cap = 0 then 1 else 2 * cap in
  let nt = Array.make ncap max_int and ns = Array.make ncap max_int in
  let nv = Array.make ncap q.dummy.(0) in
  Array.blit q.times 0 nt 0 cap;
  Array.blit q.seqs 0 ns 0 cap;
  Array.blit q.vals 0 nv 0 cap;
  let w = Array.make (2 * ncap) 0 in
  for s = 0 to ncap - 1 do
    w.(ncap + s) <- s
  done;
  for i = ncap - 1 downto 1 do
    let l = w.(2 * i) and r = w.((2 * i) + 1) in
    w.(i) <- (if nt.(r) < nt.(l) || (nt.(r) = nt.(l) && ns.(r) < ns.(l)) then r else l)
  done;
  (* The new slots, lowest on top; the entries below them are rewritten
     as pops free slots. *)
  q.free <- Array.init ncap (fun i -> ncap - 1 - i);
  q.times <- nt;
  q.seqs <- ns;
  q.vals <- nv;
  q.win <- w

let push q ~time ~seq v =
  if time < 0 then invalid_arg "Pqueue.push: negative time";
  if Array.length q.dummy = 0 then q.dummy <- [| v |];
  if q.len = Array.length q.times then grow q;
  let s = q.free.(Array.length q.times - q.len - 1) in
  q.len <- q.len + 1;
  q.times.(s) <- time;
  q.seqs.(s) <- seq;
  q.vals.(s) <- v;
  replay q s

let[@inline] min_time q = if q.len = 0 then max_int else q.times.(q.win.(1))

let[@inline] drop_min q =
  if q.len = 0 then invalid_arg "Pqueue.drop_min: empty";
  let s = q.win.(1) in
  let top = q.vals.(s) in
  q.times.(s) <- max_int;
  q.seqs.(s) <- max_int;
  q.vals.(s) <- q.dummy.(0);
  q.free.(Array.length q.times - q.len) <- s;
  q.len <- q.len - 1;
  replay q s;
  top

(* A push followed by a pop would replay two paths; when the new element
   is not the minimum, writing it into the minimum's slot and replaying
   that one path is the same exchange. The length does not change. *)
let[@inline] swap_min q ~time ~seq v =
  if q.len = 0 then invalid_arg "Pqueue.swap_min: empty";
  if time < 0 then invalid_arg "Pqueue.swap_min: negative time";
  let s = q.win.(1) in
  let top = q.vals.(s) in
  q.times.(s) <- time;
  q.seqs.(s) <- seq;
  q.vals.(s) <- v;
  replay q s;
  top
