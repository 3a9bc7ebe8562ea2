module Abort = Asf_core.Abort

let cat_non_instr = 0

let cat_app = 1

let cat_ld_st = 2

let cat_start_commit = 3

let cat_abort_waste = 4

let cat_outside = 5

let n_categories = 6

type category = int

type t = {
  mutable commits : int;
  mutable serial_commits : int;
  mutable attempts : int;
  aborts : int array;
  cycles : int array;
  attempt_cycles : int array;
  mutable in_attempt : bool;
  mutable cur : int;
  mutable last_mark : int;
  (* Category nesting as a grow-by-doubling int-array stack: [enter] runs
     on every instrumented load/store, and a [Stack.t] cell per push was
     a measurable slice of the per-access allocation budget. *)
  mutable stack : int array;
  mutable depth : int;
}

let create () =
  {
    commits = 0;
    serial_commits = 0;
    attempts = 0;
    aborts = Array.make Abort.n_classes 0;
    cycles = Array.make n_categories 0;
    attempt_cycles = Array.make n_categories 0;
    in_attempt = false;
    cur = cat_outside;
    last_mark = 0;
    stack = Array.make 8 0;
    depth = 0;
  }

let[@inline] flush t ~now =
  let dt = now - t.last_mark in
  if dt > 0 then begin
    let target = if t.in_attempt then t.attempt_cycles else t.cycles in
    target.(t.cur) <- target.(t.cur) + dt
  end;
  t.last_mark <- now

let[@inline] enter t ~now cat =
  flush t ~now;
  if t.depth = Array.length t.stack then begin
    let s = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 s 0 t.depth;
    t.stack <- s
  end;
  t.stack.(t.depth) <- t.cur;
  t.depth <- t.depth + 1;
  t.cur <- cat

let[@inline] exit_ t ~now =
  flush t ~now;
  t.depth <- t.depth - 1;
  t.cur <- t.stack.(t.depth)

let begin_attempt t ~now =
  (* The previous attempt must have been closed by [commit_attempt] or
     [abort_attempt]; both fold [attempt_cycles] into [cycles] first, so
     the reset below can never drop attributed cycles. *)
  assert (not t.in_attempt);
  flush t ~now;
  t.in_attempt <- true;
  t.attempts <- t.attempts + 1;
  for c = 0 to n_categories - 1 do
    t.attempt_cycles.(c) <- 0
  done

let close_attempt t ~now =
  flush t ~now;
  t.in_attempt <- false

let commit_attempt t ~now ~serial =
  close_attempt t ~now;
  for c = 0 to n_categories - 1 do
    t.cycles.(c) <- t.cycles.(c) + t.attempt_cycles.(c)
  done;
  t.commits <- t.commits + 1;
  if serial then t.serial_commits <- t.serial_commits + 1

let abort_attempt t ~now reason =
  close_attempt t ~now;
  let wasted = Array.fold_left ( + ) 0 t.attempt_cycles in
  t.cycles.(cat_abort_waste) <- t.cycles.(cat_abort_waste) + wasted;
  let i = Abort.index reason in
  t.aborts.(i) <- t.aborts.(i) + 1

let finalize t ~now = flush t ~now

let commits t = t.commits

let serial_commits t = t.serial_commits

let attempts t = t.attempts

let aborts t = t.aborts

let total_aborts t = Array.fold_left ( + ) 0 t.aborts

let cycles t = t.cycles

let add t ~into =
  into.commits <- into.commits + t.commits;
  into.serial_commits <- into.serial_commits + t.serial_commits;
  into.attempts <- into.attempts + t.attempts;
  Array.iteri (fun i v -> into.aborts.(i) <- into.aborts.(i) + v) t.aborts;
  Array.iteri (fun i v -> into.cycles.(i) <- into.cycles.(i) + v) t.cycles
