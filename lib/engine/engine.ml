module Trace = Asf_trace.Trace

(* A queued task: a thread not yet started, or a yielded one. *)
type task =
  | Start of int * (unit -> unit)
  | Resume of int * (unit, unit) Effect.Deep.continuation

type t = {
  n_cores : int;
  core_time : int array;
  heap : task Pqueue.t;
  mutable seq : int;
  mutable current : int;
  mutable events : int;
  (* Ablation for the fusion-equivalence battery: [true] makes every
     elapse yield to the scheduler (the reference scheduler). *)
  always_schedule : bool;
  (* Lookahead window bound: the queue minimum, cached. It is read from
     the queue when a task is dispatched and lowered by every enqueue
     until the next dispatch, which is exactly how the minimum moves
     while a thread runs. A run of consecutive elapses thus fuses against
     one cached int, and the queue is never consulted between scheduling
     events. Outside [run] it holds [outside_run], below every clock, so
     no elapse fuses there. *)
  mutable lookahead : int;
  mutable fused : int;
  mutable scheduled : int;
  mutable heap_hwm : int;
  tracer : Trace.t;
  (* The creating domain's {!Counters} bank: an engine always runs on the
     domain that created it, so caching it keeps the hot path to loads
     and adds. *)
  bank : int array;
}

(* The engine's one effect: a thread whose clock {!elapse} has already
   advanced hands control back to the scheduler. A constant, so
   performing it allocates nothing; a scheduled elapse allocates only
   the runtime's continuation and the [Resume] that carries it. *)
type _ Effect.t += Yield : unit Effect.t

(* One-line reads of the {!Counters} bank, kept because the repository
   benchmark (bench/perf) calls them. *)
let cycles_retired () = (Counters.bank ()).(Counters.sim_cycles)

let sched_counters () =
  let b = Counters.bank () in
  (b.(Counters.fused_elapses), b.(Counters.scheduled_elapses))

(* The engine currently executing a thread on this domain, consulted by
   the ambient {!elapse}. [run] installs the engine and
   restores the previous occupant on exit, so nested runs (an engine
   thread driving another engine) stay correctly routed. *)
let running_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The lookahead of an engine that is not running: no clock is below it,
   and a dispatch replaces it with the queue minimum. *)
let outside_run = min_int

let create ?(always_schedule = false) ~n_cores () =
  if n_cores <= 0 then invalid_arg "Engine.create: n_cores must be positive";
  {
    n_cores;
    core_time = Array.make n_cores 0;
    heap = Pqueue.create ();
    seq = 0;
    current = 0;
    events = 0;
    always_schedule;
    lookahead = outside_run;
    fused = 0;
    scheduled = 0;
    heap_hwm = 0;
    tracer = Trace.installed ();
    bank = Counters.bank ();
  }

let n_cores t = t.n_cores

let enqueue t ~time task =
  t.seq <- t.seq + 1;
  Pqueue.push t.heap ~time ~seq:t.seq task;
  if time < t.lookahead then t.lookahead <- time;
  let len = Pqueue.length t.heap in
  if len > t.heap_hwm then t.heap_hwm <- len

let spawn t ~core f =
  if core < 0 || core >= t.n_cores then invalid_arg "Engine.spawn: bad core";
  Trace.emit t.tracer ~core ~cycle:t.core_time.(core) Trace.Thread_spawn;
  enqueue t ~time:t.core_time.(core) (Start (core, f))

(* Absolute-time spawn: the open-system arrival primitive. The [Start]
   handler advances the core clock to [time] only if the core is behind,
   and a clock can never be behind a task the scheduler just popped (any
   pending resume for that core would have run first), so injecting an
   event in the past of the *global* order is impossible and clocks stay
   monotone. *)
let spawn_at t ~core ~time f =
  if core < 0 || core >= t.n_cores then invalid_arg "Engine.spawn_at: bad core";
  if time < 0 then invalid_arg "Engine.spawn_at: negative time";
  Trace.emit t.tracer ~core ~cycle:time Trace.Thread_spawn;
  enqueue t ~time (Start (core, f))

(* Fusion fast path (the classic discrete-event "lazy reschedule"): the
   thread performing [elapse_on] is by construction the task the scheduler
   dispatched last, so its resumption would carry the largest sequence number
   in the system. If its advanced time is strictly earlier than the queue
   minimum (or the queue is empty), the scheduler round-trip would pop
   that resumption straight back — enqueue, replay, capture and continue
   would change nothing observable. In that case we advance the clock in
   place and return without performing the effect at all, replaying the
   round-trip's side effects (seq and event counts, the Thread_resume
   trace event) so a fused run is indistinguishable from a scheduled one.
   On a time tie the queued entry's smaller sequence number wins, so the
   strict [<] is exactly the fusion-legality condition.

   The comparison is against [t.lookahead], the cached lookahead-window
   bound, which always equals the queue minimum, so a fused elapse is
   legal. A core's run of consecutive elapses batches under one cached
   bound without touching the queue at all.

   Either way the clock advances here, in the thread, so a scheduled
   elapse only has to [Yield]: the handler finds the new time on the
   clock. Outside [run] nothing fuses (the lookahead is [outside_run]),
   and the [Yield] raises [Effect.Unhandled] before any clock moves. *)
let[@inline] elapse_on t n =
  if n < 0 then invalid_arg "Engine.elapse: negative duration";
  let core = t.current in
  let ct = t.core_time.(core) in
  if ct > max_int - n then invalid_arg "Engine.elapse: core clock overflow";
  let nt = ct + n in
  if nt < t.lookahead && not t.always_schedule then begin
    t.core_time.(core) <- nt;
    Counters.add t.bank Counters.sim_cycles n;
    Counters.add t.bank Counters.fused_elapses 1;
    t.seq <- t.seq + 1;
    t.events <- t.events + 1;
    t.fused <- t.fused + 1;
    Trace.emit t.tracer ~core ~cycle:nt Trace.Thread_resume
  end
  else if t.lookahead = outside_run then Effect.perform Yield
  else begin
    t.core_time.(core) <- nt;
    Counters.add t.bank Counters.sim_cycles n;
    Effect.perform Yield
  end

(* The ambient form: the engine running on this domain, read from
   [running_key]. Library code calls {!elapse_on} with the engine it
   holds; this form is for callers that hold none. *)
let[@inline] elapse n =
  match !(Domain.DLS.get running_key) with
  | None -> Effect.perform Yield
  | Some t -> elapse_on t n

(* Run [task], the queue's minimum at [time] or a yield resumed at once.
   The handler that takes a thread's yield or its return calls this to
   switch threads, so the [match_with] and [continue] below, and every
   call on the way to them from the handler, must stay in tail position,
   where OCaml compiles them as jumps: a switch then leaves no frame
   behind. Out of tail position, every switch would leave one
   (test/stack_guard.ml fails). *)
let rec dispatch t h ~time task =
  (* Open the next lookahead window: the task is about to run, so the
     fusion bound becomes the queue minimum. *)
  t.lookahead <- Pqueue.min_time t.heap;
  t.events <- t.events + 1;
  match task with
  | Start (core, f) ->
      t.current <- core;
      if time > t.core_time.(core) then t.core_time.(core) <- time;
      Effect.Deep.match_with f () h
  | Resume (core, k) ->
      t.current <- core;
      t.scheduled <- t.scheduled + 1;
      Counters.add t.bank Counters.scheduled_elapses 1;
      Trace.emit t.tracer ~core ~cycle:time Trace.Thread_resume;
      Effect.Deep.continue k ()

(* After a thread finished: run the queue minimum, or return from [run]
   once nothing is queued. *)
and next t h =
  if not (Pqueue.is_empty t.heap) then begin
    let time = Pqueue.min_time t.heap in
    dispatch t h ~time (Pqueue.drop_min t.heap)
  end

(* After a yield, the yielded thread takes the next seq at its core's
   clock, and an enqueue and a pop would replay the queue twice. One
   [Pqueue.swap_min] does the same in a single replay, because the
   yielded task is never the new minimum while the queue holds one: it
   did not fuse, so its time is at least [t.lookahead], the queue
   minimum, and on a tie its newest seq loses. Only under
   [always_schedule], or with nothing queued, can it come first; then it
   runs at once, as the pop would have returned it. The thread is the
   task dispatched last, so [t.current] names its core. *)
and yielded t h k =
  let core = t.current in
  let time = t.core_time.(core) in
  t.seq <- t.seq + 1;
  let pending = Pqueue.length t.heap + 1 in
  if pending > t.heap_hwm then t.heap_hwm <- pending;
  let min = Pqueue.min_time t.heap in
  if time < min || Pqueue.is_empty t.heap then
    dispatch t h ~time (Resume (core, k))
  else
    dispatch t h ~time:min
      (Pqueue.swap_min t.heap ~time ~seq:t.seq (Resume (core, k)))

(* The scheduling handler, built once per [run] and shared by every thread
   it starts, so a yield builds no closure and no option. *)
let handler t : (unit, unit) Effect.Deep.handler =
  let rec h =
    {
      Effect.Deep.retc =
        (fun () ->
          let core = t.current in
          Trace.emit t.tracer ~core ~cycle:t.core_time.(core) Trace.Thread_finish;
          next t h);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> (resume : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  and resume : ((unit, unit) Effect.Deep.continuation -> unit) option =
    Some (fun k -> yielded t h k)
  in
  h

let run t =
  let slot = Domain.DLS.get running_key in
  let saved = !slot in
  slot := Some t;
  let h = handler t in
  Fun.protect
    ~finally:(fun () ->
      slot := saved;
      t.lookahead <- outside_run)
    (fun () -> next t h)

let core_time t core = t.core_time.(core)

let current_core t = t.current

let now t = t.core_time.(t.current)

let max_time t = Array.fold_left max 0 t.core_time

let events t = t.events

let fused_elapses t = t.fused

let scheduled_elapses t = t.scheduled

let heap_high_water t = t.heap_hwm
