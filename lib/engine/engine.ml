module Trace = Asf_trace.Trace

type task =
  | Start of int * (unit -> unit)
  | Resume of int * (unit, unit) Effect.Deep.continuation

type t = {
  n_cores : int;
  core_time : int array;
  heap : task Pqueue.t;
  mutable seq : int;
  mutable live : int;
  mutable current : int;
  mutable events : int;
  (* Ablation for the fusion-equivalence battery: [true] forces every
     Elapse through the enqueue/pop round-trip (the reference
     scheduler). *)
  always_schedule : bool;
  (* Lookahead window bound: a cached lower bound on the queue minimum
     (exact right after a pop, only lowered by enqueues), so a run of
     consecutive elapses fuses against one cached int — the queue itself
     is never consulted between scheduling events. *)
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

type _ Effect.t += Elapse : int -> unit Effect.t

(* One-line reads of the {!Counters} bank, kept because the repository
   benchmark (bench/perf) calls them. *)
let cycles_retired () = (Counters.bank ()).(Counters.sim_cycles)

let sched_counters () =
  let b = Counters.bank () in
  (b.(Counters.fused_elapses), b.(Counters.scheduled_elapses))

(* The engine currently executing a thread on this domain, consulted by
   {!elapse} for the fusion fast path. [run] installs the engine and
   restores the previous occupant on exit, so nested runs (an engine
   thread driving another engine) stay correctly routed. *)
let running_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create ?(always_schedule = false) ~n_cores () =
  if n_cores <= 0 then invalid_arg "Engine.create: n_cores must be positive";
  {
    n_cores;
    core_time = Array.make n_cores 0;
    heap = Pqueue.create ();
    seq = 0;
    live = 0;
    current = 0;
    events = 0;
    always_schedule;
    lookahead = max_int;
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
  t.live <- t.live + 1;
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
  t.live <- t.live + 1;
  Trace.emit t.tracer ~core ~cycle:time Trace.Thread_spawn;
  enqueue t ~time (Start (core, f))

(* Fusion fast path (the classic discrete-event "lazy reschedule"): the
   thread performing [elapse] is by construction the task the scheduler
   popped last, so its resumption would carry the largest sequence number
   in the system. If its advanced time is strictly earlier than the queue
   minimum (or the queue is empty), the scheduler round-trip would pop
   that resumption straight back — enqueue, sift, capture and continue
   would change nothing observable. In that case we advance the clock in
   place and return without performing the effect at all, replaying the
   round-trip's side effects (seq and event counts, the Thread_resume
   trace event) so a fused run is indistinguishable from a scheduled one.
   On a time tie the queued entry's smaller sequence number wins, so the
   strict [<] is exactly the fusion-legality condition.

   The comparison is against [t.lookahead], the cached lookahead-window
   bound: exact right after the scheduler pops, and only ever lowered by
   enqueues in between, so it never exceeds the true queue minimum and a
   fused elapse stays legal. A core's run of consecutive elapses batches
   under one cached bound without touching the queue at all. *)
let elapse n =
  match !(Domain.DLS.get running_key) with
  | Some t when not t.always_schedule ->
      if n < 0 then invalid_arg "Engine.elapse: negative duration";
      let core = t.current in
      let ct = t.core_time.(core) in
      if ct > max_int - n then invalid_arg "Engine.elapse: core clock overflow";
      let nt = ct + n in
      if nt < t.lookahead then begin
        t.core_time.(core) <- nt;
        Counters.add t.bank Counters.sim_cycles n;
        Counters.add t.bank Counters.fused_elapses 1;
        t.seq <- t.seq + 1;
        t.events <- t.events + 1;
        t.fused <- t.fused + 1;
        Trace.emit t.tracer ~core ~cycle:nt Trace.Thread_resume
      end
      else Effect.perform (Elapse n)
  | _ -> Effect.perform (Elapse n)

(* Runs thread [f] under the scheduling handler. The handler suspends the
   thread at each [Elapse] and re-enqueues its continuation at the advanced
   core-local time; control then returns to the [run] loop. *)
let exec t core f =
  Effect.Deep.match_with f ()
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          Trace.emit t.tracer ~core ~cycle:t.core_time.(core) Trace.Thread_finish);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Elapse n ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  if n < 0 then invalid_arg "Engine.elapse: negative duration";
                  if t.core_time.(core) > max_int - n then
                    invalid_arg "Engine.elapse: core clock overflow";
                  t.core_time.(core) <- t.core_time.(core) + n;
                  Counters.add t.bank Counters.sim_cycles n;
                  enqueue t ~time:t.core_time.(core) (Resume (core, k)))
          | _ -> None);
    }

let run t =
  let slot = Domain.DLS.get running_key in
  let saved = !slot in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      while not (Pqueue.is_empty t.heap) do
        let time = Pqueue.min_time t.heap in
        let task = Pqueue.drop_min t.heap in
        (* Open the next lookahead window: the popped task is about to
           run, so the fusion bound becomes the new queue minimum. *)
        t.lookahead <- Pqueue.min_time t.heap;
        t.events <- t.events + 1;
        match task with
        | Start (core, f) ->
            t.current <- core;
            if time > t.core_time.(core) then t.core_time.(core) <- time;
            exec t core f
        | Resume (core, k) ->
            t.current <- core;
            t.scheduled <- t.scheduled + 1;
            Counters.add t.bank Counters.scheduled_elapses 1;
            Trace.emit t.tracer ~core ~cycle:time Trace.Thread_resume;
            Effect.Deep.continue k ()
      done)

let core_time t core = t.core_time.(core)

let current_core t = t.current

let now t = t.core_time.(t.current)

let max_time t = Array.fold_left max 0 t.core_time

let events t = t.events

let live_threads t = t.live

let fused_elapses t = t.fused

let scheduled_elapses t = t.scheduled

let heap_high_water t = t.heap_hwm
