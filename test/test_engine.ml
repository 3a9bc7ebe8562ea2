(* Tests for the discrete-event engine, PRNG, priority queue, and the
   simulated-memory substrate (RAM, addressing, allocator). *)

module Engine = Asf_engine.Engine
module Prng = Asf_engine.Prng
module Pqueue = Asf_engine.Pqueue
module Addr = Asf_mem.Addr
module Ram = Asf_mem.Ram
module Alloc = Asf_mem.Alloc
module Trace = Asf_trace.Trace

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

(* Drain [q], returning each element's [(min_time, payload)]. *)
let drain q =
  let out = ref [] in
  while not (Pqueue.is_empty q) do
    let t = Pqueue.min_time q in
    out := (t, Pqueue.drop_min q) :: !out
  done;
  List.rev !out

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:5 ~seq:1 "a";
  Pqueue.push q ~time:3 ~seq:2 "b";
  Pqueue.push q ~time:5 ~seq:0 "c";
  Pqueue.push q ~time:1 ~seq:9 "d";
  let order = List.map snd (drain q) in
  Alcotest.(check (list string)) "min (time,seq) first" [ "d"; "b"; "c"; "a" ] order;
  Alcotest.(check bool) "empty after draining" true (Pqueue.is_empty q)

let test_pqueue_peek_drop () =
  let q = Pqueue.create () in
  Alcotest.(check int) "min_time empty" max_int (Pqueue.min_time q);
  Pqueue.push q ~time:5 ~seq:2 "a";
  Pqueue.push q ~time:5 ~seq:1 "b";
  Pqueue.push q ~time:9 ~seq:0 "c";
  Alcotest.(check int) "min_time" 5 (Pqueue.min_time q);
  Alcotest.(check string) "earliest time, then smallest seq" "b" (Pqueue.drop_min q);
  Alcotest.(check int) "next min_time" 5 (Pqueue.min_time q);
  Alcotest.(check string) "second" "a" (Pqueue.drop_min q);
  Alcotest.(check int) "last min_time" 9 (Pqueue.min_time q);
  Alcotest.(check string) "last" "c" (Pqueue.drop_min q);
  Alcotest.(check bool) "empty after draining" true (Pqueue.is_empty q);
  Alcotest.check_raises "drop_min on empty"
    (Invalid_argument "Pqueue.drop_min: empty") (fun () -> ignore (Pqueue.drop_min q))

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing key order" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let q = Pqueue.create () in
      List.iteri
        (fun i (t, s) ->
          let seq = (s * 1000) + i in
          Pqueue.push q ~time:t ~seq (t, seq))
        pairs;
      let keys = List.map snd (drain q) in
      keys = List.sort compare keys)

let test_pqueue_negative_time_rejected () =
  let q = Pqueue.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Pqueue.push: negative time") (fun () ->
      Pqueue.push q ~time:(-1) ~seq:0 ())

(* Model battery: a random push/pop/swap sequence must pop the identical
   (time, seq, payload) sequence as a sorted-list reference model, with
   [min_time] agreeing with every popped element, across four event-time
   distributions: dense (many equal times), sparse (huge gaps), clustered
   (every event at one time, so seq alone orders them) and a
   near-monotone ramp (the scheduler's own shape). A swap takes the
   minimum, then inserts its new element with the next seq, whatever
   that element's key: the model pops, then pushes. *)
let pqueue_ops_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun dist ->
    list_size (int_range 1 600)
      (frequency
         [
           (3, int_range 0 1000 >|= fun t -> `Push t);
           (1, return `Pop);
           (2, int_range 0 1000 >|= fun t -> `Swap t);
         ])
    >|= fun ops -> (dist, ops))

let print_pqueue_ops (dist, ops) =
  Printf.sprintf "dist=%d ops=[%s]" dist
    (String.concat ";"
       (List.map
          (function
            | `Push t -> string_of_int t
            | `Pop -> "pop"
            | `Swap t -> "swap " ^ string_of_int t)
          ops))

let pqueue_dist_time dist prev t =
  match dist with
  | 0 -> t mod 97 (* dense *)
  | 1 -> t * 1_000_003 (* sparse *)
  | 2 -> 42 (* clustered *)
  | _ -> prev + (t mod 7) (* ramp *)

let run_pqueue_ops (dist, ops) =
  let q = Pqueue.create () in
  let out = ref [] in
  let seq = ref 0 in
  let prev = ref 0 in
  (* Payloads are the seqs, so a wrong [min_time] shows up as a key the
     model never produced. *)
  let pop () =
    let t = Pqueue.min_time q in
    let s = Pqueue.drop_min q in
    out := (t, s, s) :: !out
  in
  List.iter
    (function
      | `Push t ->
          incr seq;
          let time = pqueue_dist_time dist !prev t in
          prev := time;
          Pqueue.push q ~time ~seq:!seq !seq
      | `Pop -> if not (Pqueue.is_empty q) then pop ()
      | `Swap t ->
          if not (Pqueue.is_empty q) then begin
            incr seq;
            let time = pqueue_dist_time dist !prev t in
            prev := time;
            let m = Pqueue.min_time q in
            let s = Pqueue.swap_min q ~time ~seq:!seq !seq in
            out := (m, s, s) :: !out
          end)
    ops;
  while not (Pqueue.is_empty q) do
    pop ()
  done;
  List.rev !out

let run_pqueue_model (dist, ops) =
  let live = ref [] in
  let out = ref [] in
  let seq = ref 0 in
  let prev = ref 0 in
  let push t =
    incr seq;
    let time = pqueue_dist_time dist !prev t in
    prev := time;
    live := (time, !seq, !seq) :: !live
  in
  let pop () =
    match List.sort compare !live with
    | [] -> false
    | m :: rest ->
        live := rest;
        out := m :: !out;
        true
  in
  List.iter
    (function
      | `Push t -> push t
      | `Pop -> ignore (pop ())
      | `Swap t -> if pop () then push t)
    ops;
  List.rev !out @ List.sort compare !live

let prop_pqueue_matches_model =
  QCheck.Test.make ~name:"heap matches the sorted-list model"
    ~count:120
    (QCheck.make ~print:print_pqueue_ops pqueue_ops_gen)
    (fun ops -> run_pqueue_ops ops = run_pqueue_model ops)

(* Liveness regression for the vacated-slot fix: after swapping out half
   of the elements and popping every element, the queue may pin at most
   one payload (the dummy captured from the first push) — swapped-out
   and popped continuations must not stay reachable from the internal
   arrays. *)
let test_pqueue_vacate_liveness () =
  let n = 300 in
  let w = Weak.create (n + (n / 2)) in
  let q = Pqueue.create () in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Pqueue.push q ~time:(i * 3) ~seq:i v
  done;
  let sink = ref (ref (-1)) in
  for j = 0 to (n / 2) - 1 do
    let v = ref (n + j) in
    Weak.set w (n + j) (Some v);
    sink := Pqueue.swap_min q ~time:((j * 5) + 1) ~seq:(n + j) v
  done;
  Alcotest.(check int) "a swap keeps the length" n (Pqueue.length q);
  for _ = 1 to n do
    sink := Pqueue.drop_min q
  done;
  sink := ref (-1);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr live
  done;
  if !live > 1 then
    Alcotest.failf "%d popped payloads still reachable (allowed: 1)" !live

let test_pqueue_swap_min_errors () =
  let q = Pqueue.create () in
  Alcotest.check_raises "swap_min on empty"
    (Invalid_argument "Pqueue.swap_min: empty") (fun () ->
      ignore (Pqueue.swap_min q ~time:0 ~seq:0 ()));
  Pqueue.push q ~time:1 ~seq:0 ();
  Alcotest.check_raises "negative time"
    (Invalid_argument "Pqueue.swap_min: negative time") (fun () ->
      ignore (Pqueue.swap_min q ~time:(-1) ~seq:1 ()))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let g1 = Prng.create 42 and g2 = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int g1 1000) (Prng.int g2 1000)
  done

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let h = Prng.split g in
  let a = List.init 50 (fun _ -> Prng.int g 1_000_000) in
  let b = List.init 50 (fun _ -> Prng.int h 1_000_000) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let prop_prng_range =
  QCheck.Test.make ~name:"prng int stays in range" ~count:500
    QCheck.(pair small_nat (int_range 1 10_000))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let v = Prng.int g n in
      v >= 0 && v < n)

let test_prng_rough_uniformity () =
  let g = Prng.create 1 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near 0.1 (got %.3f)" i frac)
        true
        (frac > 0.08 && frac < 0.12))
    buckets

(* Distribution sanity for the top-bit fixed-point reduction: across
   random seeds and bucket counts, every bucket of [int g n] stays within
   20% of uniform over 30k draws. A reduction that consumed the wrong
   bits (or a biased modulo) shows up here. *)
let prop_prng_buckets_uniform =
  QCheck.Test.make ~name:"prng int buckets near-uniform across seeds" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 2 32))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let draws = 30_000 in
      let buckets = Array.make n 0 in
      for _ = 1 to draws do
        let v = Prng.int g n in
        buckets.(v) <- buckets.(v) + 1
      done;
      let expect = float_of_int draws /. float_of_int n in
      Array.for_all
        (fun c ->
          let r = float_of_int c /. expect in
          r > 0.8 && r < 1.2)
        buckets)

let test_prng_uses_high_bits () =
  (* [int] reduces from the top 32 bits of the raw output — as documented:
     a copy of the generator predicts it as floor (n * hi32 / 2^32). *)
  let g = Prng.create 99 in
  let h = Prng.copy g in
  let n = 1000 in
  for _ = 1 to 1000 do
    let hi = Int64.to_int (Int64.shift_right_logical (Prng.next64 h) 32) in
    Alcotest.(check int) "floor (n*hi/2^32)" (hi * n / 65536 / 65536) (Prng.int g n)
  done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_single_thread () =
  let e = Engine.create ~n_cores:1 () in
  let steps = ref 0 in
  Engine.spawn e ~core:0 (fun () ->
      for _ = 1 to 10 do
        Engine.elapse 5;
        incr steps
      done);
  Engine.run e;
  Alcotest.(check int) "all steps ran" 10 !steps;
  Alcotest.(check int) "time advanced" 50 (Engine.core_time e 0)

let test_engine_interleaving_deterministic () =
  (* Two threads alternate strictly by time; record the interleaving. *)
  let run () =
    let e = Engine.create ~n_cores:2 () in
    let log = ref [] in
    let worker id delay () =
      for i = 1 to 5 do
        Engine.elapse delay;
        log := (id, i) :: !log
      done
    in
    Engine.spawn e ~core:0 (worker "a" 10);
    Engine.spawn e ~core:1 (worker "b" 15);
    Engine.run e;
    List.rev !log
  in
  let l1 = run () and l2 = run () in
  Alcotest.(check bool) "deterministic" true (l1 = l2);
  (* a at 10,20,30,40,50; b at 15,30,45,60,75. At t=30, b's resume was
     enqueued at t=15 and a's at t=20, so b has the smaller sequence
     number and runs first. *)
  Alcotest.(check (list (pair string int)))
    "interleaving by (time, seq)"
    [ ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("a", 3); ("a", 4); ("b", 3); ("a", 5); ("b", 4); ("b", 5) ]
    l1

let test_engine_spawn_at_absolute_times () =
  (* spawn_at injects work at absolute cycles, interleaved with ordinary
     threads in (time, seq) order regardless of submission order. *)
  let e = Engine.create ~n_cores:2 () in
  let log = ref [] in
  let note id () = log := (id, Engine.core_time e 0) :: !log in
  Engine.spawn_at e ~core:0 ~time:30 (note "c");
  Engine.spawn_at e ~core:0 ~time:10 (note "a");
  Engine.spawn_at e ~core:0 ~time:20 (note "b");
  Engine.spawn e ~core:1 (fun () -> Engine.elapse 15; note "t" ());
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "absolute-time order"
    [ ("a", 10); ("t", 10); ("b", 20); ("c", 30) ]
    (List.rev !log)

let test_engine_spawn_at_never_regresses_clock () =
  (* An arrival behind a core's clock runs, but the clock stays put:
     simulated time is monotone per core. *)
  let e = Engine.create ~n_cores:1 () in
  let seen = ref (-1) in
  Engine.spawn e ~core:0 (fun () -> Engine.elapse 100);
  Engine.spawn_at e ~core:0 ~time:40 (fun () -> seen := Engine.core_time e 0);
  Engine.run e;
  Alcotest.(check bool) "late event still ran" true (!seen >= 40);
  Alcotest.(check int) "clock did not regress" 100 (Engine.core_time e 0)

let test_engine_spawn_at_chained_arrivals () =
  (* The serving harness's arrival idiom: each event schedules the next,
     so the heap never holds more than one pending arrival. *)
  let e = Engine.create ~n_cores:1 () in
  let n = ref 0 in
  let rec arrive i () =
    if i < 50 then begin
      incr n;
      Engine.spawn_at e ~core:0 ~time:((i + 1) * 7) (arrive (i + 1))
    end
  in
  Engine.spawn_at e ~core:0 ~time:0 (arrive 0);
  Engine.run e;
  Alcotest.(check int) "all arrivals fired" 50 !n;
  Alcotest.(check int) "clock at the last arrival" 350 (Engine.core_time e 0)

let test_engine_spawn_at_rejects_bad_args () =
  let e = Engine.create ~n_cores:2 () in
  Alcotest.check_raises "negative time" (Invalid_argument "Engine.spawn_at: negative time")
    (fun () -> Engine.spawn_at e ~core:0 ~time:(-1) (fun () -> ()));
  Alcotest.check_raises "bad core" (Invalid_argument "Engine.spawn_at: bad core")
    (fun () -> Engine.spawn_at e ~core:2 ~time:0 (fun () -> ()))

let test_engine_atomic_between_elapses () =
  (* Without an elapse in the middle, a read-modify-write sequence is
     atomic: 2 threads x 1000 increments never lose an update. *)
  let e = Engine.create ~n_cores:2 () in
  let counter = ref 0 in
  let incr_thread () =
    for _ = 1 to 1000 do
      let v = !counter in
      counter := v + 1;
      Engine.elapse 1
    done
  in
  Engine.spawn e ~core:0 incr_thread;
  Engine.spawn e ~core:1 incr_thread;
  Engine.run e;
  Alcotest.(check int) "no lost updates" 2000 !counter

let test_engine_threads_share_core () =
  let e = Engine.create ~n_cores:1 () in
  let done_count = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e ~core:0 (fun () ->
        Engine.elapse 7;
        incr done_count)
  done;
  Engine.run e;
  Alcotest.(check int) "all finished" 3 !done_count;
  (* Threads share core 0's clock; each elapse moves the shared clock. *)
  Alcotest.(check int) "shared clock" 21 (Engine.core_time e 0)

let test_engine_exception_propagates () =
  let e = Engine.create ~n_cores:1 () in
  Engine.spawn e ~core:0 (fun () ->
      Engine.elapse 1;
      failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e)

let test_engine_elapse_zero () =
  (* elapse 0 is a pure yield: time unchanged, scheduling still fair. *)
  let e = Engine.create ~n_cores:1 () in
  let order = ref [] in
  Engine.spawn e ~core:0 (fun () ->
      order := 1 :: !order;
      Engine.elapse 0;
      order := 3 :: !order);
  Engine.spawn e ~core:0 (fun () ->
      order := 2 :: !order;
      Engine.elapse 0;
      order := 4 :: !order);
  Engine.run e;
  Alcotest.(check int) "no time passed" 0 (Engine.core_time e 0);
  Alcotest.(check (list int)) "fair interleave" [ 1; 2; 3; 4 ] (List.rev !order)

let test_engine_negative_elapse_rejected () =
  let e = Engine.create ~n_cores:1 () in
  Engine.spawn e ~core:0 (fun () -> Engine.elapse (-1));
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Engine.elapse: negative duration") (fun () -> Engine.run e)

let test_engine_elapse_overflow () =
  (* Fused path: the second elapse would wrap the core clock past
     max_int. *)
  let e = Engine.create ~n_cores:1 () in
  Engine.spawn e ~core:0 (fun () ->
      Engine.elapse (max_int - 5);
      Engine.elapse 10);
  Alcotest.check_raises "fused overflow"
    (Invalid_argument "Engine.elapse: core clock overflow") (fun () ->
      Engine.run e);
  (* Scheduled path: the same program, every elapse yielding to the run
     loop. *)
  let r = Engine.create ~always_schedule:true ~n_cores:1 () in
  Engine.spawn r ~core:0 (fun () ->
      Engine.elapse (max_int - 5);
      Engine.elapse 10);
  Alcotest.check_raises "scheduled overflow"
    (Invalid_argument "Engine.elapse: core clock overflow") (fun () ->
      Engine.run r);
  (* Advancing to exactly max_int is legal in both paths. *)
  let m = Engine.create ~n_cores:1 () in
  Engine.spawn m ~core:0 (fun () ->
      Engine.elapse (max_int - 7);
      Engine.elapse 7);
  Engine.run m;
  Alcotest.(check int) "clock may reach exactly max_int" max_int
    (Engine.core_time m 0)

let test_engine_max_time () =
  let e = Engine.create ~n_cores:4 () in
  for c = 0 to 3 do
    Engine.spawn e ~core:c (fun () -> Engine.elapse ((c + 1) * 100))
  done;
  Engine.run e;
  Alcotest.(check int) "makespan" 400 (Engine.max_time e)

(* ------------------------------------------------------------------ *)
(* Fusion fast path                                                    *)
(* ------------------------------------------------------------------ *)

let test_engine_fusion_counters () =
  (* A thread running alone always beats an empty heap, so every elapse
     takes the fast path; the always-schedule ablation forces every one
     through the heap. Clocks and event counts must agree regardless. *)
  let body () =
    for _ = 1 to 10 do
      Engine.elapse 3
    done
  in
  let e = Engine.create ~n_cores:1 () in
  Engine.spawn e ~core:0 body;
  Engine.run e;
  Alcotest.(check int) "all fused" 10 (Engine.fused_elapses e);
  Alcotest.(check int) "none scheduled" 0 (Engine.scheduled_elapses e);
  let r = Engine.create ~always_schedule:true ~n_cores:1 () in
  Engine.spawn r ~core:0 body;
  Engine.run r;
  Alcotest.(check int) "ablation: none fused" 0 (Engine.fused_elapses r);
  Alcotest.(check int) "ablation: all scheduled" 10 (Engine.scheduled_elapses r);
  Alcotest.(check int) "same clock" (Engine.core_time e 0) (Engine.core_time r 0);
  Alcotest.(check int) "same event count" (Engine.events e) (Engine.events r)

let test_engine_heap_high_water () =
  let e = Engine.create ~n_cores:4 () in
  for c = 0 to 3 do
    Engine.spawn e ~core:c (fun () -> Engine.elapse 10)
  done;
  Alcotest.(check int) "all spawns queued" 4 (Engine.heap_high_water e);
  Engine.run e;
  Alcotest.(check int) "run never exceeds the spawn peak" 4
    (Engine.heap_high_water e)

(* The lookahead window: with the nearest competing event 50k cycles
   out, a core's long run of unit elapses must batch on the cached bound
   — every one fused, no queue traffic — and still agree with the
   always-schedule reference on clocks and event counts. *)
let test_engine_lookahead_window () =
  let run always_schedule =
    let e = Engine.create ~always_schedule ~n_cores:2 () in
    Engine.spawn e ~core:0 (fun () ->
        for _ = 1 to 10_000 do
          Engine.elapse 1
        done);
    Engine.spawn e ~core:1 (fun () -> Engine.elapse 50_000);
    Engine.run e;
    ( Engine.core_time e 0,
      Engine.core_time e 1,
      Engine.events e,
      Engine.fused_elapses e )
  in
  let t0, t1, ev, fused = run false in
  let t0', t1', ev', _ = run true in
  Alcotest.(check (pair int int)) "clocks match reference" (t0', t1') (t0, t1);
  Alcotest.(check int) "event count matches reference" ev' ev;
  (* Only the first elapse of each thread can lose the race with the
     other thread's queued start. *)
  Alcotest.(check bool)
    (Printf.sprintf "long elapse run fuses (fused=%d)" fused)
    true (fused >= 9_990)

(* The scheduled elapse's allocation: two cores ping-pong unit elapses,
   so every elapse loses the race to the other core's queued task and
   goes through the queue, with and without [always_schedule]. The
   words one elapse costs are the run's minor words less those of the
   same two threads elapsing never, over the number of elapses: the
   runtime's continuation (2 words) and the queued [Resume] (3 words).
   An effect value, a handler closure or an option built per yield
   shows up here. *)
let test_engine_scheduled_elapse_words () =
  let per_core = 5_000 in
  let run always_schedule n =
    let e = Engine.create ~always_schedule ~n_cores:2 () in
    let body () =
      for _ = 1 to n do
        Engine.elapse 1
      done
    in
    Engine.spawn e ~core:0 body;
    Engine.spawn e ~core:1 body;
    let w0 = Gc.minor_words () in
    Engine.run e;
    let w = Gc.minor_words () -. w0 in
    (w, Engine.scheduled_elapses e)
  in
  List.iter
    (fun always_schedule ->
      let base, none = run always_schedule 0 in
      let words, scheduled = run always_schedule per_core in
      Alcotest.(check int) "no elapse without one" 0 none;
      Alcotest.(check int) "every elapse scheduled" (2 * per_core) scheduled;
      let per = (words -. base) /. float_of_int scheduled in
      Alcotest.(check bool)
        (Printf.sprintf "always_schedule=%b: %.2f minor words per scheduled elapse"
           always_schedule per)
        true (per <= 5.0))
    [ false; true ]

(* Fusion equivalence (QCheck): random spawn/elapse programs run
   bit-identically on the fused engine, the always-schedule engine and a
   (time, seq) reference model — same execution log, per-core clocks,
   scheduling-event counts, and emitted trace stream (resume/spawn/finish
   kinds included, which the default filter would hide). Both engines
   hand a yield to the queue by [Pqueue.swap_min], so the model, which
   shares no code with either, is what pins the order. Besides elapses, a
   thread's steps include [spawn_at] calls at [now + d] followed by more
   elapses: a spawn from a running thread can land before that thread's
   next elapse, so its enqueue must lower the cached lookahead bound, or
   the next elapse would fuse past it. A quarter of the programs run
   16-48 threads, so the queue holds enough tasks for a sift to cross
   several heap levels. *)

let run_program ~always_schedule (n_cores, threads) =
  let tracer = Trace.create ~filter:[ "resume"; "spawn"; "finish" ] () in
  Trace.install tracer;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let e = Engine.create ~always_schedule ~n_cores () in
      let log = ref [] in
      (* [who] is [(id, -1)] for the [id]-th top-level thread and
         [(id, i)] for the thread spawned by its step [i]. *)
      let note who i core = log := (who, i, Engine.core_time e core) :: !log in
      let elapses who core delays () =
        List.iteri
          (fun i d ->
            Engine.elapse d;
            note who i core)
          delays
      in
      List.iteri
        (fun id (core, steps) ->
          Engine.spawn e ~core (fun () ->
              List.iteri
                (fun i step ->
                  match step with
                  | `Elapse d ->
                      Engine.elapse d;
                      note (id, -1) i core
                  | `Spawn (c, d, delays) ->
                      Engine.spawn_at e ~core:c
                        ~time:(Engine.core_time e core + d)
                        (elapses (id, i) c delays))
                steps))
        threads;
      Engine.run e;
      ( List.rev !log,
        List.init n_cores (Engine.core_time e),
        Engine.events e,
        List.map
          (fun (ev : Trace.event) -> (ev.core, ev.cycle, Trace.kind_name ev.payload))
          (Trace.events tracer) ))

(* The reference model replays a program as data: a thread is the list
   of its remaining actions, a pending task one entry of a plain list,
   and the next task the least (time, seq) found by a linear scan. Like
   the always-schedule engine it queues every elapse's resumption; a
   fused elapse must be indistinguishable from that. *)
type model_action =
  | M_elapse of int * (int * int) * int (* delay, thread id, step *)
  | M_spawn of int * int * model_action list (* core, delay, body *)

type model_task =
  | M_start of int * model_action list
  | M_resume of int * (int * int) * int * model_action list

let run_model (n_cores, threads) =
  let clock = Array.make n_cores 0 in
  let pending = ref [] and seq = ref 0 and events = ref 0 in
  let log = ref [] and trace = ref [] in
  let emit core cycle kind = trace := (core, cycle, kind) :: !trace in
  let enqueue time task =
    incr seq;
    pending := (time, !seq, task) :: !pending
  in
  let rec run core = function
    | [] -> emit core clock.(core) "Thread_finish"
    | M_elapse (d, who, i) :: rest ->
        clock.(core) <- clock.(core) + d;
        enqueue clock.(core) (M_resume (core, who, i, rest))
    | M_spawn (c, d, body) :: rest ->
        let time = clock.(core) + d in
        emit c time "Thread_spawn";
        enqueue time (M_start (c, body));
        run core rest
  in
  List.iteri
    (fun id (core, steps) ->
      let actions =
        List.mapi
          (fun i -> function
            | `Elapse d -> M_elapse (d, (id, -1), i)
            | `Spawn (c, d, ds) ->
                M_spawn (c, d, List.mapi (fun j d -> M_elapse (d, (id, i), j)) ds))
          steps
      in
      emit core 0 "Thread_spawn";
      enqueue 0 (M_start (core, actions)))
    threads;
  let earlier ((t, s, _) as a) ((t', s', _) as b) =
    if t < t' || (t = t' && s < s') then a else b
  in
  while !pending <> [] do
    let ((time, _, task) as m) =
      List.fold_left earlier (List.hd !pending) (List.tl !pending)
    in
    pending := List.filter (fun p -> p != m) !pending;
    incr events;
    match task with
    | M_start (core, body) ->
        if time > clock.(core) then clock.(core) <- time;
        run core body
    | M_resume (core, who, i, rest) ->
        emit core time "Thread_resume";
        log := (who, i, clock.(core)) :: !log;
        run core rest
  done;
  (List.rev !log, Array.to_list clock, !events, List.rev !trace)

let program_gen =
  QCheck.Gen.(
    frequency
      [ (3, pair (int_range 1 3) (int_range 1 5)); (1, pair (int_range 1 48) (int_range 16 48)) ]
    >>= fun (n_cores, n_threads) ->
    let core = int_range 0 (n_cores - 1) and delay = int_range 0 25 in
    let step =
      frequency
        [
          (4, delay >|= fun d -> `Elapse d);
          ( 1,
            triple core delay (list_size (int_range 0 4) delay)
            >|= fun (c, d, ds) -> `Spawn (c, d, ds) );
        ]
    in
    list_repeat n_threads (pair core (list_size (int_range 0 8) step))
    >|= fun threads -> (n_cores, threads))

let print_program (n_cores, threads) =
  let delays ds = String.concat "," (List.map string_of_int ds) in
  let step = function
    | `Elapse d -> string_of_int d
    | `Spawn (c, d, ds) -> Printf.sprintf "spawn(core %d, +%d: %s)" c d (delays ds)
  in
  Printf.sprintf "cores=%d %s" n_cores
    (String.concat "; "
       (List.map
          (fun (c, steps) ->
            Printf.sprintf "core %d: [%s]" c (String.concat "," (List.map step steps)))
          threads))

let prop_fusion_equivalent =
  QCheck.Test.make ~name:"fused engine matches always-schedule reference"
    ~count:300
    (QCheck.make ~print:print_program program_gen)
    (fun p ->
      let log_m, times_m, events_m, trace_m = run_model p in
      List.iter
        (fun always_schedule ->
          let log, times, events, trace = run_program ~always_schedule p in
          let fail what =
            QCheck.Test.fail_reportf "always_schedule=%b: %s differ from the model"
              always_schedule what
          in
          if log <> log_m then fail "execution order"
          else if times <> times_m then fail "per-core clocks"
          else if events <> events_m then fail "event counts"
          else if trace <> trace_m then fail "trace streams")
        [ false; true ];
      true)

(* ------------------------------------------------------------------ *)
(* Addr                                                                *)
(* ------------------------------------------------------------------ *)

let test_addr_arithmetic () =
  Alcotest.(check int) "line of word 0" 0 (Addr.line_of 0);
  Alcotest.(check int) "line of word 7" 0 (Addr.line_of 7);
  Alcotest.(check int) "line of word 8" 1 (Addr.line_of 8);
  Alcotest.(check int) "page of word 511" 0 (Addr.page_of 511);
  Alcotest.(check int) "page of word 512" 1 (Addr.page_of 512);
  Alcotest.(check int) "line base round trip" 24 (Addr.line_base (Addr.line_of 27));
  Alcotest.(check int) "offset" 3 (Addr.line_offset 27);
  Alcotest.(check int) "lines of 1 word" 1 (Addr.lines_of_words 1);
  Alcotest.(check int) "lines of 8 words" 1 (Addr.lines_of_words 8);
  Alcotest.(check int) "lines of 9 words" 2 (Addr.lines_of_words 9)

(* ------------------------------------------------------------------ *)
(* Ram                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ram_read_write () =
  let r = Ram.create () in
  Alcotest.(check int) "zero fill" 0 (Ram.read r 123456);
  Ram.write r 123456 99;
  Alcotest.(check int) "read back" 99 (Ram.read r 123456);
  Ram.write r 0 7;
  Alcotest.(check int) "addr 0" 7 (Ram.read r 0)

let test_ram_line_ops () =
  let r = Ram.create () in
  for i = 0 to 7 do
    Ram.write r (80 + i) (i * 10)
  done;
  let snapshot = Ram.read_line r 10 in
  Ram.write r 83 777;
  Ram.write_line r 10 snapshot;
  Alcotest.(check int) "restored" 30 (Ram.read r 83)

(* Ram materialises one 512-word page per chunk: the words either side
   of a page boundary live in different chunks, an untouched page between
   two written ones reads as zeros, and only a write into a new page
   materialises one. *)
let test_ram_pages () =
  let r = Ram.create () in
  let p = Addr.words_per_page in
  Alcotest.(check int) "nothing resident" 0 (Ram.resident_pages r);
  Ram.write r ((2 * p) - 1) 11;
  Ram.write r (2 * p) 22;
  Alcotest.(check int) "last word of page 1" 11 (Ram.read r ((2 * p) - 1));
  Alcotest.(check int) "first word of page 2" 22 (Ram.read r (2 * p));
  Alcotest.(check int) "their neighbours" 0
    (Ram.read r ((2 * p) - 2) + Ram.read r ((2 * p) + 1));
  Alcotest.(check int) "two pages resident" 2 (Ram.resident_pages r);
  Ram.write r ((4 * p) + 5) 44;
  Alcotest.(check int) "untouched page between written ones" 0
    (Ram.read r ((3 * p) + 5));
  Alcotest.(check (array int)) "untouched line" (Array.make Addr.words_per_line 0)
    (Ram.read_line r (Addr.line_of (3 * p)));
  Alcotest.(check int) "reads materialise nothing" 3 (Ram.resident_pages r);
  Ram.write r (2 * p) 23;
  Ram.write_line r (Addr.line_of (2 * p)) (Array.make Addr.words_per_line 7);
  Alcotest.(check int) "rewrites materialise nothing" 3 (Ram.resident_pages r);
  Ram.write_line r (Addr.line_of (5 * p)) (Array.init Addr.words_per_line Fun.id);
  Alcotest.(check int) "a line write into a new page" 4 (Ram.resident_pages r);
  Alcotest.(check int) "line written" 6 (Ram.read r ((5 * p) + 6));
  (* Far beyond the pages so far: the chunk table grows. *)
  Ram.write r (1_000 * p) 9;
  Alcotest.(check int) "far page" 9 (Ram.read r (1_000 * p));
  Alcotest.(check int) "one page per new page" 5 (Ram.resident_pages r);
  Alcotest.(check (list int)) "earlier pages kept" [ 11; 7; 44 ]
    [ Ram.read r ((2 * p) - 1); Ram.read r (2 * p); Ram.read r ((4 * p) + 5) ];
  (* Round trips on the lines either side of a page boundary: the last
     line of page 6 and the first of page 7. *)
  let last = Addr.line_of ((7 * p) - 1) and first = Addr.line_of (7 * p) in
  let w = Addr.words_per_line in
  Ram.write_line r last (Array.init w (fun i -> 100 + i));
  Ram.write_line r first (Array.init w (fun i -> 200 + i));
  Alcotest.(check (array int)) "last line of a page" (Array.init w (fun i -> 100 + i))
    (Ram.read_line r last);
  Alcotest.(check (array int)) "first line of the next" (Array.init w (fun i -> 200 + i))
    (Ram.read_line r first);
  Alcotest.(check (list int)) "words at the boundary" [ 107; 200 ]
    [ Ram.read r ((7 * p) - 1); Ram.read r (7 * p) ];
  (* A returned line is a copy. *)
  (Ram.read_line r last).(0) <- -1;
  (Ram.read_line r (Addr.line_of (3 * p))).(0) <- -1;
  Alcotest.(check int) "mutating a read line leaves RAM unchanged" 100 (Ram.read r (last * w));
  Alcotest.(check (array int)) "an untouched line still reads zero" (Array.make w 0)
    (Ram.read_line r (Addr.line_of (3 * p)))

let prop_ram_last_write_wins =
  QCheck.Test.make ~name:"ram read sees last write" ~count:200
    QCheck.(list (pair (int_range 0 100000) small_nat))
    (fun writes ->
      let r = Ram.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (a, v) ->
          Ram.write r a v;
          Hashtbl.replace model a v)
        writes;
      Hashtbl.fold (fun a v acc -> acc && Ram.read r a = v) model true)

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)
(* ------------------------------------------------------------------ *)

let test_alloc_basic () =
  let al = Alloc.create () in
  let a = Alloc.alloc al 10 in
  let b = Alloc.alloc al 10 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "no overlap" true (b >= a + 10 || a >= b + 10);
  Alcotest.(check int) "size recorded" 10 (Alloc.size_of al a);
  Alcotest.(check int) "live words" 20 (Alloc.live_words al)

let test_alloc_reuse_after_free () =
  let al = Alloc.create () in
  let a = Alloc.alloc al 16 in
  Alloc.free al a;
  let b = Alloc.alloc al 16 in
  Alcotest.(check int) "freed block reused" a b

let test_alloc_double_free_rejected () =
  let al = Alloc.create () in
  let a = Alloc.alloc al 4 in
  Alloc.free al a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Alloc.free: double free") (fun () -> Alloc.free al a)

let test_alloc_lines_alignment () =
  let al = Alloc.create () in
  let _ = Alloc.alloc al 3 in
  let a = Alloc.alloc_lines al 5 in
  Alcotest.(check int) "line aligned" 0 (a mod Addr.words_per_line);
  Alcotest.(check int) "padded to full line" Addr.words_per_line (Alloc.size_of al a)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocated blocks never overlap" ~count:100
    QCheck.(list (int_range 1 64))
    (fun sizes ->
      let al = Alloc.create () in
      let blocks = List.map (fun n -> (Alloc.alloc al n, n)) sizes in
      let rec pairwise = function
        | [] -> true
        | (a, na) :: rest ->
            List.for_all (fun (b, nb) -> a + na <= b || b + nb <= a) rest
            && pairwise rest
      in
      pairwise blocks)

(* The allocator as it was first written, on polymorphic hash tables:
   exact-shape LIFO free lists keyed by (size, align), every block ever
   returned kept with its size and state. *)
module Alloc_model = struct
  type t = {
    mutable cursor : int;
    blocks : (int, int * int * bool ref) Hashtbl.t;  (* size, align, freed *)
    free_lists : (int * int, int list) Hashtbl.t;
    mutable live : int;
  }

  let create () =
    { cursor = Addr.words_per_page; blocks = Hashtbl.create 16; free_lists = Hashtbl.create 16; live = 0 }

  let alloc t ~align n =
    let key = (n, align) in
    let a =
      match Hashtbl.find_opt t.free_lists key with
      | Some (a :: rest) ->
          Hashtbl.replace t.free_lists key rest;
          let _, _, freed = Hashtbl.find t.blocks a in
          freed := false;
          a
      | _ ->
          let a = (t.cursor + align - 1) land lnot (align - 1) in
          t.cursor <- a + n;
          Hashtbl.replace t.blocks a (n, align, ref false);
          a
    in
    t.live <- t.live + n;
    a

  let free t a =
    match Hashtbl.find_opt t.blocks a with
    | None -> invalid_arg "Alloc.free: unknown address"
    | Some (_, _, freed) when !freed -> invalid_arg "Alloc.free: double free"
    | Some (n, align, freed) ->
        freed := true;
        t.live <- t.live - n;
        let l = Option.value ~default:[] (Hashtbl.find_opt t.free_lists (n, align)) in
        Hashtbl.replace t.free_lists (n, align) (a :: l)

  let size_of t a =
    match Hashtbl.find_opt t.blocks a with
    | Some (n, _, _) -> n
    | None -> invalid_arg "Alloc.size_of: unknown address"
end

(* Random allocs and frees against the model: 24 sizes by 4 alignments,
   so the shape table grows past its first 64 slots; about 3000 fresh
   blocks a case, so the block table grows past its first 4096. Frees
   pick any address ever returned, live or already freed (a double
   free), or one just past it (usually unknown). Every returned address,
   every exception message, [size_of] and [live_words] must agree. *)
let prop_alloc_matches_model =
  QCheck.Test.make ~name:"alloc/free match the reference allocator" ~count:20
    QCheck.(
      list_of_size (Gen.int_range 4000 6000)
        (triple (int_bound 9) (int_bound 1_000_000) (int_bound 1_000_000)))
    (fun ops ->
      let al = Alloc.create () and m = Alloc_model.create () in
      let addrs = ref [||] and n = ref 0 in
      let remember a =
        if !n = Array.length !addrs then begin
          let b = Array.make (max 64 (2 * !n)) 0 in
          Array.blit !addrs 0 b 0 !n;
          addrs := b
        end;
        !addrs.(!n) <- a;
        incr n
      in
      let res f = match f () with v -> Ok v | exception Invalid_argument e -> Error e in
      List.for_all
        (fun (kind, a, b) ->
          let pick () = if !n = 0 then 0 else !addrs.(a mod !n) in
          let same =
            if kind <= 6 || !n = 0 then begin
              let size = 1 + (a mod 24) and align = [| 1; 2; 8; 64 |].(b mod 4) in
              let got = Alloc.alloc al ~align size in
              remember got;
              got = Alloc_model.alloc m ~align size
            end
            else
              let addr = if kind = 9 then pick () + 1 + (b mod 3) else pick () in
              res (fun () -> Alloc.free al addr) = res (fun () -> Alloc_model.free m addr)
          in
          let probe = pick () + (if b mod 5 = 0 then 1 else 0) in
          same
          && res (fun () -> Alloc.size_of al probe) = res (fun () -> Alloc_model.size_of m probe)
          && Alloc.live_words al = m.Alloc_model.live)
        ops)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine+mem"
    [
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "peek/drop" `Quick test_pqueue_peek_drop;
          Alcotest.test_case "negative time" `Quick
            test_pqueue_negative_time_rejected;
          Alcotest.test_case "vacated slots" `Quick test_pqueue_vacate_liveness;
          Alcotest.test_case "swap_min errors" `Quick test_pqueue_swap_min_errors;
          q prop_pqueue_sorted;
          q prop_pqueue_matches_model;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_prng_rough_uniformity;
          Alcotest.test_case "high bits" `Quick test_prng_uses_high_bits;
          q prop_prng_range;
          q prop_prng_buckets_uniform;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single thread" `Quick test_engine_single_thread;
          Alcotest.test_case "interleaving" `Quick test_engine_interleaving_deterministic;
          Alcotest.test_case "spawn_at order" `Quick test_engine_spawn_at_absolute_times;
          Alcotest.test_case "spawn_at clock monotone" `Quick
            test_engine_spawn_at_never_regresses_clock;
          Alcotest.test_case "spawn_at chain" `Quick test_engine_spawn_at_chained_arrivals;
          Alcotest.test_case "spawn_at bad args" `Quick
            test_engine_spawn_at_rejects_bad_args;
          Alcotest.test_case "atomic sections" `Quick test_engine_atomic_between_elapses;
          Alcotest.test_case "shared core" `Quick test_engine_threads_share_core;
          Alcotest.test_case "exception" `Quick test_engine_exception_propagates;
          Alcotest.test_case "elapse zero" `Quick test_engine_elapse_zero;
          Alcotest.test_case "negative elapse" `Quick test_engine_negative_elapse_rejected;
          Alcotest.test_case "clock overflow" `Quick test_engine_elapse_overflow;
          Alcotest.test_case "max time" `Quick test_engine_max_time;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "counters" `Quick test_engine_fusion_counters;
          Alcotest.test_case "heap high water" `Quick test_engine_heap_high_water;
          Alcotest.test_case "lookahead window" `Quick
            test_engine_lookahead_window;
          Alcotest.test_case "scheduled elapse words" `Quick
            test_engine_scheduled_elapse_words;
          q prop_fusion_equivalent;
        ] );
      ("addr", [ Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic ]);
      ( "ram",
        [
          Alcotest.test_case "read/write" `Quick test_ram_read_write;
          Alcotest.test_case "line ops" `Quick test_ram_line_ops;
          Alcotest.test_case "pages" `Quick test_ram_pages;
          q prop_ram_last_write_wins;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "reuse" `Quick test_alloc_reuse_after_free;
          Alcotest.test_case "double free" `Quick test_alloc_double_free_rejected;
          Alcotest.test_case "line align" `Quick test_alloc_lines_alignment;
          q prop_alloc_no_overlap;
          q prop_alloc_matches_model;
        ] );
    ]
