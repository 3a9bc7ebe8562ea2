(* Tests for the open-system serving harness: per-seed determinism (with
   and without fault injection), the overload acceptance scenario
   (explicit shedding + timeouts, bounded queues, no livelock), the
   deadline wait bound and the outcome-partition invariant as QCheck
   properties, the governor state machine, and knee detection. *)

module Params = Asf_machine.Params
module Variant = Asf_core.Variant
module Abort = Asf_core.Abort
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Faults = Asf_faults.Faults
module Serve = Asf_serve.Serve

let tm_cfg ?(seed = 1) ?(n_cores = 4) () =
  { (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores) with Tm.seed }

let us_cycles = Params.us_to_cycles Params.barcelona

(* A Poisson load of [mult] x the measured closed-loop capacity, derived
   as the sweep and the CLI derive it. *)
let overloaded tm ~threads cfg mult =
  let mean_gap = Serve.load_gap tm ~threads cfg mult in
  { cfg with Serve.arrival = Serve.Poisson { mean_gap } }

(* Everything a run reports except the raw Stats.t, as one comparable
   value: if any of this drifts between same-seed runs, determinism is
   broken. *)
let signature (r : Serve.result) =
  ( ( r.Serve.r_completed,
      r.Serve.r_shed,
      r.Serve.r_timeout,
      r.Serve.r_late,
      r.Serve.r_retries,
      Array.to_list r.Serve.r_retry_hist ),
    ( r.Serve.r_p50,
      r.Serve.r_p90,
      r.Serve.r_p99,
      r.Serve.r_p999,
      r.Serve.r_max_lat,
      r.Serve.r_makespan ),
    ( r.Serve.r_timeout_aborts,
      r.Serve.r_serial_served,
      r.Serve.r_max_depth,
      r.Serve.r_max_dl_wait,
      r.Serve.r_final_gov,
      Stats.commits r.Serve.r_stats ) )

let partition_holds (r : Serve.result) =
  r.Serve.r_completed + r.Serve.r_shed + r.Serve.r_timeout = r.Serve.r_arrivals

(* ------------------------------------------------------------------ *)
(* Determinism                                                          *)
(* ------------------------------------------------------------------ *)

let small_overload ?(service = Serve.Kv Serve.E) ?(requests = 500) () =
  {
    (Serve.default_cfg service) with
    Serve.requests;
    queue_cap = 8;
    deadline = Some (us_cycles 2);
  }

let run_once ~seed =
  let tm = tm_cfg ~seed () in
  let cfg = overloaded tm ~threads:4 (small_overload ()) 2.5 in
  Serve.run tm ~threads:4 cfg

let test_same_seed_reproduces () =
  let a = run_once ~seed:11 and b = run_once ~seed:11 in
  Alcotest.(check bool) "identical signatures" true (signature a = signature b)

let test_different_seed_differs () =
  let a = run_once ~seed:11 and b = run_once ~seed:12 in
  Alcotest.(check bool) "different seeds differ" true (signature a <> signature b)

let test_deterministic_under_faults () =
  let plan =
    match Faults.plan_of_spec "storm" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let go () =
    let fl = Faults.create ~seed:7 plan in
    Faults.install fl;
    Fun.protect ~finally:Faults.uninstall (fun () -> run_once ~seed:11)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical under storm" true (signature a = signature b);
  Alcotest.(check bool) "partition under storm" true (partition_holds a)

(* ------------------------------------------------------------------ *)
(* Overload acceptance                                                  *)
(* ------------------------------------------------------------------ *)

(* The PR's acceptance scenario: sustained arrivals at 2.5x measured
   capacity must end with explicit shed and timeout censuses, queues
   bounded by the admission cap, the service invariant intact — and no
   [Tm.Livelock] (the run completing at all asserts that). *)
let test_overload_acceptance () =
  let tm = tm_cfg ~seed:3 () in
  let base = small_overload ~requests:1200 () in
  let r = Serve.run tm ~threads:4 (overloaded tm ~threads:4 base 2.5) in
  Alcotest.(check bool) "partition" true (partition_holds r);
  Alcotest.(check bool) "requests were shed" true (r.Serve.r_shed > 0);
  Alcotest.(check bool) "requests timed out" true (r.Serve.r_timeout > 0);
  Alcotest.(check bool) "some requests completed" true (r.Serve.r_completed > 0);
  Alcotest.(check bool) "queue depth bounded" true
    (r.Serve.r_max_depth <= base.Serve.queue_cap);
  Alcotest.(check bool) "invariant" true r.Serve.r_invariant_ok;
  Alcotest.(check bool) "overload cannot beat capacity" true
    (r.Serve.r_achieved <= r.Serve.r_offered)

let test_underload_is_clean () =
  (* At 0.5x capacity nothing should be shed and (with these generous
     deadlines) nothing should time out. *)
  let tm = tm_cfg ~seed:3 () in
  let base =
    {
      (Serve.default_cfg (Serve.Kv Serve.A)) with
      Serve.requests = 500;
      queue_cap = 64;
      deadline = Some (us_cycles 50);
    }
  in
  let r = Serve.run tm ~threads:4 (overloaded tm ~threads:4 base 0.5) in
  Alcotest.(check int) "nothing shed" 0 r.Serve.r_shed;
  Alcotest.(check int) "nothing timed out" 0 r.Serve.r_timeout;
  Alcotest.(check int) "all completed" 500 r.Serve.r_completed;
  Alcotest.(check bool) "invariant" true r.Serve.r_invariant_ok

let all_services =
  [
    Serve.Kv Serve.A; Serve.Kv Serve.B; Serve.Kv Serve.C; Serve.Kv Serve.D;
    Serve.Kv Serve.E; Serve.Kv Serve.F; Serve.Ledger;
  ]

let test_invariants_all_services () =
  List.iter
    (fun service ->
      let tm = tm_cfg ~seed:5 () in
      let base = small_overload ~service ~requests:400 () in
      let r = Serve.run tm ~threads:4 (overloaded tm ~threads:4 base 1.5) in
      let name = Serve.service_name service in
      Alcotest.(check bool) (name ^ ": partition") true (partition_holds r);
      Alcotest.(check bool)
        (name ^ ": invariant (" ^ r.Serve.r_invariant_msg ^ ")")
        true r.Serve.r_invariant_ok)
    all_services

let test_bursty_and_ramp_arrivals () =
  List.iter
    (fun (name, arrival) ->
      let tm = tm_cfg ~seed:9 () in
      let cfg =
        { (small_overload ~requests:400 ()) with Serve.arrival }
      in
      let r = Serve.run tm ~threads:4 cfg in
      let r' = Serve.run (tm_cfg ~seed:9 ()) ~threads:4 cfg in
      Alcotest.(check bool) (name ^ ": partition") true (partition_holds r);
      Alcotest.(check bool) (name ^ ": invariant") true r.Serve.r_invariant_ok;
      Alcotest.(check bool)
        (name ^ ": deterministic") true
        (signature r = signature r'))
    [
      ( "bursty",
        Serve.Bursty
          { mean_gap = 1200; burst_gap = 60; on_window = 30_000; off_window = 30_000 } );
      ("ramp", Serve.Ramp { low_gap = 80; high_gap = 1200; period = 80_000 });
    ]

(* Under the livelock plan (permanent spurious aborts + a hanging
   serial-lock holder) with no deadlines to bail requests out, the run
   must be ended by the progress watchdog, not hang. *)
let test_livelock_plan_still_diagnosed () =
  let plan =
    match Faults.plan_of_spec "livelock" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let fl = Faults.create ~seed:1 plan in
  Faults.install fl;
  Fun.protect ~finally:Faults.uninstall (fun () ->
      let tm =
        { (tm_cfg ~seed:1 ~n_cores:2 ()) with Tm.watchdog_window = 200_000 }
      in
      let cfg =
        {
          (Serve.default_cfg (Serve.Kv Serve.C)) with
          Serve.requests = 50;
          queue_cap = 50;
          deadline = None;
          governor = false;
        }
      in
      match Serve.run tm ~threads:2 cfg with
      | _ -> Alcotest.fail "livelock plan completed without a diagnosis"
      | exception Tm.Livelock d ->
          Alcotest.(check bool) "diagnosis has cores" true (d.Tm.diag_cores <> []))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

(* The deadline property: a request with relative deadline D never
   accumulates more than D + one serial-spin window of backoff + spin
   wait — enforcement points clamp every wait to the remaining budget,
   and only the last serial-lock poll can overshoot. *)
let prop_deadline_bounds_wait =
  QCheck.Test.make ~name:"serve: cumulative wait bounded by deadline + tail"
    ~count:15
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 6)))
    (fun (seed, dl_us) ->
      let tm = tm_cfg ~seed () in
      let deadline = us_cycles dl_us in
      let base =
        { (small_overload ~requests:300 ()) with Serve.deadline = Some deadline }
      in
      let r = Serve.run tm ~threads:4 (overloaded tm ~threads:4 base 2.0) in
      partition_holds r
      && r.Serve.r_max_dl_wait <= deadline + Tm.serial_spin_window max_int)

(* The partition invariant under every named fault plan that lets runs
   finish (livelock is the deliberate exception, tested above): arrivals
   are exactly completed + shed + timed out, never lost, never double
   counted. The lostupdate plan is also excluded: it deliberately breaks
   correctness (dropped transactional stores), so service invariants do
   not hold under it — that plan exists for the Txlin negative fixtures
   (test_txlin.ml, scripts/check.sh). *)
let finishing_plans =
  List.filter
    (fun n -> n <> "livelock" && n <> "lostupdate")
    Faults.plan_names

let prop_partition_under_faults =
  QCheck.Test.make ~name:"serve: outcome partition under every fault plan"
    ~count:(2 * List.length finishing_plans)
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 0 10_000) (int_range 0 (List.length finishing_plans - 1))))
    (fun (seed, pi) ->
      let plan =
        match Faults.plan_of_spec (List.nth finishing_plans pi) with
        | Ok p -> p
        | Error m -> failwith m
      in
      let r =
        if Faults.plan_is_none plan then run_once ~seed
        else begin
          let fl = Faults.create ~seed:(seed + 1) plan in
          Faults.install fl;
          Fun.protect ~finally:Faults.uninstall (fun () -> run_once ~seed)
        end
      in
      partition_holds r && r.Serve.r_invariant_ok)

(* ------------------------------------------------------------------ *)
(* Governor                                                             *)
(* ------------------------------------------------------------------ *)

let gov_state = Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Serve.gov_state_name s))
    ( = )

let test_governor_ladder () =
  let g = Serve.governor_create ~streak:2 ~zero_window:100 ~hi:10 ~lo:2 () in
  Alcotest.check gov_state "starts normal" Serve.Normal (Serve.governor_state g);
  (* One sample at the high watermark is not yet sustained growth. *)
  Serve.governor_step g ~now:0 ~depth:10 ~commits:0;
  Alcotest.check gov_state "streak of 1" Serve.Normal (Serve.governor_state g);
  Serve.governor_step g ~now:10 ~depth:11 ~commits:0;
  Alcotest.check gov_state "sustained growth sheds" Serve.Shedding
    (Serve.governor_state g);
  (* Still backed up and no commit for zero_window cycles: serialize. *)
  Serve.governor_step g ~now:150 ~depth:11 ~commits:0;
  Alcotest.check gov_state "zero commits serialize" Serve.Serial
    (Serve.governor_state g);
  (* Draining to the low watermark recovers. *)
  Serve.governor_step g ~now:200 ~depth:1 ~commits:0;
  Alcotest.check gov_state "drain recovers" Serve.Normal (Serve.governor_state g);
  Alcotest.(check (triple int int int))
    "census counts each transition" (1, 1, 1) (Serve.governor_census g)

let test_governor_commits_prevent_serial () =
  let g = Serve.governor_create ~streak:1 ~zero_window:100 ~hi:10 ~lo:2 () in
  Serve.governor_step g ~now:0 ~depth:10 ~commits:5;
  Alcotest.check gov_state "shedding" Serve.Shedding (Serve.governor_state g);
  (* Commits keep arriving: backed up but making progress, so the
     governor must not escalate to Serial. *)
  Serve.governor_step g ~now:150 ~depth:11 ~commits:9;
  Serve.governor_step g ~now:300 ~depth:11 ~commits:14;
  Alcotest.check gov_state "still only shedding" Serve.Shedding
    (Serve.governor_state g);
  let _, to_serial, _ = Serve.governor_census g in
  Alcotest.(check int) "never serialized" 0 to_serial

let test_governor_two_burst_reescalation () =
  let g = Serve.governor_create ~streak:2 ~zero_window:100 ~hi:10 ~lo:2 () in
  (* First burst: sustained growth sheds, then starvation serializes. *)
  Serve.governor_step g ~now:0 ~depth:10 ~commits:0;
  Serve.governor_step g ~now:10 ~depth:11 ~commits:0;
  Alcotest.check gov_state "burst 1 sheds" Serve.Shedding
    (Serve.governor_state g);
  Serve.governor_step g ~now:150 ~depth:11 ~commits:0;
  Alcotest.check gov_state "burst 1 serializes" Serve.Serial
    (Serve.governor_state g);
  (* Quiet period: the queue drains and the governor fully recovers. *)
  Serve.governor_step g ~now:200 ~depth:1 ~commits:5;
  Alcotest.check gov_state "quiet period recovers" Serve.Normal
    (Serve.governor_state g);
  (* Second burst: recovery must not leave stale streak/commit state
     behind — the same pressure pattern re-escalates the same way. *)
  Serve.governor_step g ~now:300 ~depth:10 ~commits:5;
  Alcotest.check gov_state "burst 2 needs a fresh streak" Serve.Normal
    (Serve.governor_state g);
  Serve.governor_step g ~now:310 ~depth:11 ~commits:5;
  Alcotest.check gov_state "burst 2 sheds again" Serve.Shedding
    (Serve.governor_state g);
  Serve.governor_step g ~now:450 ~depth:11 ~commits:5;
  Alcotest.check gov_state "burst 2 serializes again" Serve.Serial
    (Serve.governor_state g);
  Serve.governor_step g ~now:500 ~depth:0 ~commits:9;
  Alcotest.check gov_state "burst 2 recovers again" Serve.Normal
    (Serve.governor_state g);
  Alcotest.(check (triple int int int))
    "census counts both rounds" (2, 2, 2) (Serve.governor_census g)

let test_governor_streak_resets_on_drain () =
  let g = Serve.governor_create ~streak:3 ~zero_window:1000 ~hi:10 ~lo:2 () in
  Serve.governor_step g ~now:0 ~depth:10 ~commits:1;
  Serve.governor_step g ~now:10 ~depth:12 ~commits:2;
  (* Depth fell: not sustained growth, streak resets. *)
  Serve.governor_step g ~now:20 ~depth:5 ~commits:3;
  Serve.governor_step g ~now:30 ~depth:10 ~commits:4;
  Serve.governor_step g ~now:40 ~depth:11 ~commits:5;
  Alcotest.check gov_state "no spurious shed" Serve.Normal (Serve.governor_state g)

(* ------------------------------------------------------------------ *)
(* Knee detection                                                       *)
(* ------------------------------------------------------------------ *)

let knee = Alcotest.(option (float 1e-9))

let test_knee_point () =
  Alcotest.check knee "no saturation -> no knee" None
    (Serve.knee_point [ (1.0, 1.0); (2.0, 1.95); (3.0, 2.9) ]);
  Alcotest.check knee "largest efficient offered load"
    (Some 2.0)
    (Serve.knee_point [ (1.0, 1.0); (2.0, 1.9); (3.0, 2.0) ]);
  Alcotest.check knee "saturated from the first point" (Some 0.0)
    (Serve.knee_point [ (1.0, 0.5); (2.0, 0.6) ]);
  Alcotest.check knee "threshold respected" (Some 1.0)
    (Serve.knee_point ~threshold:0.99 [ (1.0, 1.0); (2.0, 1.9) ])

let test_closed_probe () =
  let tm = tm_cfg ~seed:2 () in
  let base = { (Serve.default_cfg (Serve.Kv Serve.B)) with Serve.requests = 300 } in
  let capacity = Serve.measure_capacity tm ~threads:4 base in
  Alcotest.(check bool) "positive capacity" true (capacity > 0.0);
  (* The probe itself must neither shed nor time out: every request is
     admitted (cap = population) and deadlines are disabled. *)
  let r =
    Serve.run tm ~threads:4
      { base with Serve.arrival = Serve.Closed; deadline = None; governor = false }
  in
  Alcotest.(check int) "closed: nothing shed" 0 r.Serve.r_shed;
  Alcotest.(check int) "closed: nothing timed out" 0 r.Serve.r_timeout;
  Alcotest.(check int) "closed: all served" 300 r.Serve.r_completed

let test_sweep_shape () =
  let tm = tm_cfg ~seed:4 () in
  let base = { (small_overload ~requests:300 ()) with Serve.deadline = None } in
  let results, knee_opt = Serve.sweep tm ~threads:4 base ~mults:[ 0.5; 2.5 ] in
  Alcotest.(check int) "one result per multiplier" 2 (List.length results);
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "partition" true (partition_holds r))
    results;
  (* 2.5x capacity cannot be served at 90% efficiency, so the knee must
     be visible and at most the low point's offered load. *)
  match knee_opt with
  | None -> Alcotest.fail "no knee detected at 2.5x overload"
  | Some k ->
      let lo = List.hd results |> snd in
      Alcotest.(check bool) "knee at/below the efficient point" true
        (k <= lo.Serve.r_offered +. 1e-9)

let () =
  Alcotest.run "serve"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed reproduces" `Quick test_same_seed_reproduces;
          Alcotest.test_case "different seed differs" `Quick
            test_different_seed_differs;
          Alcotest.test_case "same seed under storm" `Quick
            test_deterministic_under_faults;
        ] );
      ( "overload",
        [
          Alcotest.test_case "2.5x acceptance" `Quick test_overload_acceptance;
          Alcotest.test_case "0.5x clean" `Quick test_underload_is_clean;
          Alcotest.test_case "all services" `Quick test_invariants_all_services;
          Alcotest.test_case "bursty + ramp" `Quick test_bursty_and_ramp_arrivals;
          Alcotest.test_case "livelock plan diagnosed" `Quick
            test_livelock_plan_still_diagnosed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_deadline_bounds_wait;
          QCheck_alcotest.to_alcotest prop_partition_under_faults;
        ] );
      ( "governor",
        [
          Alcotest.test_case "ladder" `Quick test_governor_ladder;
          Alcotest.test_case "commits prevent serial" `Quick
            test_governor_commits_prevent_serial;
          Alcotest.test_case "streak resets" `Quick
            test_governor_streak_resets_on_drain;
          Alcotest.test_case "two-burst re-escalation" `Quick
            test_governor_two_burst_reescalation;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "knee point" `Quick test_knee_point;
          Alcotest.test_case "closed probe" `Quick test_closed_probe;
          Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
        ] );
    ]
