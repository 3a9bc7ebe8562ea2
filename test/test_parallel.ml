(* Tests for Asf_parallel.Parallel — the deterministic domain pool — and
   the determinism contract it gives the experiment harness (DESIGN.md,
   "The determinism contract").

   The battery pins the contract from the outside: for a spread of
   experiments, seeds and pool widths (including a width far beyond the
   cell count), the reports and every simulation counter must be
   bit-identical to the sequential run — also with a Txcheck checker and
   a Faultline injector installed. The seed sweep then checks that the
   simulated physics keeps its paper shape across seeds rather than on
   one lucky seed. *)

module Parallel = Asf_parallel.Parallel
module Counters = Asf_engine.Counters
module Experiments = Asf_harness.Experiments
module Report = Asf_harness.Report
module Trace = Asf_trace.Trace
module Check = Asf_check.Check
module Faults = Asf_faults.Faults
module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Variant = Asf_core.Variant
module Intset = Asf_intset.Intset

(* Every test leaves the pool back at jobs = 1 even on failure. *)
let with_pool f =
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  with_pool (fun () ->
      let xs = List.init 100 Fun.id in
      let expect = List.map (fun x -> x * x) xs in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "map ~jobs:%d preserves submission order" jobs)
            expect
            (Parallel.map ~jobs (fun x -> x * x) xs))
        [ 1; 2; 4; 64 ])

let test_jobs_exceed_work () =
  with_pool (fun () ->
      (* More domains than thunks: the pool must clamp, not spawn idle
         domains or lose results. *)
      Alcotest.(check (list int))
        "3 thunks on a 64-wide pool" [ 0; 1; 2 ]
        (Parallel.map ~jobs:64 Fun.id [ 0; 1; 2 ]))

let test_lowest_index_exception () =
  with_pool (fun () ->
      let thunks =
        Array.init 10 (fun i () ->
            if i = 3 then failwith "boom-3"
            else if i = 7 then failwith "boom-7"
            else i)
      in
      List.iter
        (fun jobs ->
          match Parallel.run_thunks ~jobs thunks with
          | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
          | exception Failure m ->
              (* Same exception a sequential left-to-right run surfaces
                 first, whichever domain hit it. *)
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d re-raises the lowest index" jobs)
                "boom-3" m)
        [ 1; 2; 4 ])

let test_set_jobs_clamp () =
  with_pool (fun () ->
      Parallel.set_jobs 0;
      Alcotest.(check int) "set_jobs 0 clamps to 1" 1 (Parallel.jobs ());
      Parallel.set_jobs (-5);
      Alcotest.(check int) "set_jobs -5 clamps to 1" 1 (Parallel.jobs ());
      Parallel.set_jobs 6;
      Alcotest.(check int) "set_jobs 6 sticks" 6 (Parallel.jobs ()))

(* Chunked-claiming schedule independence: whatever the worker count and
   claim-chunk size (pinned via ?chunk, overriding the guided rule), the
   pool must return exactly the sequential results in submission order. *)
let prop_chunking_schedule_independent =
  QCheck.Test.make
    ~name:"any (jobs, chunk) schedule matches the sequential results"
    ~count:40
    QCheck.(triple (int_range 1 200) (int_range 1 8) (int_range 1 64))
    (fun (n, jobs, chunk) ->
      with_pool (fun () ->
          let xs = Array.init n Fun.id in
          let expect = Array.map (fun x -> (x * 7) + 1) xs in
          let got = Parallel.map_array ~jobs ~chunk (fun x -> (x * 7) + 1) xs in
          got = expect))

(* Fail-fast: once a sibling has failed, workers stop claiming — with
   64 one-claim chunks and a failure on the very first cell, a
   significant tail of the matrix must go unclaimed (each surviving cell
   spins long enough that a non-fail-fast pool would burn all 64). The
   lowest-index exception is still the one re-raised. *)
let test_fail_fast_skips_tail () =
  with_pool (fun () ->
      let n = 64 in
      let executed = Atomic.make 0 in
      let thunks =
        Array.init n (fun i () ->
            Atomic.incr executed;
            if i = 0 then failwith "boom-0"
            else
              for _ = 1 to 200_000 do
                ignore (Sys.opaque_identity i)
              done)
      in
      match Parallel.run_thunks ~jobs:2 ~chunk:1 thunks with
      | _ -> Alcotest.fail "expected boom-0 to escape"
      | exception Failure m ->
          Alcotest.(check string) "lowest-index exception" "boom-0" m;
          let ran = Atomic.get executed in
          if ran > n / 2 then
            Alcotest.failf "fail-fast barely skipped: %d/%d cells ran" ran n)

let test_trace_forces_sequential () =
  with_pool (fun () ->
      (* Tracer rings are ordered by host emission, so cell_map must
         degrade to the calling domain while a tracer is installed. *)
      let tr = Trace.create () in
      Trace.install tr;
      Fun.protect ~finally:Trace.uninstall (fun () ->
          Parallel.set_jobs 4;
          let main = (Domain.self () :> int) in
          let domains =
            Parallel.cell_map (fun _ -> (Domain.self () :> int)) (List.init 8 Fun.id)
          in
          List.iter
            (Alcotest.(check int) "cell ran on the main domain" main)
            domains))

(* The pool on the speedup fixture (raw run_thunks over pure-compute
   cells, no harness): --jobs 2 returns exactly the sequential results.
   The speedup itself is not asserted here, because dune runs other test
   binaries beside this one; @perf-smoke's --min-speedup 1.0 gates it. *)
let test_pool_speedup_smoke () =
  with_pool (fun () ->
      let cells = 8 in
      let work i =
        let acc = ref i in
        for k = 1 to 2_000_000 do
          acc := (!acc + (k * k)) lxor (!acc lsr 3)
        done;
        !acc
      in
      let run jobs = Parallel.run_thunks ~jobs (Array.init cells (fun i () -> work i)) in
      let rs = run 1 in
      let rp = run 2 in
      Alcotest.(check bool) "parallel results identical" true (rs = rp))

(* A window reports the sums' differences and its own high-water, and
   leaves the bank's high-water at the max of before and during; merge
   adds sums and takes the max of the high-water. Run on a fresh domain
   so its bank starts at zero. *)
let test_counters_window_merge () =
  let window, bank =
    Domain.join
      (Domain.spawn (fun () ->
           let b = Counters.bank () in
           Counters.add b Counters.sim_cycles 100;
           Counters.add b Counters.probes 3;
           b.(Counters.dir_high_water) <- 50;
           let w = Counters.open_window () in
           Alcotest.(check int) "window zeroes the high-water" 0
             b.(Counters.dir_high_water);
           Counters.add b Counters.sim_cycles 40;
           Counters.add b Counters.forwards 2;
           b.(Counters.dir_high_water) <- 20;
           let window = Counters.close_window w in
           (window, Array.copy b)))
  in
  let expect = Array.make Counters.n 0 in
  expect.(Counters.sim_cycles) <- 40;
  expect.(Counters.forwards) <- 2;
  expect.(Counters.dir_high_water) <- 20;
  Alcotest.(check (array int)) "window = differences + own high-water" expect window;
  Alcotest.(check int) "bank high-water restored as a max" 50
    bank.(Counters.dir_high_water);
  Alcotest.(check int) "bank sums untouched" 140 bank.(Counters.sim_cycles);
  let into = Array.copy window in
  let other = Array.make Counters.n 1 in
  other.(Counters.dir_high_water) <- 7;
  Counters.merge ~into other;
  Alcotest.(check int) "merge adds sums" 41 into.(Counters.sim_cycles);
  Alcotest.(check int) "merge adds every sum" 3 into.(Counters.forwards);
  Alcotest.(check int) "merge takes the high-water max" 20
    into.(Counters.dir_high_water)

(* ------------------------------------------------------------------ *)
(* Determinism battery                                                  *)
(* ------------------------------------------------------------------ *)

let get_exp id =
  match Experiments.find id with
  | Some e -> e
  | None -> Alcotest.failf "unknown experiment %s" id

(* One cold (memoisation dropped) quick run at the given pool width,
   rendered to CSV — the same bytes the harness would write to disk —
   with the run's whole counter bank. *)
let run_exp e ~seed ~jobs =
  Experiments.clear_cache ();
  Parallel.set_jobs jobs;
  Parallel.reset_counters ();
  let reports = e.Experiments.run ~quick:true ~seed in
  let csv = String.concat "\n" (List.map Report.to_csv reports) in
  (csv, Parallel.counters ())

let battery_ids = [ "abl-wins"; "abl-socket"; "abl-backoff"; "fig3"; "tab1" ]

let test_determinism_battery () =
  with_pool (fun () ->
      List.iter
        (fun id ->
          let e = get_exp id in
          List.iter
            (fun seed ->
              let base_csv, base_counters = run_exp e ~seed ~jobs:1 in
              Alcotest.(check bool)
                (Printf.sprintf "%s seed=%d produced output" id seed)
                true
                (String.length base_csv > 0);
              Alcotest.(check bool)
                (Printf.sprintf "%s seed=%d counted cycles and directory lines" id
                   seed)
                true
                (base_counters.(Counters.sim_cycles) > 0
                && base_counters.(Counters.dir_high_water) > 0);
              (* 64 exceeds every quick experiment's cell count. *)
              List.iter
                (fun jobs ->
                  let csv, counters = run_exp e ~seed ~jobs in
                  Alcotest.(check string)
                    (Printf.sprintf "%s seed=%d jobs=%d CSV bit-identical" id
                       seed jobs)
                    base_csv csv;
                  Alcotest.(check (array int))
                    (Printf.sprintf "%s seed=%d jobs=%d same counters" id seed
                       jobs)
                    base_counters counters)
                [ 2; 4; 64 ])
            [ 1; 7 ])
        battery_ids)

let test_determinism_fig6 () =
  (* fig6 exercises the STAMP path and the calibration-stamp prefetch. *)
  with_pool (fun () ->
      let e = get_exp "fig6" in
      let base_csv, base_counters = run_exp e ~seed:1 ~jobs:1 in
      let csv, counters = run_exp e ~seed:1 ~jobs:3 in
      Alcotest.(check string) "fig6 jobs=3 CSV bit-identical" base_csv csv;
      Alcotest.(check (array int)) "fig6 jobs=3 same counters" base_counters
        counters)

(* The contract must also hold with observability installed: per-cell
   checkers / injectors are derived, then merged in cell order, so the
   findings table and the injection census cannot depend on the pool
   width. *)
let run_checked ~jobs =
  Experiments.clear_cache ();
  Parallel.set_jobs jobs;
  let chk = Check.create ~parts:[ Check.Isolation; Check.Serial; Check.Lint ] () in
  let plan =
    match Faults.plan_of_spec "jitter" with
    | Ok p -> p
    | Error m -> Alcotest.failf "faults plan: %s" m
  in
  let fl = Faults.create ~seed:42 plan in
  Check.install chk;
  Faults.install fl;
  Fun.protect
    ~finally:(fun () ->
      Check.uninstall ();
      Faults.uninstall ())
    (fun () ->
      let e = get_exp "abl-wins" in
      let reports = e.Experiments.run ~quick:true ~seed:1 in
      let csv = String.concat "\n" (List.map Report.to_csv reports) in
      let findings = Report.to_csv (Report.of_check ~id:"chk" chk) in
      (csv, findings, Faults.counts fl))

let test_determinism_under_check_faults () =
  with_pool (fun () ->
      let base_csv, base_findings, base_census = run_checked ~jobs:1 in
      Alcotest.(check bool) "census not empty under jitter plan" true
        (List.exists (fun (_, n) -> n > 0) base_census);
      List.iter
        (fun jobs ->
          let csv, findings, census = run_checked ~jobs in
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d reports identical under check+faults" jobs)
            base_csv csv;
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d findings table identical" jobs)
            base_findings findings;
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "jobs=%d injection census identical" jobs)
            base_census census)
        [ 2; 5 ])

(* ------------------------------------------------------------------ *)
(* Seed-sweep sanity                                                    *)
(* ------------------------------------------------------------------ *)

let sweep_seeds = [ 1; 2; 3; 4; 5 ]

let tm_cfg mode ~threads ~seed =
  { (Tm.default_config mode ~n_cores:threads) with Tm.seed }

let spec_rate (r : Intset.result) =
  let c = Stats.commits r.Intset.stats
  and s = Stats.serial_commits r.Intset.stats in
  float_of_int (c - s) /. float_of_int (max 1 c)

(* The long linked list (~510 nodes walked per lookup) blows the LLB-8
   capacity on nearly every attempt, forcing serial execution; LLB-256
   commits a large fraction speculatively (paper Fig. 5/8 shape). *)
let test_sweep_capacity_spec_rate () =
  List.iter
    (fun seed ->
      let c =
        { (Intset.default_cfg Intset.Linked_list) with
          Intset.range = 1020;
          init_size = Some 510;
          update_pct = 20;
          txns_per_thread = 150;
        }
      in
      let run variant =
        Intset.run (tm_cfg (Tm.Asf_mode variant) ~threads:8 ~seed) ~threads:8 c
      in
      let r8 = spec_rate (run Variant.llb8)
      and r256 = spec_rate (run Variant.llb256) in
      if not (r256 > r8 +. 0.1) then
        Alcotest.failf
          "seed %d: LLB-256 speculative commit rate %.3f not well above \
           LLB-8's %.3f on the large-read-set list"
          seed r256 r8;
      if r8 > 0.2 then
        Alcotest.failf
          "seed %d: LLB-8 speculative commit rate %.3f — expected the large \
           read set to exceed 8 lines almost always"
          seed r8)
    sweep_seeds

(* Same LLB, small footprint: the hash set's probe touches a handful of
   lines, so LLB-8 stops serialising (capacity, not contention, was the
   limiter above). *)
let test_sweep_capacity_footprint () =
  List.iter
    (fun seed ->
      let hs =
        let c =
          { (Intset.default_cfg Intset.Hash_set) with
            Intset.range = 256;
            update_pct = 20;
            txns_per_thread = 300;
          }
        in
        Intset.run (tm_cfg (Tm.Asf_mode Variant.llb8) ~threads:8 ~seed) ~threads:8 c
      in
      let r = spec_rate hs in
      if r < 0.9 then
        Alcotest.failf
          "seed %d: LLB-8 speculative commit rate %.3f on the small-footprint \
           hash set — capacity should not bite here"
          seed r)
    sweep_seeds

(* Contention shape: a read-only workload has nothing to conflict on;
   turning every transaction into an update must create aborts. *)
let test_sweep_contention_aborts () =
  List.iter
    (fun seed ->
      let run upd =
        let c =
          { (Intset.default_cfg Intset.Hash_set) with
            Intset.range = 256;
            update_pct = upd;
            txns_per_thread = 300;
          }
        in
        Intset.run
          (tm_cfg (Tm.Asf_mode Variant.llb256) ~threads:8 ~seed)
          ~threads:8 c
      in
      let ab upd = Stats.total_aborts (run upd).Intset.stats in
      let a0 = ab 0 and a100 = ab 100 in
      if a0 <> 0 then
        Alcotest.failf "seed %d: %d aborts on a read-only workload" seed a0;
      if a100 <= a0 then
        Alcotest.failf
          "seed %d: 100%% updates produced %d aborts, read-only %d — \
           contention should create aborts"
          seed a100 a0)
    sweep_seeds

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "jobs exceed work" `Quick test_jobs_exceed_work;
          Alcotest.test_case "lowest-index exception" `Quick
            test_lowest_index_exception;
          Alcotest.test_case "set_jobs clamps" `Quick test_set_jobs_clamp;
          Alcotest.test_case "fail-fast skips the tail" `Quick
            test_fail_fast_skips_tail;
          Alcotest.test_case "trace forces sequential" `Quick
            test_trace_forces_sequential;
          QCheck_alcotest.to_alcotest prop_chunking_schedule_independent;
          Alcotest.test_case "pool speedup smoke" `Slow test_pool_speedup_smoke;
          Alcotest.test_case "counter window and merge" `Quick
            test_counters_window_merge;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "battery: experiments x seeds x jobs" `Slow
            test_determinism_battery;
          Alcotest.test_case "fig6 (stamp prefetch)" `Slow
            test_determinism_fig6;
          Alcotest.test_case "under checker and fault injection" `Slow
            test_determinism_under_check_faults;
        ] );
      ( "seed-sweep",
        [
          Alcotest.test_case "capacity: spec commit rate by LLB size" `Slow
            test_sweep_capacity_spec_rate;
          Alcotest.test_case "capacity: footprint releases LLB-8" `Slow
            test_sweep_capacity_footprint;
          Alcotest.test_case "contention: updates create aborts" `Slow
            test_sweep_contention_aborts;
        ] );
    ]
