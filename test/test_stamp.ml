(* Tests for the STAMP-like applications: every app must pass its own
   validation checks in every execution mode, deterministically, and
   reproduce its pinned simulated digest. *)

module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Variant = Asf_core.Variant
module Stamp = Asf_stamp.Stamp
module C = Asf_stamp.Stamp_common

let modes =
  [
    ("llb8", Tm.Asf_mode Variant.llb8, 4);
    ("llb256", Tm.Asf_mode Variant.llb256, 4);
    ("llb8-l1", Tm.Asf_mode Variant.llb8_l1, 4);
    ("llb256-l1", Tm.Asf_mode Variant.llb256_l1, 4);
    ("stm", Tm.Stm_mode, 4);
    ("seq", Tm.Seq_mode, 1);
  ]

let run_app app mode threads =
  let tm = Tm.default_config mode ~n_cores:threads in
  Stamp.run_scaled app ~scale:0.25 tm ~threads

let test_app_valid app (mname, mode, threads) () =
  let r = run_app app mode threads in
  List.iter
    (fun (check, passed) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: %s" (Stamp.name app) mname check)
        true passed)
    r.C.checks;
  Alcotest.(check bool) "made progress" true (r.C.cycles > 0);
  Alcotest.(check bool) "ran transactions" true (Stats.commits r.C.stats > 0)

(* Each app's simulated digest at scale 0.25 on 4 threads: makespan,
   commits, serial commits and aborts by {!Asf_core.Abort.index}. A
   change that moves one simulated access (a refactor of an app's worker,
   a different setup order) moves a digest. *)
let digests =
  [
    ("genome", "llb8", (435370, 7194, 5), [| 60; 5; 27; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("genome", "llb256", (438100, 7194, 0), [| 60; 0; 27; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("genome", "stm", (832470, 7194, 0), [| 53; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("intruder", "llb8", (90591, 580, 2), [| 273; 0; 3; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("intruder", "llb256", (90591, 580, 2), [| 273; 0; 3; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("intruder", "stm", (190556, 580, 0), [| 297; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("kmeans-low", "llb8", (522190, 792, 0), [| 18; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("kmeans-low", "llb256", (522190, 792, 0), [| 18; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("kmeans-low", "stm", (674277, 792, 0), [| 42; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("kmeans-high", "llb8", (240086, 792, 0), [| 66; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("kmeans-high", "llb256", (240086, 792, 0), [| 66; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("kmeans-high", "stm", (405309, 792, 0), [| 217; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("labyrinth", "llb8", (275195, 36, 16), [| 9; 16; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("labyrinth", "llb256", (317613, 36, 16), [| 25; 16; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("labyrinth", "stm", (1846568, 36, 0), [| 63; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("ssca2", "llb8", (101112, 1536, 0), [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("ssca2", "llb256", (101112, 1536, 0), [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("ssca2", "stm", (206446, 1536, 0), [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("vacation-low", "llb8", (934100, 512, 512), [| 43; 510; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("vacation-low", "llb256", (239908, 512, 0), [| 33; 0; 11; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("vacation-low", "stm", (686296, 512, 0), [| 7; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("vacation-high", "llb8", (1229929, 512, 512), [| 27; 511; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("vacation-high", "llb256", (323783, 512, 0), [| 101; 0; 9; 0; 0; 0; 0; 0; 0; 0; 0 |]);
    ("vacation-high", "stm", (1030297, 512, 0), [| 66; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]);
  ]

let test_digest (app, mname, counts, aborts) () =
  let _, mode, threads = List.find (fun (m, _, _) -> m = mname) modes in
  let r = run_app (Option.get (Stamp.of_name app)) mode threads in
  let s = r.C.stats in
  Alcotest.(check (triple int int int)) "cycles, commits, serial commits" counts
    (r.C.cycles, Stats.commits s, Stats.serial_commits s);
  Alcotest.(check (array int)) "aborts by reason" aborts (Stats.aborts s)

let test_deterministic () =
  (* Same config + seed => bit-identical makespan and stats. *)
  let run () =
    let tm = Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:4 in
    let r = Stamp.run_scaled Stamp.Intruder ~scale:0.25 tm ~threads:4 in
    (r.C.cycles, Stats.commits r.C.stats, Stats.total_aborts r.C.stats)
  in
  Alcotest.(check (triple int int int)) "identical reruns" (run ()) (run ())

let test_seed_changes_schedule () =
  let run seed =
    let tm = { (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:4) with Tm.seed } in
    (Stamp.run_scaled Stamp.Vacation_low ~scale:0.25 tm ~threads:4).C.cycles
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let test_stamp_names_roundtrip () =
  List.iter
    (fun app ->
      Alcotest.(check bool)
        (Stamp.name app ^ " roundtrips")
        true
        (Stamp.of_name (Stamp.name app) = Some app))
    Stamp.all;
  Alcotest.(check bool) "unknown name" true (Stamp.of_name "nope" = None)

let test_more_threads_less_time () =
  (* The scalable apps must show speedup between 1 and 8 threads on
     LLB-256. *)
  List.iter
    (fun app ->
      let time threads =
        let tm = Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:threads in
        (Stamp.run app tm ~threads).C.cycles
      in
      let t1 = time 1 and t8 = time 8 in
      Alcotest.(check bool)
        (Printf.sprintf "%s speeds up (1t=%d, 8t=%d)" (Stamp.name app) t1 t8)
        true
        (float_of_int t8 < 0.5 *. float_of_int t1))
    [ Stamp.Genome; Stamp.Ssca2; Stamp.Kmeans_low; Stamp.Vacation_low ]

let test_serial_dominated_apps () =
  (* On LLB-8, vacation transactions exceed capacity and run serially. *)
  let tm = Tm.default_config (Tm.Asf_mode Variant.llb8) ~n_cores:2 in
  let r = Stamp.run_scaled Stamp.Vacation_low ~scale:0.25 tm ~threads:2 in
  let serial = Stats.serial_commits r.C.stats in
  let commits = Stats.commits r.C.stats in
  Alcotest.(check bool)
    (Printf.sprintf "mostly serial (%d/%d)" serial commits)
    true
    (float_of_int serial > 0.8 *. float_of_int commits)

let test_kmeans_contention_ordering () =
  (* Fewer clusters (high contention) must abort more than more clusters
     (low contention) at the same thread count. *)
  let aborts app =
    let tm = Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:8 in
    Stats.total_aborts (Stamp.run app tm ~threads:8).C.stats
  in
  let low = aborts Stamp.Kmeans_low and high = aborts Stamp.Kmeans_high in
  Alcotest.(check bool)
    (Printf.sprintf "high (%d) > low (%d)" high low)
    true (high > low)

let () =
  let per_app =
    List.map
      (fun app ->
        ( Stamp.name app,
          List.map
            (fun ((mname, _, _) as m) ->
              Alcotest.test_case mname `Quick (test_app_valid app m))
            modes ))
      Stamp.all
  in
  Alcotest.run "stamp"
    (per_app
    @ [
        ( "digests",
          List.map
            (fun ((app, mname, _, _) as d) ->
              Alcotest.test_case (app ^ "/" ^ mname) `Quick (test_digest d))
            digests );
        ( "properties",
          [
            Alcotest.test_case "deterministic" `Quick test_deterministic;
            Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_schedule;
            Alcotest.test_case "name roundtrip" `Quick test_stamp_names_roundtrip;
            Alcotest.test_case "scalability" `Slow test_more_threads_less_time;
            Alcotest.test_case "serial domination" `Quick test_serial_dominated_apps;
            Alcotest.test_case "contention ordering" `Slow test_kmeans_contention_ordering;
          ] );
      ])
