(* Tests for the Txcheck subsystem: checked/unchecked equivalence, the
   shadow-memory isolation checker against deliberately broken hardware,
   the conflict-serializability oracle, abort hygiene under a disabled
   rollback, and the capacity/annotation lint. *)

module Engine = Asf_engine.Engine
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Memsys = Asf_cache.Memsys
module Abort = Asf_core.Abort
module Variant = Asf_core.Variant
module Asf = Asf_core.Asf
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Intset = Asf_intset.Intset
module Check = Asf_check.Check

let setup ?(n_cores = 2) ?(variant = Variant.llb8) ?(rollback = true)
    ?(resolve = true) () =
  let e = Engine.create ~n_cores () in
  let m = Memsys.create Params.barcelona e in
  let a =
    Asf.create m ~rollback_on_abort:rollback ~resolve_conflicts:resolve variant
  in
  for p = 0 to 63 do
    Memsys.map_page m p
  done;
  (e, m, a)

let run_threads e fns =
  List.iteri (fun core f -> Engine.spawn e ~core f) fns;
  Engine.run e

let with_checker ?parts f =
  let chk = Check.create ?parts () in
  Check.install chk;
  let r = Fun.protect ~finally:Check.uninstall f in
  Check.finalize chk;
  (chk, r)

let kinds chk = List.map (fun f -> f.Check.kind) (Check.violations chk)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let find_kind chk kind =
  List.find_opt (fun f -> f.Check.kind = kind) (Check.violations chk)

(* ------------------------------------------------------------------ *)
(* Part name parsing                                                    *)
(* ------------------------------------------------------------------ *)

let test_parts_of_names () =
  Alcotest.(check int) "empty means all" 3
    (List.length (Check.parts_of_names []));
  Alcotest.(check bool) "subset" true
    (Check.parts_of_names [ "serial"; "lint" ] = [ Check.Serial; Check.Lint ]);
  match Check.parts_of_names [ "bogus" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown part name must be rejected"

(* ------------------------------------------------------------------ *)
(* Equivalence: checking must not change any number                     *)
(* ------------------------------------------------------------------ *)

let intset_run () =
  let cfg =
    {
      (Intset.default_cfg Intset.Skip_list) with
      Intset.range = 256;
      update_pct = 50;
      txns_per_thread = 150;
    }
  in
  let tm =
    { (Tm.default_config (Tm.Asf_mode Variant.llb8) ~n_cores:4) with Tm.seed = 3 }
  in
  Intset.run tm ~threads:4 cfg

let test_check_off_equivalence () =
  let chk, checked = with_checker intset_run in
  let plain = intset_run () in
  Alcotest.(check int) "identical cycles" plain.Intset.cycles checked.Intset.cycles;
  Alcotest.(check (float 0.0)) "identical throughput"
    plain.Intset.throughput_tx_per_us checked.Intset.throughput_tx_per_us;
  Alcotest.(check int) "identical commits" (Stats.commits plain.Intset.stats)
    (Stats.commits checked.Intset.stats);
  Alcotest.(check int) "identical aborts"
    (Stats.total_aborts plain.Intset.stats)
    (Stats.total_aborts checked.Intset.stats);
  Alcotest.(check bool) "both size-checked" plain.Intset.size_ok
    checked.Intset.size_ok;
  Alcotest.(check (list string)) "stock stack has no violations" [] (kinds chk)

let stm_counter_run () =
  let cfg = { (Tm.default_config Tm.Stm_mode ~n_cores:2) with Tm.seed = 7 } in
  let sys = Tm.create cfg in
  let counter = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys counter 0;
  for core = 0 to 1 do
    Tm.spawn sys ~core (fun ctx ->
        for _ = 1 to 60 do
          Tm.atomic ctx (fun () ->
              let v = Tm.load ctx counter in
              Tm.work ctx 15;
              Tm.store ctx counter (v + 1))
        done)
    |> ignore
  done;
  Tm.run sys;
  (Tm.setup_peek sys counter, Tm.makespan sys)

let test_check_stm_equivalence () =
  let chk, (total, makespan) = with_checker stm_counter_run in
  let total', makespan' = stm_counter_run () in
  Alcotest.(check int) "no lost updates" 120 total;
  Alcotest.(check int) "same final memory" total' total;
  Alcotest.(check int) "same makespan" makespan' makespan;
  Alcotest.(check (list string)) "STM run has no violations" [] (kinds chk)

(* ------------------------------------------------------------------ *)
(* Isolation: broken hardware must be caught                            *)
(* ------------------------------------------------------------------ *)

let test_strong_isolation_detected () =
  (* Conflict-blind probes: core 1's plain load completes while core 0's
     uncommitted speculative store to the same line is live. *)
  let e, m, a = setup ~resolve:false () in
  Memsys.poke m 600 77;
  let chk = Check.create ~parts:[ Check.Isolation ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 600 88;
        Engine.elapse 4000;
        Asf.commit a ~core:0);
      (fun () ->
        Engine.elapse 500;
        ignore (Asf.plain_load a ~core:1 600));
    ];
  Check.finalize chk;
  match find_kind chk "strong-isolation" with
  | Some f ->
      Alcotest.(check (option int)) "offending line"
        (Some (Addr.line_base (Addr.line_of 600)))
        f.Check.line;
      Alcotest.(check bool) "both cores named" true
        (List.mem 0 f.Check.cores && List.mem 1 f.Check.cores);
      Alcotest.(check bool) "event trail present" true (f.Check.trail <> []);
      (* The trail ends with the offending plain load. *)
      let last = List.nth f.Check.trail (List.length f.Check.trail - 1) in
      Alcotest.(check bool) "trail ends at the plain load" true
        (contains ~sub:"plain load" last)
  | None -> Alcotest.failf "expected strong-isolation, got %s" (String.concat "," (kinds chk))

let test_unannotated_race_detected () =
  (* A plain store races a line another region merely read; with probes
     disabled the holder survives, which the checker must flag. *)
  let e, m, a = setup ~resolve:false () in
  Memsys.poke m 700 3;
  let chk = Check.create ~parts:[ Check.Isolation ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        ignore (Asf.lock_load a ~core:0 700);
        Engine.elapse 4000;
        Asf.commit a ~core:0);
      (fun () ->
        Engine.elapse 500;
        Asf.plain_store a ~core:1 700 4);
    ];
  Check.finalize chk;
  Alcotest.(check bool) "unannotated-race reported" true
    (find_kind chk "unannotated-race" <> None)

let test_colocation_detected () =
  (* Stock hardware, broken program: a plain load from a line the same
     region speculatively wrote (on LLB hardware it would read the stale
     committed copy, not the speculative one). *)
  let e, m, a = setup () in
  Memsys.poke m 900 1;
  let chk = Check.create ~parts:[ Check.Isolation ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 900 2;
        ignore (Asf.plain_load a ~core:0 900);
        Asf.commit a ~core:0);
    ];
  Check.finalize chk;
  Alcotest.(check (list string)) "exactly one colocation violation"
    [ "colocation" ] (kinds chk)

let test_stock_hardware_clean () =
  (* The same conflicting schedule as the strong-isolation test but with
     working requester-wins probes: zero violations. *)
  let e, m, a = setup () in
  Memsys.poke m 600 77;
  let chk = Check.create () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        (try
           Asf.speculate a ~core:0;
           Asf.lock_store a ~core:0 600 88;
           Engine.elapse 4000;
           Asf.commit a ~core:0
         with Asf.Aborted _ -> ()));
      (fun () ->
        Engine.elapse 500;
        ignore (Asf.plain_load a ~core:1 600));
    ];
  Check.finalize chk;
  Alcotest.(check (list string)) "no violations" [] (kinds chk)

(* ------------------------------------------------------------------ *)
(* Serializability oracle and abort hygiene                             *)
(* ------------------------------------------------------------------ *)

(* Two regions that cross-write, meant to run with conflict resolution
   disabled so both commit: core 0 reads A then writes B, core 1 reads B
   then writes A — a classic unserializable interleaving. With [release],
   core 0 RELEASEs A right after reading it. *)
let cross_writes ?(release = false) a =
  let la = 1000 and lb = 2000 in
  [
    (fun () ->
      Asf.speculate a ~core:0;
      ignore (Asf.lock_load a ~core:0 la);
      if release then Asf.release a ~core:0 la;
      Engine.elapse 5000;
      Asf.lock_store a ~core:0 lb 1;
      Asf.commit a ~core:0);
    (fun () ->
      Engine.elapse 1000;
      Asf.speculate a ~core:1;
      ignore (Asf.lock_load a ~core:1 lb);
      Engine.elapse 5000;
      Asf.lock_store a ~core:1 la 2;
      Asf.commit a ~core:1);
  ]

let test_conflict_cycle_detected () =
  let e, m, a = setup ~resolve:false () in
  let chk = Check.create ~parts:[ Check.Serial ] () in
  Check.attach chk ~asf:a m;
  run_threads e (cross_writes a);
  Check.finalize chk;
  match find_kind chk "conflict-cycle" with
  | Some f ->
      Alcotest.(check bool) "both cores in the cycle" true
        (List.mem 0 f.Check.cores && List.mem 1 f.Check.cores);
      Alcotest.(check bool) "cycle trail names the attempts" true
        (List.length f.Check.trail >= 2)
  | None -> Alcotest.failf "expected conflict-cycle, got %s" (String.concat "," (kinds chk))

let test_release_drops_read () =
  (* Core 0 RELEASEs its read of A before core 1 writes A and commits:
     the read leaves the oracle's history, so only core 1 -> core 0 (on
     B) remains and there is no cycle. Without the RELEASE the same
     schedule is a cycle. *)
  let cycles release =
    let e, m, a = setup ~resolve:false () in
    let chk = Check.create ~parts:[ Check.Serial ] () in
    Check.attach chk ~asf:a m;
    run_threads e (cross_writes ~release a);
    Check.finalize chk;
    kinds chk
  in
  Alcotest.(check (list string)) "cycle without RELEASE" [ "conflict-cycle" ]
    (cycles false);
  Alcotest.(check (list string)) "no cycle with RELEASE" [] (cycles true)

let test_cycle_follows_conflicts () =
  (* Three regions with conflict resolution disabled, committing in core
     order: core [i] reads line [i] early and writes line [i + 1 mod 3]
     late, so the conflicts are c1 -> c0 (on B), c2 -> c1 (on C) and
     c0 -> c2 (on A). The report starts at the earliest-committed
     attempt, T1 on core 0, follows its in-edges, and names the line of
     the first edge it follows. *)
  let e, m, a = setup ~n_cores:3 ~resolve:false () in
  let line i = 1000 * (i + 1) in
  let chk = Check.create ~parts:[ Check.Serial ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    (List.init 3 (fun core () ->
         Engine.elapse (1000 * core);
         Asf.speculate a ~core;
         ignore (Asf.lock_load a ~core (line core));
         Engine.elapse 10000;
         Asf.lock_store a ~core (line ((core + 1) mod 3)) 1;
         Asf.commit a ~core));
  Check.finalize chk;
  match find_kind chk "conflict-cycle" with
  | Some f ->
      Alcotest.(check string) "the cycle, in conflict order"
        "committed attempts are not conflict-serializable: T1(c0#1) -> T3(c2#1) -> \
         T2(c1#1) -> T1(c0#1)"
        f.Check.detail;
      let named = List.map (fun s -> Scanf.sscanf s "T%d(c%d" (fun _ c -> c)) f.Check.trail in
      let conflicts = [ (1, 0); (2, 1); (0, 2) ] in
      List.iteri
        (fun i c ->
          let next = List.nth named ((i + 1) mod List.length named) in
          Alcotest.(check bool)
            (Printf.sprintf "c%d conflicts with c%d" c next)
            true
            (List.mem (c, next) conflicts))
        named;
      Alcotest.(check (option int)) "line of the edge into T1"
        (Some (Addr.line_base (Addr.line_of (line 1))))
        f.Check.line
  | None -> Alcotest.failf "expected conflict-cycle, got %s" (String.concat "," (kinds chk))

let test_t_numbers_span_runs () =
  (* One checker over two systems: the first run commits one attempt
     (T1), so the second run's cycle is named from T2 on. *)
  let chk = Check.create ~parts:[ Check.Serial ] () in
  let e, m, a = setup () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 3000 1;
        Asf.commit a ~core:0);
    ];
  let e, m, a = setup ~resolve:false () in
  Check.attach chk ~asf:a m;
  run_threads e (cross_writes a);
  Check.finalize chk;
  match find_kind chk "conflict-cycle" with
  | Some f ->
      Alcotest.(check string) "second run counts on"
        "committed attempts are not conflict-serializable: T2(c0#1) -> T3(c1#1) -> \
         T2(c0#1)"
        f.Check.detail
  | None -> Alcotest.failf "expected conflict-cycle, got %s" (String.concat "," (kinds chk))

let test_serializable_history_clean () =
  (* Same structure but non-overlapping in time: serializable, and the
     oracle must stay quiet even with conflict resolution disabled. *)
  let e, m, a = setup ~resolve:false () in
  let la = 1000 and lb = 2000 in
  let chk = Check.create ~parts:[ Check.Serial ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        ignore (Asf.lock_load a ~core:0 la);
        Asf.lock_store a ~core:0 lb 1;
        Asf.commit a ~core:0);
      (fun () ->
        Engine.elapse 20000;
        Asf.speculate a ~core:1;
        ignore (Asf.lock_load a ~core:1 lb);
        Asf.lock_store a ~core:1 la 2;
        Asf.commit a ~core:1);
    ];
  Check.finalize chk;
  Alcotest.(check (list string)) "no violations" [] (kinds chk)

let test_abort_hygiene_detected () =
  (* rollback_on_abort:false leaves the speculative store in RAM after an
     explicit abort; the pre-image comparison must catch it. *)
  let e, m, a = setup ~rollback:false () in
  Memsys.poke m 800 5;
  let chk = Check.create ~parts:[ Check.Serial ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 800 99;
          Asf.abort_explicit a ~core:0 ~code:1
        with Asf.Aborted _ -> ());
    ];
  Check.finalize chk;
  (match find_kind chk "abort-hygiene" with
  | Some f ->
      Alcotest.(check (option int)) "leaked line"
        (Some (Addr.line_base (Addr.line_of 800)))
        f.Check.line
  | None -> Alcotest.failf "expected abort-hygiene, got %s" (String.concat "," (kinds chk)));
  (* Sanity: the broken hardware really did leak. *)
  Alcotest.(check int) "speculative residue visible" 99 (Memsys.peek m 800)

let test_abort_hygiene_clean_on_stock () =
  let e, m, a = setup () in
  Memsys.poke m 800 5;
  let chk = Check.create ~parts:[ Check.Serial ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 800 99;
          Asf.abort_explicit a ~core:0 ~code:1
        with Asf.Aborted _ -> ());
    ];
  Check.finalize chk;
  Alcotest.(check (list string)) "no violations" [] (kinds chk);
  Alcotest.(check int) "rollback restored memory" 5 (Memsys.peek m 800)

(* ------------------------------------------------------------------ *)
(* Capacity / annotation lint                                           *)
(* ------------------------------------------------------------------ *)

let test_capacity_lint () =
  (* Profile a 10-line transaction on LLB-256 (where it fits and the full
     footprint is observable), then lint against both capacities:
     serial-only on LLB-8, clean on LLB-256. *)
  let e, m, a = setup ~variant:Variant.llb256 () in
  let chk = Check.create ~parts:[ Check.Lint ] () in
  Check.attach chk ~asf:a ~variant:Variant.llb256 m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        for i = 0 to 9 do
          Asf.lock_store a ~core:0 ((100 + i) * Addr.words_per_line) 1
        done;
        Asf.commit a ~core:0);
    ];
  Check.finalize chk;
  (match Check.attempt_profiles chk with
  | [ p ] ->
      Alcotest.(check int) "footprint is 10 lines" 10 p.Check.p_footprint;
      Alcotest.(check int) "all written" 10 p.Check.p_written;
      Alcotest.(check bool) "committed" true p.Check.p_committed
  | l -> Alcotest.failf "expected 1 profile, got %d" (List.length l));
  (match Check.lint_capacity chk ~capacity:8 with
  | [ f ] ->
      Alcotest.(check string) "flagged serial-only on LLB-8" "serial-only"
        f.Check.kind
  | l -> Alcotest.failf "expected 1 serial-only finding, got %d" (List.length l));
  Alcotest.(check int) "clean on LLB-256" 0
    (List.length (Check.lint_capacity chk ~capacity:256));
  Alcotest.(check (list string)) "no violations" [] (kinds chk)

let test_lint_examples_lowest () =
  (* Six lines read by one core, in no particular order: both line
     advisories count all six and show the four lowest. *)
  let e, m, a = setup ~variant:Variant.llb256 () in
  let chk = Check.create ~parts:[ Check.Lint ] () in
  Check.attach chk ~asf:a ~variant:Variant.llb256 m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        List.iter
          (fun l -> ignore (Asf.lock_load a ~core:0 (l * Addr.words_per_line)))
          [ 130; 110; 150; 120; 100; 140 ];
        Asf.commit a ~core:0);
    ];
  Check.finalize chk;
  let examples =
    String.concat ", "
      (List.map (fun l -> Printf.sprintf "0x%x" (Addr.line_base l)) [ 100; 110; 120; 130 ])
  in
  List.iter
    (fun kind ->
      match List.find_opt (fun f -> f.Check.kind = kind) (Check.advisories chk) with
      | Some f ->
          Alcotest.(check bool) (kind ^ ": six lines, the four lowest shown") true
            (String.starts_with ~prefix:"6 protected line(s)" f.Check.detail
            && contains ~sub:(Printf.sprintf "(e.g. %s)" examples) f.Check.detail)
      | None -> Alcotest.failf "no %s advisory" kind)
    [ "early-release"; "unannotated-ok" ]

let test_capacity_lint_counts_overflow () =
  (* On LLB-8 the same transaction capacity-aborts at the 9th line; the
     recorded footprint is 8, so the lint must still know the attempt
     needed more than 8. *)
  let e, m, a = setup ~variant:Variant.llb8 () in
  let chk = Check.create ~parts:[ Check.Lint ] () in
  Check.attach chk ~asf:a ~variant:Variant.llb8 m;
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          for i = 0 to 9 do
            Asf.lock_store a ~core:0 ((100 + i) * Addr.words_per_line) 1
          done;
          Asf.commit a ~core:0
        with Asf.Aborted Abort.Capacity -> ());
    ];
  Check.finalize chk;
  (match Check.attempt_profiles chk with
  | [ p ] ->
      Alcotest.(check bool) "capacity abort recorded" true p.Check.p_capacity_abort;
      Alcotest.(check bool) "not committed" false p.Check.p_committed
  | l -> Alcotest.failf "expected 1 profile, got %d" (List.length l));
  Alcotest.(check int) "flagged against capacity 8" 1
    (List.length (Check.lint_capacity chk ~capacity:8));
  (* The attached-variant lint also fires, as an advisory. *)
  Alcotest.(check bool) "serial-only advisory in findings" true
    (List.exists (fun f -> f.Check.kind = "serial-only") (Check.advisories chk))

(* ------------------------------------------------------------------ *)
(* Trails and checker reuse                                             *)
(* ------------------------------------------------------------------ *)

let test_trail_keeps_newest () =
  (* Eleven accesses to one line: a speculative store, nine speculative
     loads, then the plain load that is the colocation hazard. *)
  let e, m, a = setup () in
  let chk = Check.create ~parts:[ Check.Isolation ] () in
  Check.attach chk ~asf:a m;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 900 2;
        for _ = 1 to 9 do
          ignore (Asf.lock_load a ~core:0 900)
        done;
        ignore (Asf.plain_load a ~core:0 900);
        Asf.commit a ~core:0);
    ];
  Check.finalize chk;
  match find_kind chk "colocation" with
  | Some f ->
      let trail = f.Check.trail in
      Alcotest.(check int) "the 8 newest accesses" 8 (List.length trail);
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "access %d" i)
            true
            (contains ~sub:(if i < 7 then "spec load" else "plain load") s))
        trail;
      let cycle s = Scanf.sscanf s "cycle %d" Fun.id in
      Alcotest.(check bool) "oldest first" true
        (List.sort compare (List.map cycle trail) = List.map cycle trail)
  | None -> Alcotest.failf "expected colocation, got %s" (String.concat "," (kinds chk))

let test_reset_matches_fresh () =
  (* A checker that spans two runs, is reset and is used again reports
     what a fresh checker reports: the same findings (counts, T numbers
     and trails included) and the same profiles. *)
  let use chk =
    let e, m, a = setup ~resolve:false () in
    Check.attach chk ~asf:a ~variant:Variant.llb8 m;
    run_threads e (cross_writes a);
    Check.export chk
  in
  let chk = Check.create () in
  ignore (use chk);
  ignore (use chk);
  Check.reset chk;
  let reused = use chk and fresh_chk = Check.create () in
  let fresh = use fresh_chk in
  Alcotest.(check (list string)) "findings to compare"
    [ "unresolved-conflict"; "conflict-cycle" ]
    (List.map (fun f -> f.Check.kind) fresh);
  Alcotest.(check bool) "same findings" true (reused = fresh);
  Alcotest.(check bool) "same profiles" true
    (Check.attempt_profiles chk = Check.attempt_profiles fresh_chk)

let () =
  Alcotest.run "check"
    [
      ( "parts",
        [ Alcotest.test_case "name parsing" `Quick test_parts_of_names ] );
      ( "equivalence",
        [
          Alcotest.test_case "asf intset identical + clean" `Quick
            test_check_off_equivalence;
          Alcotest.test_case "stm counter identical + clean" `Quick
            test_check_stm_equivalence;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "strong isolation" `Quick test_strong_isolation_detected;
          Alcotest.test_case "unannotated race" `Quick test_unannotated_race_detected;
          Alcotest.test_case "colocation" `Quick test_colocation_detected;
          Alcotest.test_case "stock hardware clean" `Quick test_stock_hardware_clean;
        ] );
      ( "serial",
        [
          Alcotest.test_case "conflict cycle" `Quick test_conflict_cycle_detected;
          Alcotest.test_case "released read dropped" `Quick test_release_drops_read;
          Alcotest.test_case "cycle follows conflicts" `Quick test_cycle_follows_conflicts;
          Alcotest.test_case "T numbers span runs" `Quick test_t_numbers_span_runs;
          Alcotest.test_case "serializable clean" `Quick test_serializable_history_clean;
          Alcotest.test_case "abort hygiene" `Quick test_abort_hygiene_detected;
          Alcotest.test_case "hygiene clean on stock" `Quick
            test_abort_hygiene_clean_on_stock;
        ] );
      ( "lint",
        [
          Alcotest.test_case "capacity 8 vs 256" `Quick test_capacity_lint;
          Alcotest.test_case "overflow counted" `Quick test_capacity_lint_counts_overflow;
          Alcotest.test_case "four lowest examples" `Quick test_lint_examples_lowest;
        ] );
      ( "trails",
        [
          Alcotest.test_case "8 newest accesses" `Quick test_trail_keeps_newest;
          Alcotest.test_case "reset matches fresh" `Quick test_reset_matches_fresh;
        ] );
    ]
