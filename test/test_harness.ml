(* Tests for the harness (report rendering, CSV, calibration, experiment
   registry) and for the lock-elision runtime extension. *)

module Report = Asf_harness.Report
module Experiments = Asf_harness.Experiments
module Tm = Asf_tm_rt.Tm
module Elision = Asf_tm_rt.Elision
module Stats = Asf_tm_rt.Stats
module Variant = Asf_core.Variant
module Prng = Asf_engine.Prng

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_render () =
  let r =
    Report.make ~id:"t" ~title:"demo" ~notes:[ "a note" ]
      [ "col"; "value" ]
      [ [ "x"; "1" ]; [ "longer"; "2" ] ]
  in
  let s = Format.asprintf "%a" Report.pp r in
  Alcotest.(check bool) "title present" true
    (String.length s > 0
    && Option.is_some (String.index_opt s '='));
  Alcotest.(check bool) "note present" true
    (String.length s >= 6 && String.sub s (String.length s - 7) 6 = "a note")

let test_report_ragged_rejected () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Report.make: ragged row in bad") (fun () ->
      ignore (Report.make ~id:"bad" ~title:"t" [ "a"; "b" ] [ [ "only one" ] ]))

let test_report_csv () =
  let r =
    Report.make ~id:"c" ~title:"t" [ "a"; "b" ]
      [ [ "1"; "has,comma" ]; [ "2"; "has\"quote" ] ]
  in
  let csv = Report.to_csv r in
  Alcotest.(check string) "csv escaping"
    "a,b\n1,\"has,comma\"\n2,\"has\"\"quote\"\n" csv

let test_report_save_csv () =
  let dir = Filename.temp_file "asf" "" in
  Sys.remove dir;
  let r = Report.make ~id:"saved" ~title:"t" [ "x" ] [ [ "1" ] ] in
  let path = Report.save_csv ~dir r in
  Alcotest.(check bool) "file written" true (Sys.file_exists path);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "header" "x" line

let test_report_parse_csv () =
  let r =
    Report.make ~id:"c" ~title:"t" [ "a"; "b" ]
      [ [ "1"; "has,comma" ]; [ "2"; "has\"quote" ]; [ "3"; "two\nlines" ] ]
  in
  Alcotest.(check bool) "round trip" true
    (Report.parse_csv (Report.to_csv r) = Ok (r.Report.columns :: r.Report.rows))

let test_report_parse_csv_malformed () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "stray quote" true (is_err (Report.parse_csv "a\"b,c\n"));
  Alcotest.(check bool) "unterminated quote" true
    (is_err (Report.parse_csv "\"never closed"));
  Alcotest.(check bool) "text after closing quote" true
    (is_err (Report.parse_csv "\"x\"y,z\n"))

let prop_csv_round_trip =
  (* parse_csv is the exact inverse of to_csv for any table, including
     cells full of separators, quotes and newlines. *)
  let cell_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'z'; ','; '"'; '\n'; ' ' ]) (int_bound 8))
  in
  let table_gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun n_cols ->
      let row = list_size (return n_cols) cell_gen in
      pair row (list_size (int_bound 5) row))
  in
  let print (cols, rows) =
    String.concat "|" cols ^ " // "
    ^ String.concat " ; " (List.map (String.concat "|") rows)
  in
  QCheck.Test.make ~name:"parse_csv inverts to_csv" ~count:500
    (QCheck.make ~print table_gen)
    (fun (columns, rows) ->
      let t = Report.make ~id:"prop" ~title:"t" columns rows in
      Report.parse_csv (Report.to_csv t) = Ok (columns :: rows))

let test_report_csv_file_round_trip () =
  (* Through the filesystem: what save_csv writes, parse_csv reads back. *)
  let dir = Filename.temp_file "asf" "" in
  Sys.remove dir;
  let r =
    Report.make ~id:"rt" ~title:"t"
      [ "plain"; "gnarly" ]
      [ [ "1"; "a,b" ]; [ "2"; "say \"hi\"" ]; [ "3"; "one\ntwo" ] ]
  in
  let path = Report.save_csv ~dir r in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "file parses back to the table" true
    (Report.parse_csv s = Ok (r.Report.columns :: r.Report.rows))

(* ------------------------------------------------------------------ *)
(* Calibration / experiments                                           *)
(* ------------------------------------------------------------------ *)

(* fig3 is the calibration methodology: one row per STAMP app with its
   detailed (Barcelona) and native-reference cycles and their deviation. *)
let test_calibration_entries () =
  let fig3 =
    match Experiments.find "fig3" with
    | Some e -> List.hd (e.Experiments.run ~quick:true ~seed:1)
    | None -> Alcotest.fail "fig3 missing"
  in
  Alcotest.(check int) "8 stamp apps" 8 (List.length fig3.Report.rows);
  List.iter
    (function
      | [ app; detailed; reference; deviation ] ->
          Alcotest.(check bool)
            (app ^ " cycles positive")
            true
            (int_of_string detailed > 0 && int_of_string reference > 0);
          (* The detailed model has larger latencies, so it should not be
             dramatically faster than the reference. *)
          let pct =
            float_of_string (String.sub deviation 0 (String.length deviation - 1))
          in
          Alcotest.(check bool)
            (app ^ " deviation sane")
            true
            (pct > -50.0 && pct < 200.0)
      | row -> Alcotest.failf "fig3 row has %d cells" (List.length row))
    fig3.Report.rows

let test_registry_ids_unique () =
  let ids = Experiments.ids () in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "no duplicate ids" (List.length ids) (List.length sorted);
  Alcotest.(check bool) "fig4 present" true (Experiments.find "fig4" <> None);
  Alcotest.(check bool) "unknown absent" true (Experiments.find "nope" = None)

let test_quick_experiments_well_formed () =
  (* The cheap experiments produce non-empty tables with consistent row
     widths (Report.make already enforces this; we assert non-emptiness
     and run them end to end). *)
  List.iter
    (fun id ->
      match Experiments.find id with
      | None -> Alcotest.failf "missing %s" id
      | Some e ->
          let reports = e.Experiments.run ~quick:true ~seed:2 in
          Alcotest.(check bool) (id ^ " has reports") true (reports <> []);
          List.iter
            (fun r ->
              Alcotest.(check bool)
                (id ^ " has rows")
                true
                (r.Report.rows <> []))
            reports)
    [ "fig3"; "fig9"; "tab1"; "abl-wins"; "abl-annot"; "abl-backoff" ]

(* ------------------------------------------------------------------ *)
(* Lock elision                                                        *)
(* ------------------------------------------------------------------ *)

let elision_setup () =
  let sys = Tm.create (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:4) in
  let lock = Elision.make sys in
  let counter = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys counter 0;
  (sys, lock, counter)

let test_elision_correct () =
  let sys, lock, counter = elision_setup () in
  let per = 200 in
  let ctxs =
    List.init 4 (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            for _ = 1 to per do
              Elision.with_lock ctx lock (fun () ->
                  Tm.store ctx counter (Tm.load ctx counter + 1))
            done))
  in
  Tm.run sys;
  Alcotest.(check int) "no lost updates" (4 * per) (Tm.setup_peek sys counter);
  Alcotest.(check bool) "lock free at end" false (Elision.held sys lock);
  (* Elided sections never actually took the lock: every commit that is
     not serial ran with the lock word untouched. *)
  let agg = Stats.create () in
  List.iter (fun c -> Stats.add (Tm.stats c) ~into:agg) ctxs;
  Alcotest.(check bool) "mostly hardware" true
    (Stats.serial_commits agg * 10 < Stats.commits agg)

let test_elision_with_legacy_lockers () =
  let sys, lock, counter = elision_setup () in
  let per = 150 in
  List.iteri
    (fun core f -> ignore (Tm.spawn sys ~core f))
    [
      (fun ctx ->
        (* Legacy thread: real acquisitions. *)
        for _ = 1 to per do
          Elision.acquire ctx lock;
          Tm.store ctx counter (Tm.load ctx counter + 1);
          Elision.release ctx lock
        done);
      (fun ctx ->
        for _ = 1 to per do
          Elision.with_lock ctx lock (fun () ->
              Tm.store ctx counter (Tm.load ctx counter + 1))
        done);
      (fun ctx ->
        for _ = 1 to per do
          Elision.with_lock ctx lock (fun () ->
              Tm.store ctx counter (Tm.load ctx counter + 1))
        done);
    ];
  Tm.run sys;
  Alcotest.(check int) "mixed modes preserve atomicity" (3 * per)
    (Tm.setup_peek sys counter)

let test_elision_parallelism () =
  (* Disjoint critical sections under one lock: once the section is long
     enough that serialization dominates the TM begin overhead, elision
     must beat real locking (for a 2-access section the spinlock's cheap
     hand-off actually wins — elision is not free). *)
  let section ctx slot =
    Tm.work ctx 300;
    Tm.store ctx slot (Tm.load ctx slot + 1)
  in
  let run elided =
    let sys = Tm.create (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:4) in
    let lock = Elision.make sys in
    let slots = Array.init 4 (fun _ -> Tm.setup_alloc sys 1) in
    List.init 4 (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            for _ = 1 to 200 do
              if elided then Elision.with_lock ctx lock (fun () -> section ctx slots.(core))
              else begin
                Elision.acquire ctx lock;
                section ctx slots.(core);
                Elision.release ctx lock
              end
            done))
    |> ignore;
    Tm.run sys;
    Tm.makespan sys
  in
  let locked = run false and elided = run true in
  Alcotest.(check bool)
    (Printf.sprintf "elided (%d) < locked (%d)" elided locked)
    true (elided < locked)

let test_elision_stm_mode () =
  (* Elision also works over the STM baseline (the lock word is just
     transactional state). *)
  let sys = Tm.create (Tm.default_config Tm.Stm_mode ~n_cores:4) in
  let lock = Elision.make sys in
  let counter = Tm.setup_alloc sys 1 in
  List.init 4 (fun core ->
      Tm.spawn sys ~core (fun ctx ->
          for _ = 1 to 100 do
            Elision.with_lock ctx lock (fun () ->
                Tm.store ctx counter (Tm.load ctx counter + 1))
          done))
  |> ignore;
  Tm.run sys;
  Alcotest.(check int) "stm-mode elision" 400 (Tm.setup_peek sys counter)

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "ragged" `Quick test_report_ragged_rejected;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "save csv" `Quick test_report_save_csv;
          Alcotest.test_case "parse csv" `Quick test_report_parse_csv;
          Alcotest.test_case "parse csv malformed" `Quick
            test_report_parse_csv_malformed;
          QCheck_alcotest.to_alcotest prop_csv_round_trip;
          Alcotest.test_case "csv file round trip" `Quick
            test_report_csv_file_round_trip;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "calibration" `Quick test_calibration_entries;
          Alcotest.test_case "registry" `Quick test_registry_ids_unique;
          Alcotest.test_case "quick runs" `Slow test_quick_experiments_well_formed;
        ] );
      ( "elision",
        [
          Alcotest.test_case "correctness" `Quick test_elision_correct;
          Alcotest.test_case "legacy mix" `Quick test_elision_with_legacy_lockers;
          Alcotest.test_case "parallelism" `Quick test_elision_parallelism;
          Alcotest.test_case "stm mode" `Quick test_elision_stm_mode;
        ] );
    ]
