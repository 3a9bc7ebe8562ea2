(* Command-line driver.

     asf_bench repro --list
     asf_bench repro -e fig5 --quick
     asf_bench repro --all --csv results
     asf_bench intset --structure rb-tree --range 8192 --threads 8 --mode llb256
     asf_bench stamp --app genome --mode stm --threads 4

   (invoking without a subcommand behaves like `repro`). *)

module Experiments = Asf_harness.Experiments
module Report = Asf_harness.Report
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Variant = Asf_core.Variant
module Abort = Asf_core.Abort
module Intset = Asf_intset.Intset
module Stamp = Asf_stamp.Stamp
module C = Asf_stamp.Stamp_common
module Trace = Asf_trace.Trace
module Check = Asf_check.Check
module Faults = Asf_faults.Faults
module Parallel = Asf_parallel.Parallel
module Analyze = Asf_analyze.Analyze
module Workloads = Asf_analyze.Workloads
module Findings = Asf_analyze.Findings
module Xvalidate = Asf_harness.Xvalidate
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin
module Params = Asf_machine.Params
module Sharers = Asf_cache.Sharers

(* ------------------------------------------------------------------ *)
(* Shared mode parsing                                                  *)
(* ------------------------------------------------------------------ *)

let modes =
  [
    ("llb8", Tm.Asf_mode Variant.llb8);
    ("llb256", Tm.Asf_mode Variant.llb256);
    ("llb8-l1", Tm.Asf_mode Variant.llb8_l1);
    ("llb256-l1", Tm.Asf_mode Variant.llb256_l1);
    ("cache", Tm.Asf_mode Variant.cache_based);
    ("phased", Tm.Phased_mode Variant.llb8);
    ("stm", Tm.Stm_mode);
    ("seq", Tm.Seq_mode);
  ]

let mode_names = String.concat ", " (List.map fst modes)

let print_stats stats =
  Printf.printf "commits: %d (serial %d), attempts: %d\n" (Stats.commits stats)
    (Stats.serial_commits stats) (Stats.attempts stats);
  let aborts = Stats.aborts stats in
  Array.iteri
    (fun i n -> if n > 0 then Printf.printf "aborts[%s]: %d\n" (Abort.class_name i) n)
    aborts

(* ------------------------------------------------------------------ *)
(* Tracing                                                              *)
(* ------------------------------------------------------------------ *)

(* Install a tracer around [run] when --trace FILE was given; afterwards
   write the sink (CSV if FILE ends in .csv, Chrome trace-event JSON
   otherwise) and print the per-kind event summary. *)
let with_trace trace_file trace_filter run =
  match trace_file with
  | None -> run ()
  | Some path -> (
      let filter =
        Option.map
          (fun s ->
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun x -> x <> ""))
          trace_filter
      in
      match try Ok (Trace.create ?filter ()) with Invalid_argument m -> Error m with
      | Error m ->
          (* The Trace error already lists the valid kinds. *)
          Printf.eprintf "%s\n" m;
          1
      | Ok tr -> (
          Trace.install tr;
          let rc = Fun.protect ~finally:Trace.uninstall run in
          match
            if Filename.check_suffix path ".csv" then Trace.write_csv tr path
            else Trace.write_chrome_json tr path
          with
          | () ->
              Report.print (Report.of_trace ~id:"trace" tr);
              Printf.printf "trace: %s (%d events retained)\n" path
                (List.length (Trace.events tr));
              rc
          | exception Sys_error m ->
              Printf.eprintf "cannot write trace: %s\n" m;
              1))

(* ------------------------------------------------------------------ *)
(* Checking                                                             *)
(* ------------------------------------------------------------------ *)

(* Install a checker around [run] when --check was given; afterwards print
   the findings table and fail the invocation if any guarantee was
   violated. Like tracing, checking never advances simulated time, so all
   reported numbers are identical with and without it. *)
(* --check-json: after the run, re-emit the checker's findings as the
   machine-readable shared record ({!Asf_analyze.Findings}), so CI can
   diff the runtime side against the static analyzer's artifact. *)
(* When the progress watchdog killed the run, its diagnosis is parked
   here so the --check-json artifact can carry the structured livelock
   findings alongside the checker's own. *)
let last_livelock : Tm.diagnosis option ref = ref None

(* Findings produced outside the Txcheck instance (the serve harness's
   linearizability verdicts and partition violations) are parked here by
   the run and folded into the same --check-json artifact. *)
let last_extra_findings : Findings.t list ref = ref []

let write_check_json ?chk path =
  let fs =
    match chk with
    | Some chk -> Findings.of_check ~workload:"runtime" (Check.findings chk)
    | None -> []
  in
  let fs =
    match !last_livelock with
    | None -> fs
    | Some d -> fs @ Findings.of_livelock ~workload:"runtime" d
  in
  let fs = fs @ !last_extra_findings in
  let doc =
    Printf.sprintf "{\n  \"schema\": \"asf-findings-v1\",\n  \"findings\": %s\n}\n"
      (Findings.json_of_findings fs)
  in
  match Findings.write_json ~path doc with
  | Ok () ->
      Printf.printf "check-json: %s (%d finding(s))\n" path (List.length fs);
      0
  | Error m ->
      Printf.eprintf "cannot write check json: %s\n" m;
      1

let with_check check check_json run =
  match check with
  | None ->
      if check_json <> None then
        Printf.eprintf "note: --check-json has no effect without --check\n";
      run ()
  | Some spec -> (
      let names =
        String.split_on_char ',' spec |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      match
        try Ok (Check.parts_of_names names) with Invalid_argument m -> Error m
      with
      | Error m ->
          Printf.eprintf
            "%s (valid parts: isolation, serial, lint, all; lin is \
             serve-only)\n"
            m;
          1
      | Ok parts ->
          let chk = Check.create ~parts () in
          Check.install chk;
          let rc = Fun.protect ~finally:Check.uninstall run in
          Report.print (Report.of_check ~id:"check" chk);
          let jrc =
            match check_json with None -> 0 | Some path -> write_check_json ~chk path
          in
          let violations = List.length (Check.violations chk) in
          if violations > 0 then begin
            Printf.printf "check: %d violation(s)\n" violations;
            max (max rc jrc) 1
          end
          else begin
            Printf.printf "check: clean (%d advisory finding(s))\n"
              (List.length (Check.advisories chk));
            max rc jrc
          end)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

(* Install a fault injector around [run] when --faults PLAN was given;
   afterwards print the per-site injection counts. --faults=none (or an
   all-zero merge) installs nothing at all, so such runs are bit-identical
   to runs without the flag. *)
let with_faults fspec fseed run =
  match fspec with
  | None -> run ()
  | Some spec -> (
      match Faults.plan_of_spec spec with
      | Error m ->
          Printf.eprintf "%s\n" m;
          1
      | Ok plan ->
          if Faults.plan_is_none plan then run ()
          else begin
            let fl = Faults.create ~seed:fseed plan in
            Faults.install fl;
            let rc = Fun.protect ~finally:Faults.uninstall run in
            Printf.printf "faults[%s seed=%d]: %d injection(s)\n" plan.Faults.pname
              fseed (Faults.total fl);
            List.iter
              (fun (site, n) -> if n > 0 then Printf.printf "  %-17s %d\n" site n)
              (Faults.counts fl);
            rc
          end)

(* A watchdog diagnosis is a distinct, deliberate outcome (exit code 3):
   the run made no progress and says why — the negative soak fixture
   relies on it. *)
let catch_livelock f =
  try f ()
  with Tm.Livelock d ->
    last_livelock := Some d;
    Format.eprintf "%a@." Tm.pp_diagnosis d;
    3

(* ------------------------------------------------------------------ *)
(* repro                                                                *)
(* ------------------------------------------------------------------ *)

let list_experiments () =
  Printf.printf "available experiments:\n";
  List.iter
    (fun e -> Printf.printf "  %-12s %s\n" e.Experiments.id e.Experiments.description)
    Experiments.all;
  0

let run_one ~quick ~seed ~csv e =
  let t0 = Unix.gettimeofday () in
  let reports = e.Experiments.run ~quick ~seed in
  List.iter
    (fun r ->
      Report.print r;
      match csv with
      | Some dir ->
          let path = Report.save_csv ~dir r in
          Printf.printf "csv: %s\n" path
      | None -> ())
    reports;
  Printf.printf "[%s done in %.1fs host time]\n%!" e.Experiments.id
    (Unix.gettimeofday () -. t0);
  0

let repro exps all quick seed csv do_list trace tfilter check check_json faults fseed jobs =
  (* 0 = auto: one worker per recommended domain; the pool clamps to the
     number of cells of each fan-out anyway. The report is bit-identical
     for every value (see DESIGN.md, "The determinism contract"). *)
  Parallel.set_jobs (if jobs <= 0 then Parallel.available () else jobs);
  if do_list then list_experiments ()
  else
    let exps = if all then Experiments.all else exps in
    if exps = [] then begin
      Printf.eprintf "nothing to run; use -e <id>, --all, or --list\n";
      1
    end
    else
      with_faults faults fseed (fun () ->
          with_trace trace tfilter (fun () ->
              with_check check check_json (fun () ->
                  List.fold_left
                    (fun rc e ->
                      max rc (catch_livelock (fun () -> run_one ~quick ~seed ~csv e)))
                    0 exps)))

(* ------------------------------------------------------------------ *)
(* intset                                                               *)
(* ------------------------------------------------------------------ *)

(* [--sockets 0] (the default) keeps the mode profile's own socket
   count; any other value re-spreads the simulated cores via
   {!Params.with_sockets}, charging the interconnect hop on
   cross-socket coherence traffic. *)
let apply_sockets sockets (tm : Tm.config) =
  if sockets = 0 then tm
  else { tm with Tm.params = Params.with_sockets tm.Tm.params ~sockets }

(* [Seq_mode] is uninstrumented and single-threaded ({!Tm.create}): more
   threads is a usage error (exit 2), rejected before anything runs. *)
let single_threaded_seq mode threads run =
  if mode = Tm.Seq_mode && threads > 1 then begin
    Printf.eprintf "asf_bench: mode seq runs on one thread, not %d\n" threads;
    2
  end
  else run ()

let run_intset (_, mode) structure range updates threads sockets txns early_release seed
    trace tfilter check check_json faults fseed =
  single_threaded_seq mode threads @@ fun () ->
  with_faults faults fseed @@ fun () ->
  with_trace trace tfilter @@ fun () ->
  with_check check check_json @@ fun () ->
  catch_livelock @@ fun () ->
  let cfg =
    {
      (Intset.default_cfg structure) with
      Intset.range;
      update_pct = updates;
      txns_per_thread = txns;
      early_release;
    }
  in
  let tm =
    apply_sockets sockets { (Tm.default_config mode ~n_cores:threads) with Tm.seed }
  in
  let r = Intset.run tm ~threads cfg in
  Printf.printf "%s range=%d upd=%d%% threads=%d: %.2f tx/us (%d cycles)\n"
    (Intset.structure_name structure)
    range updates threads r.Intset.throughput_tx_per_us r.Intset.cycles;
  print_stats r.Intset.stats;
  if not r.Intset.size_ok then Printf.printf "WARNING: size check failed\n";
  (* Progress: every requested transaction must have committed, with
     or without injected faults. *)
  let progressed = Stats.commits r.Intset.stats = r.Intset.txns in
  if not progressed then
    Printf.printf "WARNING: progress check failed (%d of %d txns committed)\n"
      (Stats.commits r.Intset.stats) r.Intset.txns;
  if r.Intset.size_ok && progressed then 0 else 1

(* ------------------------------------------------------------------ *)
(* stamp                                                                *)
(* ------------------------------------------------------------------ *)

let run_stamp app (_, mode) threads sockets scale seed trace tfilter check check_json faults
    fseed =
  single_threaded_seq mode threads @@ fun () ->
  with_faults faults fseed @@ fun () ->
  with_trace trace tfilter @@ fun () ->
  with_check check check_json @@ fun () ->
  catch_livelock @@ fun () ->
  let tm =
    apply_sockets sockets { (Tm.default_config mode ~n_cores:threads) with Tm.seed }
  in
  let r = Stamp.run_scaled app ~scale tm ~threads in
  Printf.printf "%s threads=%d: %.3f ms simulated\n" (Stamp.name app) threads
    (C.ms tm.Tm.params r);
  print_stats r.C.stats;
  List.iter
    (fun (check, passed) -> Printf.printf "check %-40s %s\n" check
        (if passed then "ok" else "FAILED"))
    r.C.checks;
  if C.ok r then 0 else 1

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

(* Everything printed here is a function of simulated time and the seeds
   only (no host clocks), so two same-seed invocations are byte-identical
   — the @serve-smoke alias compares them with cmp. *)
let print_serve_result (r : Serve.result) =
  Printf.printf "serve %s: arrivals=%d completed=%d shed=%d timeout=%d late=%d\n"
    r.Serve.r_service r.Serve.r_arrivals r.Serve.r_completed r.Serve.r_shed
    r.Serve.r_timeout r.Serve.r_late;
  Printf.printf "  latency cycles: p50=%d p90=%d p99=%d p999=%d max=%d mean=%.1f\n"
    r.Serve.r_p50 r.Serve.r_p90 r.Serve.r_p99 r.Serve.r_p999 r.Serve.r_max_lat
    r.Serve.r_mean_lat;
  Printf.printf "  offered=%.3f req/ms achieved=%.3f req/ms span=%d makespan=%d\n"
    r.Serve.r_offered r.Serve.r_achieved r.Serve.r_span r.Serve.r_makespan;
  let h = r.Serve.r_retry_hist in
  Printf.printf
    "  retries=%d hist[0,1,2-3,4-7,8+]=%d,%d,%d,%d,%d timeout-aborts=%d\n"
    r.Serve.r_retries h.(0) h.(1) h.(2) h.(3) h.(4) r.Serve.r_timeout_aborts;
  Printf.printf
    "  governor: final=%s to-shed=%d to-serial=%d recovered=%d serial-served=%d \
     max-depth=%d max-dl-wait=%d\n"
    r.Serve.r_final_gov r.Serve.r_gov_to_shed r.Serve.r_gov_to_serial
    r.Serve.r_gov_recovered r.Serve.r_serial_served r.Serve.r_max_depth
    r.Serve.r_max_dl_wait;
  Printf.printf "  invariant: %s (%s)\n"
    (if r.Serve.r_invariant_ok then "ok" else "FAILED")
    r.Serve.r_invariant_msg;
  print_stats r.Serve.r_stats;
  if r.Serve.r_invariant_ok then 0 else 1

let us_to_cycles (p : Params.t) us = int_of_float (float_of_int us *. p.Params.ghz *. 1000.)

(* The Txlin oracle line + findings for one recorded run. Everything
   printed is a function of the recorded history, itself a function of
   the seeds only — same determinism contract as the serve report. *)
let serve_lin cfg (r : Serve.result) =
  let v = Txlin.check_result cfg r in
  Printf.printf "lin[%s]: %s (%d committed, %d absent, %d group(s), %d state(s))\n"
    v.Txlin.v_service
    (if v.Txlin.v_ok then "ok"
     else if v.Txlin.v_inconclusive then "inconclusive"
     else "VIOLATION")
    v.Txlin.v_obligations v.Txlin.v_absent v.Txlin.v_groups v.Txlin.v_states;
  if not v.Txlin.v_ok then Printf.printf "  %s\n" v.Txlin.v_detail;
  last_extra_findings :=
    !last_extra_findings @ Txlin.findings ~workload:v.Txlin.v_service v;
  if (not v.Txlin.v_ok) && not v.Txlin.v_inconclusive then 1 else 0

(* The hoisted outcome-partition invariant: recorded in the result rather
   than asserted mid-run, reported here as a structured finding. *)
let serve_partition (r : Serve.result) =
  match Txlin.partition_finding ~workload:r.Serve.r_service r with
  | None -> 0
  | Some f ->
      Printf.printf "partition: FAILED (%s)\n" f.Findings.f_detail;
      last_extra_findings := !last_extra_findings @ [ f ];
      1

let run_serve service (mode_name, tm_mode) threads sockets requests arrival gap load queue_cap
    deadline_us no_governor records ablate sweep_arg seed trace tfilter check
    check_json faults fseed =
  (* --check=lin is served by Txlin, not Txcheck: split it out of the
     spec before the remainder reaches the Txcheck part parser. *)
  let lin_on, check =
    match check with
    | None -> (false, None)
    | Some spec ->
        let names =
          String.split_on_char ',' spec |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        let rest = List.filter (fun n -> n <> "lin") names in
        ( List.mem "lin" names,
          if rest = [] then None else Some (String.concat "," rest) )
  in
  single_threaded_seq tm_mode threads @@ fun () ->
  with_faults faults fseed @@ fun () ->
  with_trace trace tfilter @@ fun () ->
  (fun body ->
    match check with
    | Some _ -> with_check check check_json body
    | None when lin_on ->
        (* lin-only checking: no Txcheck instance, but --check-json still
           carries the lin/partition findings. *)
        let rc = body () in
        let jrc =
          match check_json with None -> 0 | Some path -> write_check_json path
        in
        max rc jrc
    | None -> with_check None check_json body)
  @@ fun () ->
  catch_livelock @@ fun () ->
  let tm =
    apply_sockets sockets
      {
        (Tm.default_config tm_mode ~n_cores:threads) with
        Tm.seed;
        resolve_conflicts = not (List.mem `Resolve ablate);
        rollback_on_abort = not (List.mem `Rollback ablate);
      }
  in
  let base =
    {
      (Serve.default_cfg service) with
      Serve.requests;
      queue_cap;
      governor = not no_governor;
      deadline = Option.map (us_to_cycles tm.Tm.params) deadline_us;
      record = lin_on;
    }
  in
  let base =
    match records with None -> base | Some r -> { base with Serve.records = r }
  in
  match sweep_arg with
  | Some mults ->
      let results, knee = Serve.sweep tm ~threads base ~mults in
      let verdicts =
        if lin_on then
          List.map (fun (_, r) -> Some (Txlin.check_result base r)) results
        else List.map (fun _ -> None) results
      in
      Report.print
        (Report.make ~id:"serve-sweep"
           ~title:
             (Printf.sprintf
                "Throughput vs offered load: %s, %d threads, mode %s"
                (Serve.service_name service) threads mode_name)
           ~notes:
             [
               (match knee with
               | Some k -> Printf.sprintf "knee: %.3f req/ms" k
               | None -> "knee: not reached in this range");
             ]
           ([
              "mult"; "offered"; "achieved"; "p50"; "p99"; "shed";
              "timeout"; "gov-final";
            ]
           @ if lin_on then [ "lin" ] else [])
           (List.map2
              (fun (m, (r : Serve.result)) v ->
                [
                  Printf.sprintf "%.2f" m;
                  Printf.sprintf "%.3f" r.Serve.r_offered;
                  Printf.sprintf "%.3f" r.Serve.r_achieved;
                  string_of_int r.Serve.r_p50;
                  string_of_int r.Serve.r_p99;
                  string_of_int r.Serve.r_shed;
                  string_of_int r.Serve.r_timeout;
                  r.Serve.r_final_gov;
                ]
                @
                match v with
                | None -> []
                | Some v ->
                    [
                      (if v.Txlin.v_ok then "ok"
                       else if v.Txlin.v_inconclusive then "inconcl"
                       else "VIOLATION");
                    ])
              results verdicts));
      let prc =
        List.fold_left
          (fun acc (_, r) -> max acc (serve_partition r))
          0 results
      in
      let lrc =
        List.fold_left
          (fun acc v ->
            match v with
            | Some v when (not v.Txlin.v_ok) && not v.Txlin.v_inconclusive
              ->
                last_extra_findings :=
                  !last_extra_findings
                  @ Txlin.findings ~workload:v.Txlin.v_service v;
                max acc 1
            | _ -> acc)
          0 verdicts
      in
      if
        List.for_all (fun (_, r) -> r.Serve.r_invariant_ok) results
        && prc = 0 && lrc = 0
      then 0
      else 1
  | None ->
      let gap =
        match load with
        | Some mult ->
            let capacity = Serve.measure_capacity tm ~threads base in
            let cycles_per_ms = 1.0 /. Params.cycles_to_ms tm.Tm.params 1 in
            max 1
              (int_of_float (cycles_per_ms /. Float.max 1e-9 (capacity *. mult)))
        | None -> gap
      in
      let arrival =
        match arrival with
        | `Poisson -> Serve.Poisson { mean_gap = gap }
        | `Bursty ->
            (* Heavy bursts at a quarter of the nominal gap, quiet phases at
               four times; windows sized so several bursts fit in a run. *)
            Serve.Bursty
              {
                mean_gap = gap * 4;
                burst_gap = max 1 (gap / 4);
                on_window = gap * requests / 8;
                off_window = gap * requests / 8;
              }
        | `Ramp ->
            Serve.Ramp
              { low_gap = max 1 (gap / 2); high_gap = gap * 4; period = gap * requests / 2 }
        | `Closed -> Serve.Closed
      in
      let cfg = { base with Serve.arrival } in
      let r = Serve.run tm ~threads cfg in
      let rc = print_serve_result r in
      let rc = max rc (serve_partition r) in
      if lin_on then max rc (serve_lin cfg r) else rc

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

(* Txstatic: run the static analyzer over workload models, print the
   per-class access summaries with a capacity verdict per hardware
   variant, cross-validate the verdicts against the runtime abort census
   of the workloads that have a real twin, and write the whole result as
   ANALYZE_asf.json. Exit 1 on any violation: an unsafe annotation, a
   restart hazard, release misuse, or a static-fits/runtime-abort
   contradiction (the latter is an analyzer bug by construction). *)
let run_analyze json_path seed txns no_xcheck workloads fixtures =
  catch_livelock @@ fun () ->
  let params = Asf_machine.Params.barcelona in
  let workloads =
    if workloads <> [] then workloads
    else Workloads.stock @ if fixtures then Workloads.fixtures else []
  in
  let seeds = [ seed; seed + 1; seed + 2 ] in
  let t = Analyze.run ~seeds ~txns ~params workloads in
  let vnames = List.map (fun v -> v.Variant.name) Analyze.variants in
  let class_row wr cs =
    let verdicts =
      List.map
        (fun variant ->
          Analyze.verdict_name (Analyze.capacity_verdict ~params ~variant cs))
        Analyze.variants
    in
    let tags =
      List.filter
        (fun (_, n) -> n > 0)
        [
          ("rel", cs.Analyze.cs_releases);
          ("reread", cs.Analyze.cs_rereads);
          ("alloc", cs.Analyze.cs_allocs);
          ("DIVERGED", cs.Analyze.cs_diverged);
        ]
    in
    let notes =
      if tags = [] then "-"
      else String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) tags)
    in
    [
      wr.Analyze.wr_workload;
      cs.Analyze.cs_class;
      string_of_int cs.Analyze.cs_execs;
      string_of_int cs.Analyze.cs_rd_max;
      string_of_int cs.Analyze.cs_wr_max;
      Printf.sprintf "%d..%d" cs.Analyze.cs_peak_min cs.Analyze.cs_peak_max;
      string_of_int cs.Analyze.cs_all_set_occ;
    ]
    @ verdicts @ [ notes ]
  in
  Report.print
    (Report.make ~id:"analyze"
       ~title:
         (Printf.sprintf
            "Txstatic access summaries and capacity verdicts (seeds %s, %d txns/seed)"
            (String.concat "," (List.map string_of_int seeds))
            txns)
       ~notes:
         [
           "peak counts protected lines at their worst moment; every hw attempt \
            adds 1 ABI line (serial-lock subscription)";
           "l1set = worst per-L1-set occupancy over all touched lines";
         ]
       ([ "workload"; "class"; "execs"; "rd"; "wr"; "peak"; "l1set" ]
       @ vnames @ [ "notes" ])
       (List.concat_map
          (fun wr -> List.map (class_row wr) wr.Analyze.wr_classes)
          t.Analyze.a_reports));
  let censuses, contradictions, xnotes =
    if no_xcheck then ([], [], [])
    else Xvalidate.cross_validate ~seed t
  in
  if censuses <> [] then
    Report.print
      (Report.make ~id:"xvalidate"
         ~title:"Runtime capacity-abort census vs static verdict" ~notes:xnotes
         [ "workload"; "variant"; "attempts"; "cap-aborts"; "max-fp"; "static" ]
         (List.map
            (fun c ->
              let wr =
                List.find
                  (fun wr -> wr.Analyze.wr_workload = c.Xvalidate.v_workload)
                  t.Analyze.a_reports
              in
              [
                c.Xvalidate.v_workload;
                c.Xvalidate.v_variant.Variant.name;
                string_of_int c.Xvalidate.v_attempts;
                string_of_int c.Xvalidate.v_cap_aborts;
                string_of_int c.Xvalidate.v_max_footprint;
                Analyze.verdict_name
                  (Analyze.workload_verdict ~params
                     ~variant:c.Xvalidate.v_variant wr);
              ])
            censuses));
  let all_findings = Analyze.findings t @ contradictions in
  Report.print
    (Report.make ~id:"analyze-findings" ~title:"Txstatic findings"
       ~notes:
         (List.map
            (fun f -> f.Findings.f_kind ^ ": " ^ f.Findings.f_detail)
            all_findings)
       [ "source"; "severity"; "kind"; "workload"; "class"; "variant"; "line"; "count" ]
       (match all_findings with
       | [] -> [ [ "-"; "-"; "clean"; "-"; "-"; "-"; "-"; "0" ] ]
       | fs ->
           List.map
             (fun f ->
               [
                 (match f.Findings.f_source with
                 | Findings.Static -> "static"
                 | Findings.Runtime -> "runtime");
                 f.Findings.f_severity;
                 f.Findings.f_kind;
                 f.Findings.f_workload;
                 (if f.Findings.f_class = "" then "-" else f.Findings.f_class);
                 (if f.Findings.f_variant = "" then "-" else f.Findings.f_variant);
                 (match f.Findings.f_line with
                 | Some l -> string_of_int l
                 | None -> "-");
                 string_of_int f.Findings.f_count;
               ])
             fs));
  let wrc =
    match
      Findings.write_json ~path:json_path
        (Analyze.artifact_json t ~extra:contradictions)
    with
    | Ok () ->
        Printf.printf "analyze: %s (%d workload(s), %d finding(s))\n" json_path
          (List.length t.Analyze.a_reports)
          (List.length all_findings);
        0
    | Error m ->
        Printf.eprintf "cannot write %s: %s\n" json_path m;
        1
  in
  let violations = List.filter Findings.is_violation all_findings in
  if violations <> [] then begin
    Printf.printf "analyze: %d violation(s)\n" (List.length violations);
    max wrc 1
  end
  else begin
    Printf.printf "analyze: clean (%d advisory finding(s))\n"
      (List.length all_findings);
    wrc
  end

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                    *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.")

(* A flag value that must be one of [xs], each called [name x]: any other
   value is a parse error (exit 2) that lists the valid names. *)
let one_of name xs = Arg.enum (List.map (fun x -> (name x, x)) xs)

(* An int flag confined to [lo, hi]: a value outside it is a parse
   error (exit 2) whose message names the bound. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo || n > hi ->
        Error
          (`Msg
             (if hi = max_int then Printf.sprintf "%d is below the minimum %d" n lo
              else Printf.sprintf "%d is outside %d..%d" n lo hi))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* The float twins of [int_in]: a finite value above [lo], or at least
   [lo]. *)
let float_above lo =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (Float.is_finite x && x > lo) ->
        Error (`Msg (Printf.sprintf "%s is not a finite number above %g" s lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let parse_at_least lo s =
  match float_of_string_opt (String.trim s) with
  | Some x when Float.is_finite x && x >= lo -> Ok x
  | _ -> Error (`Msg (Printf.sprintf "%S is not a finite number of at least %g" s lo))

let float_at_least lo = Arg.conv (parse_at_least lo, Arg.conv_printer Arg.float)

(* A comma-separated list of [float_at_least lo] values. Unlike
   [Arg.list], which drops empty entries, every entry must parse. *)
let floats_at_least lo =
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> Result.bind (parse_at_least lo e) (fun x -> go (x :: acc) rest)
    in
    go [] (String.split_on_char ',' s)
  in
  let print ppf xs =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
      Format.pp_print_float ppf xs
  in
  Arg.conv (parse, print)

(* The smallest load multiplier [serve] accepts. Idle cores poll every
   200 cycles, so host time grows as 1/load: 0.5 s at 0.001, 4.5 s at
   0.0001, and a load near 0 never ends. *)
let min_load = 0.001

let threads_arg =
  Arg.(
    value
    & opt (int_in 1 ~hi:Sharers.max_limited_cores) 8
    & info [ "threads"; "t"; "cores" ] ~docv:"N"
        ~doc:"Worker threads (= simulated cores), 1 to 512.")

let sockets_arg =
  Arg.(
    value
    & opt (int_in 0 ~hi:Sharers.max_sockets) 0
    & info [ "sockets" ] ~docv:"N"
        ~doc:
          "Spread the simulated cores over $(docv) sockets (one shared L3 \
           per socket, 110-cycle interconnect hop on cross-socket probes), \
           at most 16. 0 keeps the mode profile's own socket count.")

let mode_arg =
  Arg.(value & opt (one_of fst modes) ("llb256", List.assoc "llb256" modes)
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc:("Execution mode: " ^ mode_names ^ "."))

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Record a transaction-level trace and write it to $(docv): Chrome \
              trace-event JSON (open in chrome://tracing or Perfetto), or CSV when \
              $(docv) ends in .csv. Tracing never advances simulated time, so all \
              reported numbers are identical with and without it.")

let trace_filter_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-filter" ] ~docv:"EVENTS"
           ~doc:
             ("Comma-separated event kinds to record (default: all except resume). \
               Kinds: " ^ String.concat ", " Trace.filter_names ^ "."))

let check_arg =
  Arg.(value & opt ~vopt:(Some "all") (some string) None
       & info [ "check" ] ~docv:"PARTS"
           ~doc:
             "Run the correctness checker alongside the workload and print its \
              findings: $(b,isolation) (shadow-memory strong-isolation checks), \
              $(b,serial) (conflict-serializability oracle + abort hygiene), \
              $(b,lint) (capacity/annotation advisories), or a comma-separated \
              subset (default: all). $(b,serve) additionally accepts $(b,lin), \
              the Txlin request/response linearizability oracle over the \
              recorded history (not part of $(b,all)). Checking never advances \
              simulated time, so all reported numbers are identical with and \
              without it; the exit code is non-zero if any guarantee was \
              violated.")

let check_json_arg =
  Arg.(value & opt (some string) None
       & info [ "check-json" ] ~docv:"FILE"
           ~doc:
             "With $(b,--check): also write the checker's findings to $(docv) as \
              machine-readable JSON, one record per finding in the same shape the \
              static analyzer emits (see $(b,asf_bench analyze)).")

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:
             ("Inject deterministic faults while the workload runs: a \
               comma-separated merge of the named plans "
             ^ String.concat ", "
                 (List.map (fun n -> "$(b," ^ n ^ ")") Faults.plan_names)
             ^ ". The same ($(docv), $(b,--faults-seed)) pair reproduces the run \
                bit-identically; $(b,none) is bit-identical to omitting the flag. \
                A run ended by the progress watchdog exits with code 3."))

let faults_seed_arg =
  Arg.(value & opt int 1
       & info [ "faults-seed" ] ~docv:"N"
           ~doc:
             "Seed of the fault-injection draws (independent of $(b,--seed), so \
              the same workload can be perturbed differently).")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:
             "Run each experiment's independent simulator cells on $(docv) \
              domains (default: the host's recommended domain count; clamped \
              to the number of cells). Output is bit-identical for every \
              $(docv); $(b,--jobs 1) is the fully sequential path, and \
              $(b,--trace) forces it.")

let experiment_conv = one_of (fun e -> e.Experiments.id) Experiments.all

let repro_cmd =
  let exps =
    Arg.(value & opt_all experiment_conv []
         & info [ "e"; "experiment" ] ~docv:"ID" ~doc:"Experiment to run (repeatable).")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Scaled-down configurations.") in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as DIR/<id>.csv.")
  in
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.") in
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce the paper's tables and figures")
    Term.(
      const repro $ exps $ all $ quick $ seed_arg $ csv $ list $ trace_arg
      $ trace_filter_arg $ check_arg $ check_json_arg $ faults_arg $ faults_seed_arg
      $ jobs_arg)

let intset_cmd =
  let structure =
    Arg.(value
         & opt
             (one_of Intset.structure_name
                Intset.[ Linked_list; Skip_list; Rb_tree; Hash_set ])
             Intset.Rb_tree
         & info [ "structure"; "s" ] ~docv:"S"
             ~doc:"linked-list, skip-list, rb-tree, or hash-set.")
  in
  let range =
    Arg.(value & opt (int_in 1) 1024
         & info [ "range"; "r" ] ~docv:"N" ~doc:"Key range (at least 1).")
  in
  let updates =
    Arg.(value & opt (int_in 0 ~hi:100) 20
         & info [ "updates"; "u" ] ~docv:"PCT" ~doc:"Update percentage, 0 to 100.")
  in
  let txns =
    Arg.(value & opt (int_in 1) 1000
         & info [ "txns" ] ~docv:"N" ~doc:"Transactions per thread (at least 1).")
  in
  let er = Arg.(value & flag & info [ "early-release" ] ~doc:"ASF early release.") in
  Cmd.v
    (Cmd.info "intset" ~doc:"Run one IntegerSet configuration")
    Term.(
      const run_intset $ mode_arg $ structure $ range $ updates $ threads_arg
      $ sockets_arg $ txns $ er $ seed_arg $ trace_arg $ trace_filter_arg
      $ check_arg $ check_json_arg $ faults_arg $ faults_seed_arg)

let stamp_cmd =
  let app_arg =
    Arg.(value & opt (one_of Stamp.name Stamp.all) Stamp.Genome
         & info [ "app"; "a" ] ~docv:"APP" ~doc:"STAMP application name.")
  in
  let scale =
    Arg.(value & opt (float_above 0.) 1.0
         & info [ "scale" ] ~docv:"X" ~doc:"Input size multiplier (above 0).")
  in
  Cmd.v
    (Cmd.info "stamp" ~doc:"Run one STAMP application")
    Term.(
      const run_stamp $ app_arg $ mode_arg $ threads_arg $ sockets_arg $ scale
      $ seed_arg $ trace_arg $ trace_filter_arg $ check_arg $ check_json_arg
      $ faults_arg $ faults_seed_arg)

let serve_cmd =
  let service =
    Arg.(value
         & opt
             (one_of Serve.service_name
                Serve.[ Kv A; Kv B; Kv C; Kv D; Kv E; Kv F; Ledger ])
             (Serve.Kv Serve.A)
         & info [ "service" ] ~docv:"S"
             ~doc:"Service: kv-a .. kv-f (YCSB-style mixes) or ledger.")
  in
  let requests =
    Arg.(value & opt (int_in 1) 2000
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total arrivals (at least 1).")
  in
  let arrival =
    Arg.(value
         & opt
             (enum
                [
                  ("poisson", `Poisson); ("bursty", `Bursty); ("ramp", `Ramp);
                  ("closed", `Closed);
                ])
             `Poisson
         & info [ "arrival" ] ~docv:"A"
             ~doc:"Arrival process: poisson, bursty, ramp, or closed.")
  in
  let gap =
    Arg.(value & opt (int_in 1) 300
         & info [ "gap" ] ~docv:"CYCLES"
             ~doc:
               "Nominal mean inter-arrival gap in cycles (at least 1; ignored \
                with $(b,--load)).")
  in
  let load =
    Arg.(value & opt (some (float_at_least min_load)) None
         & info [ "load" ] ~docv:"MULT"
             ~doc:
               "Offered load as a multiple of measured capacity (at least \
                0.001): first \
                run a closed-loop capacity probe, then derive the arrival gap so \
                that offered = $(docv) x capacity (2.0 = sustained 2x overload).")
  in
  let queue_cap =
    Arg.(value & opt (int_in 1) 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Per-core run-queue bound (at least 1); arrivals beyond it are \
                   shed.")
  in
  let deadline_us =
    Arg.(value & opt (some (int_in 1)) None
         & info [ "deadline-us" ] ~docv:"US"
             ~doc:
               "Per-request deadline in microseconds of simulated time (at least \
                1); a request past it stops retrying and reports a timeout.")
  in
  let no_governor =
    Arg.(value & flag
         & info [ "no-governor" ]
             ~doc:"Disable the overload governor (fixed admission cap, no serial \
                   fallback).")
  in
  let records =
    Arg.(value & opt (some (int_in 1)) None
         & info [ "records" ] ~docv:"N"
             ~doc:
               "KV services: preloaded key count (default 1024, at least 1). \
                Small values concentrate contention — the negative-test fixtures \
                use them to make broken hardware observable quickly.")
  in
  let ablate =
    Arg.(value
         & opt_all (enum [ ("resolve", `Resolve); ("rollback", `Rollback) ]) []
         & info [ "ablate" ] ~docv:"WHAT"
             ~doc:
               "Broken-hardware ablation (repeatable): $(b,resolve) disables ASF \
                conflict detection, $(b,rollback) disables abort rollback. \
                Negative-test fixtures for $(b,--check=lin); such runs are \
                expected to fail.")
  in
  let sweep =
    Arg.(value & opt (some (floats_at_least min_load)) None
         & info [ "sweep" ] ~docv:"MULTS"
             ~doc:
               "Comma-separated capacity multipliers, each at least 0.001 (e.g. \
                0.5,0.9,1.2,2): measure \
                capacity, run one Poisson experiment per multiplier, and print the \
                throughput-vs-offered-load table with the detected knee.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run an open-system serving experiment (arrivals, deadlines, overload)")
    Term.(
      const run_serve $ service $ mode_arg $ threads_arg $ sockets_arg $ requests
      $ arrival $ gap $ load $ queue_cap $ deadline_us $ no_governor $ records
      $ ablate $ sweep $ seed_arg $ trace_arg $ trace_filter_arg $ check_arg
      $ check_json_arg $ faults_arg $ faults_seed_arg)

let analyze_cmd =
  let json =
    Arg.(value & opt string "ANALYZE_asf.json"
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the analysis artifact (summaries, verdicts, findings) to $(docv).")
  in
  let txns =
    Arg.(value & opt int 240
         & info [ "txns" ] ~docv:"N"
             ~doc:"Abstract transactions to explore per workload and seed.")
  in
  let no_xcheck =
    Arg.(value & flag
         & info [ "no-xcheck" ]
             ~doc:
               "Skip the runtime cross-validation (static verdicts against the \
                capacity-abort census of the workloads with a real twin).")
  in
  let workloads =
    Arg.(value
         & opt_all
             (one_of (fun w -> w.Workloads.w_name) (Workloads.stock @ Workloads.fixtures))
             []
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Analyze only $(docv) (repeatable; default: every stock workload).")
  in
  let fixtures =
    Arg.(value & flag
         & info [ "fixtures" ]
             ~doc:
               "Also analyze the deliberately broken fixtures (unsafe annotation, \
                over-capacity, restart hazard, reread-after-release); their \
                violations make the exit code non-zero by design.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statically analyze transaction footprints and annotations (Txstatic)")
    Term.(const run_analyze $ json $ seed_arg $ txns $ no_xcheck $ workloads $ fixtures)

let main_cmd =
  let doc =
    "Reproduce 'Evaluation of AMD's Advanced Synchronization Facility Within a \
     Complete Transactional Memory Stack' (EuroSys 2010)"
  in
  Cmd.group
    ~default:
      Term.(
        const (fun exps all quick seed csv list trace tfilter check cjson faults fseed
                   jobs ->
            repro exps all quick seed csv list trace tfilter check cjson faults fseed
              jobs)
        $ Arg.(value & opt_all experiment_conv [] & info [ "e"; "experiment" ] ~docv:"ID")
        $ Arg.(value & flag & info [ "all" ])
        $ Arg.(value & flag & info [ "quick" ])
        $ seed_arg
        $ Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR")
        $ Arg.(value & flag & info [ "list" ])
        $ trace_arg $ trace_filter_arg $ check_arg $ check_json_arg $ faults_arg
        $ faults_seed_arg $ jobs_arg)
    (Cmd.info "asf_bench" ~doc)
    [ repro_cmd; intset_cmd; stamp_cmd; analyze_cmd; serve_cmd ]

(* A first positional argument that is not (a prefix of) any known
   subcommand is a typo, not a request for the default `repro` run: say
   so explicitly and exit non-zero before cmdliner's generic error. *)
let known_subcommands = [ "repro"; "intset"; "stamp"; "analyze"; "serve"; "help" ]

let () =
  (match Array.to_list Sys.argv with
  | _ :: arg :: _
    when String.length arg > 0
         && arg.[0] <> '-'
         && not
              (List.exists
                 (fun c ->
                   String.length arg <= String.length c
                   && String.sub c 0 (String.length arg) = arg)
                 known_subcommands) ->
      Printf.eprintf
        "asf_bench: unknown subcommand %S\nusage: asf_bench [%s] [OPTION]…\n" arg
        (String.concat "|" known_subcommands);
      exit 2
  | _ -> ());
  (* A bad flag or flag value is a usage error: exit 2, not cmdliner's
     own 124. *)
  let code = Cmd.eval' main_cmd in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
