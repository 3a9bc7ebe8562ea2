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
(* Observers                                                            *)
(* ------------------------------------------------------------------ *)

(* The six observer flags, parsed and validated once for every
   subcommand that runs a workload (see [observers_term]). *)
type observers = {
  trace : string option;  (** --trace FILE *)
  trace_filter : string list option;  (** --trace-filter, validated kinds *)
  txcheck : Check.part list option;  (** Txcheck parts; [None] = no Txcheck *)
  lin : bool;  (** --check=lin (serve only): Txlin over the recorded history *)
  check_json : string option;
  faults : Faults.plan option;
  faults_seed : int;
}

let unobserved =
  {
    trace = None;
    trace_filter = None;
    txcheck = None;
    lin = false;
    check_json = None;
    faults = None;
    faults_seed = 1;
  }

(* Run [steps] in order with the requested observers installed, then
   report what they saw, in this order: the Txcheck findings table, the
   --check-json artifact and the verdict line; the trace sink (CSV if
   FILE ends in .csv, Chrome trace-event JSON otherwise) and its
   per-kind summary; the fault census. Each step returns its exit code
   and the findings it made outside Txcheck (Txlin verdicts, partition
   violations). A step ended by the progress watchdog prints the
   diagnosis and scores exit code 3 — a distinct, deliberate outcome
   that the negative soak fixture relies on — and the next step still
   runs. --check-json carries the checker's findings, then the last
   watchdog diagnosis, then the steps' findings. Observers never
   advance simulated time, so every reported number is the same with
   and without them, and --faults=none installs nothing at all. *)
let observed o steps =
  if o.check_json <> None && o.txcheck = None && not o.lin then
    prerr_string "note: --check-json has no effect without --check\n";
  let tracer =
    Option.map (fun path -> (path, Trace.create ?filter:o.trace_filter ())) o.trace
  in
  let checker = Option.map (fun parts -> Check.create ~parts ()) o.txcheck in
  let injector =
    match o.faults with
    | Some plan when not (Faults.plan_is_none plan) ->
        Some (Faults.create ~seed:o.faults_seed plan)
    | _ -> None
  in
  let rc, livelock, extra =
    Parallel.with_observers
      {
        tracer = (match tracer with Some (_, tr) -> tr | None -> Trace.null);
        checker;
        injector = Option.value injector ~default:Faults.null;
      }
      (fun () ->
        List.fold_left
          (fun (rc, livelock, extra) step ->
            match step () with
            | r, fs -> (max rc r, livelock, extra @ fs)
            | exception Tm.Livelock d ->
                Format.eprintf "%a@." Tm.pp_diagnosis d;
                (max rc 3, Findings.of_livelock ~workload:"runtime" d, extra))
          (0, [], []) steps)
  in
  let write_json () =
    match o.check_json with
    | None -> 0
    | Some path -> (
        let fs =
          Option.fold checker ~none:[] ~some:(fun chk ->
              Findings.of_check ~workload:"runtime" (Check.findings chk))
          @ livelock @ extra
        in
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
            1)
  in
  let rc =
    match checker with
    | Some chk ->
        Report.print (Report.of_check ~id:"check" chk);
        let rc = max rc (write_json ()) in
        let violations = List.length (Check.violations chk) in
        if violations > 0 then begin
          Printf.printf "check: %d violation(s)\n" violations;
          max rc 1
        end
        else begin
          Printf.printf "check: clean (%d advisory finding(s))\n"
            (List.length (Check.advisories chk));
          rc
        end
    | None when o.lin -> max rc (write_json ())
    | None -> rc
  in
  let rc =
    match tracer with
    | None -> rc
    | Some (path, tr) -> (
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
            1)
  in
  Option.iter
    (fun fl ->
      Printf.printf "faults[%s seed=%d]: %d injection(s)\n" (Faults.plan fl).Faults.pname
        o.faults_seed (Faults.total fl);
      List.iter
        (fun (site, n) -> if n > 0 then Printf.printf "  %-17s %d\n" site n)
        (Faults.counts fl))
    injector;
  rc

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
  (0, [])

let repro obs exps all quick seed csv do_list jobs =
  (* 0 = auto: one worker per recommended domain; the pool clamps to the
     number of cells of each fan-out anyway. The report is bit-identical
     for every value (see DESIGN.md, "The determinism contract"). *)
  Parallel.set_jobs (if jobs = 0 then Parallel.available () else jobs);
  if do_list then list_experiments ()
  else
    let exps = if all then Experiments.all else exps in
    if exps = [] then begin
      Printf.eprintf "nothing to run; use -e <id>, --all, or --list\n";
      1
    end
    else observed obs (List.map (fun e () -> run_one ~quick ~seed ~csv e) exps)

(* ------------------------------------------------------------------ *)
(* intset                                                               *)
(* ------------------------------------------------------------------ *)

let run_intset obs tm structure range updates txns early_release =
  observed obs
    [
      (fun () ->
        let cfg =
          {
            (Intset.default_cfg structure) with
            Intset.range;
            update_pct = updates;
            txns_per_thread = txns;
            early_release;
          }
        in
        let threads = tm.Tm.n_cores in
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
        ((if r.Intset.size_ok && progressed then 0 else 1), []));
    ]

(* ------------------------------------------------------------------ *)
(* stamp                                                                *)
(* ------------------------------------------------------------------ *)

let run_stamp obs tm app scale =
  observed obs
    [
      (fun () ->
        let threads = tm.Tm.n_cores in
        let r = Stamp.run_scaled app ~scale tm ~threads in
        Printf.printf "%s threads=%d: %.3f ms simulated\n" (Stamp.name app) threads
          (C.ms tm.Tm.params r);
        print_stats r.C.stats;
        List.iter
          (fun (check, passed) ->
            Printf.printf "check %-40s %s\n" check (if passed then "ok" else "FAILED"))
          r.C.checks;
        ((if C.ok r then 0 else 1), []));
    ]

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

(* Exit codes and findings of several checks: the worst code, the
   findings in order. *)
let outcomes xs = List.fold_left (fun (rc, fs) (r, f) -> (max rc r, fs @ f)) (0, []) xs

(* A Txlin verdict: only a conclusive violation fails the run. *)
let lin_outcome (v : Txlin.verdict) =
  ( (if (not v.Txlin.v_ok) && not v.Txlin.v_inconclusive then 1 else 0),
    Txlin.findings ~workload:v.Txlin.v_service v )

(* The hoisted outcome-partition invariant: recorded in the result rather
   than asserted mid-run, reported here as a structured finding. *)
let partition_outcome (r : Serve.result) =
  match Txlin.partition_finding ~workload:r.Serve.r_service r with
  | None -> (0, [])
  | Some f ->
      Printf.printf "partition: FAILED (%s)\n" f.Findings.f_detail;
      (1, [ f ])

(* The Txlin oracle line for one recorded run. Everything printed is a
   function of the recorded history, itself a function of the seeds only
   — same determinism contract as the serve report. *)
let serve_lin cfg (r : Serve.result) =
  let v = Txlin.check_result cfg r in
  Printf.printf "lin[%s]: %s (%d committed, %d absent, %d group(s), %d state(s))\n"
    v.Txlin.v_service
    (if v.Txlin.v_ok then "ok"
     else if v.Txlin.v_inconclusive then "inconclusive"
     else "VIOLATION")
    v.Txlin.v_obligations v.Txlin.v_absent v.Txlin.v_groups v.Txlin.v_states;
  if not v.Txlin.v_ok then Printf.printf "  %s\n" v.Txlin.v_detail;
  lin_outcome v

(* The --arrival process around a nominal mean gap. *)
let arrival_process kind ~gap ~requests =
  match kind with
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
      Serve.Ramp { low_gap = max 1 (gap / 2); high_gap = gap * 4; period = gap * requests / 2 }
  | `Closed -> Serve.Closed

(* --sweep: one Poisson run per capacity multiplier, printed as the
   throughput-vs-offered-load table with the detected knee. *)
let serve_sweep ~lin tm ~threads base mults =
  let results, knee = Serve.sweep tm ~threads base ~mults in
  let verdicts =
    List.map (fun (_, r) -> if lin then Some (Txlin.check_result base r) else None) results
  in
  Report.print
    (Report.make ~id:"serve-sweep"
       ~title:
         (Printf.sprintf "Throughput vs offered load: %s, %d threads, mode %s"
            (Serve.service_name base.Serve.service) threads
            (fst (List.find (fun (_, m) -> m = tm.Tm.mode) modes)))
       ~notes:
         [
           (match knee with
           | Some k -> Printf.sprintf "knee: %.3f req/ms" k
           | None -> "knee: not reached in this range");
         ]
       ([ "mult"; "offered"; "achieved"; "p50"; "p99"; "shed"; "timeout"; "gov-final" ]
       @ if lin then [ "lin" ] else [])
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
  let invariants =
    if List.for_all (fun (_, r) -> r.Serve.r_invariant_ok) results then 0 else 1
  in
  let partitions = outcomes (List.map (fun (_, r) -> partition_outcome r) results) in
  let lins = outcomes (List.filter_map (Option.map lin_outcome) verdicts) in
  outcomes [ (invariants, []); partitions; lins ]

let run_serve obs tm service requests arrival gap load queue_cap deadline_us no_governor
    records ablate sweep =
  let threads = tm.Tm.n_cores in
  let tm =
    {
      tm with
      Tm.resolve_conflicts = not (List.mem `Resolve ablate);
      rollback_on_abort = not (List.mem `Rollback ablate);
    }
  in
  let base =
    {
      (Serve.default_cfg service) with
      Serve.requests;
      queue_cap;
      governor = not no_governor;
      deadline = Option.map (Params.us_to_cycles tm.Tm.params) deadline_us;
      record = obs.lin;
    }
  in
  let base =
    match records with None -> base | Some r -> { base with Serve.records = r }
  in
  observed obs
    [
      (fun () ->
        match sweep with
        | Some mults -> serve_sweep ~lin:obs.lin tm ~threads base mults
        | None ->
            let gap =
              match load with
              | Some mult -> Serve.load_gap tm ~threads base mult
              | None -> gap
            in
            let cfg = { base with Serve.arrival = arrival_process arrival ~gap ~requests } in
            let r = Serve.run tm ~threads cfg in
            let rc = print_serve_result r in
            let partition = partition_outcome r in
            let lin = if obs.lin then [ serve_lin cfg r ] else [] in
            outcomes ((rc, []) :: partition :: lin));
    ]

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

(* Txstatic: run the static analyzer over the workloads' own code,
   print the per-class access summaries with a capacity verdict per
   hardware variant, cross-validate the verdicts against each stock
   workload's runtime twin, and write the whole result as
   ANALYZE_asf.json. Exit 1 on any violation: an unsafe annotation, a
   restart hazard, release misuse, or a static-fits/runtime-abort
   contradiction (the latter is an analyzer bug by construction). *)
let analyze json_path seed no_xcheck workloads fixtures =
  let params = Asf_machine.Params.barcelona in
  let workloads =
    if workloads <> [] then workloads
    else Workloads.stock @ if fixtures then Workloads.fixtures else []
  in
  let seeds = [ seed; seed + 1; seed + 2 ] in
  let t = Analyze.run ~seeds ~params workloads in
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
         (Printf.sprintf "Txstatic access summaries and capacity verdicts (seeds %s)"
            (String.concat "," (List.map string_of_int seeds)))
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

let run_analyze json_path seed no_xcheck workloads fixtures =
  observed unobserved
    [ (fun () -> (analyze json_path seed no_xcheck workloads fixtures, [])) ]

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

(* The largest machine the CLI accepts: 512 cores, twice the largest
   preset ([Params.topo_256c8s]), over at most 16 sockets. The simulator
   itself has no core or socket cap. *)
let max_cores = 512
let max_sockets = 16

let threads_arg =
  Arg.(
    value
    & opt (int_in 1 ~hi:max_cores) 8
    & info [ "threads"; "t"; "cores" ] ~docv:"N"
        ~doc:"Worker threads (= simulated cores), 1 to 512.")

let sockets_arg =
  Arg.(
    value
    & opt (int_in 0 ~hi:max_sockets) 0
    & info [ "sockets" ] ~docv:"N"
        ~doc:
          "Spread the simulated cores over $(docv) sockets (one shared L3 \
           per socket, 110-cycle interconnect hop on cross-socket probes), \
           at most 16. 0 keeps the mode profile's own socket count.")

let mode_arg =
  Arg.(value & opt (one_of fst modes) ("llb256", List.assoc "llb256" modes)
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc:("Execution mode: " ^ mode_names ^ "."))

(* The machine flags (-m, -t, --sockets, --seed) as one checked
   {!Tm.config}. [Seq_mode] is uninstrumented and single-threaded
   ({!Tm.create}): more threads is a usage error (exit 2). [--sockets 0]
   keeps the mode profile's own socket count; any other value re-spreads
   the simulated cores via {!Params.with_sockets}, charging the
   interconnect hop on cross-socket coherence traffic. *)
let machine_term =
  let make (_, mode) threads sockets seed =
    if mode = Tm.Seq_mode && threads > 1 then
      Error (Printf.sprintf "mode seq runs on one thread, not %d" threads)
    else
      let tm = { (Tm.default_config mode ~n_cores:threads) with Tm.seed } in
      Ok
        (if sockets = 0 then tm
         else { tm with Tm.params = Params.with_sockets tm.Tm.params ~sockets })
  in
  Term.(term_result' (const make $ mode_arg $ threads_arg $ sockets_arg $ seed_arg))

(* A comma-separated list flag's names, blanks dropped. *)
let names_of s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Record a transaction-level trace and write it to $(docv): Chrome \
              trace-event JSON (open in chrome://tracing or Perfetto), or CSV when \
              $(docv) ends in .csv. Tracing never advances simulated time, so all \
              reported numbers are identical with and without it.")

let trace_filter_arg =
  let parse s =
    let names = names_of s in
    match List.find_opt (fun n -> not (List.mem n Trace.filter_names)) names with
    | None -> Ok names
    | Some n ->
        Error
          (`Msg
             (Printf.sprintf "unknown event kind %S (valid: %s)" n
                (String.concat ", " Trace.filter_names)))
  in
  let print ppf names = Format.pp_print_string ppf (String.concat "," names) in
  Arg.(value & opt (some (conv (parse, print))) None
       & info [ "trace-filter" ] ~docv:"EVENTS"
           ~doc:
             ("Comma-separated event kinds to record (default: all except resume). \
               Kinds: " ^ String.concat ", " Trace.filter_names ^ "."))

(* --check's parts: Txcheck's, and on [serve] also [lin], the Txlin
   oracle, which is no Txcheck part — a serve spec naming nothing else
   runs no Txcheck. *)
let check_arg ~serve =
  let parse s =
    let names = names_of s in
    let rest = if serve then List.filter (fun n -> n <> "lin") names else names in
    match if serve && rest = [] then None else Some (Check.parts_of_names rest) with
    | parts -> Ok (parts, serve && List.mem "lin" names)
    | exception Invalid_argument _ ->
        Error
          (`Msg
             (Printf.sprintf "%S names an unknown part (valid: isolation, serial, \
                              lint, all%s)"
                s
                (if serve then ", lin" else "; lin is serve-only")))
  in
  let print ppf (parts, lin) =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map Check.part_name (Option.value parts ~default:[])
         @ if lin then [ "lin" ] else []))
  in
  Arg.(value
       & opt ~vopt:(Result.get_ok (parse "all")) (conv (parse, print)) (None, false)
       & info [ "check" ] ~docv:"PARTS" ~absent:"off"
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
  let parse s = Result.map_error (fun m -> `Msg m) (Faults.plan_of_spec s) in
  let print ppf p = Format.pp_print_string ppf p.Faults.pname in
  Arg.(value & opt (some (conv (parse, print))) None
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

(* The observer flags (--trace, --trace-filter, --check, --check-json,
   --faults, --faults-seed), validated while parsing: a bad name is a
   usage error (exit 2) before anything runs. Only [serve] accepts
   --check=lin. *)
let observers_term ~serve =
  let make trace trace_filter (txcheck, lin) check_json faults faults_seed =
    { trace; trace_filter; txcheck; lin; check_json; faults; faults_seed }
  in
  Term.(
    const make $ trace_arg $ trace_filter_arg $ check_arg ~serve $ check_json_arg
    $ faults_arg $ faults_seed_arg)

let jobs_arg =
  Arg.(value & opt (int_in 0) 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:
             "Run each experiment's independent simulator cells on $(docv) \
              domains (0, the default: the host's recommended domain count; \
              clamped to the number of cells). Output is bit-identical for every \
              $(docv); $(b,--jobs 1) is the fully sequential path, and \
              $(b,--trace) forces it.")

let experiment_conv = one_of (fun e -> e.Experiments.id) Experiments.all

let repro_term =
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
  Term.(
    const repro $ observers_term ~serve:false $ exps $ all $ quick $ seed_arg $ csv
    $ list $ jobs_arg)

let repro_cmd =
  Cmd.v (Cmd.info "repro" ~doc:"Reproduce the paper's tables and figures") repro_term

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
      const run_intset $ observers_term ~serve:false $ machine_term $ structure $ range
      $ updates $ txns $ er)

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
    Term.(const run_stamp $ observers_term ~serve:false $ machine_term $ app_arg $ scale)

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
      const run_serve $ observers_term ~serve:true $ machine_term $ service $ requests
      $ arrival $ gap $ load $ queue_cap $ deadline_us $ no_governor $ records
      $ ablate $ sweep)

let analyze_cmd =
  let json =
    Arg.(value & opt string "ANALYZE_asf.json"
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the analysis artifact (summaries, verdicts, findings) to $(docv).")
  in
  let no_xcheck =
    Arg.(value & flag
         & info [ "no-xcheck" ]
             ~doc:
               "Skip the runtime cross-validation (static verdicts against the \
                capacity-abort census of each stock workload's runtime twin).")
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
    Term.(const run_analyze $ json $ seed_arg $ no_xcheck $ workloads $ fixtures)

let main_cmd =
  let doc =
    "Reproduce 'Evaluation of AMD's Advanced Synchronization Facility Within a \
     Complete Transactional Memory Stack' (EuroSys 2010)"
  in
  Cmd.group ~default:repro_term
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
