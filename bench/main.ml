(* The full benchmark harness.

   It regenerates every table and figure of the paper's evaluation, each
   three times sequentially ([--jobs 1]) and three times on the domain
   pool, the two interleaved, with the memoisation cache cleared before
   every timed run so all six do the same cold-cache work. It prints the
   tables, writes results/<id>.csv (write failures are fatal), verifies
   that every run's reports and counters are identical to the first
   sequential run's, and emits BENCH_asf.json with per-experiment host
   seconds (the median of each path's three runs) and simulated
   cycles/second for both paths.

     main.exe [--quick] [--seed N] [--jobs N] [--out FILE] [--csv DIR]
              [--only IDS] [--min-speedup X] [--max-minor-words N] *)

module Experiments = Asf_harness.Experiments
module Report = Asf_harness.Report
module Parallel = Asf_parallel.Parallel
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin
module Tm = Asf_tm_rt.Tm
module Variant = Asf_core.Variant
module Params = Asf_machine.Params
module Counters = Asf_engine.Counters
module Findings = Asf_analyze.Findings

(* ------------------------------------------------------------------ *)
(* CLI                                                                  *)
(* ------------------------------------------------------------------ *)

let quick = ref false

let seed = ref 1

let jobs = ref 0 (* 0 = auto *)

let out_file = ref "BENCH_asf.json"

let csv_dir = ref "results"

let only = ref ""

(* 0.0 = no gate. On a multi-core host the gate is literal: the parallel
   pass's totals speedup must reach the floor. On a single-core host
   (Parallel.available () = 1, e.g. CI containers) a parallel win is
   physically impossible, so the gate degrades to an overhead bound: the
   pool may not be worse than min(floor, 0.65) — chunked claiming plus
   the join must stay cheap even when domains only timeslice. The 0.65
   allows for the multicore GC tax and the +/-15% single-shot timing
   noise observed on shared single-core CI hosts while still failing a
   pool that burns half its host time on coordination. *)
let min_speedup = ref 0.0

(* 0.0 = no gate. An allocation budget over the sequential pass of the
   selected experiments — the @perf-smoke regression fence for the
   access-path allocation hunts (PR 5 landed 45M minor words/run on the
   8-core quick suite; the budget is set with headroom above the
   current measurement, not at it). *)
let max_minor_words = ref 0.0

let () =
  Arg.parse
    [
      ("--quick", Arg.Set quick, " Scaled-down experiment configurations");
      ("--seed", Arg.Set_int seed, "N Deterministic seed (default 1)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N Domains for the parallel pass (default: recommended count)" );
      ( "--out",
        Arg.Set_string out_file,
        "FILE Benchmark JSON output (default BENCH_asf.json)" );
      ("--csv", Arg.Set_string csv_dir, "DIR CSV output directory (default results)");
      ( "--only",
        Arg.Set_string only,
        "IDS Comma-separated experiment ids to run (default: all)" );
      ( "--min-speedup",
        Arg.Set_float min_speedup,
        "X Fail unless the parallel pass's totals speedup reaches X \
         (single-core hosts: min(X, 0.65) as an overhead bound)" );
      ( "--max-minor-words",
        Arg.Set_float max_minor_words,
        "N Fail if the sequential pass allocates more than N minor words \
         across the selected experiments (0 = no gate)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--quick] [--seed N] [--jobs N] [--out FILE] [--csv DIR] \
     [--only IDS] [--min-speedup X] [--max-minor-words N]"

(* Resolve --only against the experiment registry; an unknown id is a
   usage error, not a silently empty run. *)
let selected_experiments () =
  if !only = "" then Experiments.all
  else begin
    let ids = String.split_on_char ',' !only |> List.filter (fun s -> s <> "") in
    let known = List.map (fun e -> e.Experiments.id) Experiments.all in
    List.iter
      (fun id ->
        if not (List.mem id known) then begin
          Printf.eprintf "bench: unknown experiment id %S (known: %s)\n%!" id
            (String.concat ", " known);
          exit 2
        end)
      ids;
    List.filter (fun e -> List.mem e.Experiments.id ids) Experiments.all
  end

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate + time                                            *)
(* ------------------------------------------------------------------ *)

type timing = {
  id : string;
  seq_seconds : float;  (** median of the sequential runs *)
  par_seconds : float;  (** median of the pooled runs *)
  counters : int array;
      (** {!Counters} slots of the first seq run (per-experiment deltas;
          the directory high-water is the run's max) *)
  minor_words : float;  (** GC minor words allocated by the first seq run *)
  major_words : float;
  deterministic : bool;
}

(* Timed runs per path and experiment. A pass over @perf-smoke's five
   experiments takes about 0.3 s, so a single pooled run and a single
   sequential run can fall into different phases of a shared host's
   load; the gates read the median of three. *)
let repeats = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let count t slot = t.counters.(slot)

(* The coherence slots, in the order the alloc line and the scale block
   print them. *)
let coherence_slots =
  Counters.[ invalidations; forwards; cross_socket_probes; probes; dir_high_water ]

let fused_ratio t =
  let fused = count t Counters.fused_elapses in
  let total = fused + count t Counters.scheduled_elapses in
  if total = 0 then 0.0 else float_of_int fused /. float_of_int total

(* One timed cold-cache regeneration at the given pool width: its
   reports, host seconds, counter bank and GC words. Minor words come
   from [Gc.minor_words ()], which is exact but counts the calling
   domain only: that is the whole sequential pass, which runs inline.
   [Gc.quick_stat]'s [minor_words] moves only at a minor collection, so
   a small experiment would read in steps of the minor heap's size. *)
let timed_run e ~jobs =
  Experiments.clear_cache ();
  Parallel.set_jobs jobs;
  Parallel.reset_counters ();
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let reports = e.Experiments.run ~quick:!quick ~seed:!seed in
  let dt = Unix.gettimeofday () -. t0 in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  (reports, dt, Parallel.counters (), (m1 -. m0, g1.Gc.major_words -. g0.Gc.major_words))

let part1 () =
  print_endline "=============================================================";
  print_endline " Part 1: reproduction of every table and figure, timed";
  print_endline "=============================================================";
  let par_jobs =
    if !jobs > 0 then !jobs else Parallel.available ()
  in
  Printf.printf
    "quick=%b seed=%d jobs=%d (host recommends %d); seconds are medians of %d \
     interleaved seq/pool runs\n%!"
    !quick !seed par_jobs (Parallel.available ()) repeats;
  let failures = ref [] in
  let experiments = selected_experiments () in
  (* [repeats] rounds over the selection, each a sequential then a pooled
     run of every experiment, so an experiment's runs lie a round apart
     and a slow stretch of the host shorter than a round moves at most
     one of them. *)
  let rounds =
    List.init repeats (fun _ ->
        List.map
          (fun e ->
            let seq = timed_run e ~jobs:1 in
            (seq, timed_run e ~jobs:par_jobs))
          experiments)
  in
  let timings =
    List.mapi
      (fun i e ->
        let id = e.Experiments.id in
        let runs = List.map (fun round -> List.nth round i) rounds in
        let (seq_reports, _, counters, (minor_words, major_words)), (par_reports, _, _, _) =
          List.hd runs
        in
        let same (reports, _, c, _) = reports = seq_reports && c = counters in
        let deterministic = List.for_all (fun (s, p) -> same s && same p) runs in
        let seconds pick = median (List.map (fun r -> let _, dt, _, _ = pick r in dt) runs) in
        let seq_seconds = seconds fst and par_seconds = seconds snd in
        if not deterministic then
          failures :=
            Printf.sprintf "%s: a run's output differs from the first sequential run's" id
            :: !failures;
        List.iter
          (fun r ->
            Report.print r;
            match Report.save_csv ~dir:!csv_dir r with
            | path -> Printf.printf "csv: %s\n" path
            | exception Sys_error m ->
                failures := Printf.sprintf "%s: csv write failed: %s" id m :: !failures;
                Printf.eprintf "ERROR: cannot write %s/%s.csv: %s\n%!" !csv_dir
                  r.Report.id m)
          par_reports;
        let t =
          { id; seq_seconds; par_seconds; counters; minor_words; major_words; deterministic }
        in
        let seq_cycles = count t Counters.sim_cycles in
        Printf.printf
          "[%s seq %.1fs (%.0f cyc/s), jobs=%d %.1fs (x%.2f), %d sim cycles, \
           fused %.1f%%, %s]\n%!"
          id seq_seconds
          (float_of_int seq_cycles /. Float.max 1e-9 seq_seconds)
          par_jobs par_seconds
          (seq_seconds /. Float.max 1e-9 par_seconds)
          seq_cycles
          (100.0 *. fused_ratio t)
          (if deterministic then "bit-identical" else "MISMATCH");
        (* One machine-greppable allocation/coherence line per experiment;
           scripts/allocprof.sh turns these into CSV. *)
        Printf.printf "[alloc %s minor_words=%.0f major_words=%.0f%s]\n%!" id
          minor_words major_words
          (String.concat ""
             (List.map
                (fun slot -> Printf.sprintf " %s=%d" Counters.names.(slot) (count t slot))
                coherence_slots));
        t)
      experiments
  in
  (timings, par_jobs, !failures)

(* ------------------------------------------------------------------ *)
(* Serve metrics                                                        *)
(* ------------------------------------------------------------------ *)

(* One pinned overload scenario (kv-e at 2.5x measured capacity, tight
   deadlines, small queues) whose robustness censuses are embedded in
   BENCH_asf.json, so a regression in shedding, deadline enforcement or
   the governor shows up as a diff in the artifact rather than only as a
   slower run. Purely seed-determined. *)
let serve_scenario () =
  let threads = 4 in
  let tm =
    {
      (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:threads) with
      Tm.seed = !seed;
    }
  in
  let base =
    {
      (Serve.default_cfg (Serve.Kv Serve.E)) with
      Serve.requests = (if !quick then 400 else 1500);
      queue_cap = 8;
      deadline = Some (Params.us_to_cycles tm.Tm.params 4);
      record = true;
    }
  in
  let mean_gap = Serve.load_gap tm ~threads base 2.5 in
  let cfg = { base with Serve.arrival = Serve.Poisson { mean_gap } } in
  let r = Serve.run tm ~threads cfg in
  (r, Txlin.check_result cfg r)

let json_of_serve ((r : Serve.result), (v : Txlin.verdict)) =
  Printf.sprintf
    "  \"serve\": {\"service\": %S, \"arrivals\": %d, \"completed\": %d, \
     \"shed\": %d, \"timeout\": %d, \"late\": %d, \"retries\": %d, \
     \"timeout_aborts\": %d, \"max_depth\": %d, \"p50\": %d, \"p99\": %d, \
     \"p999\": %d, \"offered_req_ms\": %.3f, \"achieved_req_ms\": %.3f, \
     \"gov_final\": %S, \"gov_to_shed\": %d, \"gov_to_serial\": %d, \
     \"gov_recovered\": %d, \"invariant_ok\": %b, \"partition_ok\": %b, \
     \"lin_ok\": %b, \"lin_states\": %d},\n"
    r.Serve.r_service r.Serve.r_arrivals r.Serve.r_completed r.Serve.r_shed
    r.Serve.r_timeout r.Serve.r_late r.Serve.r_retries r.Serve.r_timeout_aborts
    r.Serve.r_max_depth r.Serve.r_p50 r.Serve.r_p99 r.Serve.r_p999
    r.Serve.r_offered r.Serve.r_achieved r.Serve.r_final_gov
    r.Serve.r_gov_to_shed r.Serve.r_gov_to_serial r.Serve.r_gov_recovered
    r.Serve.r_invariant_ok r.Serve.r_partition_ok v.Txlin.v_ok v.Txlin.v_states

(* ------------------------------------------------------------------ *)
(* BENCH_asf.json                                                       *)
(* ------------------------------------------------------------------ *)

let json_of_timings timings ~par_jobs ~serve =
  let open Counters in
  let buf = Buffer.create 4096 in
  let total f = List.fold_left (fun acc t -> acc +. f t) 0.0 timings in
  let seq_total = total (fun t -> t.seq_seconds) in
  let par_total = total (fun t -> t.par_seconds) in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"asf-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" !quick);
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" !seed);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" par_jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Parallel.available ()));
  Buffer.add_string buf "  \"experiments\": [\n";
  List.iteri
    (fun i t ->
      let c = count t in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\": %S, \"seq_seconds\": %.3f, \"par_seconds\": %.3f, \
            \"speedup\": %.3f, \"sim_cycles\": %d, \"seq_cycles_per_sec\": \
            %.0f, \"par_cycles_per_sec\": %.0f, \"fused_elapses\": %d, \
            \"scheduled_elapses\": %d, \"fused_ratio\": %.4f, \
            \"minor_words\": %.0f, \"major_words\": %.0f, \
            \"invalidations\": %d, \"forwards\": %d, \
            \"cross_socket_probes\": %d, \"dir_high_water\": %d, \
            \"deterministic\": %b}%s\n"
           t.id t.seq_seconds t.par_seconds
           (t.seq_seconds /. Float.max 1e-9 t.par_seconds)
           (c sim_cycles)
           (float_of_int (c sim_cycles) /. Float.max 1e-9 t.seq_seconds)
           (float_of_int (c sim_cycles) /. Float.max 1e-9 t.par_seconds)
           (c fused_elapses) (c scheduled_elapses) (fused_ratio t) t.minor_words
           t.major_words (c invalidations) (c forwards) (c cross_socket_probes)
           (c dir_high_water) t.deterministic
           (if i = List.length timings - 1 then "" else ",")))
    timings;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (json_of_serve serve);
  (* The big-topology block: coherence traffic and throughput of the
     64c4s scale experiment when it was part of the selected set. Always
     emitted (with "ran": false otherwise) so validation is
     unconditional. *)
  (match List.find_opt (fun t -> t.id = "scale") timings with
  | Some t ->
      let c = count t in
      Buffer.add_string buf
        (Printf.sprintf
           "  \"scale\": {\"ran\": true, \"sim_cycles\": %d, \
            \"seq_cycles_per_sec\": %.0f, \"invalidations\": %d, \
            \"forwards\": %d, \"cross_socket_probes\": %d, \"probes\": %d, \
            \"dir_high_water\": %d, \"minor_words\": %.0f},\n"
           (c sim_cycles)
           (float_of_int (c sim_cycles) /. Float.max 1e-9 t.seq_seconds)
           (c invalidations) (c forwards) (c cross_socket_probes) (c probes)
           (c dir_high_water) t.minor_words)
  | None ->
      Buffer.add_string buf
        "  \"scale\": {\"ran\": false, \"sim_cycles\": 0, \
         \"seq_cycles_per_sec\": 0, \"invalidations\": 0, \"forwards\": 0, \
         \"cross_socket_probes\": 0, \"probes\": 0, \"dir_high_water\": 0, \
         \"minor_words\": 0},\n");
  Buffer.add_string buf
    (Printf.sprintf
       "  \"totals\": {\"seq_seconds\": %.3f, \"par_seconds\": %.3f, \
        \"speedup\": %.3f, \"minor_words\": %.0f}\n"
       seq_total par_total
       (seq_total /. Float.max 1e-9 par_total)
       (total (fun t -> t.minor_words)));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Write BENCH_asf.json, then re-read it and check it is well formed and
   carries every key below — enough to catch an interrupted or garbled
   write without a JSON library. *)
let write_bench_json timings ~par_jobs ~serve =
  let json = json_of_timings timings ~par_jobs ~serve in
  let required =
    [
      "schema"; "quick"; "seed"; "jobs"; "recommended_domains"; "experiments";
      "totals"; "seq_seconds"; "par_seconds"; "speedup"; "sim_cycles";
      "seq_cycles_per_sec"; "par_cycles_per_sec"; "fused_elapses";
      "scheduled_elapses"; "fused_ratio"; "deterministic"; "serve"; "arrivals";
      "completed"; "shed"; "timeout"; "timeout_aborts"; "max_depth"; "p50";
      "p99"; "offered_req_ms"; "achieved_req_ms"; "gov_final"; "invariant_ok";
      "partition_ok"; "lin_ok"; "lin_states"; "minor_words"; "major_words";
      "invalidations"; "forwards"; "cross_socket_probes"; "dir_high_water";
      "scale"; "ran"; "probes";
    ]
  in
  match Findings.write_json ~required ~path:!out_file json with
  | Ok () ->
      Printf.printf "benchmark json: %s (%d bytes, validated)\n%!" !out_file
        (String.length json);
      []
  | Error m ->
      Printf.eprintf "ERROR: %s: %s\n%!" !out_file m;
      [ Printf.sprintf "benchmark json write failed: %s" m ]

(* The --min-speedup gate: the selected experiments' median sequential
   seconds, summed, over their median pooled seconds, summed (see the
   flag comment). *)
let speedup_gate timings =
  if !min_speedup <= 0.0 || timings = [] then []
  else begin
    let total f = List.fold_left (fun acc t -> acc +. f t) 0.0 timings in
    let speedup =
      total (fun t -> t.seq_seconds)
      /. Float.max 1e-9 (total (fun t -> t.par_seconds))
    in
    let multicore = Parallel.available () >= 2 in
    let floor =
      if multicore then !min_speedup else Float.min !min_speedup 0.65
    in
    Printf.printf "speedup gate: totals x%.3f, floor x%.2f (%s host)\n%!"
      speedup floor
      (if multicore then "multi-core" else "single-core");
    if speedup >= floor then []
    else
      [
        Printf.sprintf
          "totals speedup x%.3f below the --min-speedup floor x%.2f%s" speedup
          floor
          (if multicore then ""
           else " (single-core host: pool-overhead bound)");
      ]
  end

(* The --max-minor-words gate: the minor allocation of each selected
   experiment's first sequential run, summed, against the budget. *)
let alloc_gate timings =
  if !max_minor_words <= 0.0 || timings = [] then []
  else begin
    let total = List.fold_left (fun acc t -> acc +. t.minor_words) 0.0 timings in
    Printf.printf
      "alloc gate: %.0f minor words in the first sequential runs (budget %.0f)\n%!"
      total !max_minor_words;
    if total <= !max_minor_words then []
    else
      [
        Printf.sprintf
          "sequential pass allocated %.0f minor words, over the \
           --max-minor-words budget %.0f"
          total !max_minor_words;
      ]
  end

(* The serve scenario's own acceptance gates: outcome partition, service
   invariant, linearizability of the recorded history, bounded queues — a
   broken robustness path fails the bench even if every timing is fine. *)
let serve_gate ((r : Serve.result), (v : Txlin.verdict)) =
  Printf.printf
    "serve scenario: %s %d arrivals -> %d completed / %d shed / %d timeout, \
     gov=%s, invariant %s, lin %s (%d states)\n%!"
    r.Serve.r_service r.Serve.r_arrivals r.Serve.r_completed r.Serve.r_shed
    r.Serve.r_timeout r.Serve.r_final_gov
    (if r.Serve.r_invariant_ok then "ok" else "FAILED")
    (if v.Txlin.v_ok then "ok"
     else if v.Txlin.v_inconclusive then "inconclusive"
     else "FAILED")
    v.Txlin.v_states;
  List.concat
    [
      (if r.Serve.r_partition_ok then []
       else [ "serve: outcome partition violated" ]);
      (if r.Serve.r_invariant_ok then []
       else [ "serve: service invariant violated: " ^ r.Serve.r_invariant_msg ]);
      (if v.Txlin.v_ok then []
       else if v.Txlin.v_inconclusive then
         [ "serve: linearizability check inconclusive: " ^ v.Txlin.v_detail ]
       else [ "serve: history not linearizable: " ^ v.Txlin.v_detail ]);
      (if r.Serve.r_shed + r.Serve.r_timeout > 0 then []
       else [ "serve: 2.5x overload produced no shed or timeout" ]);
    ]

let () =
  let timings, par_jobs, failures = part1 () in
  let failures = failures @ speedup_gate timings in
  let failures = failures @ alloc_gate timings in
  let serve = serve_scenario () in
  let failures = failures @ serve_gate serve in
  let failures = failures @ write_bench_json timings ~par_jobs ~serve in
  if failures <> [] then begin
    Printf.eprintf "\nbench: FAILED\n";
    List.iter (fun m -> Printf.eprintf "  - %s\n" m) (List.rev failures);
    exit 1
  end;
  print_endline "\nbench: done"
