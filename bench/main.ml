(* The full benchmark harness.

   It regenerates every table and figure of the paper's evaluation, each
   twice — sequentially ([--jobs 1]) and on the domain pool — with the
   memoisation cache cleared before every timed run so both
   measurements do the same cold-cache work. It prints the tables, writes
   results/<id>.csv (write failures are fatal), verifies that the
   parallel reports and counters are identical to the sequential ones,
   and emits BENCH_asf.json with per-experiment host seconds and
   simulated cycles/second for both paths.

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
  seq_seconds : float;
  par_seconds : float;
  counters : int array;
      (** {!Counters} slots of the seq pass (per-experiment deltas; the
          directory high-water is the pass's max) *)
  minor_words : float;  (** GC minor words allocated by the seq pass *)
  major_words : float;
  deterministic : bool;
}

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
   reports, host seconds, counter bank and GC words. *)
let timed_run e ~jobs =
  Experiments.clear_cache ();
  Parallel.set_jobs jobs;
  Parallel.reset_counters ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let reports = e.Experiments.run ~quick:!quick ~seed:!seed in
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  ( reports,
    dt,
    Parallel.counters (),
    (g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_words -. g0.Gc.major_words) )

let part1 () =
  print_endline "=============================================================";
  print_endline " Part 1: reproduction of every table and figure, timed";
  print_endline "=============================================================";
  let par_jobs =
    if !jobs > 0 then !jobs else Parallel.available ()
  in
  Printf.printf "quick=%b seed=%d jobs=%d (host recommends %d)\n%!" !quick !seed
    par_jobs
    (Parallel.available ());
  let failures = ref [] in
  let timings =
    List.map
      (fun e ->
        let id = e.Experiments.id in
        let seq_reports, seq_seconds, counters, (minor_words, major_words) =
          timed_run e ~jobs:1
        in
        let par_reports, par_seconds, par_counters, _ = timed_run e ~jobs:par_jobs in
        let deterministic = seq_reports = par_reports && counters = par_counters in
        if not deterministic then
          failures :=
            Printf.sprintf "%s: parallel output differs from sequential" id
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
      (selected_experiments ())
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
  let deadline =
    int_of_float (4.0 *. tm.Tm.params.Params.ghz *. 1000.)
  in
  let base =
    {
      (Serve.default_cfg (Serve.Kv Serve.E)) with
      Serve.requests = (if !quick then 400 else 1500);
      queue_cap = 8;
      deadline = Some deadline;
      record = true;
    }
  in
  let capacity = Serve.measure_capacity tm ~threads base in
  let cycles_per_ms = 1.0 /. Params.cycles_to_ms tm.Tm.params 1 in
  let mean_gap =
    max 1 (int_of_float (cycles_per_ms /. Float.max 1e-9 (capacity *. 2.5)))
  in
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

(* Minimal well-formedness check of the emitted JSON: brackets and braces
   balance outside strings, strings terminate, and the required keys are
   present — enough to catch an interrupted or garbled write without a
   JSON library. *)
let validate_json s =
  let n = String.length s in
  let rec scan i depth in_str =
    if i >= n then if depth = 0 && not in_str then Ok () else Error "unbalanced"
    else
      let c = s.[i] in
      if in_str then
        if c = '\\' then scan (i + 2) depth true
        else scan (i + 1) depth (c <> '"')
      else
        match c with
        | '"' -> scan (i + 1) depth true
        | '{' | '[' -> scan (i + 1) (depth + 1) false
        | '}' | ']' ->
            if depth = 0 then Error "unbalanced" else scan (i + 1) (depth - 1) false
        | _ -> scan (i + 1) depth false
  in
  match scan 0 0 false with
  | Error m -> Error m
  | Ok () ->
      let has key =
        let key = "\"" ^ key ^ "\"" in
        let k = String.length key in
        let rec at i =
          i + k <= n && (String.sub s i k = key || at (i + 1))
        in
        at 0
      in
      let missing =
        List.filter
          (fun k -> not (has k))
          [
            "schema"; "quick"; "seed"; "jobs"; "recommended_domains";
            "experiments"; "totals"; "seq_seconds"; "par_seconds"; "speedup";
            "sim_cycles"; "seq_cycles_per_sec"; "par_cycles_per_sec";
            "fused_elapses"; "scheduled_elapses"; "fused_ratio";
            "deterministic"; "serve"; "arrivals"; "completed"; "shed";
            "timeout"; "timeout_aborts"; "max_depth"; "p50"; "p99";
            "offered_req_ms"; "achieved_req_ms"; "gov_final"; "invariant_ok";
            "partition_ok"; "lin_ok"; "lin_states"; "minor_words";
            "major_words"; "invalidations"; "forwards"; "cross_socket_probes";
            "dir_high_water"; "scale"; "ran"; "probes";
          ]
      in
      if missing = [] then Ok ()
      else Error ("missing keys: " ^ String.concat ", " missing)

let write_bench_json timings ~par_jobs ~serve =
  let json = json_of_timings timings ~par_jobs ~serve in
  match
    let oc = open_out !out_file in
    output_string oc json;
    close_out oc
  with
  | exception Sys_error m ->
      Printf.eprintf "ERROR: cannot write %s: %s\n%!" !out_file m;
      [ Printf.sprintf "benchmark json write failed: %s" m ]
  | () -> (
      (* Re-read and validate what actually landed on disk. *)
      let ic = open_in_bin !out_file in
      let len = in_channel_length ic in
      let written = really_input_string ic len in
      close_in ic;
      match validate_json written with
      | Ok () ->
          Printf.printf "benchmark json: %s (%d bytes, validated)\n%!" !out_file
            len;
          []
      | Error m ->
          Printf.eprintf "ERROR: %s failed validation: %s\n%!" !out_file m;
          [ Printf.sprintf "benchmark json invalid: %s" m ])

(* The --min-speedup gate over part 1's totals (see the flag comment). *)
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

(* The --max-minor-words gate: total sequential-pass minor allocation of
   the selected experiments against the budget. *)
let alloc_gate timings =
  if !max_minor_words <= 0.0 || timings = [] then []
  else begin
    let total = List.fold_left (fun acc t -> acc +. t.minor_words) 0.0 timings in
    Printf.printf "alloc gate: %.0f minor words (budget %.0f)\n%!" total
      !max_minor_words;
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
