(* Repeated measurement of one workload, the metric catalog, and the
   human and JSON renderings of a result.

   Times are host CPU seconds of the benchmark process ([Sys.time]): the
   simulator is single-threaded, so on an idle host they equal wall
   seconds, and they do not count time the process spent waiting for a
   CPU another tenant of the host held. End-to-end times are further
   corrected for host contention by the reference kernel of [Calib]. *)

module Engine = Asf_engine.Engine

(* Metric names and units, in print order. BENCHMARK.json lists the same
   names and units; the test suite keeps the two in step. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("sim_cycles_per_s", "cycles/s");
    ("minor_words_per_tx", "words");
    ("major_words_per_tx", "words");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.fused_ratio", "ratio");
    ("engine.max_pending", "count");
    ("engine.ns_per_event", "ns");
    ("engine.est_s", "s");
    ("cache.accesses", "count");
    ("cache.l1_miss_ratio", "ratio");
    ("cache.l2_miss_ratio", "ratio");
    ("cache.l3_miss_ratio", "ratio");
    ("cache.forwards", "count");
    ("cache.invalidations", "count");
    ("cache.probes", "count");
    ("cache.cross_socket_probes", "count");
    ("cache.dir_lines", "count");
    ("cache.hier_ns_per_access", "ns");
    ("cache.tlb_ns_per_access", "ns");
    ("cache.tlb_walk_ratio", "ratio");
    ("cache.replay_minor_words_per_access", "words");
    ("cache.est_s", "s");
    ("core.speculates", "count");
    ("core.commit_ratio", "ratio");
    ("core.aborts_contention", "count");
    ("core.aborts_capacity", "count");
    ("core.aborts_page_fault", "count");
    ("stm.starts", "count");
    ("stm.commit_ratio", "ratio");
    ("stm.extensions", "count");
    ("tm.attempts", "count");
    ("tm.serial_ratio", "ratio");
    ("tm.forced_serial", "count");
    ("tm.abort_waste_ratio", "ratio");
    ("tm.residual_s", "s");
    ("serve.capacity_probe_s", "s");
    ("serve.run_s", "s");
    ("serve.shed_ratio", "ratio");
    ("serve.timeout_ratio", "ratio");
    ("check.txcheck_s", "s");
    ("check.violations", "count");
    ("txlin.check_s", "s");
    ("txlin.states", "count");
    ("txlin.us_per_event", "us");
    ("txlin.scaling_exp", "log2");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_tx", "words");
    ("traced.explained_ratio", "ratio");
    ("traced.overhead_ratio", "ratio");
    ("traced.recorded_share", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The mean without the lowest and highest tenth of the values. It is
   what every end-to-end metric reports: the mean averages what the
   seed moves best (two metrics swing between two levels across seeds),
   and the trimming drops the rare repeat that a burst of host load
   slowed past what the reference kernel caught. *)
let trimmed_mean a =
  let s = sorted a and n = Array.length a in
  let k = n / 10 in
  if n = 0 then nan
  else begin
    let sum = ref 0.0 in
    for i = k to n - k - 1 do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int (n - (2 * k))
  end

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)]. *)
let quartiles a =
  let s = sorted a and n = Array.length a in
  if n < 2 then (median a, median a)
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

(* Every repeat of a run simulates its own seed: repeat [r] of a run
   with seed [s] simulates seed [s * 1000 + r]. A run's values thus pool
   as many inputs as it has repeats, which keeps seed-driven swings (the
   256-core makespan, the hash set's two levels of major-heap growth) out
   of the spread between runs. The first [golden_repeats] repeat seeds
   are the same in every run of a seed, so their digests are checked. *)
let golden_repeats = 8

let repeat_seed ~seed r = (seed * 1000) + r

type sample = {
  setup_s : float;  (** raw host seconds, as [run_s] *)
  run_s : float;
  sim_cycles : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  txns : int;
  index : int;  (** the repeat's number in its run, from 0 *)
  scale : float;  (** contention correction: [Calib.nominal_s] over the kernel's time *)
}

(* One repeat: a fresh system, set-up and run timed apart. The caller
   compacts the heap first, so every repeat starts from the same GC
   state, as a fresh process would. The untimed minor collections around
   the run make its promoted and major word counts complete. *)
let sample setup =
  let t0 = Sys.time () in
  let go = setup () in
  let t1 = Sys.time () in
  Gc.minor ();
  let c0 = Engine.cycles_retired () and g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t2 = Sys.time () in
  let o = go () in
  let t3 = Sys.time () in
  let m1 = Gc.minor_words () in
  Gc.minor ();
  let g1 = Gc.quick_stat () and c1 = Engine.cycles_retired () in
  ( o,
    {
      setup_s = t1 -. t0;
      run_s = t3 -. t2;
      sim_cycles = c1 - c0;
      minor_words = m1 -. m0;
      major_words = g1.major_words -. g0.major_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      minor_gcs = g1.minor_collections - g0.minor_collections;
      major_gcs = g1.major_collections - g0.major_collections;
      txns = o.Workload.txns;
      index = 0;
      scale = 1.0;
    } )

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        0.0
        (String.split_on_char '\n' status)

let golden_dir = Filename.concat "bench" (Filename.concat "perf" "golden")

let golden_file name = Filename.concat golden_dir (name ^ ".md5")

(* The golden file holds one digest per line, for the first
   [golden_repeats] repeat seeds of seed 1 in order. *)
let read_golden name =
  match In_channel.with_open_text (golden_file name) In_channel.input_lines with
  | lines -> Some (Array.of_list (List.filter (( <> ) "") (List.map String.trim lines)))
  | exception Sys_error _ -> None

(* What every run's digest is compared with: the committed golden digests
   (seed 1, full sizes), or the first run of the same repeat seed. *)
type golden = Unchecked | Expect of string array | Missing

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  problems : string list;
  digests : string array;  (** of the first repeat seeds, "" when one never ran *)
  golden_status : string;  (** ["match"], ["mismatch"], ["missing"] or ["none"] *)
  host_slowdown : float;  (** median kernel time over [Calib.nominal_s] *)
  scales : float array;  (** every repeat's contention correction *)
  e2e : (string * float array) list;  (** per-repeat values *)
  layers : (string * float) list;  (** [] when not traced *)
}

let fail_frac r = float_of_int r.failed /. float_of_int (max 1 r.attempted)

(* Warm-up, then timed repeats until at least [golden_repeats] ran and
   [seconds] of wall time passed, then (with [trace]) the traced run. The
   warm-up and the traced run simulate the first repeat seed. The
   reference kernel, at [kernel] size, runs before the first repeat and
   after every repeat; a repeat's times are scaled by the mean of the two
   runs around it. The digest of each of the first [golden_repeats]
   repeat seeds must equal the golden one when it is given, and the first
   run's of that seed otherwise. *)
let measure (w : Workload.t) ~seed ~seconds ~kernel ~trace ~golden =
  let setup r = Workload.setup w ~seed:(repeat_seed ~seed r) in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let expected =
    match golden with
    | Expect d when Array.length d = golden_repeats -> Array.map Option.some d
    | Expect _ | Unchecked | Missing -> Array.make golden_repeats None
  in
  let golden =
    match golden with Expect d when Array.length d <> golden_repeats -> Missing | g -> g
  in
  let mismatch = ref false in
  if golden = Missing then begin
    incr failed;
    problems :=
      [
        Printf.sprintf "golden digests missing: %s must hold %d lines" (golden_file w.name)
          golden_repeats;
      ]
  end;
  let attempt what ~r f =
    incr attempted;
    let bad, v =
      match f () with
      | exception e -> ([ what ^ ": " ^ Printexc.to_string e ], None)
      | (o : Workload.outcome), v ->
          let d = Workload.digest o in
          let digest_bad =
            if r >= golden_repeats then []
            else
              match expected.(r) with
              | None ->
                  expected.(r) <- Some d;
                  []
              | Some e when e = d -> []
              | Some e ->
                  mismatch := true;
                  [ Printf.sprintf "%s: digest %s, expected %s" what d e ]
          in
          (o.problems @ digest_bad, Some v)
    in
    if bad <> [] then begin
      incr failed;
      problems := !problems @ bad
    end;
    v
  in
  ignore (attempt "warm-up" ~r:0 (fun () -> (setup 0 () (), ())) : unit option);
  let kernel_s = ref (Calib.time ~size:kernel) in
  let kernel_all = ref [ !kernel_s ] in
  let samples = ref [] and n = ref 0 in
  let t0 = Unix.gettimeofday () in
  while !n < golden_repeats || Unix.gettimeofday () -. t0 < seconds do
    let r = !n in
    incr n;
    let s = attempt (Printf.sprintf "repeat %d" !n) ~r (fun () -> sample (setup r)) in
    let after = Calib.time ~size:kernel in
    let scale = Calib.nominal_s /. ((!kernel_s +. after) /. 2.0) in
    kernel_s := after;
    kernel_all := after :: !kernel_all;
    Option.iter (fun s -> samples := { s with index = r; scale } :: !samples) s
  done;
  let samples = Array.of_list (List.rev !samples) in
  let peak = peak_rss_mb () in
  let col f = Array.map f samples in
  let per_tx s x = x /. float_of_int (max 1 s.txns) in
  let e2e =
    [
      ("setup_s", col (fun s -> s.setup_s *. s.scale));
      ("run_s", col (fun s -> s.run_s *. s.scale));
      ("sim_cycles_per_s", col (fun s -> float_of_int s.sim_cycles /. (s.run_s *. s.scale)));
      ("minor_words_per_tx", col (fun s -> per_tx s s.minor_words));
      ("major_words_per_tx", col (fun s -> per_tx s s.major_words));
      ("peak_rss_mb", [| peak |]);
    ]
  in
  let layers =
    if not trace then []
    else
      match
        attempt "traced run" ~r:0 (fun () ->
            let t = Traced.run w ~seed:(repeat_seed ~seed 0) in
            ({ t.outcome with problems = t.outcome.problems @ t.problems }, t))
      with
      | None -> []
      | Some t ->
          let med f = median (col f) in
          (* The layer estimates are raw host seconds of the first repeat
             seed, so they are set against that repeat's raw run time. *)
          let first_run_s =
            match Array.find_opt (fun s -> s.index = 0) samples with
            | Some s -> s.run_s
            | None -> nan
          in
          t.Traced.layers
          @ [
              ("tm.residual_s", first_run_s -. t.explained_s);
              ("gc.minor_collections", med (fun s -> float_of_int s.minor_gcs));
              ("gc.major_collections", med (fun s -> float_of_int s.major_gcs));
              ("gc.promoted_words_per_tx", med (fun s -> per_tx s s.promoted_words));
              ("traced.explained_ratio", t.explained_s /. first_run_s);
              ("traced.overhead_ratio", (t.seconds /. first_run_s) -. 1.0);
            ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        invalid_arg ("Measure: per-layer metric missing from the catalog: " ^ name))
    layers;
  {
    workload = w.name;
    seed;
    attempted = !attempted;
    failed = !failed;
    problems = !problems;
    digests = Array.map (Option.value ~default:"") expected;
    golden_status =
      (match golden with
      | Unchecked -> "none"
      | Missing -> "missing"
      | Expect _ -> if !mismatch then "mismatch" else "match");
    host_slowdown = median (Array.of_list !kernel_all) /. Calib.nominal_s;
    scales = col (fun s -> s.scale);
    e2e;
    layers =
      (if layers = [] then []
       else
         List.map
           (fun (name, _) -> (name, Option.value (List.assoc_opt name layers) ~default:0.0))
           per_layer);
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let unit_of catalog name = List.assoc name catalog

(* Every digit as measured: enough digits to read back as the same
   float. *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let print r =
  Printf.printf
    "\n== %s  seed %d  attempted %d  failed %d  fail_frac %s  golden: %s  host slowdown %.3g\n"
    r.workload r.seed r.attempted r.failed (num (fail_frac r)) r.golden_status r.host_slowdown;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.problems;
  Printf.printf "  digests of the first %d repeat seeds:\n" golden_repeats;
  Array.iter (fun d -> Printf.printf "    %s\n" d) r.digests;
  Printf.printf "  %-24s %-9s %12s %12s %12s %12s %3s\n" "end-to-end" "unit" "value" "median"
    "q1" "q3" "n";
  List.iter
    (fun (name, vs) ->
      let q1, q3 = quartiles vs in
      Printf.printf "  %-24s %-9s %12.6g %12.6g %12.6g %12.6g %3d\n" name
        (unit_of end_to_end name) (trimmed_mean vs) (median vs) q1 q3 (Array.length vs))
    r.e2e;
  if r.layers <> [] then begin
    Printf.printf "  %-36s %-9s %14s\n" "per-layer (traced run)" "unit" "value";
    List.iter
      (fun (name, v) -> Printf.printf "  %-36s %-9s %14.6g\n" name (unit_of per_layer name) v)
      r.layers
  end;
  flush stdout

(* The one-line summary a benchmark harness reads: end-to-end values, or
   the per-layer values of the traced run. *)
let summary_line r ~trace =
  let metric catalog (name, v) =
    (name, json_obj [ ("value", num v); ("unit", json_string (unit_of catalog name)) ])
  in
  let metrics =
    if trace then List.map (metric per_layer) r.layers
    else List.map (fun (name, vs) -> metric end_to_end (name, trimmed_mean vs)) r.e2e
  in
  json_obj
    [
      ("correct", string_of_bool (r.failed = 0));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", json_obj metrics);
    ]

let to_json r =
  let list xs = "[" ^ String.concat ", " xs ^ "]" in
  let e2e (name, vs) =
    let q1, q3 = quartiles vs in
    ( name,
      json_obj
        [
          ("unit", json_string (unit_of end_to_end name));
          ("value", num (trimmed_mean vs));
          ("median", num (median vs));
          ("q1", num q1);
          ("q3", num q3);
          ("n", string_of_int (Array.length vs));
          ("values", list (Array.to_list (Array.map num vs)));
        ] )
  in
  let layer (name, v) =
    (name, json_obj [ ("unit", json_string (unit_of per_layer name)); ("value", num v) ])
  in
  json_obj
    [
      ("workload", json_string r.workload);
      ("seed", string_of_int r.seed);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("fail_frac", num (fail_frac r));
      ("digests", list (Array.to_list (Array.map json_string r.digests)));
      ("host_slowdown", num r.host_slowdown);
      ("scales", list (Array.to_list (Array.map num r.scales)));
      ("golden", json_string r.golden_status);
      ("problems", list (List.map json_string r.problems));
      ("end_to_end", json_obj (List.map e2e r.e2e));
      ("per_layer", json_obj (List.map layer r.layers));
    ]
