(* Tests of the benchmark itself, at smoke sizes: its IntegerSet runner
   is the library's, its replay measures the run's own traffic, its JSON
   output and BENCHMARK.json name the same metrics, and a golden mismatch
   fails the run. *)

open Perfbench
module Intset = Asf_intset.Intset
module Memsys = Asf_cache.Memsys
module Tm = Asf_tm_rt.Tm

let intset_workloads =
  List.filter_map
    (fun (w : Workload.t) ->
      match w.kind with Workload.Intset i -> Some (w, i) | Workload.Serve _ -> None)
    (Workload.all ~smoke:true)

let test_runner_matches_intset () =
  List.iter
    (fun ((w : Workload.t), (i : Workload.intset)) ->
      List.iter
        (fun seed ->
          let tm = Workload.tm_config w ~seed in
          let digest f =
            let r, coh = Workload.with_coherence f in
            Workload.digest (Workload.intset_outcome r ~coh)
          in
          let lib = digest (fun () -> Intset.run tm ~threads:i.cores i.set) in
          let b = Workload.build tm ~threads:i.cores i.set in
          let own = digest (fun () -> Workload.run b) in
          Alcotest.(check string) (Printf.sprintf "%s seed %d" w.name seed) lib own)
        [ 1; 7 ])
    intset_workloads

let test_replay_fidelity () =
  List.iter
    (fun ((w : Workload.t), (i : Workload.intset)) ->
      let b = Workload.build (Workload.tm_config w ~seed:3) ~threads:i.cores i.set in
      let _, r = Traced.record b.sys (fun () -> Workload.run b) in
      Alcotest.(check int) (w.name ^ ": whole run recorded") r.total r.n;
      let replayed, _, _ = Traced.replay_hierarchy i.params ~n_cores:i.cores r in
      let real = Memsys.hierarchy (Tm.memsys b.sys) in
      Alcotest.(check (list string))
        (w.name ^ ": replayed hierarchy state equals the run's")
        []
        (Traced.fidelity ~n_cores:i.cores ~real ~replayed))
    intset_workloads

(* A minimal JSON reader: enough for BENCHMARK.json and the bench's own
   output. *)
type json = Obj of (string * json) list | Arr of json list | Str of string | Atom

let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec seq close item =
    ws ();
    if peek () = close then (incr pos; [])
    else begin
      let x = item () in
      ws ();
      if peek () = ',' then (incr pos; x :: seq close item) else (expect close; [ x ])
    end
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (seq '}' (fun () ->
                 let k = str () in
                 expect ':';
                 (k, value ())))
    | '[' ->
        incr pos;
        Arr (seq ']' value)
    | '"' -> Str (str ())
    | _ ->
        while !pos < String.length s && not (String.contains ",}] \t\r\n" (peek ())) do
          incr pos
        done;
        Atom
  in
  value ()

let field k = function
  | Obj fs -> ( match List.assoc_opt k fs with Some v -> v | None -> failwith ("no " ^ k))
  | _ -> failwith ("not an object at " ^ k)

let items = function Arr xs -> xs | _ -> failwith "not an array"

let str = function Str s -> s | _ -> failwith "not a string"

let benchmark_json =
  lazy (parse (In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all))

let declared key =
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m)))
    (items (field key (Lazy.force benchmark_json)))

let test_benchmark_json_matches_catalog () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Measure.end_to_end (declared "end_to_end");
  Alcotest.check pairs "per_layer" Measure.per_layer (declared "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workload.t) -> w.name) (Workload.all ~smoke:false))
    (List.map (fun w -> str (field "name" w)) (items (field "workloads" (Lazy.force benchmark_json))))

let test_json_names_every_metric () =
  List.iter
    (fun (w : Workload.t) ->
      let r =
        Measure.measure w ~seed:1 ~seconds:0.0 ~kernel:1 ~trace:true
          ~golden:Measure.Unchecked
      in
      Alcotest.(check int) (w.name ^ ": failed runs") 0 r.failed;
      Alcotest.(check int)
        (w.name ^ ": warm-up, the golden repeats and the traced run")
        (Measure.golden_repeats + 2) r.attempted;
      Alcotest.(check bool)
        (w.name ^ ": every golden repeat has a digest")
        true
        (Array.for_all (( <> ) "") r.digests);
      let out = parse (Measure.to_json r) in
      List.iter
        (fun (section, catalog) ->
          List.iter
            (fun (name, unit_) ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s unit" w.name name)
                unit_
                (str (field "unit" (field name (field section out)))))
            catalog)
        [ ("end_to_end", declared "end_to_end"); ("per_layer", declared "per_layer") ])
    (Workload.all ~smoke:true)

(* A run whose digests differ from the golden ones is a failed run. *)
let test_golden_mismatch_fails () =
  let w = List.hd (Workload.all ~smoke:true) in
  let r =
    Measure.measure w ~seed:1 ~seconds:0.0 ~kernel:1 ~trace:false
      ~golden:(Measure.Expect (Array.make Measure.golden_repeats "0"))
  in
  Alcotest.(check string) "golden status" "mismatch" r.golden_status;
  Alcotest.(check int) "every run failed" r.attempted r.failed;
  Alcotest.(check bool)
    "the summary line says incorrect" true
    (String.starts_with ~prefix:"{\"correct\": false" (Measure.summary_line r ~trace:false))

let () =
  Alcotest.run "perf"
    [
      ( "bench",
        [
          Alcotest.test_case "runner matches Intset.run" `Quick test_runner_matches_intset;
          Alcotest.test_case "replay reproduces the hierarchy" `Quick test_replay_fidelity;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick
            test_benchmark_json_matches_catalog;
          Alcotest.test_case "--json names every metric" `Quick test_json_names_every_metric;
          Alcotest.test_case "a golden mismatch fails the run" `Quick test_golden_mismatch_fails;
        ] );
    ]
