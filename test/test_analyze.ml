(* Tests for Txstatic, the static transaction analyzer: the L1-set
   geometry published by Llb against the cache model, the abstract
   memory's recording semantics (allocation padding, release/reread
   accounting, restart-hazard detection by double execution), the
   deliberately broken fixtures, every stock program over the abstract
   memory and against its runtime twin, and a QCheck battery asserting
   that the analyzer's footprints agree exactly with the runtime
   checker's per-attempt profiles on random programs over the
   deterministic transactional structures. *)

module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Cache = Asf_cache.Cache
module Llb = Asf_core.Llb
module Variant = Asf_core.Variant
module Prng = Asf_engine.Prng
module Tm = Asf_tm_rt.Tm
module Check = Asf_check.Check
module Ops = Asf_dstruct.Ops
module Tlist = Asf_dstruct.Tlist
module Trbtree = Asf_dstruct.Trbtree
module Thashset = Asf_dstruct.Thashset
module Cap = Asf_stamp.Cap
module Stamp = Asf_stamp.Stamp
module Amem = Asf_analyze.Amem
module Workloads = Asf_analyze.Workloads
module Analyze = Asf_analyze.Analyze
module Findings = Asf_analyze.Findings
module Xvalidate = Asf_harness.Xvalidate

let p = Params.barcelona

let l1_cache () =
  Cache.create_bytes ~size_bytes:p.Params.l1_bytes ~assoc:p.Params.l1_assoc
    ~line_bytes:p.Params.line_bytes

(* ------------------------------------------------------------------ *)
(* L1 geometry (Llb.set_index vs the cache model)                       *)
(* ------------------------------------------------------------------ *)

let test_l1_sets () =
  Alcotest.(check int) "matches the cache model" (Cache.sets (l1_cache ()))
    (Llb.l1_sets p);
  (* Barcelona: 64 KB / 2-way / 64 B lines = 512 sets. *)
  Alcotest.(check int) "barcelona geometry" 512 (Llb.l1_sets p)

let test_set_index_range () =
  let s = Llb.l1_sets p in
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let line = Prng.int rng (1 lsl 20) in
    let i = Llb.set_index p line in
    if not (0 <= i && i < s) then
      Alcotest.failf "set_index %d = %d out of [0,%d)" line i s;
    Alcotest.(check int) "periodic in the set count" i
      (Llb.set_index p (line + s))
  done

(* Three lines the analyzer maps to one set really do collide in the
   cache model: in a 2-way cache the third fill evicts the LRU way. *)
let test_set_index_eviction_agreement () =
  let c = l1_cache () in
  let s = Cache.sets c in
  let l0 = 5 in
  Alcotest.(check int) "same analyzer set" (Llb.set_index p l0)
    (Llb.set_index p (l0 + s));
  ignore (Cache.touch c l0);
  ignore (Cache.touch c (l0 + s));
  Alcotest.(check bool) "both ways resident" true
    (Cache.mem c l0 && Cache.mem c (l0 + s));
  let _, evicted = Cache.touch c (l0 + (2 * s)) in
  Alcotest.(check (option int)) "third fill evicts the LRU way" (Some l0)
    evicted

let test_llb_accessors () =
  let llb = Llb.create ~capacity:8 in
  let backup () = Array.make Addr.words_per_line 0 in
  ignore (Llb.protect_read llb 9);
  ignore (Llb.protect_read llb 3);
  ignore (Llb.protect_write llb 5 ~backup:(backup ()));
  Alcotest.(check int) "read_count" 2 (Llb.read_count llb);
  Alcotest.(check (list int)) "protected_lines sorted" [ 3; 5; 9 ]
    (Llb.protected_lines llb);
  ignore (Llb.release llb 9);
  Alcotest.(check (list int)) "release drops the line" [ 3; 5 ]
    (Llb.protected_lines llb)

(* ------------------------------------------------------------------ *)
(* Abstract memory                                                      *)
(* ------------------------------------------------------------------ *)

(* One atomic block over a fresh capability record: its summary. *)
let run_tx m rng body =
  let x = ref None in
  let cap = Amem.cap m rng (fun _ e -> x := Some e) in
  cap.Cap.atomic "tx" (fun () -> body cap);
  Option.get !x

let test_amem_alloc () =
  let m = Amem.create () in
  let a = Amem.alloc_words m 1 in
  let b = Amem.alloc_words m 1 in
  let c = Amem.alloc_words m (Addr.words_per_line + 1) in
  let d = Amem.alloc_words m 1 in
  Alcotest.(check bool) "never null" true (a <> 0 && b <> 0);
  Alcotest.(check int) "one word pads to a line" Addr.words_per_line (b - a);
  Alcotest.(check int) "nine words pad to two lines" (2 * Addr.words_per_line)
    (d - c);
  Amem.poke m a 42;
  Alcotest.(check int) "poke/peek" 42 (Amem.peek m a);
  Alcotest.(check int) "unwritten words read 0" 0 (Amem.peek m b)

let test_amem_record () =
  let m = Amem.create () in
  let a = Amem.alloc_words m 1 in
  let b = Amem.alloc_words m 1 in
  let x =
    run_tx m (Prng.create 3) (fun c ->
        ignore (c.Cap.o.Ops.ld a);
        ignore (c.Cap.o.Ops.ld b);
        c.Cap.o.Ops.st b 7)
  in
  Alcotest.(check int) "read lines" 2 (List.length x.Amem.x_rd);
  Alcotest.(check (list int)) "written lines" [ Addr.line_of b ] x.Amem.x_wr;
  Alcotest.(check int) "peak = distinct protected" 2 x.Amem.x_peak;
  Alcotest.(check bool) "replay agrees" false x.Amem.x_diverged;
  Alcotest.(check int) "commit applied the write" 7 (Amem.peek m b)

let test_amem_release_reread () =
  let m = Amem.create () in
  let a = Amem.alloc_words m 1 in
  let b = Amem.alloc_words m 1 in
  let x =
    run_tx m (Prng.create 3) (fun c ->
        ignore (c.Cap.o.Ops.ld a);
        c.Cap.release a;
        ignore (c.Cap.o.Ops.ld b);
        ignore (c.Cap.o.Ops.ld a))
  in
  Alcotest.(check int) "one release" 1 x.Amem.x_releases;
  Alcotest.(check int) "reread after release" 1 x.Amem.x_rereads;
  Alcotest.(check int) "live never exceeded 2" 2 x.Amem.x_peak

let test_amem_divergence () =
  let m = Amem.create () in
  let a = Amem.alloc_words m 1 in
  let host = ref 0 in
  let x =
    run_tx m (Prng.create 3) (fun c ->
        incr host;
        if !host mod 2 = 0 then ignore (c.Cap.o.Ops.ld a))
  in
  Alcotest.(check bool) "host state leaks into the trace" true
    x.Amem.x_diverged

let test_amem_rand_replay () =
  let m = Amem.create () in
  let a = Amem.alloc_words m 1 in
  let b = Amem.alloc_words m 1 in
  for seed = 1 to 20 do
    let x =
      run_tx m (Prng.create seed) (fun c ->
          if c.Cap.rand 100 land 1 = 0 then ignore (c.Cap.o.Ops.ld a)
          else ignore (c.Cap.o.Ops.ld b))
    in
    Alcotest.(check bool) "rand draws replay identically" false
      x.Amem.x_diverged
  done

(* ------------------------------------------------------------------ *)
(* Negative fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let run_fixture name =
  match Workloads.find name with
  | None -> Alcotest.failf "missing fixture %s" name
  | Some w -> Analyze.run ~seeds:[ 1 ] ~params:p [ w ]

let kinds t = List.map (fun f -> f.Findings.f_kind) (Analyze.findings t)

let test_fixture_unsafe_annotation () =
  let t = run_fixture "fixture-unsafe-annotation" in
  let ks = kinds t in
  Alcotest.(check bool) "nload race flagged" true (List.mem "unsafe-nload" ks);
  Alcotest.(check bool) "nstore race flagged" true
    (List.mem "unsafe-nstore" ks);
  Alcotest.(check bool) "violation" false (Analyze.ok t)

let test_fixture_over_capacity () =
  let t = run_fixture "fixture-over-capacity" in
  let wr = List.hd t.Analyze.a_reports in
  Alcotest.(check string) "overflows even the large LLB" "overflows"
    (Analyze.verdict_name
       (Analyze.workload_verdict ~params:p ~variant:Variant.llb256 wr));
  (* A truthful overflow is an advisory, not a violation. *)
  Alcotest.(check bool) "advisory only" true (Analyze.ok t)

let test_fixture_restart_hazard () =
  let t = run_fixture "fixture-restart-hazard" in
  Alcotest.(check bool) "hazard flagged" true
    (List.mem "restart-hazard" (kinds t));
  Alcotest.(check bool) "violation" false (Analyze.ok t)

let test_fixture_reread_after_release () =
  let t = run_fixture "fixture-reread-after-release" in
  Alcotest.(check bool) "misuse flagged" true
    (List.mem "reread-after-release" (kinds t));
  Alcotest.(check bool) "violation" false (Analyze.ok t)

let test_stock_clean () =
  let t = Analyze.run ~seeds:[ 1 ] ~params:p Workloads.stock in
  Alcotest.(check int) "every stock workload analyzed"
    (List.length Workloads.stock)
    (List.length t.Analyze.a_reports);
  Alcotest.(check bool) "no violations in stock" true (Analyze.ok t)

let test_artifact_json () =
  let w = Option.get (Workloads.find "bank") in
  let t = Analyze.run ~seeds:[ 1 ] ~params:p [ w ] in
  match Findings.validate_json (Analyze.artifact_json t ~extra:[]) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "artifact JSON invalid: %s" m

(* ------------------------------------------------------------------ *)
(* The analyzed programs and their runtime twins                        *)
(* ------------------------------------------------------------------ *)

(* Every STAMP application is analyzed once, from its own program, and
   cross-validated against exactly one runtime twin. *)
let test_stamp_coverage () =
  let count name names = List.length (List.filter (( = ) name) names) in
  List.iter
    (fun app ->
      let n = Stamp.name app in
      Alcotest.(check int) (n ^ ": stock workloads") 1
        (count n (List.map (fun w -> w.Workloads.w_name) Workloads.stock));
      Alcotest.(check int) (n ^ ": runtime twins") 1 (count n Xvalidate.workload_names))
    Stamp.all

(* The abstract run is the real program: each stock workload's own
   validation (intset's size, bank's conservation, each application's
   checks) holds after its single-threaded run over Amem. Returns the
   recorded blocks by class. *)
let amem_run (w : Workloads.t) =
  let m = Amem.create () in
  let prog = w.w_program ~seed:1 ~threads:1 (Amem.setup_ops m) in
  let blocks = ref [] in
  prog.worker (Amem.cap m (Prng.create 1) (fun c x -> blocks := (c, x) :: !blocks)) 0;
  (prog.checks (), !blocks)

let test_programs_valid () =
  List.iter
    (fun (w : Workloads.t) ->
      let checks, blocks = amem_run w in
      Alcotest.(check bool) (w.w_name ^ " ran atomic blocks") true (blocks <> []);
      List.iter
        (fun (check, ok) -> Alcotest.(check bool) (w.w_name ^ ": " ^ check) true ok)
        checks)
    Workloads.stock

(* Early release is wired only where a program asks for it: the plain
   linked list records no RELEASE, its early-release twin does. *)
let test_release_wiring () =
  let releases name =
    let _, blocks = amem_run (Option.get (Workloads.find name)) in
    List.fold_left (fun n (_, (x : Amem.exec)) -> n + x.Amem.x_releases) 0 blocks
  in
  Alcotest.(check int) "intset-linked-list" 0 (releases "intset-linked-list");
  let er = releases "intset-linked-list-er" in
  Alcotest.(check bool) (Printf.sprintf "intset-linked-list-er (%d)" er) true (er > 0)

(* An under-reported footprint fails the cross-validation: labyrinth's
   classes made to "fit" LLB-8 meet the twin's 12 capacity aborts there. *)
let test_hidden_footprint () =
  let t = Analyze.run ~seeds:[ 1 ] ~params:p [ Option.get (Workloads.find "labyrinth") ] in
  let hide (wr : Analyze.wreport) =
    {
      wr with
      wr_classes = List.map (fun cs -> { cs with Analyze.cs_peak_max = 1 }) wr.wr_classes;
    }
  in
  let t = { t with Analyze.a_reports = List.map hide t.Analyze.a_reports } in
  let _, contradictions, _ = Xvalidate.cross_validate ~seed:1 t in
  match
    List.find_opt
      (fun f -> f.Findings.f_variant = Variant.llb8.Variant.name)
      contradictions
  with
  | None -> Alcotest.fail "no contradiction at LLB-8"
  | Some f ->
      Alcotest.(check string) "kind" "capacity-contradiction" f.Findings.f_kind;
      Alcotest.(check bool) "a violation" true (Findings.is_violation f);
      Alcotest.(check int) "the twin's capacity aborts" 12 f.Findings.f_count

(* ------------------------------------------------------------------ *)
(* QCheck: static footprints vs runtime per-attempt profiles            *)
(* ------------------------------------------------------------------ *)

(* Random programs over the structures whose access pattern is a pure
   function of keys (the skip list draws tower heights from the runtime
   PRNG, so it is exercised via the workload models instead). *)

type op = Add of int | Remove of int | Query of int

type structure = List_s | Rb_s | Hash_s

let structure_name = function
  | List_s -> "linked-list"
  | Rb_s -> "rb-tree"
  | Hash_s -> "hash-set"

let apply_ops o structure handle op =
  match (structure, handle) with
  | List_s, `L s -> (
      match op with
      | Add k -> ignore (Tlist.add o s k)
      | Remove k -> ignore (Tlist.remove o s k)
      | Query k -> ignore (Tlist.contains o s k))
  | Rb_s, `R s -> (
      match op with
      | Add k -> ignore (Trbtree.insert o s k (k * 2))
      | Remove k -> ignore (Trbtree.remove o s k)
      | Query k -> ignore (Trbtree.mem o s k))
  | Hash_s, `H s -> (
      match op with
      | Add k -> ignore (Thashset.add o s k)
      | Remove k -> ignore (Thashset.remove o s k)
      | Query k -> ignore (Thashset.contains o s k))
  | _ -> assert false

let create_structure o = function
  | List_s -> `L (Tlist.create o)
  | Rb_s -> `R (Trbtree.create o)
  | Hash_s -> `H (Thashset.create o ~buckets:8)

let final_elements o structure handle =
  match (structure, handle) with
  | List_s, `L s -> List.sort compare (Tlist.to_list o s)
  | Rb_s, `R s -> List.sort compare (List.map fst (Trbtree.to_list o s))
  | Hash_s, `H s -> List.sort compare (Thashset.to_list o s)
  | _ -> assert false

let static_execs structure (init, ops) =
  let m = Amem.create () in
  let so = Amem.setup_ops m in
  let s = create_structure so structure in
  List.iter (fun k -> apply_ops so structure s (Add k)) init;
  let rng = Prng.create 1 in
  let execs =
    List.map (fun op -> run_tx m rng (fun c -> apply_ops c.Cap.o structure s op)) ops
  in
  (execs, final_elements so structure s)

let runtime_profiles structure variant (init, ops) =
  let chk = Check.create ~parts:[ Check.Lint ] () in
  Check.install chk;
  let final = ref [] in
  Fun.protect ~finally:Check.uninstall (fun () ->
      let cfg =
        { (Tm.default_config (Tm.Asf_mode variant) ~n_cores:1) with Tm.seed = 1 }
      in
      let sys = Tm.create cfg in
      let so = Ops.setup sys in
      let s = create_structure so structure in
      List.iter (fun k -> apply_ops so structure s (Add k)) init;
      ignore
        (Tm.spawn sys ~core:0 (fun ctx ->
             List.iter
               (fun op ->
                 Tm.atomic ctx (fun () -> apply_ops (Ops.tx ctx) structure s op))
               ops));
      Tm.run sys;
      final := final_elements so structure s);
  Check.finalize chk;
  (Check.attempt_profiles chk, !final)

let print_program (init, ops) =
  let op_str = function
    | Add k -> Printf.sprintf "add %d" k
    | Remove k -> Printf.sprintf "remove %d" k
    | Query k -> Printf.sprintf "query %d" k
  in
  Printf.sprintf "init=[%s] ops=[%s]"
    (String.concat ";" (List.map string_of_int init))
    (String.concat "; " (List.map op_str ops))

let program_arb =
  let open QCheck.Gen in
  let key = int_bound 63 in
  let op =
    frequency
      [
        (2, map (fun k -> Add k) key);
        (1, map (fun k -> Remove k) key);
        (2, map (fun k -> Query k) key);
      ]
  in
  QCheck.make ~print:print_program
    (pair (list_size (int_bound 16) key) (list_size (int_range 1 20) op))

(* On LLB-256 nothing aborts, so committed hardware attempts line up
   one-to-one with the abstract executions: the runtime footprint must be
   the static peak plus the single ABI line (the serial-lock
   subscription), written-line counts must match exactly, and both sides
   must agree on the final contents. *)
let footprint_agreement structure =
  QCheck.Test.make
    ~name:(structure_name structure ^ ": static peak+1 = runtime footprint")
    ~count:25 program_arb
    (fun prog ->
      let execs, sfinal = static_execs structure prog in
      let profiles, rfinal = runtime_profiles structure Variant.llb256 prog in
      let committed = List.filter (fun pr -> pr.Check.p_committed) profiles in
      if List.length committed <> List.length execs then
        QCheck.Test.fail_reportf "%d committed attempts for %d transactions"
          (List.length committed) (List.length execs);
      List.iter2
        (fun pr (x : Amem.exec) ->
          if pr.Check.p_footprint <> x.Amem.x_peak + Analyze.abi_lines then
            QCheck.Test.fail_reportf
              "footprint %d <> static peak %d + %d ABI" pr.Check.p_footprint
              x.Amem.x_peak Analyze.abi_lines;
          if pr.Check.p_written <> List.length x.Amem.x_wr then
            QCheck.Test.fail_reportf "written %d <> static %d"
              pr.Check.p_written
              (List.length x.Amem.x_wr))
        committed execs;
      sfinal = rfinal)

(* On LLB-8 the two sides must agree on *whether* the program overflows:
   some abstract execution needs more than 8 lines (ABI included) exactly
   when the runtime recorded at least one capacity self-abort. *)
let capacity_agreement structure =
  QCheck.Test.make
    ~name:(structure_name structure ^ ": LLB-8 overflow prediction")
    ~count:25 program_arb
    (fun prog ->
      let execs, _ = static_execs structure prog in
      let profiles, _ = runtime_profiles structure Variant.llb8 prog in
      let static_over =
        List.exists
          (fun (x : Amem.exec) ->
            x.Amem.x_peak + Analyze.abi_lines > Variant.llb8.Variant.llb_entries)
          execs
      in
      let runtime_over =
        List.exists (fun pr -> pr.Check.p_capacity_abort) profiles
      in
      static_over = runtime_over)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      footprint_agreement List_s;
      footprint_agreement Rb_s;
      footprint_agreement Hash_s;
      capacity_agreement List_s;
      capacity_agreement Rb_s;
      capacity_agreement Hash_s;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "analyze"
    [
      ( "geometry",
        [
          tc "l1 sets" `Quick test_l1_sets;
          tc "set_index range+period" `Quick test_set_index_range;
          tc "eviction agreement" `Quick test_set_index_eviction_agreement;
          tc "llb accessors" `Quick test_llb_accessors;
        ] );
      ( "amem",
        [
          tc "alloc padding" `Quick test_amem_alloc;
          tc "recording" `Quick test_amem_record;
          tc "release/reread" `Quick test_amem_release_reread;
          tc "divergence" `Quick test_amem_divergence;
          tc "rand replay" `Quick test_amem_rand_replay;
        ] );
      ( "verdicts",
        [
          tc "unsafe annotation fixture" `Quick test_fixture_unsafe_annotation;
          tc "over-capacity fixture" `Quick test_fixture_over_capacity;
          tc "restart-hazard fixture" `Quick test_fixture_restart_hazard;
          tc "reread-after-release fixture" `Quick
            test_fixture_reread_after_release;
          tc "stock workloads clean" `Quick test_stock_clean;
          tc "artifact JSON valid" `Quick test_artifact_json;
        ] );
      ( "stamp",
          [
            tc "one workload and one twin per app" `Quick test_stamp_coverage;
            tc "programs valid over Amem" `Quick test_programs_valid;
            tc "release only where asked" `Quick test_release_wiring;
            tc "hidden footprint contradicts twin" `Quick test_hidden_footprint;
          ] );
      ("footprints-vs-runtime", qcheck_tests);
    ]
