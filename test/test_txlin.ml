(* Tests for Txlin, the async linearizability oracle: clean acceptance
   on every service at underload and 2.5x overload (all arrival
   processes, with and without a fault storm), the linear-time clean
   path and its allocation budget on the benchmark's history shape,
   negative fixtures against broken-hardware ablations and the
   seeded lost-update plan (each must yield a conclusive violation with
   a 1-minimal witness), a QCheck battery comparing the oracle against
   an independent brute-force all-permutations reference on small
   histories, the hoisted partition finding, and the record-on/off
   byte-identity of everything the run reports. *)

module Params = Asf_machine.Params
module Variant = Asf_core.Variant
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Faults = Asf_faults.Faults
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin
module Findings = Asf_analyze.Findings

let tm_cfg ?(seed = 1) ?(resolve = true) ?(rollback = true) ?(n_cores = 4) () =
  {
    (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores) with
    Tm.seed;
    resolve_conflicts = resolve;
    rollback_on_abort = rollback;
  }

let us_cycles = Params.us_to_cycles Params.barcelona

let overloaded tm ~threads cfg mult =
  let mean_gap = Serve.load_gap tm ~threads cfg mult in
  { cfg with Serve.arrival = Serve.Poisson { mean_gap } }

let all_services =
  [
    Serve.Kv Serve.A; Serve.Kv Serve.B; Serve.Kv Serve.C; Serve.Kv Serve.D;
    Serve.Kv Serve.E; Serve.Kv Serve.F; Serve.Ledger;
  ]

let conclusive_violation v =
  (not v.Txlin.v_ok) && not v.Txlin.v_inconclusive

let check_run cfg r = Txlin.check_result cfg r

(* ------------------------------------------------------------------ *)
(* Clean acceptance                                                     *)
(* ------------------------------------------------------------------ *)

let test_clean_underload_all_services () =
  List.iter
    (fun service ->
      let tm = tm_cfg ~seed:5 () in
      let cfg =
        {
          (Serve.default_cfg service) with
          Serve.requests = 200;
          arrival = Serve.Poisson { mean_gap = 400 };
          deadline = Some (us_cycles 4);
          record = true;
        }
      in
      let r = Serve.run tm ~threads:4 cfg in
      let v = check_run cfg r in
      Alcotest.(check bool)
        (Serve.service_name service ^ ": linearizable at underload")
        true v.Txlin.v_ok;
      Alcotest.(check int)
        (Serve.service_name service ^ ": every arrival recorded")
        r.Serve.r_arrivals
        (Array.length r.Serve.r_events))
    all_services

let test_clean_overload_all_services () =
  List.iter
    (fun service ->
      let tm = tm_cfg ~seed:7 () in
      let base =
        {
          (Serve.default_cfg service) with
          Serve.requests = 250;
          queue_cap = 8;
          deadline = Some (us_cycles 2);
          record = true;
        }
      in
      let cfg = overloaded tm ~threads:4 base 2.5 in
      let r = Serve.run tm ~threads:4 cfg in
      let v = check_run cfg r in
      Alcotest.(check bool)
        (Serve.service_name service ^ ": linearizable at 2.5x overload")
        true v.Txlin.v_ok;
      Alcotest.(check int)
        (Serve.service_name service ^ ": obligations + absent = arrivals")
        r.Serve.r_arrivals
        (v.Txlin.v_obligations + v.Txlin.v_absent))
    all_services

let test_clean_all_arrival_processes () =
  let arrivals =
    [
      ("poisson", Serve.Poisson { mean_gap = 250 });
      ( "bursty",
        Serve.Bursty
          { mean_gap = 400; burst_gap = 40; on_window = 4000; off_window = 8000 } );
      ("ramp", Serve.Ramp { low_gap = 60; high_gap = 600; period = 20_000 });
      ("closed", Serve.Closed);
    ]
  in
  List.iter
    (fun (name, arrival) ->
      let tm = tm_cfg ~seed:9 () in
      let cfg =
        {
          (Serve.default_cfg (Serve.Kv Serve.F)) with
          Serve.requests = 200;
          arrival;
          queue_cap = 8;
          deadline = (if arrival = Serve.Closed then None else Some (us_cycles 2));
          record = true;
        }
      in
      let r = Serve.run tm ~threads:4 cfg in
      let v = check_run cfg r in
      Alcotest.(check bool) (name ^ ": linearizable") true v.Txlin.v_ok)
    arrivals

let test_clean_under_storm () =
  let plan =
    match Faults.plan_of_spec "storm" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun service ->
      let tm = tm_cfg ~seed:11 () in
      let base =
        {
          (Serve.default_cfg service) with
          Serve.requests = 250;
          queue_cap = 8;
          deadline = Some (us_cycles 2);
          record = true;
        }
      in
      let cfg = overloaded tm ~threads:4 base 2.5 in
      let fl = Faults.create ~seed:7 plan in
      Faults.install fl;
      let r =
        Fun.protect ~finally:Faults.uninstall (fun () -> Serve.run tm ~threads:4 cfg)
      in
      let v = check_run cfg r in
      Alcotest.(check bool)
        (Serve.service_name service ^ ": storm stays linearizable")
        true v.Txlin.v_ok)
    [ Serve.Kv Serve.E; Serve.Ledger ]

(* The commit-cycle witness (invoke <= commit <= respond) and the
   linear-time clean path it buys: trying candidates in commit order
   means a correct run linearizes greedily, exploring exactly one search
   node per event plus one terminal node per group. *)
let test_commit_witness_and_linear_clean_path () =
  let tm = tm_cfg ~seed:13 () in
  let cfg =
    {
      (Serve.default_cfg Serve.Ledger) with
      Serve.requests = 200;
      arrival = Serve.Closed;
      deadline = None;
      governor = false;
      record = true;
    }
  in
  let r = Serve.run tm ~threads:4 cfg in
  Array.iter
    (fun (e : Serve.event) ->
      match e.Serve.ev_outcome with
      | Serve.Ev_done { commit; _ } ->
          Alcotest.(check bool) "invoke <= commit <= respond" true
            (e.Serve.ev_invoke <= commit && commit <= e.Serve.ev_respond)
      | Serve.Ev_timeout | Serve.Ev_shed -> ())
    r.Serve.r_events;
  let v = check_run cfg r in
  Alcotest.(check bool) "clean" true v.Txlin.v_ok;
  Alcotest.(check int) "one group (ledger)" 1 v.Txlin.v_groups;
  Alcotest.(check int) "linear-time clean search"
    (v.Txlin.v_obligations + v.Txlin.v_groups)
    v.Txlin.v_states

(* The host cost of a clean check on the benchmark's history shape (kv-e
   over 512 records at 2.5x measured capacity, queue 8, deadline 4 us,
   3000 requests), where scans chain most keys into one large group. The
   search explores one node per obligation plus one per group, and the
   check allocates under 400 minor words per obligation, over twice the
   measured 184. Allocation is a pure function of the seed, so this
   cannot flake; building a memo key or copying the remaining set at
   every node costs tens of thousands of words per obligation. *)
let test_clean_check_cost () =
  let tm = tm_cfg ~seed:1000 () in
  let base =
    {
      (Serve.default_cfg (Serve.Kv Serve.E)) with
      Serve.requests = 3000;
      records = 512;
      queue_cap = 8;
      deadline = Some (us_cycles 4);
      record = true;
    }
  in
  let cfg = overloaded tm ~threads:4 base 2.5 in
  let r = Serve.run tm ~threads:4 cfg in
  let w0 = Gc.minor_words () in
  let v = check_run cfg r in
  let per_obligation =
    (Gc.minor_words () -. w0) /. float_of_int (max 1 v.Txlin.v_obligations)
  in
  Alcotest.(check bool) "clean" true v.Txlin.v_ok;
  Alcotest.(check int) "linear-time clean search"
    (v.Txlin.v_obligations + v.Txlin.v_groups)
    v.Txlin.v_states;
  if per_obligation > 400. then
    Alcotest.failf "check allocated %.0f minor words per obligation (budget 400)"
      per_obligation

(* Recording must never perturb the run: every reported number is
   byte-identical with [record] on or off. *)
let test_record_on_off_identity () =
  let go record =
    let tm = tm_cfg ~seed:17 () in
    let base =
      {
        (Serve.default_cfg (Serve.Kv Serve.E)) with
        Serve.requests = 400;
        queue_cap = 8;
        deadline = Some (us_cycles 2);
      }
    in
    let cfg = overloaded tm ~threads:4 base 2.5 in
    Serve.run tm ~threads:4 { cfg with Serve.record }
  in
  let on = go true and off = go false in
  Alcotest.(check int) "events only when recording" 0
    (Array.length off.Serve.r_events);
  Alcotest.(check bool) "identical reports" true
    ({ on with Serve.r_events = [||] } = off)

(* ------------------------------------------------------------------ *)
(* Negative fixtures: broken hardware must be caught                    *)
(* ------------------------------------------------------------------ *)

(* Re-check a reported witness standalone: it must itself be conclusively
   non-linearizable, and 1-minimal — dropping any single event makes the
   remainder linearizable again. *)
let assert_minimal_witness ~service ~records ~accounts v =
  let witness = Array.of_list v.Txlin.v_witness in
  Alcotest.(check bool) "witness is non-empty" true (Array.length witness > 0);
  let w = Txlin.check ~service ~records ~accounts witness in
  Alcotest.(check bool) "witness re-checks as a violation" true
    (conclusive_violation w);
  List.iteri
    (fun i _ ->
      let dropped =
        Array.of_list (List.filteri (fun j _ -> j <> i) v.Txlin.v_witness)
      in
      let d = Txlin.check ~service ~records ~accounts dropped in
      Alcotest.(check bool)
        (Printf.sprintf "dropping witness event %d restores linearizability" i)
        true d.Txlin.v_ok)
    v.Txlin.v_witness

let hot_kv ~requests ~gap ~records =
  {
    (Serve.default_cfg (Serve.Kv Serve.F)) with
    Serve.requests;
    arrival = Serve.Poisson { mean_gap = gap };
    records;
    record = true;
  }

let test_ablation_rollback_caught () =
  let tm = tm_cfg ~rollback:false () in
  let cfg = hot_kv ~requests:300 ~gap:200 ~records:4 in
  let r = Serve.run tm ~threads:4 cfg in
  let v = check_run cfg r in
  Alcotest.(check bool) "rollback ablation is a conclusive violation" true
    (conclusive_violation v);
  assert_minimal_witness ~service:cfg.Serve.service ~records:cfg.Serve.records
    ~accounts:cfg.Serve.accounts v

let test_ablation_resolve_caught () =
  let tm = tm_cfg ~resolve:false () in
  let cfg = hot_kv ~requests:400 ~gap:60 ~records:2 in
  let r = Serve.run tm ~threads:4 cfg in
  let v = check_run cfg r in
  Alcotest.(check bool) "resolve ablation is a conclusive violation" true
    (conclusive_violation v);
  assert_minimal_witness ~service:cfg.Serve.service ~records:cfg.Serve.records
    ~accounts:cfg.Serve.accounts v

let test_lost_update_plan_caught () =
  let plan =
    match Faults.plan_of_spec "lostupdate" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let tm = tm_cfg () in
  let cfg = hot_kv ~requests:300 ~gap:200 ~records:4 in
  let fl = Faults.create ~seed:3 plan in
  Faults.install fl;
  let r =
    Fun.protect ~finally:Faults.uninstall (fun () -> Serve.run tm ~threads:4 cfg)
  in
  let v = check_run cfg r in
  Alcotest.(check bool) "seeded lost update is a conclusive violation" true
    (conclusive_violation v);
  assert_minimal_witness ~service:cfg.Serve.service ~records:cfg.Serve.records
    ~accounts:cfg.Serve.accounts v

(* Findings plumbing for the three failure shapes. *)
let test_findings_shapes () =
  let tm = tm_cfg ~rollback:false () in
  let cfg = hot_kv ~requests:300 ~gap:200 ~records:4 in
  let r = Serve.run tm ~threads:4 cfg in
  let v = check_run cfg r in
  (match Txlin.findings ~workload:"t" v with
  | [ f ] ->
      Alcotest.(check string) "kind" "non-linearizable" f.Findings.f_kind;
      Alcotest.(check string) "severity" "violation" f.Findings.f_severity;
      Alcotest.(check int) "count = witness size"
        (List.length v.Txlin.v_witness)
        f.Findings.f_count
  | fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  let tm_ok = tm_cfg () in
  let cfg_ok = { cfg with Serve.requests = 100 } in
  let r_ok = Serve.run tm_ok ~threads:4 cfg_ok in
  let v_ok = check_run cfg_ok r_ok in
  Alcotest.(check int) "clean verdict has no findings" 0
    (List.length (Txlin.findings ~workload:"t" v_ok))

(* The hoisted outcome-partition check: a violated partition becomes a
   structured Finding instead of a crash. *)
let test_partition_finding () =
  let tm = tm_cfg () in
  let cfg = hot_kv ~requests:100 ~gap:300 ~records:16 in
  let r = Serve.run tm ~threads:4 cfg in
  Alcotest.(check bool) "real runs hold the partition" true
    r.Serve.r_partition_ok;
  Alcotest.(check bool) "no finding on a clean partition" true
    (Txlin.partition_finding ~workload:"t" r = None);
  match Txlin.partition_finding ~workload:"t" { r with Serve.r_partition_ok = false } with
  | None -> Alcotest.fail "violated partition must yield a finding"
  | Some f ->
      Alcotest.(check string) "kind" "partition" f.Findings.f_kind;
      Alcotest.(check string) "severity" "violation" f.Findings.f_severity

(* ------------------------------------------------------------------ *)
(* QCheck: Txlin vs a brute-force all-permutations reference            *)
(* ------------------------------------------------------------------ *)

(* An independent sequential KV model over unsorted assoc lists — same
   semantics as Txlin's spec, different code on purpose. *)
let ref_step assoc (op : Serve.op) =
  match op with
  | Serve.Read k -> (Serve.O_val (List.assoc_opt k assoc), assoc)
  | Serve.Update (k, v) -> (Serve.O_unit, (k, v) :: List.remove_assoc k assoc)
  | Serve.Insert (k, v) ->
      if List.mem_assoc k assoc then (Serve.O_flag false, assoc)
      else (Serve.O_flag true, (k, v) :: assoc)
  | Serve.Scan (k, len) ->
      (Serve.O_vals (List.init len (fun i -> List.assoc_opt (k + i) assoc)), assoc)
  | Serve.Rmw k ->
      let old = Option.value (List.assoc_opt k assoc) ~default:0 in
      (Serve.O_rmw old, (k, old + 1) :: List.remove_assoc k assoc)
  | _ -> invalid_arg "ref_step: generator only emits KV operations"

let ref_init records = List.init records (fun k -> (k, k + 1))

(* Brute force: enumerate every real-time-respecting permutation of the
   completed events (an event may go next iff no other remaining event
   responded strictly before its invocation) and replay each through the
   reference model. No memoization, no commit ordering, no budget. *)
let brute_linearizable ~records events =
  let completed =
    List.filter
      (fun (e : Serve.event) ->
        match e.Serve.ev_outcome with Serve.Ev_done _ -> true | _ -> false)
      (Array.to_list events)
  in
  let obs_of (e : Serve.event) =
    match e.Serve.ev_outcome with
    | Serve.Ev_done { obs; _ } -> obs
    | _ -> assert false
  in
  let rec go remaining assoc =
    match remaining with
    | [] -> true
    | _ ->
        List.exists
          (fun (e : Serve.event) ->
            List.for_all
              (fun (o : Serve.event) -> o.Serve.ev_respond >= e.Serve.ev_invoke)
              remaining
            &&
            let obs, assoc' = ref_step assoc e.Serve.ev_op in
            obs = obs_of e
            && go
                 (List.filter
                    (fun (o : Serve.event) -> o.Serve.ev_id <> e.Serve.ev_id)
                    remaining)
                 assoc')
          remaining
  in
  go completed (ref_init records)

let n_keys = 3

(* Random small histories: up to 8 requests over keys [0, n_keys] — one
   past the preloaded records, so inserts can be fresh and scans can run
   off the end — where scans join keys into multi-key groups. They mix
   arbitrary observations (usually non-linearizable) with histories whose
   observations were produced by replaying in invocation order (always
   linearizable: invocation order respects real time) or in a random
   order (linearizable only when some real-time order explains it). *)
let gen_history =
  QCheck.Gen.(
    let key = int_range 0 n_keys in
    let gen_op =
      oneof
        [
          map (fun k -> Serve.Read k) key;
          map2 (fun k v -> Serve.Update (k, v)) key (int_range 0 3);
          map2 (fun k v -> Serve.Insert (k, v)) key (int_range 0 3);
          map2 (fun k len -> Serve.Scan (k, len)) key (int_range 1 3);
          map (fun k -> Serve.Rmw k) key;
        ]
    in
    let gen_skeleton =
      list_size (int_range 1 8)
        (triple gen_op (int_range 0 30) (int_range 1 25))
    in
    let* skel = gen_skeleton in
    let* consistent = bool in
    if consistent then
      (* Replay against the reference model; stamp commit = invoke, inside
         every event's window. *)
      let* shuffled = bool in
      let* ranks = list_repeat (List.length skel) (int_range 0 30) in
      let sorted =
        List.map2
          (fun rank ((_, invoke, _) as ev) -> ((if shuffled then rank else invoke), ev))
          ranks skel
        |> List.stable_sort (fun (r1, _) (r2, _) -> compare r1 r2)
        |> List.map snd
      in
      let _, evs =
        List.fold_left
          (fun (assoc, acc) (op, invoke, dur) ->
            let obs, assoc' = ref_step assoc op in
            let e =
              {
                Serve.ev_id = List.length acc;
                ev_op = op;
                ev_invoke = invoke;
                ev_respond = invoke + dur;
                ev_outcome = Serve.Ev_done { obs; commit = invoke };
              }
            in
            (assoc', e :: acc))
          (ref_init n_keys, [])
          sorted
      in
      return (Array.of_list (List.rev evs))
    else
      let gen_ev i (op, invoke, dur) =
        let* outcome =
          frequency
            [
              ( 8,
                let value = oneof [ return None; map Option.some (int_range 0 5) ] in
                let* obs =
                  match op with
                  | Serve.Read _ -> map (fun v -> Serve.O_val v) value
                  | Serve.Update _ -> return Serve.O_unit
                  | Serve.Insert _ -> map (fun b -> Serve.O_flag b) bool
                  | Serve.Scan (_, len) ->
                      map (fun vs -> Serve.O_vals vs) (list_repeat len value)
                  | Serve.Rmw _ -> map (fun v -> Serve.O_rmw v) (int_range 0 5)
                  | _ -> assert false
                in
                let* c = int_range 0 dur in
                return (Serve.Ev_done { obs; commit = invoke + c }) );
              (1, return Serve.Ev_timeout);
              (1, return Serve.Ev_shed);
            ]
        in
        return
          {
            Serve.ev_id = i;
            ev_op = op;
            ev_invoke = invoke;
            ev_respond = invoke + dur;
            ev_outcome = outcome;
          }
      in
      let rec gen_all i = function
        | [] -> return []
        | hd :: tl ->
            let* e = gen_ev i hd in
            let* rest = gen_all (i + 1) tl in
            return (e :: rest)
      in
      let* evs = gen_all 0 skel in
      return (Array.of_list evs))

let print_history evs =
  String.concat " | " (List.map Txlin.render_event (Array.to_list evs))

let history_arb = QCheck.make ~print:print_history gen_history

let prop_oracle_matches_brute_force =
  QCheck.Test.make ~name:"txlin: verdict agrees with brute-force reference"
    ~count:150 history_arb (fun evs ->
      let v =
        Txlin.check ~service:(Serve.Kv Serve.A) ~records:n_keys ~accounts:4 evs
      in
      if v.Txlin.v_inconclusive then QCheck.assume_fail ()
      else v.Txlin.v_ok = brute_linearizable ~records:n_keys evs)

let prop_witness_is_violating =
  QCheck.Test.make
    ~name:"txlin: reported witness is itself non-linearizable and 1-minimal"
    ~count:150 history_arb (fun evs ->
      let check a =
        Txlin.check ~service:(Serve.Kv Serve.A) ~records:n_keys ~accounts:4 a
      in
      let v = check evs in
      if not (conclusive_violation v) then true
      else
        let witness = Array.of_list v.Txlin.v_witness in
        Array.length witness > 0
        && conclusive_violation (check witness)
        && (not (brute_linearizable ~records:n_keys witness))
        && List.for_all
             (fun i ->
               (check
                  (Array.of_list
                     (List.filteri (fun j _ -> j <> i) v.Txlin.v_witness)))
                 .Txlin.v_ok)
             (List.init (Array.length witness) Fun.id))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "txlin"
    [
      ( "clean",
        [
          Alcotest.test_case "underload, all services" `Quick
            test_clean_underload_all_services;
          Alcotest.test_case "2.5x overload, all services" `Quick
            test_clean_overload_all_services;
          Alcotest.test_case "all arrival processes" `Quick
            test_clean_all_arrival_processes;
          Alcotest.test_case "fault storm" `Quick test_clean_under_storm;
          Alcotest.test_case "commit witness + linear clean path" `Quick
            test_commit_witness_and_linear_clean_path;
          Alcotest.test_case "clean check cost" `Quick test_clean_check_cost;
          Alcotest.test_case "record on/off identity" `Quick
            test_record_on_off_identity;
        ] );
      ( "negative",
        [
          Alcotest.test_case "rollback ablation caught" `Quick
            test_ablation_rollback_caught;
          Alcotest.test_case "resolve ablation caught" `Quick
            test_ablation_resolve_caught;
          Alcotest.test_case "lost-update plan caught" `Quick
            test_lost_update_plan_caught;
          Alcotest.test_case "findings shapes" `Quick test_findings_shapes;
          Alcotest.test_case "partition finding" `Quick test_partition_finding;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_oracle_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_witness_is_violating;
        ] );
    ]
