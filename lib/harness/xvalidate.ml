module Check = Asf_check.Check
module Parallel = Asf_parallel.Parallel
module Tm = Asf_tm_rt.Tm
module Variant = Asf_core.Variant
module Prng = Asf_engine.Prng
module Intset = Asf_intset.Intset
module W = Asf_analyze.Workloads
module Analyze = Asf_analyze.Analyze
module Findings = Asf_analyze.Findings

type census = {
  v_workload : string;
  v_variant : Variant.t;
  v_attempts : int;
  v_cap_aborts : int;
  v_max_footprint : int;
}

let workload_names =
  [
    "intset-linked-list";
    "intset-linked-list-er";
    "intset-skip-list";
    "intset-rb-tree";
    "intset-hash-set";
    "bank";
  ]

let profile_census ~workload ~variant (chk : Check.t) =
  Check.finalize chk;
  let profiles = Check.attempt_profiles chk in
  {
    v_workload = workload;
    v_variant = variant;
    v_attempts = List.length profiles;
    v_cap_aborts =
      List.length (List.filter (fun p -> p.Check.p_capacity_abort) profiles);
    v_max_footprint =
      List.fold_left (fun m p -> max m p.Check.p_footprint) 0 profiles;
  }

(* The checker must be installed before Tm.create (systems attach at
   creation), and removed before the next census. *)
let with_lint_checker f =
  let chk = Check.create ~parts:[ Check.Lint ] () in
  Parallel.with_observers { (Parallel.observers ()) with checker = Some chk } f;
  chk

let intset_census ~seed ~variant ~structure ~early_release name =
  let chk =
    with_lint_checker (fun () ->
        let cfg =
          {
            (Intset.default_cfg structure) with
            Intset.range = W.intset_range;
            update_pct = W.intset_update_pct;
            init_size = Some W.intset_init;
            txns_per_thread = 200;
            early_release;
            buckets = W.intset_buckets;
          }
        in
        let tm =
          { (Tm.default_config (Tm.Asf_mode variant) ~n_cores:4) with Tm.seed }
        in
        ignore (Intset.run tm ~threads:4 cfg))
  in
  profile_census ~workload:name ~variant chk

(* The bank example's loop: transfers with a full audit every 50th
   transaction (examples/bank.ml, scaled down). *)
let bank_census ~seed ~variant =
  let chk =
    with_lint_checker (fun () ->
        let tm =
          { (Tm.default_config (Tm.Asf_mode variant) ~n_cores:4) with Tm.seed }
        in
        let sys = Tm.create tm in
        let accounts = Array.init 64 (fun _ -> Tm.setup_alloc sys 1) in
        Array.iter (fun a -> Tm.setup_poke sys a 1000) accounts;
        let _ctxs =
          List.init 4 (fun core ->
              Tm.spawn sys ~core (fun ctx ->
                  let rng = Tm.prng ctx in
                  for i = 1 to 200 do
                    if i mod 50 = 0 then
                      ignore
                        (Tm.atomic ctx (fun () ->
                             Array.fold_left
                               (fun acc a -> acc + Tm.load ctx a)
                               0 accounts))
                    else begin
                      let src = accounts.(Prng.int rng 64) in
                      let dst = accounts.(Prng.int rng 64) in
                      let amount = Prng.int rng 20 in
                      Tm.atomic ctx (fun () ->
                          if src <> dst then begin
                            Tm.store ctx src (Tm.load ctx src - amount);
                            Tm.store ctx dst (Tm.load ctx dst + amount)
                          end)
                    end
                  done))
        in
        Tm.run sys)
  in
  profile_census ~workload:"bank" ~variant chk

let census ~seed ~variant name =
  let intset structure er =
    Some (intset_census ~seed ~variant ~structure ~early_release:er name)
  in
  match name with
  | "intset-linked-list" -> intset Intset.Linked_list false
  | "intset-linked-list-er" -> intset Intset.Linked_list true
  | "intset-skip-list" -> intset Intset.Skip_list false
  | "intset-rb-tree" -> intset Intset.Rb_tree false
  | "intset-hash-set" -> intset Intset.Hash_set false
  | "bank" -> Some (bank_census ~seed ~variant)
  | _ -> None

let cross_validate ~seed (a : Analyze.t) =
  let twins =
    List.filter
      (fun wr -> List.mem wr.Analyze.wr_workload workload_names)
      a.Analyze.a_reports
  in
  let censuses = ref [] and contradictions = ref [] and notes = ref [] in
  List.iter
    (fun wr ->
      List.iter
        (fun variant ->
          match census ~seed ~variant wr.Analyze.wr_workload with
          | None -> ()
          | Some c ->
              censuses := c :: !censuses;
              let verdict =
                Analyze.workload_verdict ~params:a.Analyze.a_params ~variant wr
              in
              (match (verdict, c.v_cap_aborts) with
              | Analyze.Fits, n when n > 0 ->
                  contradictions :=
                    Findings.make ~source:Findings.Static ~severity:"violation"
                      ~kind:"capacity-contradiction" ~workload:wr.Analyze.wr_workload
                      ~variant:variant.Variant.name ~count:n
                      ~detail:
                        (Printf.sprintf
                           "static verdict 'fits' but the runtime saw %d capacity \
                            abort(s) (max footprint %d) at the same LLB size: the \
                            analyzer under-approximated a footprint"
                           n c.v_max_footprint)
                      ()
                    :: !contradictions
              | Analyze.Overflows, 0 ->
                  notes :=
                    Printf.sprintf
                      "%s @ %s: static overflow never observed at runtime (the \
                       explored worst case did not occur in this run)"
                      wr.Analyze.wr_workload variant.Variant.name
                    :: !notes
              | _ -> ()))
        [ Variant.llb8; Variant.llb256 ])
    twins;
  (List.rev !censuses, List.rev !contradictions, List.rev !notes)
