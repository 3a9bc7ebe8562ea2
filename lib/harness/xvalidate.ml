module Check = Asf_check.Check
module Parallel = Asf_parallel.Parallel
module Tm = Asf_tm_rt.Tm
module Variant = Asf_core.Variant
module C = Asf_stamp.Stamp_common
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

let workload_names = List.map (fun w -> w.W.w_name) W.stock

(* A workload's runtime twin is its program on a simulated 4-core
   machine. The checker must be installed before Tm.create (systems
   attach at creation), and removed before the next census. *)
let census ~seed ~variant name =
  Option.map
    (fun w ->
      let chk = Check.create ~parts:[ Check.Lint ] () in
      let tm = { (Tm.default_config (Tm.Asf_mode variant) ~n_cores:4) with Tm.seed } in
      Parallel.with_observers
        { (Parallel.observers ()) with checker = Some chk }
        (fun () -> ignore (C.run ~name tm ~threads:4 w.W.w_program));
      Check.finalize chk;
      let profiles = Check.attempt_profiles chk in
      {
        v_workload = name;
        v_variant = variant;
        v_attempts = List.length profiles;
        v_cap_aborts = List.length (List.filter (fun p -> p.Check.p_capacity_abort) profiles);
        v_max_footprint = List.fold_left (fun m p -> max m p.Check.p_footprint) 0 profiles;
      })
    (List.find_opt (fun w -> w.W.w_name = name) W.stock)

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
