module Params = Asf_machine.Params
module Variant = Asf_core.Variant
module Llb = Asf_core.Llb
module Prng = Asf_engine.Prng

type cap_verdict = Fits | Overflows | Set_conflict

let verdict_name = function
  | Fits -> "fits"
  | Overflows -> "overflows"
  | Set_conflict -> "set-conflict"

(* Every hardware attempt subscribes to the serial lock with a
   transactional load (Tm.asf_attempt), so the runtime footprint is the
   body's footprint plus one line. *)
let abi_lines = 1

type class_summary = {
  cs_workload : string;
  cs_class : string;
  cs_execs : int;
  cs_rd_max : int;
  cs_wr_max : int;
  cs_peak_max : int;
  cs_peak_min : int;
  cs_rd_set_occ : int;
  cs_all_set_occ : int;
  cs_releases : int;
  cs_rereads : int;
  cs_allocs : int;
  cs_diverged : int;
}

type wreport = {
  wr_workload : string;
  wr_classes : class_summary list;
  wr_alias_nload : int;
  wr_alias_nstore : int;
  wr_alias_sample : int option;
}

type t = {
  a_params : Params.t;
  a_seeds : int list;
  a_reports : wreport list;
}

(* ------------------------------------------------------------------ *)
(* Verdicts                                                              *)
(* ------------------------------------------------------------------ *)

let capacity_verdict ~params ~(variant : Variant.t) cs =
  let assoc = params.Params.l1_assoc in
  if variant.Variant.l1_write_set then
    (* Cache-based: the whole protected set lives in the L1; a set
       holding more protected lines than ways cannot retain them all,
       and a full set is one unrelated fill away from an eviction. *)
    if cs.cs_all_set_occ > assoc then Overflows
    else if cs.cs_all_set_occ >= assoc then Set_conflict
    else Fits
  else if variant.Variant.l1_read_set then
    (* Hybrid: written lines are LLB entries, read lines are tracked
       L1-resident. The serial-lock subscription is a read, so it lands
       in the L1, not the LLB. *)
    if cs.cs_wr_max > variant.Variant.llb_entries then Overflows
    else if cs.cs_rd_set_occ > assoc then Overflows
    else if cs.cs_all_set_occ >= assoc then Set_conflict
    else Fits
  else if cs.cs_peak_max + abi_lines > variant.Variant.llb_entries then Overflows
  else Fits

let worst a b =
  match (a, b) with
  | Overflows, _ | _, Overflows -> Overflows
  | Set_conflict, _ | _, Set_conflict -> Set_conflict
  | Fits, Fits -> Fits

let workload_verdict ~params ~variant wr =
  List.fold_left
    (fun acc cs -> worst acc (capacity_verdict ~params ~variant cs))
    Fits wr.wr_classes

(* ------------------------------------------------------------------ *)
(* Exploration                                                           *)
(* ------------------------------------------------------------------ *)

(* Worst per-set line count for a list of line indices. *)
let set_occupancy params lines =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let s = Llb.set_index params l in
      Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
    lines;
  Hashtbl.fold (fun _ n m -> max n m) tbl 0

(* Sorted-list difference and n-way union (exec line lists are sorted). *)
let rec diff a b =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: xs, y :: ys ->
      if x < y then x :: diff xs b else if x > y then diff a ys else diff xs ys

let union_all lists =
  let tbl = Hashtbl.create 64 in
  List.iter (List.iter (fun l -> Hashtbl.replace tbl l ())) lists;
  Hashtbl.fold (fun l () acc -> l :: acc) tbl [] |> List.sort compare

type acc = {
  mutable k_execs : int;
  mutable k_rd_max : int;
  mutable k_wr_max : int;
  mutable k_peak_max : int;
  mutable k_peak_min : int;
  mutable k_rd_set_occ : int;
  mutable k_all_set_occ : int;
  mutable k_releases : int;
  mutable k_rereads : int;
  mutable k_allocs : int;
  mutable k_diverged : int;
}

let fresh_acc () =
  {
    k_execs = 0;
    k_rd_max = 0;
    k_wr_max = 0;
    k_peak_max = 0;
    k_peak_min = max_int;
    k_rd_set_occ = 0;
    k_all_set_occ = 0;
    k_releases = 0;
    k_rereads = 0;
    k_allocs = 0;
    k_diverged = 0;
  }

let explore_workload ~seeds ~params (wl : Workloads.t) =
  let accs : (string, acc) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let acc_of name =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a = fresh_acc () in
        Hashtbl.add accs name a;
        order := name :: !order;
        a
  in
  (* Workload-level alias sets, across every execution and seed. *)
  let txrd = Hashtbl.create 64 and txwr = Hashtbl.create 64 in
  let ard = Hashtbl.create 16 and awr = Hashtbl.create 16 in
  let record name (x : Amem.exec) =
    let a = acc_of name in
    a.k_execs <- a.k_execs + 1;
    a.k_rd_max <- max a.k_rd_max (List.length x.x_rd);
    a.k_wr_max <- max a.k_wr_max (List.length x.x_wr);
    a.k_peak_max <- max a.k_peak_max x.x_peak;
    a.k_peak_min <- min a.k_peak_min x.x_peak;
    a.k_rd_set_occ <- max a.k_rd_set_occ (set_occupancy params (diff x.x_rd x.x_wr));
    let touched = union_all [ x.x_rd; x.x_wr; x.x_ard; x.x_awr ] in
    a.k_all_set_occ <- max a.k_all_set_occ (set_occupancy params touched);
    a.k_releases <- a.k_releases + x.x_releases;
    a.k_rereads <- a.k_rereads + x.x_rereads;
    a.k_allocs <- a.k_allocs + x.x_allocs;
    if x.x_diverged then a.k_diverged <- a.k_diverged + 1;
    List.iter (fun l -> Hashtbl.replace txrd l ()) x.x_rd;
    List.iter (fun l -> Hashtbl.replace txwr l ()) x.x_wr;
    List.iter (fun l -> Hashtbl.replace ard l ()) x.x_ard;
    List.iter (fun l -> Hashtbl.replace awr l ()) x.x_awr
  in
  List.iter
    (fun seed ->
      let am = Amem.create () in
      let p = wl.Workloads.w_program ~seed ~threads:1 (Amem.setup_ops am) in
      let rng = Prng.create ((seed * 0x9e3779b9) + 17) in
      p.worker (Amem.cap am rng record) 0)
    seeds;
  let classes =
    List.rev_map
      (fun name ->
        let a = Hashtbl.find accs name in
        {
          cs_workload = wl.Workloads.w_name;
          cs_class = name;
          cs_execs = a.k_execs;
          cs_rd_max = a.k_rd_max;
          cs_wr_max = a.k_wr_max;
          cs_peak_max = a.k_peak_max;
          cs_peak_min = (if a.k_peak_min = max_int then 0 else a.k_peak_min);
          cs_rd_set_occ = a.k_rd_set_occ;
          cs_all_set_occ = a.k_all_set_occ;
          cs_releases = a.k_releases;
          cs_rereads = a.k_rereads;
          cs_allocs = a.k_allocs;
          cs_diverged = a.k_diverged;
        })
      !order
  in
  let inter big small =
    Hashtbl.fold (fun l () acc -> if Hashtbl.mem big l then l :: acc else acc) small []
  in
  let nload_alias = inter txwr ard in
  let prot = Hashtbl.copy txwr in
  Hashtbl.iter (fun l () -> Hashtbl.replace prot l ()) txrd;
  let nstore_alias = inter prot awr in
  {
    wr_workload = wl.Workloads.w_name;
    wr_classes = classes;
    wr_alias_nload = List.length nload_alias;
    wr_alias_nstore = List.length nstore_alias;
    wr_alias_sample =
      (match (nload_alias, nstore_alias) with
      | l :: _, _ | _, l :: _ -> Some l
      | [], [] -> None);
  }

let run ?(seeds = [ 1; 2; 3 ]) ~params workloads =
  {
    a_params = params;
    a_seeds = seeds;
    a_reports = List.map (explore_workload ~seeds ~params) workloads;
  }

(* ------------------------------------------------------------------ *)
(* Findings                                                              *)
(* ------------------------------------------------------------------ *)

let variants = Variant.all @ [ Variant.cache_based ]

let findings t =
  List.concat_map
    (fun wr ->
      let w = wr.wr_workload in
      let annot =
        (if wr.wr_alias_nload > 0 then
           [
             Findings.make ~source:Findings.Static ~severity:"violation"
               ~kind:"unsafe-nload" ~workload:w ?line:wr.wr_alias_sample
               ~count:wr.wr_alias_nload
               ~detail:
                 (Printf.sprintf
                    "%d line(s) annotated-read may alias a transactionally-written \
                     line: the selective annotation is a static race"
                    wr.wr_alias_nload)
               ();
           ]
         else [])
        @
        if wr.wr_alias_nstore > 0 then
          [
            Findings.make ~source:Findings.Static ~severity:"violation"
              ~kind:"unsafe-nstore" ~workload:w ?line:wr.wr_alias_sample
              ~count:wr.wr_alias_nstore
              ~detail:
                (Printf.sprintf
                   "%d annotated-written line(s) may alias a protected line"
                   wr.wr_alias_nstore)
              ();
          ]
        else []
      in
      let per_class =
        List.concat_map
          (fun cs ->
            (if cs.cs_diverged > 0 then
               [
                 Findings.make ~source:Findings.Static ~severity:"violation"
                   ~kind:"restart-hazard" ~workload:w ~cls:cs.cs_class
                   ~count:cs.cs_diverged
                   ~detail:
                     (Printf.sprintf
                        "%d of %d executions diverged on abstract replay: the body \
                         depends on host-side state a restart would not roll back"
                        cs.cs_diverged cs.cs_execs)
                   ();
               ]
             else [])
            @ (if cs.cs_rereads > 0 then
                 [
                   Findings.make ~source:Findings.Static ~severity:"violation"
                     ~kind:"reread-after-release" ~workload:w ~cls:cs.cs_class
                     ~count:cs.cs_rereads
                     ~detail:
                       "a released line was re-protected later in the same attempt: \
                        the release bought nothing and the line may have changed \
                        mid-transaction"
                     ();
                 ]
               else [])
            @ List.filter_map
                (fun v ->
                  match capacity_verdict ~params:t.a_params ~variant:v cs with
                  | Fits -> None
                  | Overflows ->
                      Some
                        (Findings.make ~source:Findings.Static ~severity:"advisory"
                           ~kind:"capacity-overflow" ~workload:w ~cls:cs.cs_class
                           ~variant:v.Variant.name
                           ~detail:
                             (Printf.sprintf
                                "peak %d (+%d ABI) protected lines cannot fit: runs \
                                 serial on this hardware"
                                cs.cs_peak_max abi_lines)
                           ())
                  | Set_conflict ->
                      Some
                        (Findings.make ~source:Findings.Static ~severity:"advisory"
                           ~kind:"set-conflict" ~workload:w ~cls:cs.cs_class
                           ~variant:v.Variant.name
                           ~detail:
                             (Printf.sprintf
                                "an L1 set holds %d of %d ways: an unrelated fill \
                                 can evict a tracked line (spurious capacity abort)"
                                cs.cs_all_set_occ t.a_params.Params.l1_assoc)
                           ()))
                variants)
          wr.wr_classes
      in
      annot @ per_class)
    t.a_reports

let ok t = not (List.exists Findings.is_violation (findings t))

(* ------------------------------------------------------------------ *)
(* Artifact                                                              *)
(* ------------------------------------------------------------------ *)

let artifact_json t ~extra =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"asf-analyze-v1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"params\": \"%s\",\n" t.a_params.Params.name);
  Buffer.add_string b
    (Printf.sprintf "  \"seeds\": [%s],\n"
       (String.concat ", " (List.map string_of_int t.a_seeds)));
  Buffer.add_string b (Printf.sprintf "  \"abi_lines\": %d,\n" abi_lines);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun wi wr ->
      if wi > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"alias_nload\": %d, \
                         \"alias_nstore\": %d, \"classes\": [\n"
           wr.wr_workload wr.wr_alias_nload wr.wr_alias_nstore);
      List.iteri
        (fun ci cs ->
          if ci > 0 then Buffer.add_string b ",\n";
          let verdicts =
            String.concat ", "
              (List.map
                 (fun v ->
                   Printf.sprintf "\"%s\": \"%s\"" v.Variant.name
                     (verdict_name (capacity_verdict ~params:t.a_params ~variant:v cs)))
                 variants)
          in
          Buffer.add_string b
            (Printf.sprintf
               "      {\"name\": \"%s\", \"execs\": %d, \"rd_max\": %d, \
                \"wr_max\": %d, \"peak_max\": %d, \"peak_min\": %d, \
                \"rd_set_occ\": %d, \"all_set_occ\": %d, \"releases\": %d, \
                \"rereads\": %d, \"allocs\": %d, \"diverged\": %d, \
                \"verdicts\": {%s}}"
               cs.cs_class cs.cs_execs cs.cs_rd_max cs.cs_wr_max cs.cs_peak_max
               cs.cs_peak_min cs.cs_rd_set_occ cs.cs_all_set_occ cs.cs_releases
               cs.cs_rereads cs.cs_allocs cs.cs_diverged verdicts))
        wr.wr_classes;
      Buffer.add_string b "\n    ]}")
    t.a_reports;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"findings\": ";
  Buffer.add_string b (Findings.json_of_findings (findings t @ extra));
  Buffer.add_string b "\n}\n";
  Buffer.contents b
