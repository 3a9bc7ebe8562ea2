module Params = Asf_machine.Params
module Abort = Asf_core.Abort
module Variant = Asf_core.Variant
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Intset = Asf_intset.Intset
module Stamp = Asf_stamp.Stamp
module C = Asf_stamp.Stamp_common
module Parallel = Asf_parallel.Parallel
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin
module Hierarchy = Asf_cache.Hierarchy

type t = {
  id : string;
  description : string;
  run : quick:bool -> seed:int -> Report.t list;
}

let threads_all = [ 1; 2; 4; 8 ]

let cfg mode ~threads ~seed = { (Tm.default_config mode ~n_cores:threads) with Tm.seed }

let ms cycles = Params.cycles_to_ms Params.barcelona cycles

type mode_spec = { mname : string; mode : Tm.mode }

let asf_modes =
  List.map (fun v -> { mname = v.Variant.name; mode = Tm.Asf_mode v }) Variant.all

let stm_mode = { mname = "TinySTM"; mode = Tm.Stm_mode }

(* ------------------------------------------------------------------ *)
(* Parallel cells                                                       *)
(* ------------------------------------------------------------------ *)

(* Every simulator run below goes through {!Parallel.cell_map}: each
   experiment enumerates its independent (workload x mode x threads)
   combinations as a list of cells, runs them across the pool, and
   assembles rows from the results — which come back in submission order
   whatever the degree of parallelism, so [--jobs n] output is
   bit-identical to [--jobs 1]. Cells must be self-contained: they never
   touch [stamp_cache] (main-domain state) and any formatting they do is
   pure. *)

(* Split [xs] into consecutive chunks of [n] (length must divide). *)
let chunk n xs =
  let rec take k acc xs =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> invalid_arg "chunk: ragged input"
      | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let rec go xs = if xs = [] then [] else
    let c, rest = take n [] xs in
    c :: go rest
  in
  go xs

(* ------------------------------------------------------------------ *)
(* Memoised runs (Fig. 4 and Fig. 6 share one sweep)                    *)
(* ------------------------------------------------------------------ *)

let stamp_cache : (string, C.result) Hashtbl.t = Hashtbl.create 128

let stamp_key ~quick ~seed app spec ~threads =
  Printf.sprintf "%s/%s/%d/%b/%d" (Stamp.name app) spec.mname threads quick seed

let stamp_cell ~quick ~seed (app, spec, threads) =
  let scale = if quick then 0.25 else 1.0 in
  Stamp.run_scaled app ~scale (cfg spec.mode ~threads ~seed) ~threads

let stamp_run ~quick ~seed app spec ~threads =
  let key = stamp_key ~quick ~seed app spec ~threads in
  match Hashtbl.find_opt stamp_cache key with
  | Some r -> r
  | None ->
      let r = stamp_cell ~quick ~seed (app, spec, threads) in
      Hashtbl.add stamp_cache key r;
      r

(* Fill [stamp_cache] for every combination in one parallel pass, so the
   assembly loops below hit the cache. The cache is the one piece of
   state shared across experiments; it is only ever read and written
   here, on the calling (main) domain. *)
let stamp_prefetch ~quick ~seed combos =
  let missing =
    List.filter
      (fun (app, spec, threads) ->
        not (Hashtbl.mem stamp_cache (stamp_key ~quick ~seed app spec ~threads)))
      combos
  in
  let results = Parallel.cell_map (stamp_cell ~quick ~seed) missing in
  List.iter2
    (fun (app, spec, threads) r ->
      Hashtbl.replace stamp_cache (stamp_key ~quick ~seed app spec ~threads) r)
    missing results

(* ------------------------------------------------------------------ *)
(* fig3                                                                 *)
(* ------------------------------------------------------------------ *)

let fig3 ~quick ~seed =
  let entries = Calibration.measure ~quick ~seed in
  [
    Report.make ~id:"fig3"
      ~title:
        "Simulator accuracy methodology: detailed (Barcelona) vs native-reference \
         model, STAMP, 1 thread, no TM (% deviation)"
      ~notes:
        [
          "Substitution: no x86 silicon available; the reference side is the \
           analytical native-reference profile (see DESIGN.md).";
          "The paper reports 10-15% deviation for 5 of 8 apps.";
        ]
      [ "app"; "detailed (cycles)"; "reference (cycles)"; "deviation" ]
      (List.map
         (fun e ->
           [
             e.Calibration.app;
             string_of_int e.Calibration.detailed_cycles;
             string_of_int e.Calibration.reference_cycles;
             Report.pct e.Calibration.deviation_pct;
           ])
         entries);
  ]

(* ------------------------------------------------------------------ *)
(* fig4                                                                 *)
(* ------------------------------------------------------------------ *)

let fig4_combos =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun spec -> List.map (fun threads -> (app, spec, threads)) threads_all)
        (asf_modes @ [ stm_mode ]))
    Stamp.all

let fig4 ~quick ~seed =
  let scale = if quick then 0.25 else 1.0 in
  stamp_prefetch ~quick ~seed fig4_combos;
  let seqs =
    Parallel.cell_map
      (fun app ->
        Stamp.run_scaled app ~scale (cfg Tm.Seq_mode ~threads:1 ~seed) ~threads:1)
      Stamp.all
  in
  let rows =
    List.concat
      (List.map2
         (fun app seq ->
           let tm_rows =
             List.map
               (fun spec ->
                 let times =
                   List.map
                     (fun threads ->
                       let r = stamp_run ~quick ~seed app spec ~threads in
                       Report.f3 (ms r.C.cycles) ^ if C.ok r then "" else "!")
                     threads_all
                 in
                 (Stamp.name app :: spec.mname :: times)
                 @ [])
               (asf_modes @ [ stm_mode ])
           in
           let seq_ms = Report.f3 (ms seq.C.cycles) in
           tm_rows
           @ [ [ Stamp.name app; "Sequential"; seq_ms; seq_ms; seq_ms; seq_ms ] ])
         Stamp.all seqs)
  in
  [
    Report.make ~id:"fig4"
      ~title:"STAMP execution time (simulated ms; lower is better)"
      ~notes:
        [
          "Sequential is the uninstrumented single-thread baseline (the paper's \
           horizontal bars).";
          "A trailing '!' marks a failed application self-check.";
        ]
      [ "app"; "config"; "1 thread"; "2 threads"; "4 threads"; "8 threads" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* fig5                                                                 *)
(* ------------------------------------------------------------------ *)

let fig5_panels =
  [
    (Intset.Linked_list, 28, 20);
    (Intset.Linked_list, 512, 20);
    (Intset.Skip_list, 1024, 20);
    (Intset.Skip_list, 8192, 20);
    (Intset.Rb_tree, 1024, 20);
    (Intset.Rb_tree, 8192, 20);
    (Intset.Hash_set, 256, 100);
    (Intset.Hash_set, 128000, 100);
  ]

let intset_cfg ~quick structure ~range ~update_pct ~early_release =
  {
    (Intset.default_cfg structure) with
    Intset.range;
    update_pct;
    early_release;
    txns_per_thread = (if quick then 300 else 1500);
  }

let panel_name (s, range, upd) =
  Printf.sprintf "%s r=%d %d%%upd" (Intset.structure_name s) range upd

let fig5 ~quick ~seed =
  let grid =
    List.concat_map
      (fun panel ->
        List.map (fun spec -> (panel, spec)) asf_modes)
      fig5_panels
  in
  let results =
    Parallel.cell_map
      (fun (((structure, range, upd), spec), threads) ->
        let c = intset_cfg ~quick structure ~range ~update_pct:upd ~early_release:false in
        let r = Intset.run (cfg spec.mode ~threads ~seed) ~threads c in
        Report.f2 r.Intset.throughput_tx_per_us
        ^ (if r.Intset.size_ok then "" else "!"))
      (List.concat_map
         (fun cell -> List.map (fun threads -> (cell, threads)) threads_all)
         grid)
  in
  let rows =
    List.map2
      (fun (panel, spec) cells -> panel_name panel :: spec.mname :: cells)
      grid
      (chunk (List.length threads_all) results)
  in
  [
    Report.make ~id:"fig5"
      ~title:"IntegerSet scalability (throughput, tx/us; higher is better)"
      ~notes:[ "Panels follow Fig. 5: key range and update percentage per panel." ]
      [ "panel"; "variant"; "1 thread"; "2 threads"; "4 threads"; "8 threads" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* fig6                                                                 *)
(* ------------------------------------------------------------------ *)

(* The paper's abort classes: contention (incl. explicit retries),
   capacity, page fault, system call / interrupt, malloc. *)
let abort_classes stats =
  let a = Stats.aborts stats in
  let attempts = float_of_int (max 1 (Stats.attempts stats)) in
  let pct xs =
    100.0 *. float_of_int (List.fold_left (fun acc i -> acc + a.(i)) 0 xs) /. attempts
  in
  [
    pct [ Abort.index Abort.Contention; Abort.index (Abort.Explicit 0) ];
    pct [ Abort.index Abort.Capacity; Abort.index Abort.Tlb_miss ];
    pct [ Abort.index (Abort.Page_fault 0) ];
    pct [ Abort.index Abort.Interrupt; Abort.index Abort.Syscall ];
    pct [ Abort.index Abort.Malloc ];
  ]

let fig6 ~quick ~seed =
  stamp_prefetch ~quick ~seed
    (List.concat_map
       (fun app ->
         List.concat_map
           (fun spec -> List.map (fun threads -> (app, spec, threads)) threads_all)
           asf_modes)
       Stamp.all);
  let rows =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun spec ->
            List.map
              (fun threads ->
                let r = stamp_run ~quick ~seed app spec ~threads in
                let classes = abort_classes r.C.stats in
                let total = List.fold_left ( +. ) 0.0 classes in
                [ Stamp.name app; spec.mname; string_of_int threads; Report.pct total ]
                @ List.map Report.pct classes)
              threads_all)
          asf_modes)
      Stamp.all
  in
  [
    Report.make ~id:"fig6"
      ~title:"STAMP abort rates by cause (% of transaction attempts)"
      [
        "app"; "variant"; "threads"; "total"; "contention"; "capacity";
        "page fault"; "intr/syscall"; "malloc";
      ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* fig7                                                                 *)
(* ------------------------------------------------------------------ *)

let fig7 ~quick ~seed =
  let list_sizes =
    if quick then [ 6; 30; 126; 510 ] else [ 6; 14; 30; 62; 126; 254; 510 ]
  in
  let tree_sizes =
    if quick then [ 8; 64; 512; 4096 ]
    else [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]
  in
  let sweep structure sizes =
    let results =
      Parallel.cell_map
        (fun (size, spec) ->
          let c =
            {
              (intset_cfg ~quick structure ~range:(2 * size) ~update_pct:20
                 ~early_release:false)
              with
              Intset.init_size = Some size;
              txns_per_thread = (if quick then 150 else 600);
            }
          in
          let r = Intset.run (cfg spec.mode ~threads:8 ~seed) ~threads:8 c in
          Report.f2 r.Intset.throughput_tx_per_us)
        (List.concat_map
           (fun size -> List.map (fun spec -> (size, spec)) asf_modes)
           sizes)
    in
    List.map2
      (fun size cells ->
        Intset.structure_name structure :: string_of_int size :: cells)
      sizes
      (chunk (List.length asf_modes) results)
  in
  [
    Report.make ~id:"fig7"
      ~title:
        "ASF capacity vs throughput (8 threads, 20% updates; tx/us by initial size)"
      ([ "structure"; "initial size" ] @ List.map (fun s -> s.mname) asf_modes)
      (sweep Intset.Linked_list list_sizes @ sweep Intset.Rb_tree tree_sizes);
  ]

(* ------------------------------------------------------------------ *)
(* fig8                                                                 *)
(* ------------------------------------------------------------------ *)

let fig8 ~quick ~seed =
  let sizes = if quick then [ 6; 30; 126; 510 ] else [ 6; 14; 30; 62; 126; 254; 510 ] in
  let variants = [ Variant.llb8; Variant.llb256 ] in
  let rows =
    Parallel.cell_map
      (fun (variant, size) ->
        let run er =
          let c =
            {
              (intset_cfg ~quick Intset.Linked_list ~range:(2 * size)
                 ~update_pct:20 ~early_release:er)
              with
              Intset.init_size = Some size;
              txns_per_thread = (if quick then 150 else 600);
            }
          in
          Intset.run (cfg (Tm.Asf_mode variant) ~threads:8 ~seed) ~threads:8 c
        in
        let without = run false in
        let with_er = run true in
        [
          variant.Variant.name;
          string_of_int size;
          Report.f2 without.Intset.throughput_tx_per_us;
          Report.f2 with_er.Intset.throughput_tx_per_us;
          Report.f2
            (with_er.Intset.throughput_tx_per_us
            /. max 0.001 without.Intset.throughput_tx_per_us);
        ])
      (List.concat_map
         (fun variant -> List.map (fun size -> (variant, size)) sizes)
         variants)
  in
  [
    Report.make ~id:"fig8"
      ~title:"Early-release impact on the linked list (8 threads, 20% updates)"
      [ "variant"; "initial size"; "without ER (tx/us)"; "with ER (tx/us)"; "speedup" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* fig9 / tab1                                                          *)
(* ------------------------------------------------------------------ *)

let tab1_structures =
  [
    (Intset.Linked_list, 20);
    (Intset.Skip_list, 20);
    (Intset.Rb_tree, 20);
    (Intset.Hash_set, 100);
  ]

let breakdown_runs ~quick ~seed =
  Parallel.cell_map
    (fun (structure, upd) ->
      let c =
        {
          (intset_cfg ~quick structure ~range:256 ~update_pct:upd ~early_release:false)
          with
          Intset.txns_per_thread = (if quick then 500 else 3000);
        }
      in
      let asf =
        Intset.run (cfg (Tm.Asf_mode Variant.llb256) ~threads:1 ~seed) ~threads:1 c
      in
      let stm = Intset.run (cfg Tm.Stm_mode ~threads:1 ~seed) ~threads:1 c in
      (structure, asf, stm))
    tab1_structures

let tab1_categories =
  [
    ("Non-instr. code", Stats.cat_non_instr);
    ("Instr. app code", Stats.cat_app);
    ("Abort/restart", Stats.cat_abort_waste);
    ("Tx load/store", Stats.cat_ld_st);
    ("Tx start/commit", Stats.cat_start_commit);
  ]

let tab1 ~quick ~seed =
  let rows =
    List.concat_map
      (fun (structure, asf, stm) ->
        List.map
          (fun (cat_name, cat) ->
            let a = (Stats.cycles asf.Intset.stats).(cat) in
            let s = (Stats.cycles stm.Intset.stats).(cat) in
            [
              Intset.structure_name structure;
              cat_name;
              string_of_int a;
              string_of_int s;
              (if a = 0 then (if s = 0 then "-" else "0.00")
               else Report.f2 (float_of_int s /. float_of_int a));
            ])
          tab1_categories)
      (breakdown_runs ~quick ~seed)
  in
  [
    Report.make ~id:"tab1"
      ~title:
        "Single-thread cycle breakdown inside transactions: ASF-TM (LLB-256) vs \
         TinySTM (Table 1; ratio = STM / ASF)"
      [ "structure"; "category"; "ASF cycles"; "STM cycles"; "STM/ASF" ]
      rows;
  ]

let fig9 ~quick ~seed =
  let rows =
    List.concat_map
      (fun (structure, asf, stm) ->
        let stm_total =
          List.fold_left
            (fun acc (_, cat) -> acc + (Stats.cycles stm.Intset.stats).(cat))
            0 tab1_categories
        in
        let norm stats =
          List.map
            (fun (_, cat) ->
              Report.f3
                (float_of_int (Stats.cycles stats).(cat) /. float_of_int (max 1 stm_total)))
            tab1_categories
        in
        [
          (Intset.structure_name structure :: "ASF (LLB-256)" :: norm asf.Intset.stats);
          (Intset.structure_name structure :: "TinySTM" :: norm stm.Intset.stats);
        ])
      (breakdown_runs ~quick ~seed)
  in
  [
    Report.make ~id:"fig9"
      ~title:
        "Single-thread overhead breakdown, normalized to the STM total of each \
         structure (Fig. 9)"
      ([ "structure"; "system" ] @ List.map fst tab1_categories)
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let abl_wins ~quick ~seed =
  let run requester_wins =
    let c =
      {
        (intset_cfg ~quick Intset.Rb_tree ~range:128 ~update_pct:50 ~early_release:false)
        with
        Intset.txns_per_thread = (if quick then 300 else 1500);
      }
    in
    let tm = { (cfg (Tm.Asf_mode Variant.llb256) ~threads:8 ~seed) with Tm.requester_wins } in
    Intset.run tm ~threads:8 c
  in
  let wins, loses =
    match Parallel.cell_map run [ true; false ] with
    | [ w; l ] -> (w, l)
    | _ -> assert false
  in
  let row name (r : Intset.result) =
    [
      name;
      Report.f2 r.Intset.throughput_tx_per_us;
      string_of_int (Stats.total_aborts r.Intset.stats);
      string_of_int (Stats.serial_commits r.Intset.stats);
    ]
  in
  [
    Report.make ~id:"abl-wins"
      ~title:
        "Ablation: requester-wins vs requester-loses contention management \
         (rb-tree, range 128, 50% updates, 8 threads)"
      [ "policy"; "tx/us"; "aborts"; "serial commits" ]
      [ row "requester-wins (ASF)" wins; row "requester-loses" loses ];
  ]

let abl_tlb ~quick ~seed =
  let run abort_on_tlb_miss =
    let c = intset_cfg ~quick Intset.Hash_set ~range:128000 ~update_pct:100 ~early_release:false in
    let tm = { (cfg (Tm.Asf_mode Variant.llb256) ~threads:8 ~seed) with Tm.abort_on_tlb_miss } in
    Intset.run tm ~threads:8 c
  in
  let asf_sem, rock_sem =
    match Parallel.cell_map run [ false; true ] with
    | [ a; r ] -> (a, r)
    | _ -> assert false
  in
  let row name (r : Intset.result) =
    let a = Stats.aborts r.Intset.stats in
    [
      name;
      Report.f2 r.Intset.throughput_tx_per_us;
      string_of_int a.(Abort.index Abort.Tlb_miss);
      string_of_int a.(Abort.index (Abort.Page_fault 0));
      string_of_int (Stats.total_aborts r.Intset.stats);
    ]
  in
  [
    Report.make ~id:"abl-tlb"
      ~title:
        "Ablation: ASF semantics (TLB misses survive) vs Rock-style TLB-miss \
         aborts (hash set, range 128000, 8 threads)"
      [ "semantics"; "tx/us"; "tlb-miss aborts"; "page-fault aborts"; "total aborts" ]
      [ row "ASF (no abort on TLB miss)" asf_sem; row "Rock-style" rock_sem ];
  ]

let abl_annot ~quick ~seed =
  let module Labyrinth = Asf_stamp.Labyrinth in
  let run privatized_snapshot =
    let tm = cfg (Tm.Asf_mode Variant.llb256) ~threads:4 ~seed in
    Labyrinth.run tm ~threads:4
      {
        Labyrinth.default with
        Labyrinth.privatized_snapshot;
        paths =
          (if quick then Labyrinth.default.Labyrinth.paths / 4
           else Labyrinth.default.Labyrinth.paths);
      }
  in
  let compiler_default, privatized =
    match Parallel.cell_map run [ false; true ] with
    | [ d; p ] -> (d, p)
    | _ -> assert false
  in
  let row name (r : C.result) =
    [
      name;
      Report.f3 (ms r.C.cycles);
      string_of_int (Stats.serial_commits r.C.stats);
      string_of_int (Stats.aborts r.C.stats).(Abort.index Abort.Capacity);
      string_of_bool (C.ok r);
    ]
  in
  [
    Report.make ~id:"abl-annot"
      ~title:
        "Ablation: selective annotation on labyrinth's grid snapshot (4 threads, \
         LLB-256). The compiler default instruments every shared read (the \
         paper's labyrinth); a hand-privatised snapshot exploits ASF's plain \
         accesses."
      [ "snapshot"; "time (ms)"; "serial commits"; "capacity aborts"; "valid" ]
      [
        row "transactional (compiler default)" compiler_default;
        row "privatised (selective annotation)" privatized;
      ];
  ]

let abl_backoff ~quick ~seed =
  let run backoff =
    let tm = { (cfg (Tm.Asf_mode Variant.llb256) ~threads:8 ~seed) with Tm.backoff } in
    Stamp.run_scaled Stamp.Intruder ~scale:(if quick then 0.25 else 1.0) tm ~threads:8
  in
  let on, off =
    match Parallel.cell_map run [ true; false ] with
    | [ on; off ] -> (on, off)
    | _ -> assert false
  in
  let row name (r : C.result) =
    [
      name;
      Report.f3 (ms r.C.cycles);
      string_of_int (Stats.total_aborts r.C.stats);
      string_of_bool (C.ok r);
    ]
  in
  [
    Report.make ~id:"abl-backoff"
      ~title:"Ablation: exponential back-off on/off (intruder, 8 threads)"
      [ "back-off"; "time (ms)"; "aborts"; "valid" ]
      [ row "exponential (ASF-TM)" on; row "none" off ];
  ]

let abl_cache ~quick ~seed =
  (* The third implementation variant of Section 2.3 (pure cache-based),
     which the paper describes but did not simulate, against the two it
     did. *)
  let variants = [ Variant.cache_based; Variant.llb256; Variant.llb256_l1; Variant.llb8 ] in
  let panels =
    [
      (Intset.Linked_list, 512, 20);
      (Intset.Rb_tree, 1024, 20);
      (Intset.Hash_set, 4096, 100);
    ]
  in
  let rows =
    Parallel.cell_map
      (fun ((structure, range, upd) as panel, v) ->
        let c = intset_cfg ~quick structure ~range ~update_pct:upd ~early_release:false in
        let r = Intset.run (cfg (Tm.Asf_mode v) ~threads:8 ~seed) ~threads:8 c in
        let a = Stats.aborts r.Intset.stats in
        [
          panel_name panel;
          v.Variant.name;
          Report.f2 r.Intset.throughput_tx_per_us;
          string_of_int a.(Abort.index Abort.Capacity);
          string_of_int (Stats.serial_commits r.Intset.stats);
        ])
      (List.concat_map
         (fun panel -> List.map (fun v -> (panel, v)) variants)
         panels)
  in
  [
    Report.make ~id:"abl-cache"
      ~title:
        "Extension: the pure cache-based implementation variant (Section 2.3) vs \
         the simulated ones (8 threads)"
      ~notes:
        [
          "Cache-based capacity is the whole L1 but bounded by 2-way \
           associativity for reads AND writes.";
        ]
      [ "panel"; "variant"; "tx/us"; "capacity aborts"; "serial commits" ]
      rows;
  ]

let abl_phased ~quick ~seed =
  (* Section 3.2's "more elaborate fallback": switch to an STM phase on
     capacity overflow instead of serialising (PhasedTM-style). *)
  let mk structure range =
    {
      (intset_cfg ~quick structure ~range ~update_pct:20 ~early_release:false) with
      Intset.txns_per_thread = (if quick then 200 else 800);
    }
  in
  let rows =
    Parallel.cell_map
      (fun ((label, structure, range), (mname, mode)) ->
        let c = mk structure range in
        let tm = cfg mode ~threads:8 ~seed in
        let r = Intset.run tm ~threads:8 c in
        [
          label;
          mname;
          Report.f2 r.Intset.throughput_tx_per_us;
          string_of_int (Stats.serial_commits r.Intset.stats);
        ])
      (List.concat_map
         (fun workload ->
           List.map
             (fun fallback -> (workload, fallback))
             [
               ("serial fallback (paper)", Tm.Asf_mode Variant.llb8);
               ("phased STM fallback", Tm.Phased_mode Variant.llb8);
               ("pure TinySTM", Tm.Stm_mode);
             ])
         [
           ("rb-tree r=16384", Intset.Rb_tree, 16384);
           ("linked-list r=1020", Intset.Linked_list, 1020);
         ])
  in
  [
    Report.make ~id:"abl-phased"
      ~title:
        "Extension: serial-irrevocable vs PhasedTM-style STM fallback on \
         capacity-bound workloads (LLB-8, 8 threads, 20% updates)"
      ~notes:
        [
          "The software phase wins where the STM scales (rb-tree) and loses \
           where it does not (long linked lists) - fallback choice is \
           workload-dependent.";
        ]
      [ "workload"; "fallback"; "tx/us"; "serial commits" ]
      rows;
  ]

let abl_wb ~quick ~seed =
  (* The paper runs TinySTM in write-through mode; the write-back
     alternative trades cheaper aborts for buffered loads and commit-time
     write-back. *)
  let strategies =
    [
      ("write-through (paper)", Asf_stm.Tinystm.Write_through);
      ("write-back", Asf_stm.Tinystm.Write_back);
    ]
  in
  let panels =
    [ (Intset.Rb_tree, 1024, 20); (Intset.Hash_set, 4096, 100); (Intset.Linked_list, 128, 20) ]
  in
  let rows =
    Parallel.cell_map
      (fun (((structure, range, upd) as panel), (sname, stm_strategy), threads) ->
        let c = intset_cfg ~quick structure ~range ~update_pct:upd ~early_release:false in
        let tm = { (cfg Tm.Stm_mode ~threads ~seed) with Tm.stm_strategy } in
        let r = Intset.run tm ~threads c in
        [
          panel_name panel;
          sname;
          string_of_int threads;
          Report.f2 r.Intset.throughput_tx_per_us;
          string_of_int (Stats.total_aborts r.Intset.stats);
        ])
      (List.concat_map
         (fun panel ->
           List.concat_map
             (fun strategy ->
               List.map (fun threads -> (panel, strategy, threads)) [ 1; 8 ])
             strategies)
         panels)
  in
  [
    Report.make ~id:"abl-wb"
      ~title:"Ablation: TinySTM write-through (the paper's choice) vs write-back"
      [ "panel"; "strategy"; "threads"; "tx/us"; "aborts" ]
      rows;
  ]

let abl_socket ~quick ~seed =
  (* The paper's simulated cores all sit on one socket ("resembling
     future processors with higher levels of core integration"); this
     extension splits them across two sockets with an interconnect hop
     and a per-socket L3, quantifying what that choice hides. *)
  let run params structure threads =
    let c =
      {
        (intset_cfg ~quick structure ~range:1024
           ~update_pct:(match structure with Intset.Hash_set -> 100 | _ -> 20)
           ~early_release:false)
        with
        Intset.txns_per_thread = (if quick then 200 else 1000);
      }
    in
    let tm = { (cfg (Tm.Asf_mode Variant.llb256) ~threads ~seed) with Tm.params } in
    (Intset.run tm ~threads c).Intset.throughput_tx_per_us
  in
  let rows =
    Parallel.cell_map
      (fun ((sname, structure), threads) ->
        let single = run Params.barcelona structure threads in
        let dual = run Params.dual_socket structure threads in
        [
          sname;
          string_of_int threads;
          Report.f2 single;
          Report.f2 dual;
          Report.f2 (dual /. max 0.001 single);
        ])
      (List.concat_map
         (fun s -> List.map (fun threads -> (s, threads)) [ 2; 4; 8 ])
         [ ("rb-tree", Intset.Rb_tree); ("hash-set", Intset.Hash_set) ])
  in
  [
    Report.make ~id:"abl-socket"
      ~title:
        "Extension: single-socket (paper) vs dual-socket topology with an interconnect hop (LLB-256; throughput tx/us)"
      [ "structure"; "threads"; "1 socket"; "2 sockets"; "ratio" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* Extension: open-system serving under overload                        *)
(* ------------------------------------------------------------------ *)

(* Each cell measures the closed-loop capacity of one service, then
   offers a Poisson load at a multiple of it — below the knee (0.8x) and
   in sustained overload (2x) — with per-request deadlines and the
   overload governor on. The overload rows are the robustness exhibit:
   explicit shed/timeout censuses and a bounded queue instead of a
   collapse. *)
let serve_exp ~quick ~seed =
  let threads = 4 in
  let requests = if quick then 400 else 1500 in
  let rows =
    Parallel.cell_map
      (fun (sname, service, mult) ->
        let tm = cfg (Tm.Asf_mode Variant.llb256) ~threads ~seed in
        let base =
          {
            (Serve.default_cfg service) with
            Serve.requests;
            queue_cap = 16;
            deadline = Some (Params.us_to_cycles tm.Tm.params 4);
            record = true;
          }
        in
        let mean_gap = Serve.load_gap tm ~threads base mult in
        let cell_cfg = { base with Serve.arrival = Serve.Poisson { mean_gap } } in
        let r = Serve.run tm ~threads cell_cfg in
        let v = Txlin.check_result cell_cfg r in
        [
          sname;
          Report.f2 mult;
          Report.f2 r.Serve.r_offered;
          Report.f2 r.Serve.r_achieved;
          string_of_int r.Serve.r_p50;
          string_of_int r.Serve.r_p99;
          string_of_int r.Serve.r_shed;
          string_of_int r.Serve.r_timeout;
          string_of_int r.Serve.r_max_depth;
          r.Serve.r_final_gov;
          (if r.Serve.r_invariant_ok && r.Serve.r_partition_ok then "ok"
           else "FAIL");
          (if v.Txlin.v_ok then "ok"
           else if v.Txlin.v_inconclusive then "inconcl"
           else "FAIL");
        ])
      (List.concat_map
         (fun (sname, service) ->
           List.map (fun mult -> (sname, service, mult)) [ 0.8; 2.0 ])
         [
           ("kv-a", Serve.Kv Serve.A);
           ("kv-e", Serve.Kv Serve.E);
           ("ledger", Serve.Ledger);
         ])
  in
  [
    Report.make ~id:"serve"
      ~title:
        "Extension: open-system serving under offered load (Poisson arrivals, 4-us deadlines, governor on; load = multiple of measured capacity; req/ms)"
      ~notes:
        [
          "shed + timeout + completed = arrivals (outcome partition); depth is \
           bounded by the admission cap";
          "lin = Txlin linearizability verdict over the recorded \
           request/response history";
        ]
      [
        "service"; "load"; "offered"; "achieved"; "p50"; "p99"; "shed"; "timeout";
        "depth"; "gov"; "inv"; "lin";
      ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* Extension: big-topology scale runs (64 cores / 4 sockets)            *)
(* ------------------------------------------------------------------ *)

(* Fig. 4/Fig. 5 slices plus one serve workload on the 64c4s preset —
   8x the paper's core count, spread over four sockets. Above 62 cores
   the directory runs on the limited-pointer/coarse-vector sharer
   backend, so these rows also exercise the representation the bitmask
   cannot reach. Each cell reports its own coherence traffic, read as a
   delta of the executing domain's counters around the run (cells are
   synchronous on their domain, so the delta is exactly the cell's). *)
let scale ~quick ~seed =
  let topo = Params.topo_64c4s in
  let threads = topo.Params.topo_cores in
  let cfg64 mode = { (cfg mode ~threads ~seed) with Tm.params = topo.Params.topo_params } in
  let coh_delta f =
    let c0 = Hierarchy.domain_coherence () in
    let v = f () in
    let c1 = Hierarchy.domain_coherence () in
    (v, [ c1.(0) - c0.(0); c1.(1) - c0.(1); c1.(2) - c0.(2) ])
  in
  let coh_cols d = List.map string_of_int d in
  let stamp_rows =
    Parallel.cell_map
      (fun (app, spec) ->
        let scale_f = if quick then 0.1 else 0.3 in
        let r, d =
          coh_delta (fun () ->
              Stamp.run_scaled app ~scale:scale_f (cfg64 spec.mode) ~threads)
        in
        [
          Stamp.name app; spec.mname;
          Report.f3 (ms r.C.cycles) ^ " ms" ^ (if C.ok r then "" else "!");
        ]
        @ coh_cols d)
      (List.concat_map
         (fun app -> List.map (fun spec -> (app, spec)) [ List.nth asf_modes 0; List.nth asf_modes 1 ])
         [ Stamp.Kmeans_low; Stamp.Ssca2 ])
  in
  let intset_rows =
    Parallel.cell_map
      (fun ((sname, structure, range, upd), spec) ->
        let c =
          {
            (intset_cfg ~quick structure ~range ~update_pct:upd
               ~early_release:false)
            with
            Intset.txns_per_thread = (if quick then 40 else 150);
          }
        in
        let r, d =
          coh_delta (fun () -> Intset.run (cfg64 spec.mode) ~threads c)
        in
        [
          Printf.sprintf "%s r=%d %d%%upd" sname range upd;
          spec.mname;
          Report.f2 r.Intset.throughput_tx_per_us
          ^ " tx/us"
          ^ (if r.Intset.size_ok then "" else "!");
        ]
        @ coh_cols d)
      (List.concat_map
         (fun s ->
           List.map (fun spec -> (s, spec)) [ List.nth asf_modes 0; List.nth asf_modes 1 ])
         [
           ("rb-tree", Intset.Rb_tree, 8192, 20);
           ("hash-set", Intset.Hash_set, 128000, 100);
         ])
  in
  let serve_rows =
    Parallel.cell_map
      (fun () ->
        let tm = cfg64 (Tm.Asf_mode Variant.llb256) in
        let scfg =
          {
            (Serve.default_cfg (Serve.Kv Serve.A)) with
            Serve.requests = (if quick then 400 else 1500);
            queue_cap = 16;
            deadline = Some (Params.us_to_cycles tm.Tm.params 8);
            (* Fixed-gap underload: no capacity probe at 64 cores. *)
            arrival = Serve.Poisson { mean_gap = 2000 };
          }
        in
        let r, d = coh_delta (fun () -> Serve.run tm ~threads scfg) in
        [
          "serve kv-a"; "LLB-256";
          Printf.sprintf "%s req/ms p99=%d%s"
            (Report.f2 r.Serve.r_achieved)
            r.Serve.r_p99
            (if r.Serve.r_invariant_ok && r.Serve.r_partition_ok then ""
             else "!");
        ]
        @ coh_cols d)
      [ () ]
  in
  [
    Report.make ~id:"scale"
      ~title:
        (Printf.sprintf
           "Extension: %d cores / %d sockets (limited-pointer directory) — \
            fig4/fig5 slices + serving"
           threads topo.Params.topo_params.Params.n_sockets)
      ~notes:
        [
          "Coherence columns are per-cell deltas: write-invalidation events, \
           cache-to-cache forwards, cross-socket probe penalties.";
          "A trailing '!' marks a failed self-check.";
        ]
      [ "workload"; "config"; "result"; "inval"; "fwd"; "xsock" ]
      (stamp_rows @ intset_rows @ serve_rows);
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "fig3"; description = "simulator accuracy methodology"; run = fig3 };
    { id = "fig4"; description = "STAMP scalability (execution time)"; run = fig4 };
    { id = "fig5"; description = "IntegerSet scalability (throughput)"; run = fig5 };
    { id = "fig6"; description = "STAMP abort-cause breakdown"; run = fig6 };
    { id = "fig7"; description = "capacity vs throughput"; run = fig7 };
    { id = "fig8"; description = "early-release impact"; run = fig8 };
    { id = "fig9"; description = "single-thread overhead (normalized)"; run = fig9 };
    { id = "tab1"; description = "single-thread cycle breakdown"; run = tab1 };
    { id = "abl-wins"; description = "requester-wins vs -loses"; run = abl_wins };
    { id = "abl-tlb"; description = "Rock-style TLB-miss aborts"; run = abl_tlb };
    { id = "abl-annot"; description = "selective annotation off"; run = abl_annot };
    { id = "abl-backoff"; description = "back-off off"; run = abl_backoff };
    { id = "abl-cache"; description = "cache-based ASF variant (extension)"; run = abl_cache };
    { id = "abl-phased"; description = "PhasedTM fallback (extension)"; run = abl_phased };
    { id = "abl-wb"; description = "STM write-through vs write-back"; run = abl_wb };
    { id = "abl-socket"; description = "dual-socket topology (extension)"; run = abl_socket };
    { id = "serve"; description = "open-system serving under overload (extension)"; run = serve_exp };
    { id = "scale"; description = "64-core / 4-socket big-topology runs (extension)"; run = scale };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

let clear_cache () = Hashtbl.reset stamp_cache
