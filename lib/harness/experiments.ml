module Params = Asf_machine.Params
module Abort = Asf_core.Abort
module Variant = Asf_core.Variant
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Intset = Asf_intset.Intset
module Stamp = Asf_stamp.Stamp
module C = Asf_stamp.Stamp_common
module Labyrinth = Asf_stamp.Labyrinth
module Counters = Asf_engine.Counters
module Faults = Asf_faults.Faults
module Parallel = Asf_parallel.Parallel
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin

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
(* Cells                                                                *)
(* ------------------------------------------------------------------ *)

(* A cell is one simulator call: a job, the TM configuration it runs
   under and its thread count. Cells are plain data, compared and hashed
   structurally, so two experiments that need the same run list the same
   cell and it is simulated once. *)
type job =
  | Intset of Intset.cfg
  | Stamp of Stamp.app * float  (** input scale *)
  | Labyrinth of Labyrinth.cfg
  | Sweep of Serve.cfg * float list
      (** {!Serve.sweep}: one capacity probe, then one Poisson run per
          load multiple *)
  | Serve of Serve.cfg

type cell = { job : job; tm : Tm.config; threads : int }

let cell job tm = { job; tm; threads = tm.Tm.n_cores }

type value =
  | Intset_r of Intset.result
  | Stamp_r of C.result
  | Sweep_r of (float * Serve.result * Txlin.verdict) list
  | Serve_r of Serve.result

(* A cell's result and its own {!Counters} window. *)
type result = { value : value; window : int array }

let simulate c =
  let w = Counters.open_window () in
  let value =
    match c.job with
    | Intset i -> Intset_r (Intset.run c.tm ~threads:c.threads i)
    | Stamp (app, scale) ->
        Stamp_r (Stamp.run_scaled app ~scale c.tm ~threads:c.threads)
    | Labyrinth l ->
        Stamp_r (C.run ~name:"labyrinth" c.tm ~threads:c.threads (Labyrinth.program l))
    | Sweep (s, mults) ->
        let runs, _knee = Serve.sweep c.tm ~threads:c.threads s ~mults in
        Sweep_r (List.map (fun (m, r) -> (m, r, Txlin.check_result s r)) runs)
    | Serve s -> Serve_r (Serve.run c.tm ~threads:c.threads s)
  in
  { value; window = Counters.close_window w }

let intset_of r = match r.value with Intset_r x -> x | _ -> invalid_arg "intset_of"

let stamp_of r = match r.value with Stamp_r x -> x | _ -> invalid_arg "stamp_of"

(* The one memo: every cell simulated in this process, keyed by the cell
   and the installed fault plan and seed. A checker or tracer never
   changes a result, so neither is part of the key. Main-domain state:
   only [run] touches it, never a cell. *)
let memo : (cell * (Faults.plan * int) option, result) Hashtbl.t = Hashtbl.create 512

(* Simulate every cell of [cells] not yet memoised, once each and in
   first-occurrence order, through {!Parallel.cell_map} (whose results
   come back in submission order whatever the pool width, so [--jobs n]
   is bit-identical to [--jobs 1]); return the lookup. *)
let run cells =
  let fl = Faults.installed () in
  let faults =
    if Faults.enabled fl then Some (Faults.plan fl, Faults.seed fl) else None
  in
  let missing =
    List.fold_left
      (fun acc c ->
        if Hashtbl.mem memo (c, faults) || List.mem c acc then acc else c :: acc)
      [] cells
    |> List.rev
  in
  List.iter2
    (fun c r -> Hashtbl.replace memo (c, faults) r)
    missing (Parallel.cell_map simulate missing);
  fun c -> Hashtbl.find memo (c, faults)

let stamp ~quick app = Stamp (app, if quick then 0.25 else 1.0)

let stamp_grid specs =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun spec ->
          List.map (fun threads -> (app, spec, threads)) threads_all)
        specs)
    Stamp.all

let stamp_cell ~quick ~seed (app, spec, threads) =
  cell (stamp ~quick app) (cfg spec.mode ~threads ~seed)

let intset_cfg ?(early_release = false) ~quick structure ~range ~update_pct =
  {
    (Intset.default_cfg structure) with
    Intset.range;
    update_pct;
    early_release;
    txns_per_thread = (if quick then 300 else 1500);
  }

let panel_name (s, range, upd) =
  Printf.sprintf "%s r=%d %d%%upd" (Intset.structure_name s) range upd

(* One run of an IntegerSet panel (structure, key range, update %):
   abl-cache's and abl-tlb's runs on fig5's panels are fig5's cells. *)
let panel_cell ~quick (structure, range, upd) tm =
  cell (Intset (intset_cfg ~quick structure ~range ~update_pct:upd)) tm

let tput r = (intset_of r).Intset.throughput_tx_per_us

(* ------------------------------------------------------------------ *)
(* fig3                                                                 *)
(* ------------------------------------------------------------------ *)

(* The paper validates PTLsim-ASF by running the STAMP applications
   single-threaded without TM both natively and simulated. No x86
   silicon exists here, so the "native" side is the analytical
   native-reference machine profile (DESIGN.md, substitution table): the
   same workloads and execution path on a different machine model. The
   Barcelona cells are fig4's sequential baseline. *)
let fig3 ~quick ~seed =
  let on params app =
    cell (stamp ~quick app) { (cfg Tm.Seq_mode ~threads:1 ~seed) with Tm.params }
  in
  let profiles = [ Params.barcelona; Params.native_reference ] in
  let get =
    run (List.concat_map (fun app -> List.map (fun p -> on p app) profiles) Stamp.all)
  in
  let cycles params app = (stamp_of (get (on params app))).C.cycles in
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
         (fun app ->
           let detailed = cycles Params.barcelona app in
           let reference = cycles Params.native_reference app in
           [
             Stamp.name app;
             string_of_int detailed;
             string_of_int reference;
             Report.pct
               (100.0 *. (float_of_int detailed -. float_of_int reference)
               /. float_of_int reference);
           ])
         Stamp.all);
  ]

(* ------------------------------------------------------------------ *)
(* fig4                                                                 *)
(* ------------------------------------------------------------------ *)

let fig4 ~quick ~seed =
  let specs = asf_modes @ [ stm_mode ] in
  let c = stamp_cell ~quick ~seed in
  let seq app = cell (stamp ~quick app) (cfg Tm.Seq_mode ~threads:1 ~seed) in
  let get = run (List.map c (stamp_grid specs) @ List.map seq Stamp.all) in
  let time c =
    let r = stamp_of (get c) in
    Report.f3 (ms r.C.cycles) ^ if C.ok r then "" else "!"
  in
  let rows =
    List.concat_map
      (fun app ->
        List.map
          (fun spec ->
            Stamp.name app :: spec.mname
            :: List.map (fun threads -> time (c (app, spec, threads))) threads_all)
          specs
        @
        let seq_ms = Report.f3 (ms (stamp_of (get (seq app))).C.cycles) in
        [ [ Stamp.name app; "Sequential"; seq_ms; seq_ms; seq_ms; seq_ms ] ])
      Stamp.all
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

let fig5 ~quick ~seed =
  let grid =
    List.concat_map
      (fun panel -> List.map (fun spec -> (panel, spec)) asf_modes)
      fig5_panels
  in
  let c (panel, spec) threads = panel_cell ~quick panel (cfg spec.mode ~threads ~seed) in
  let get = run (List.concat_map (fun row -> List.map (c row) threads_all) grid) in
  let rows =
    List.map
      (fun ((panel, spec) as row) ->
        panel_name panel :: spec.mname
        :: List.map
             (fun threads ->
               let r = intset_of (get (c row threads)) in
               Report.f2 r.Intset.throughput_tx_per_us
               ^ if r.Intset.size_ok then "" else "!")
             threads_all)
      grid
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
  let grid = stamp_grid asf_modes in
  let c = stamp_cell ~quick ~seed in
  let get = run (List.map c grid) in
  let rows =
    List.map
      (fun ((app, spec, threads) as point) ->
        let r = stamp_of (get (c point)) in
        let classes = abort_classes r.C.stats in
        let total = List.fold_left ( +. ) 0.0 classes in
        [ Stamp.name app; spec.mname; string_of_int threads; Report.pct total ]
        @ List.map Report.pct classes)
      grid
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
(* fig7 / fig8                                                          *)
(* ------------------------------------------------------------------ *)

let list_sizes ~quick =
  if quick then [ 6; 30; 126; 510 ] else [ 6; 14; 30; 62; 126; 254; 510 ]

(* One 8-thread run of a structure pre-filled to [size] over twice that
   key range: fig8's runs without early release are fig7's list cells. *)
let capacity_cell ?early_release ~quick ~seed structure size mode =
  cell
    (Intset
       {
         (intset_cfg ?early_release ~quick structure ~range:(2 * size) ~update_pct:20)
         with
         Intset.init_size = Some size;
         txns_per_thread = (if quick then 150 else 600);
       })
    (cfg mode ~threads:8 ~seed)

let fig7 ~quick ~seed =
  let tree_sizes =
    if quick then [ 8; 64; 512; 4096 ]
    else [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]
  in
  let grid =
    List.map (fun size -> (Intset.Linked_list, size)) (list_sizes ~quick)
    @ List.map (fun size -> (Intset.Rb_tree, size)) tree_sizes
  in
  let c (structure, size) spec =
    capacity_cell ~quick ~seed structure size spec.mode
  in
  let get = run (List.concat_map (fun row -> List.map (c row) asf_modes) grid) in
  [
    Report.make ~id:"fig7"
      ~title:
        "ASF capacity vs throughput (8 threads, 20% updates; tx/us by initial size)"
      ([ "structure"; "initial size" ] @ List.map (fun s -> s.mname) asf_modes)
      (List.map
         (fun ((structure, size) as row) ->
           Intset.structure_name structure :: string_of_int size
           :: List.map (fun spec -> Report.f2 (tput (get (c row spec)))) asf_modes)
         grid);
  ]

let fig8 ~quick ~seed =
  let grid =
    List.concat_map
      (fun variant -> List.map (fun size -> (variant, size)) (list_sizes ~quick))
      [ Variant.llb8; Variant.llb256 ]
  in
  let c (variant, size) early_release =
    capacity_cell ~early_release ~quick ~seed Intset.Linked_list size
      (Tm.Asf_mode variant)
  in
  let get = run (List.concat_map (fun row -> [ c row false; c row true ]) grid) in
  [
    Report.make ~id:"fig8"
      ~title:"Early-release impact on the linked list (8 threads, 20% updates)"
      [ "variant"; "initial size"; "without ER (tx/us)"; "with ER (tx/us)"; "speedup" ]
      (List.map
         (fun ((variant, size) as row) ->
           let without = tput (get (c row false)) and with_er = tput (get (c row true)) in
           [
             variant.Variant.name;
             string_of_int size;
             Report.f2 without;
             Report.f2 with_er;
             Report.f2 (with_er /. max 0.001 without);
           ])
         grid);
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

(* tab1 and fig9 read the same single-thread runs: per structure, its
   LLB-256 and its TinySTM result. *)
let breakdown_runs ~quick ~seed =
  let c (structure, upd) mode =
    cell
      (Intset
         {
           (intset_cfg ~quick structure ~range:256 ~update_pct:upd) with
           Intset.txns_per_thread = (if quick then 500 else 3000);
         })
      (cfg mode ~threads:1 ~seed)
  in
  let asf = Tm.Asf_mode Variant.llb256 in
  let get =
    run (List.concat_map (fun s -> [ c s asf; c s Tm.Stm_mode ]) tab1_structures)
  in
  List.map
    (fun ((structure, _) as s) ->
      (structure, intset_of (get (c s asf)), intset_of (get (c s Tm.Stm_mode))))
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

let llb256 ~threads ~seed = cfg (Tm.Asf_mode Variant.llb256) ~threads ~seed

let abl_wins ~quick ~seed =
  let c requester_wins =
    panel_cell ~quick (Intset.Rb_tree, 128, 50)
      { (llb256 ~threads:8 ~seed) with Tm.requester_wins }
  in
  let get = run [ c true; c false ] in
  let row name requester_wins =
    let r = intset_of (get (c requester_wins)) in
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
      [ row "requester-wins (ASF)" true; row "requester-loses" false ];
  ]

let abl_tlb ~quick ~seed =
  let c abort_on_tlb_miss =
    panel_cell ~quick (Intset.Hash_set, 128000, 100)
      { (llb256 ~threads:8 ~seed) with Tm.abort_on_tlb_miss }
  in
  let get = run [ c false; c true ] in
  let row name abort_on_tlb_miss =
    let r = intset_of (get (c abort_on_tlb_miss)) in
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
      [ row "ASF (no abort on TLB miss)" false; row "Rock-style" true ];
  ]

let abl_annot ~quick ~seed =
  let tm = llb256 ~threads:4 ~seed in
  (* The compiler default is fig4's LLB-256 4-thread labyrinth cell: the
     STAMP registry scales the same default input by the same factor. *)
  let compiler_default = cell (stamp ~quick Stamp.Labyrinth) tm in
  let privatized =
    cell
      (Labyrinth
         {
           Labyrinth.default with
           Labyrinth.privatized_snapshot = true;
           paths =
             (if quick then Labyrinth.default.Labyrinth.paths / 4
              else Labyrinth.default.Labyrinth.paths);
         })
      tm
  in
  let get = run [ compiler_default; privatized ] in
  let row name c =
    let r = stamp_of (get c) in
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
  let c backoff =
    cell (stamp ~quick Stamp.Intruder) { (llb256 ~threads:8 ~seed) with Tm.backoff }
  in
  let get = run [ c true; c false ] in
  let row name backoff =
    let r = stamp_of (get (c backoff)) in
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
      [ row "exponential (ASF-TM)" true; row "none" false ];
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
  let grid =
    List.concat_map (fun panel -> List.map (fun v -> (panel, v)) variants) panels
  in
  let c (panel, v) = panel_cell ~quick panel (cfg (Tm.Asf_mode v) ~threads:8 ~seed) in
  let get = run (List.map c grid) in
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
      (List.map
         (fun ((panel, v) as row) ->
           let r = intset_of (get (c row)) in
           [
             panel_name panel;
             v.Variant.name;
             Report.f2 r.Intset.throughput_tx_per_us;
             string_of_int (Stats.aborts r.Intset.stats).(Abort.index Abort.Capacity);
             string_of_int (Stats.serial_commits r.Intset.stats);
           ])
         grid);
  ]

let abl_phased ~quick ~seed =
  (* Section 3.2's "more elaborate fallback": switch to an STM phase on
     capacity overflow instead of serialising (PhasedTM-style). *)
  let grid =
    List.concat_map
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
      ]
  in
  let c ((_, structure, range), (_, mode)) =
    cell
      (Intset
         {
           (intset_cfg ~quick structure ~range ~update_pct:20) with
           Intset.txns_per_thread = (if quick then 200 else 800);
         })
      (cfg mode ~threads:8 ~seed)
  in
  let get = run (List.map c grid) in
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
      (List.map
         (fun (((label, _, _), (mname, _)) as row) ->
           let r = intset_of (get (c row)) in
           [
             label;
             mname;
             Report.f2 r.Intset.throughput_tx_per_us;
             string_of_int (Stats.serial_commits r.Intset.stats);
           ])
         grid);
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
  let grid =
    List.concat_map
      (fun panel ->
        List.concat_map
          (fun strategy -> List.map (fun threads -> (panel, strategy, threads)) [ 1; 8 ])
          strategies)
      panels
  in
  let c (panel, (_, stm_strategy), threads) =
    panel_cell ~quick panel { (cfg Tm.Stm_mode ~threads ~seed) with Tm.stm_strategy }
  in
  let get = run (List.map c grid) in
  [
    Report.make ~id:"abl-wb"
      ~title:"Ablation: TinySTM write-through (the paper's choice) vs write-back"
      [ "panel"; "strategy"; "threads"; "tx/us"; "aborts" ]
      (List.map
         (fun ((panel, (sname, _), threads) as row) ->
           let r = intset_of (get (c row)) in
           [
             panel_name panel;
             sname;
             string_of_int threads;
             Report.f2 r.Intset.throughput_tx_per_us;
             string_of_int (Stats.total_aborts r.Intset.stats);
           ])
         grid);
  ]

let abl_socket ~quick ~seed =
  (* The paper's simulated cores all sit on one socket ("resembling
     future processors with higher levels of core integration"); this
     extension splits them across two sockets with an interconnect hop
     and a per-socket L3, quantifying what that choice hides. *)
  let grid =
    List.concat_map
      (fun s -> List.map (fun threads -> (s, threads)) [ 2; 4; 8 ])
      [ ("rb-tree", Intset.Rb_tree); ("hash-set", Intset.Hash_set) ]
  in
  let c ((_, structure), threads) params =
    cell
      (Intset
         {
           (intset_cfg ~quick structure ~range:1024
              ~update_pct:(match structure with Intset.Hash_set -> 100 | _ -> 20))
           with
           Intset.txns_per_thread = (if quick then 200 else 1000);
         })
      { (llb256 ~threads ~seed) with Tm.params }
  in
  let get =
    run
      (List.concat_map
         (fun row -> [ c row Params.barcelona; c row Params.dual_socket ])
         grid)
  in
  [
    Report.make ~id:"abl-socket"
      ~title:
        "Extension: single-socket (paper) vs dual-socket topology with an interconnect hop (LLB-256; throughput tx/us)"
      [ "structure"; "threads"; "1 socket"; "2 sockets"; "ratio" ]
      (List.map
         (fun (((sname, _), threads) as row) ->
           let single = tput (get (c row Params.barcelona)) in
           let dual = tput (get (c row Params.dual_socket)) in
           [
             sname;
             string_of_int threads;
             Report.f2 single;
             Report.f2 dual;
             Report.f2 (dual /. max 0.001 single);
           ])
         grid);
  ]

(* ------------------------------------------------------------------ *)
(* Extension: open-system serving under overload                        *)
(* ------------------------------------------------------------------ *)

(* One sweep per service: measure its closed-loop capacity once, then
   offer a Poisson load at a multiple of it — below the knee (0.8x) and
   in sustained overload (2x) — with per-request deadlines and the
   overload governor on. The overload rows are the robustness exhibit:
   explicit shed/timeout censuses and a bounded queue instead of a
   collapse. *)
let serve_exp ~quick ~seed =
  let tm = llb256 ~threads:4 ~seed in
  let c service =
    cell
      (Sweep
         ( {
             (Serve.default_cfg service) with
             Serve.requests = (if quick then 400 else 1500);
             queue_cap = 16;
             deadline = Some (Params.us_to_cycles tm.Tm.params 4);
             record = true;
           },
           [ 0.8; 2.0 ] ))
      tm
  in
  let services =
    [ ("kv-a", Serve.Kv Serve.A); ("kv-e", Serve.Kv Serve.E); ("ledger", Serve.Ledger) ]
  in
  let get = run (List.map (fun (_, service) -> c service) services) in
  let rows =
    List.concat_map
      (fun (sname, service) ->
        match (get (c service)).value with
        | Sweep_r runs ->
            List.map
              (fun (mult, r, v) ->
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
              runs
        | _ -> invalid_arg "serve: not a sweep cell")
      services
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
   8x the paper's core count, spread over four sockets, where every
   directory sharer set takes two words. Each row reports its own
   coherence traffic, read from its cell's counter window. *)
let scale ~quick ~seed =
  let topo = Params.topo_64c4s in
  let threads = topo.Params.topo_cores in
  let cfg64 mode = { (cfg mode ~threads ~seed) with Tm.params = topo.Params.topo_params } in
  let specs = [ List.nth asf_modes 0; List.nth asf_modes 1 ] in
  let jobs =
    List.map
      (fun app -> (Stamp.name app, Stamp (app, if quick then 0.1 else 0.3)))
      [ Stamp.Kmeans_low; Stamp.Ssca2 ]
    @ List.map
        (fun ((structure, range, upd) as panel) ->
          ( panel_name panel,
            Intset
              {
                (intset_cfg ~quick structure ~range ~update_pct:upd) with
                Intset.txns_per_thread = (if quick then 40 else 150);
              } ))
        [ (Intset.Rb_tree, 8192, 20); (Intset.Hash_set, 128000, 100) ]
  in
  let serve_tm = cfg64 (Tm.Asf_mode Variant.llb256) in
  let serve_cell =
    cell
      (Serve
         {
           (Serve.default_cfg (Serve.Kv Serve.A)) with
           Serve.requests = (if quick then 400 else 1500);
           queue_cap = 16;
           deadline = Some (Params.us_to_cycles serve_tm.Tm.params 8);
           (* Fixed-gap underload: no capacity probe at 64 cores. *)
           arrival = Serve.Poisson { mean_gap = 2000 };
         })
      serve_tm
  in
  let grid =
    List.concat_map
      (fun (name, job) ->
        List.map (fun spec -> (name, spec.mname, cell job (cfg64 spec.mode))) specs)
      jobs
    @ [ ("serve kv-a", "LLB-256", serve_cell) ]
  in
  let get = run (List.map (fun (_, _, c) -> c) grid) in
  let rows =
    List.map
      (fun (name, mname, c) ->
        let r = get c in
        let result =
          match r.value with
          | Stamp_r s -> Report.f3 (ms s.C.cycles) ^ " ms" ^ if C.ok s then "" else "!"
          | Intset_r i ->
              Report.f2 i.Intset.throughput_tx_per_us ^ " tx/us"
              ^ if i.Intset.size_ok then "" else "!"
          | Serve_r s ->
              Printf.sprintf "%s req/ms p99=%d%s" (Report.f2 s.Serve.r_achieved)
                s.Serve.r_p99
                (if s.Serve.r_invariant_ok && s.Serve.r_partition_ok then "" else "!")
          | Sweep_r _ -> invalid_arg "scale: sweep cell"
        in
        name :: mname :: result
        :: List.map
             (fun slot -> string_of_int r.window.(slot))
             Counters.[ invalidations; forwards; cross_socket_probes ])
      grid
  in
  [
    Report.make ~id:"scale"
      ~title:
        (Printf.sprintf
           "Extension: %d cores / %d sockets — fig4/fig5 slices + serving"
           threads topo.Params.topo_params.Params.n_sockets)
      ~notes:
        [
          "Coherence columns are per-cell deltas: write-invalidation events, \
           cache-to-cache forwards, cross-socket probe penalties.";
          "A trailing '!' marks a failed self-check.";
        ]
      [ "workload"; "config"; "result"; "inval"; "fwd"; "xsock" ]
      rows;
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

let clear_cache () = Hashtbl.reset memo
