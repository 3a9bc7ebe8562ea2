(* The traced run: one extra run per workload that yields the per-layer
   numbers. It is never used for end-to-end metrics.

   IntegerSet workloads record every memory access through
   [Memsys.set_access_hook] into two int arrays, then time each layer's
   public entry point alone on the recorded traffic — [Hierarchy.access]
   on a fresh hierarchy, [Tlb.translate] on a fresh TLB with every page
   mapped, and [Engine.spawn]/[elapse]/[run] replaying each core's
   cycle gaps between accesses. A layer's estimated seconds are its
   replay cost per operation times the real run's operation count.

   The serve workload's system is internal to [Serve.run], so its layers
   are timed by calling [Serve.measure_capacity], [Serve.run] with and
   without Txcheck, and [Txlin.check_result] separately; counters come
   from the domain-wide engine and coherence totals. *)

module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Params = Asf_machine.Params
module Memsys = Asf_cache.Memsys
module Hierarchy = Asf_cache.Hierarchy
module Tlb = Asf_cache.Tlb
module Abort = Asf_core.Abort
module Asf = Asf_core.Asf
module Tinystm = Asf_stm.Tinystm
module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Recording                                                            *)
(* ------------------------------------------------------------------ *)

(* One access packs into one int: word address, core (< 256), write
   bit. [cycles] holds the core clock at the access. Past [cap] entries
   (64 MB of arrays) only [total] keeps counting. *)
type recording = {
  mutable keys : int array;
  mutable cycles : int array;
  mutable n : int;
  mutable total : int;
}

let cap = 1 lsl 22

let key_addr k = k lsr 9

let key_core k = (k lsr 1) land 0xff

let key_write k = k land 1 = 1

let grow a n = Array.append a (Array.make n 0)

let hook r engine ~core ~addr ~write ~speculative:_ =
  r.total <- r.total + 1;
  if r.n < cap then begin
    if r.n = Array.length r.keys then begin
      let extra = min r.n (cap - r.n) in
      r.keys <- grow r.keys extra;
      r.cycles <- grow r.cycles extra
    end;
    r.keys.(r.n) <- (addr lsl 9) lor (core lsl 1) lor Bool.to_int write;
    r.cycles.(r.n) <- Engine.core_time engine core;
    r.n <- r.n + 1
  end

(* Run [f] with every access of [sys] recorded. *)
let record sys f =
  if (Tm.config sys).Tm.n_cores > 256 then
    invalid_arg "Traced.record: at most 256 cores fit the packed key";
  let r = { keys = Array.make 4096 0; cycles = Array.make 4096 0; n = 0; total = 0 } in
  let mem = Tm.memsys sys in
  Memsys.set_access_hook mem (Some (hook r (Tm.engine sys)));
  let v = Fun.protect ~finally:(fun () -> Memsys.set_access_hook mem None) f in
  (v, r)

(* ------------------------------------------------------------------ *)
(* Replays                                                              *)
(* ------------------------------------------------------------------ *)

let replay_hierarchy params ~n_cores r =
  let h = Hierarchy.create params ~n_cores in
  let m0 = Gc.minor_words () in
  let (), dt =
    time (fun () ->
        for i = 0 to r.n - 1 do
          let k = r.keys.(i) in
          ignore
            (Hierarchy.access h ~core:(key_core k)
               ~line:(Addr.line_of (key_addr k))
               ~write:(key_write k)
              : int)
        done)
  in
  (h, dt, Gc.minor_words () -. m0)

let replay_tlb (params : Params.t) ~n_cores r =
  let t = Tlb.create params ~n_cores in
  for i = 0 to r.n - 1 do
    Tlb.map_page t (Addr.page_of (key_addr r.keys.(i)))
  done;
  let walks = ref 0 in
  let (), dt =
    time (fun () ->
        for i = 0 to r.n - 1 do
          let k = r.keys.(i) in
          match Tlb.translate t ~core:(key_core k) (key_addr k) ~speculative:false with
          | Tlb.Translated extra -> if extra >= params.page_walk_latency then incr walks
          | Tlb.Fault _ | Tlb.Tlb_miss_abort _ -> ()
        done)
  in
  (dt, !walks)

(* Each core replays the cycle gaps between its recorded accesses as
   elapses, so the scheduler sees the run's per-core timing. *)
let replay_engine ~n_cores r =
  let counts = Array.make n_cores 0 in
  for i = 0 to r.n - 1 do
    let c = key_core r.keys.(i) in
    counts.(c) <- counts.(c) + 1
  done;
  let gaps = Array.map (fun n -> Array.make n 0) counts in
  let last = Array.make n_cores 0 and fill = Array.make n_cores 0 in
  for i = 0 to r.n - 1 do
    let c = key_core r.keys.(i) in
    gaps.(c).(fill.(c)) <- r.cycles.(i) - last.(c);
    last.(c) <- r.cycles.(i);
    fill.(c) <- fill.(c) + 1
  done;
  let e = Engine.create ~n_cores () in
  let (), dt =
    time (fun () ->
        Array.iteri (fun core g -> Engine.spawn e ~core (fun () -> Array.iter Engine.elapse g)) gaps;
        Engine.run e)
  in
  (dt, Engine.fused_elapses e + Engine.scheduled_elapses e)

(* The replay measures the same traffic as the run only if a fresh
   hierarchy fed the recorded stream ends in the run's exact state. *)
let fidelity ~n_cores ~real ~replayed =
  let lv name (a : Hierarchy.level_stats) (b : Hierarchy.level_stats) =
    if a.hits = b.hits && a.misses = b.misses then []
    else
      [ Printf.sprintf "replay %s: %d/%d hits/misses, run %d/%d" name b.hits b.misses
          a.hits a.misses ]
  in
  let cnt name f =
    if f real = f replayed then []
    else [ Printf.sprintf "replay %s: %d, run %d" name (f replayed) (f real) ]
  in
  List.concat
    (List.init n_cores (fun core ->
         lv (Printf.sprintf "core %d L1" core) (Hierarchy.l1_stats real ~core)
           (Hierarchy.l1_stats replayed ~core)
         @ lv (Printf.sprintf "core %d L2" core) (Hierarchy.l2_stats real ~core)
             (Hierarchy.l2_stats replayed ~core))
    @ [
        lv "L3" (Hierarchy.l3_stats real) (Hierarchy.l3_stats replayed);
        cnt "forwards" Hierarchy.forwards;
        cnt "invalidations" Hierarchy.invalidations;
      ])

(* ------------------------------------------------------------------ *)
(* Layer metrics                                                        *)
(* ------------------------------------------------------------------ *)

let level_miss_ratio stats =
  let h, m =
    List.fold_left
      (fun (h, m) (s : Hierarchy.level_stats) -> (h + s.hits, m + s.misses))
      (0, 0) stats
  in
  ratio m (h + m)

let tm_layer (s : Stats.t) ~forced_serial =
  let cycles = Stats.cycles s in
  let in_tx = Array.fold_left ( + ) 0 cycles - cycles.(Stats.cat_outside) in
  [
    ("tm.attempts", float_of_int (Stats.attempts s));
    ("tm.serial_ratio", ratio (Stats.serial_commits s) (Stats.commits s));
    ("tm.forced_serial", float_of_int forced_serial);
    ("tm.abort_waste_ratio", ratio cycles.(Stats.cat_abort_waste) in_tx);
  ]

type traced = {
  outcome : Workload.outcome;
  seconds : float;  (** host seconds of the traced pass *)
  explained_s : float;  (** seconds attributed to layers timed alone *)
  layers : (string * float) list;
  problems : string list;
}

let intset (w : Workload.t) (i : Workload.intset) ~seed =
  let tm = Workload.tm_config w ~seed in
  let b = Workload.build tm ~threads:i.cores i.set in
  let ((res, coh), r), seconds =
    time (fun () -> record b.sys (fun () -> Workload.with_coherence (fun () -> Workload.run b)))
  in
  let sys = b.sys and n_cores = i.cores in
  let real = Memsys.hierarchy (Tm.memsys sys) in
  let eng = Tm.engine sys in
  let replayed, hier_s, hier_words = replay_hierarchy i.params ~n_cores r in
  let tlb_s, walks = replay_tlb i.params ~n_cores r in
  let engine_s, replay_events = replay_engine ~n_cores r in
  let events = Engine.fused_elapses eng + Engine.scheduled_elapses eng in
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let ns_event = 1e9 *. per replay_events engine_s in
  let hier_ns = 1e9 *. per r.n hier_s and tlb_ns = 1e9 *. per r.n tlb_s in
  let engine_est = ns_event *. float_of_int events /. 1e9 in
  let cache_est = (hier_ns +. tlb_ns) *. float_of_int r.total /. 1e9 in
  let cores = List.init n_cores Fun.id in
  let core_layer =
    match Tm.asf sys with
    | None -> []
    | Some a ->
        let ab r = float_of_int (Asf.aborts a).(Abort.index r) in
        [
          ("core.speculates", float_of_int (Asf.speculates a));
          ("core.commit_ratio", ratio (Asf.commits a) (Asf.speculates a));
          ("core.aborts_contention", ab Abort.Contention);
          ("core.aborts_capacity", ab Abort.Capacity);
          ("core.aborts_page_fault", ab (Abort.Page_fault 0));
        ]
  in
  let stm_layer =
    match Tm.stm sys with
    | None -> []
    | Some s ->
        [
          ("stm.starts", float_of_int (Tinystm.starts s));
          ("stm.commit_ratio", ratio (Tinystm.commits s) (Tinystm.starts s));
          ("stm.extensions", float_of_int (Tinystm.extensions s));
        ]
  in
  let layers =
    [
      ("engine.events", float_of_int events);
      ("engine.fused_ratio", ratio (Engine.fused_elapses eng) events);
      ("engine.max_pending", float_of_int (Engine.heap_high_water eng));
      ("engine.ns_per_event", ns_event);
      ("engine.est_s", engine_est);
      ("cache.accesses", float_of_int r.total);
      ( "cache.l1_miss_ratio",
        level_miss_ratio (List.map (fun core -> Hierarchy.l1_stats real ~core) cores) );
      ( "cache.l2_miss_ratio",
        level_miss_ratio (List.map (fun core -> Hierarchy.l2_stats real ~core) cores) );
      ("cache.l3_miss_ratio", level_miss_ratio [ Hierarchy.l3_stats real ]);
      ("cache.forwards", float_of_int (Hierarchy.forwards real));
      ("cache.invalidations", float_of_int (Hierarchy.invalidations real));
      ("cache.probes", float_of_int (Hierarchy.probes real));
      ("cache.cross_socket_probes", float_of_int (Hierarchy.cross_socket_probes real));
      ("cache.dir_lines", float_of_int (Hierarchy.dir_high_water real));
      ("cache.hier_ns_per_access", hier_ns);
      ("cache.tlb_ns_per_access", tlb_ns);
      ("cache.tlb_walk_ratio", ratio walks r.n);
      ("cache.replay_minor_words_per_access", per r.n hier_words);
      ("cache.est_s", cache_est);
      ("traced.recorded_share", ratio r.n r.total);
    ]
    @ core_layer @ stm_layer
    @ tm_layer res.stats ~forced_serial:(Tm.forced_serial_count sys)
  in
  {
    outcome = Workload.intset_outcome res ~coh;
    seconds;
    explained_s = engine_est +. cache_est;
    layers;
    problems =
      (if r.n = r.total then fidelity ~n_cores ~real ~replayed else []);
  }

(* The history prefix of every request that committed by the [k]-th
   commit, plus the absent ones invoked by then. Requests a prefix member
   observed committed before it, so on a correct run every prefix is
   linearizable and the check's cost grows with the prefix alone. *)
let prefix (events : Serve.event array) k =
  let commit (e : Serve.event) =
    match e.ev_outcome with Serve.Ev_done { commit; _ } -> Some commit | _ -> None
  in
  let commits = Array.of_list (List.sort compare (List.filter_map commit (Array.to_list events))) in
  if commits = [||] then [||]
  else begin
    let cut = commits.(min (Array.length commits - 1) (max 0 (k - 1))) in
    Array.of_list
      (List.filter
         (fun (e : Serve.event) ->
           match commit e with Some c -> c <= cut | None -> e.ev_invoke <= cut)
         (Array.to_list events))
  end

let serve (w : Workload.t) (s : Workload.serve) ~seed =
  let tm = Workload.tm_config w ~seed in
  let st, probe_s = time (fun () -> Workload.serve_setup s tm) in
  let f0, s0 = Engine.sched_counters () and coh0 = Hierarchy.domain_coherence () in
  let (plain, plain_coh, _), plain_s =
    time (fun () -> Workload.serve_run ~checked:false s st)
  in
  let f1, s1 = Engine.sched_counters () and coh1 = Hierarchy.domain_coherence () in
  let (r, coh, violations), checked_s =
    time (fun () -> Workload.serve_run ~checked:true s st)
  in
  let v, txlin_s = time (fun () -> Txlin.check_result st.s_cfg r) in
  (* Growth per doubling of the history. With prefixes at n/4, n/2 and
     n the least-squares slope of log2 time over log2 size depends on
     the end points only, so the n/2 prefix is not checked. *)
  let quarter, quarter_s =
    let cfg = st.s_cfg in
    let evs = prefix r.r_events (r.r_completed / 4) in
    time (fun () ->
        Txlin.check ~service:cfg.service ~records:cfg.records ~accounts:cfg.accounts evs)
  in
  let scaling =
    if quarter_s > 0.0 then Float.log2 (txlin_s /. quarter_s) /. 2.0 else 0.0
  in
  let outcome = Workload.serve_outcome st r ~coh ~violations v in
  let plain_outcome = Workload.serve_outcome st plain ~coh:plain_coh ~violations v in
  let events = f1 - f0 + (s1 - s0) in
  let txcheck_s = checked_s -. plain_s in
  {
    outcome;
    seconds = checked_s +. txlin_s;
    explained_s = txcheck_s +. txlin_s;
    layers =
      [
        ("engine.events", float_of_int events);
        ("engine.fused_ratio", ratio (f1 - f0) events);
        ("cache.forwards", float_of_int (coh1.(1) - coh0.(1)));
        ("cache.invalidations", float_of_int (coh1.(0) - coh0.(0)));
        ("cache.probes", float_of_int (coh1.(3) - coh0.(3)));
        ("cache.cross_socket_probes", float_of_int (coh1.(2) - coh0.(2)));
        ("serve.capacity_probe_s", probe_s);
        ("serve.run_s", plain_s);
        ("serve.shed_ratio", ratio r.r_shed r.r_arrivals);
        ("serve.timeout_ratio", ratio r.r_timeout r.r_arrivals);
        ("check.txcheck_s", txcheck_s);
        ("check.violations", float_of_int violations);
        ("txlin.check_s", txlin_s);
        ("txlin.states", float_of_int v.v_states);
        ("txlin.us_per_event", 1e6 *. txlin_s /. float_of_int (max 1 (Array.length r.r_events)));
        ("txlin.scaling_exp", scaling);
      ]
      @ tm_layer r.r_stats ~forced_serial:0;
    problems =
      (if Workload.digest plain_outcome = Workload.digest outcome then []
       else [ "Txcheck changed the simulated run" ])
      @
      if quarter.Txlin.v_ok then []
      else [ "Txlin rejected a commit-ordered history prefix" ];
  }

let run (w : Workload.t) ~seed =
  match w.kind with
  | Workload.Intset i -> intset w i ~seed
  | Workload.Serve s -> serve w s ~seed
