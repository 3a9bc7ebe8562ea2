(* The benchmark's workloads and the bench-owned runners that execute them.

   Each workload is one fixed-size simulation per seed. [setup] splits
   the work into set-up (build the system, populate the structure; for
   serve, the capacity probe) and the measured run, so the two can be
   timed apart.
   Every run ends in an [outcome] whose digest covers every simulated
   statistic the run reports, so repeats, seeds and commits can be
   compared exactly. *)

module Engine = Asf_engine.Engine
module Prng = Asf_engine.Prng
module Params = Asf_machine.Params
module Hierarchy = Asf_cache.Hierarchy
module Variant = Asf_core.Variant
module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Ops = Asf_dstruct.Ops
module Trbtree = Asf_dstruct.Trbtree
module Thashset = Asf_dstruct.Thashset
module Intset = Asf_intset.Intset
module Serve = Asf_serve.Serve
module Check = Asf_check.Check
module Txlin = Asf_txlin.Txlin

type intset = {
  mode : Tm.mode;
  params : Params.t;
  cores : int;
  set : Intset.cfg;
}

type serve = {
  service : Serve.service;
  s_cores : int;
  records : int;
  load : float;  (** offered load as a multiple of measured capacity *)
  queue_cap : int;
  deadline_us : float;
  requests : int;
}

type kind = Intset of intset | Serve of serve

type t = { name : string; kind : kind }

(* Sizes are chosen so one repeat (set-up + run) takes 0.3 to 0.7 s on a
   2-core Xeon container: a run then holds 20 to 50 repeats, each on its
   own seed, and its values average out what the seed moves. The serve
   workload runs over 512 records rather than kv-e's 1024 so that the
   scans of its committed requests nearly always chain every key into
   one Txlin group; over 1024 records a history of this length sits at
   the point where a gap in the covered keys splits the group, and
   Txlin's cost jumps between seeds. [smoke] shrinks every workload to a
   few milliseconds for the build-time smoke run. *)
let all ~smoke =
  let sz full small = if smoke then small else full in
  let rbtree = { (Intset.default_cfg Intset.Rb_tree) with Intset.update_pct = 20 } in
  [
    (* The paper's core microbenchmark on the ASF hardware path with real
       contention; the engine scheduler is busy. *)
    {
      name = "rbtree-asf8";
      kind =
        Intset
          {
            mode = Tm.Asf_mode Variant.llb256;
            params = Params.barcelona;
            cores = 8;
            set = { rbtree with Intset.txns_per_thread = sz 2000 40 };
          };
    };
    (* The STM baseline of every figure: exercises TinySTM and no ASF
       work, with orec traffic that loads the cache layer differently. *)
    {
      name = "rbtree-stm8";
      kind =
        Intset
          {
            mode = Tm.Stm_mode;
            params = Params.barcelona;
            cores = 8;
            set = { rbtree with Intset.txns_per_thread = sz 1500 40 };
          };
    };
    (* 256 cores on 8 sockets: the calendar queue, limited-pointer
       sharers, cross-socket probes, heavy aborts and serial commits. *)
    {
      name = "rbtree-asf256";
      kind =
        Intset
          {
            mode = Tm.Asf_mode Variant.llb256;
            params = Params.topo_256c8s.Params.topo_params;
            cores = Params.topo_256c8s.Params.topo_cores;
            set =
              {
                rbtree with
                Intset.range = sz 8192 512;
                txns_per_thread = sz 4 2;
              };
          };
    };
    (* One core, no coherence and fully fused scheduling: TLB and L3
       misses dominate, and the large populate weighs on set-up. *)
    {
      name = "hashset-asf1";
      kind =
        Intset
          {
            mode = Tm.Asf_mode Variant.llb256;
            params = Params.barcelona;
            cores = 1;
            set =
              {
                (Intset.default_cfg Intset.Hash_set) with
                Intset.range = sz 128_000 4096;
                update_pct = 20;
                txns_per_thread = sz 100_000 500;
              };
          };
    };
    (* Open-loop overload on the serve harness with Txcheck and the Txlin
       oracle on: the only workload with serve, check and txlin work. *)
    {
      name = "serve-kve-checked";
      kind =
        Serve
          {
            service = Serve.Kv Serve.E;
            s_cores = 4;
            records = 512;
            load = 2.5;
            queue_cap = 8;
            deadline_us = 4.0;
            requests = sz 3000 150;
          };
    };
  ]

let find ~smoke name = List.find_opt (fun w -> w.name = name) (all ~smoke)

let tm_config w ~seed =
  match w.kind with
  | Intset i ->
      { (Tm.default_config i.mode ~n_cores:i.cores) with Tm.params = i.params; seed }
  | Serve s ->
      { (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:s.s_cores) with
        Tm.seed = seed;
      }

(* ------------------------------------------------------------------ *)
(* Outcomes and digests                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  summary : string;  (** canonical text of every simulated statistic *)
  problems : string list;  (** failed self-checks; [] when correct *)
  txns : int;  (** committed transactions (serve: completed requests) *)
}

let digest o = Digest.to_hex (Digest.string o.summary)

(* Coherence traffic is read as deltas of the domain-wide counters, so
   the same numbers exist for runs whose hierarchy is internal
   ([Intset.run], [Serve.run]). [probes] is left out on purpose: it
   depends on the sharer-set representation, not on the simulation. *)
let with_coherence f =
  let c0 = Hierarchy.domain_coherence () in
  let r = f () in
  let c1 = Hierarchy.domain_coherence () in
  (r, Printf.sprintf "inval=%d fwd=%d cross=%d" (c1.(0) - c0.(0)) (c1.(1) - c0.(1))
        (c1.(2) - c0.(2)))

let stats_summary s =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "commits=%d serial=%d attempts=%d aborts=%s cycles=%s"
    (Stats.commits s) (Stats.serial_commits s) (Stats.attempts s)
    (ints (Stats.aborts s)) (ints (Stats.cycles s))

let intset_outcome (r : Intset.result) ~coh =
  {
    summary =
      Printf.sprintf "txns=%d makespan=%d final_size=%d size_ok=%b %s %s"
        r.Intset.txns r.cycles r.final_size r.size_ok (stats_summary r.stats) coh;
    problems = (if r.size_ok then [] else [ "final set size inconsistent" ]);
    txns = r.txns;
  }

(* ------------------------------------------------------------------ *)
(* The IntegerSet runner                                                *)
(* ------------------------------------------------------------------ *)

(* A bench-owned copy of [Intset.run] split at the set-up/run boundary
   and exposing the system, so the run can be timed apart from the
   populate and observed through [Memsys.set_access_hook]. The test
   suite pins it to [Intset.run]'s digest. *)

type set_ops = {
  contains : Ops.t -> int -> bool;
  add : Ops.t -> int -> bool;
  remove : Ops.t -> int -> bool;
  size : Ops.t -> int;
}

let set_ops (c : Intset.cfg) o =
  match c.structure with
  | Intset.Rb_tree ->
      let t = Trbtree.create o in
      {
        contains = (fun o k -> Trbtree.mem o t k);
        add = (fun o k -> Trbtree.insert o t k k);
        remove = (fun o k -> Trbtree.remove o t k);
        size = (fun o -> Trbtree.size o t);
      }
  | Intset.Hash_set ->
      let t = Thashset.create o ~buckets:c.buckets in
      {
        contains = (fun o k -> Thashset.contains o t k);
        add = (fun o k -> Thashset.add o t k);
        remove = (fun o k -> Thashset.remove o t k);
        size = (fun o -> Thashset.size o t);
      }
  | Intset.Linked_list | Intset.Skip_list ->
      invalid_arg "Workload.set_ops: only the rb-tree and hash-set are benchmarked"

type built = {
  sys : Tm.system;
  tm : Tm.config;
  threads : int;
  cfg : Intset.cfg;
  set : set_ops;
  setup_o : Ops.t;
  init : int;
}

let build (tm : Tm.config) ~threads (cfg : Intset.cfg) =
  let sys = Tm.create tm in
  let setup_o = Ops.setup sys in
  let set = set_ops cfg setup_o in
  let init = Option.value cfg.init_size ~default:(cfg.range / 2) in
  let rng = Prng.create (tm.Tm.seed + 4242) in
  let n = ref 0 in
  while !n < init do
    if set.add setup_o (Prng.int rng cfg.range) then incr n
  done;
  { sys; tm; threads; cfg; set; setup_o; init }

let run b =
  let cfg = b.cfg and set = b.set in
  let net = Array.make cfg.range 0 in
  let ctxs =
    List.init b.threads (fun core ->
        Tm.spawn b.sys ~core (fun ctx ->
            let o = if cfg.early_release then Ops.tx_er ctx else Ops.tx ctx in
            let rng = Tm.prng ctx in
            for _ = 1 to cfg.txns_per_thread do
              let k = Prng.int rng cfg.range in
              let roll = Prng.int rng 200 in
              if roll < cfg.update_pct then begin
                if Tm.atomic ctx (fun () -> set.add o k) then net.(k) <- net.(k) + 1
              end
              else if roll < 2 * cfg.update_pct then begin
                if Tm.atomic ctx (fun () -> set.remove o k) then
                  net.(k) <- net.(k) - 1
              end
              else ignore (Tm.atomic ctx (fun () -> set.contains o k))
            done))
  in
  Tm.run b.sys;
  let cycles = Tm.makespan b.sys in
  let stats = Stats.create () in
  List.iter (fun c -> Stats.add (Tm.stats c) ~into:stats) ctxs;
  let txns = b.threads * cfg.txns_per_thread in
  let final_size = set.size b.setup_o in
  let expected = b.init + Array.fold_left ( + ) 0 net in
  {
    Intset.txns;
    cycles;
    throughput_tx_per_us =
      float_of_int txns /. Params.cycles_to_us b.tm.Tm.params cycles;
    stats;
    final_size;
    size_ok = final_size = expected;
  }

(* ------------------------------------------------------------------ *)
(* The serve runner                                                     *)
(* ------------------------------------------------------------------ *)

type serve_setup = { s_tm : Tm.config; s_cfg : Serve.cfg; capacity : float }

(* Mirrors the pinned overload scenario of bench/main.ml: a closed-loop
   capacity probe, then Poisson arrivals at [load] times that capacity. *)
let serve_setup s tm =
  let deadline = int_of_float (s.deadline_us *. tm.Tm.params.Params.ghz *. 1000.) in
  let base =
    {
      (Serve.default_cfg s.service) with
      Serve.requests = s.requests;
      records = s.records;
      queue_cap = s.queue_cap;
      deadline = Some deadline;
      record = true;
    }
  in
  let capacity = Serve.measure_capacity tm ~threads:s.s_cores base in
  let cycles_per_ms = 1.0 /. Params.cycles_to_ms tm.Tm.params 1 in
  let mean_gap =
    max 1 (int_of_float (cycles_per_ms /. Float.max 1e-9 (capacity *. s.load)))
  in
  { s_tm = tm; s_cfg = { base with Serve.arrival = Serve.Poisson { mean_gap } }; capacity }

(* One serve run, with Txcheck attached when [checked]. Returns the
   result, its coherence summary and the checker's violation count. *)
let serve_run ~checked s st =
  let chk = if checked then Some (Check.create ()) else None in
  Option.iter Check.install chk;
  let r, coh =
    Fun.protect ~finally:Check.uninstall (fun () ->
        with_coherence (fun () -> Serve.run st.s_tm ~threads:s.s_cores st.s_cfg))
  in
  let violations =
    match chk with
    | None -> 0
    | Some c ->
        Check.finalize c;
        List.length (Check.violations c)
  in
  (r, coh, violations)

let serve_outcome st (r : Serve.result) ~coh ~violations (v : Txlin.verdict) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  {
    summary =
      Printf.sprintf
        "capacity=%h arrivals=%d completed=%d shed=%d timeout=%d late=%d \
         retries=%d hist=%s timeout_aborts=%d serial_served=%d max_depth=%d \
         max_dl_wait=%d gov=%d,%d,%d,%s p=%d,%d,%d,%d,%d mean=%h span=%d \
         makespan=%d offered=%h achieved=%h invariant=%b partition=%b \
         events=%d %s %s violations=%d lin=%b,%b,%d,%d,%d"
        st.capacity r.Serve.r_arrivals r.r_completed r.r_shed r.r_timeout
        r.r_late r.r_retries (ints r.r_retry_hist) r.r_timeout_aborts
        r.r_serial_served r.r_max_depth r.r_max_dl_wait r.r_gov_to_shed
        r.r_gov_to_serial r.r_gov_recovered r.r_final_gov r.r_p50 r.r_p90
        r.r_p99 r.r_p999 r.r_max_lat r.r_mean_lat r.r_span r.r_makespan
        r.r_offered r.r_achieved r.r_invariant_ok r.r_partition_ok
        (Array.length r.r_events) (stats_summary r.r_stats) coh violations
        v.Txlin.v_ok v.v_inconclusive v.v_obligations v.v_absent v.v_groups;
    problems =
      List.concat
        [
          (if r.r_partition_ok then [] else [ "serve outcome partition violated" ]);
          (if r.r_invariant_ok then []
           else [ "serve invariant violated: " ^ r.r_invariant_msg ]);
          (if violations = 0 then []
           else [ Printf.sprintf "Txcheck: %d violation(s)" violations ]);
          (if v.v_ok then [] else [ "Txlin: " ^ v.v_detail ]);
        ];
    txns = r.r_completed;
  }

(* ------------------------------------------------------------------ *)
(* Set-up and run                                                       *)
(* ------------------------------------------------------------------ *)

(* [setup w ~seed ()] builds a fresh system and returns its measured
   run. *)
let setup w ~seed () =
  let tm = tm_config w ~seed in
  match w.kind with
  | Intset i ->
      let b = build tm ~threads:i.cores i.set in
      fun () ->
        let r, coh = with_coherence (fun () -> run b) in
        intset_outcome r ~coh
  | Serve s ->
      let st = serve_setup s tm in
      fun () ->
        let r, coh, violations = serve_run ~checked:true s st in
        serve_outcome st r ~coh ~violations (Txlin.check_result st.s_cfg r)
