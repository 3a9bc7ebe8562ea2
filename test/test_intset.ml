(* Tests for the IntegerSet benchmark: size consistency, determinism, the
   paper's qualitative orderings, and a replay of a real run's memory
   traffic through the cache hierarchy. *)

module Prng = Asf_engine.Prng
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Memsys = Asf_cache.Memsys
module Hierarchy = Asf_cache.Hierarchy
module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Variant = Asf_core.Variant
module Ops = Asf_dstruct.Ops
module Trbtree = Asf_dstruct.Trbtree
module Intset = Asf_intset.Intset

let quick structure =
  { (Intset.default_cfg structure) with Intset.txns_per_thread = 300; range = 256 }

let test_all_structures_all_modes () =
  List.iter
    (fun structure ->
      List.iter
        (fun (mname, mode, threads) ->
          let tm = Tm.default_config mode ~n_cores:threads in
          let r = Intset.run tm ~threads (quick structure) in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s size consistent" (Intset.structure_name structure) mname)
            true r.Intset.size_ok;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s txns" (Intset.structure_name structure) mname)
            (threads * 300)
            (Stats.commits r.Intset.stats))
        [
          ("llb8", Tm.Asf_mode Variant.llb8, 2);
          ("llb256", Tm.Asf_mode Variant.llb256, 4);
          ("llb8-l1", Tm.Asf_mode Variant.llb8_l1, 2);
          ("llb256-l1", Tm.Asf_mode Variant.llb256_l1, 4);
          ("stm", Tm.Stm_mode, 4);
          ("seq", Tm.Seq_mode, 1);
        ])
    [ Intset.Linked_list; Intset.Skip_list; Intset.Rb_tree; Intset.Hash_set ]

let test_early_release_helps_llb8_list () =
  (* The Fig. 8 effect: with a 128-element list, LLB-8 without early
     release runs serially; with early release it stays in hardware and
     achieves higher throughput. *)
  let run er =
    let cfg =
      { (Intset.default_cfg Intset.Linked_list) with
        Intset.range = 256; txns_per_thread = 300; early_release = er }
    in
    let tm = Tm.default_config (Tm.Asf_mode Variant.llb8) ~n_cores:4 in
    Intset.run tm ~threads:4 cfg
  in
  let plain = run false and er = run true in
  Alcotest.(check bool) "ER size ok" true er.Intset.size_ok;
  Alcotest.(check bool)
    (Printf.sprintf "ER fewer serial (%d < %d)"
       (Stats.serial_commits er.Intset.stats)
       (Stats.serial_commits plain.Intset.stats))
    true
    (Stats.serial_commits er.Intset.stats < Stats.serial_commits plain.Intset.stats);
  Alcotest.(check bool)
    (Printf.sprintf "ER faster (%.2f > %.2f)" er.Intset.throughput_tx_per_us
       plain.Intset.throughput_tx_per_us)
    true
    (er.Intset.throughput_tx_per_us > plain.Intset.throughput_tx_per_us)

let test_asf_beats_stm_single_thread () =
  List.iter
    (fun structure ->
      let run mode =
        let tm = Tm.default_config mode ~n_cores:1 in
        (Intset.run tm ~threads:1 (quick structure)).Intset.throughput_tx_per_us
      in
      let asf = run (Tm.Asf_mode Variant.llb256) and stm = run Tm.Stm_mode in
      Alcotest.(check bool)
        (Printf.sprintf "%s: asf (%.2f) > stm (%.2f)"
           (Intset.structure_name structure) asf stm)
        true (asf > stm))
    [ Intset.Linked_list; Intset.Skip_list; Intset.Rb_tree; Intset.Hash_set ]

let test_deterministic () =
  let run () =
    let tm = Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:4 in
    (Intset.run tm ~threads:4 (quick Intset.Rb_tree)).Intset.cycles
  in
  Alcotest.(check int) "same cycles" (run ()) (run ())

(* The hierarchy on real traffic. An 8-core dual-socket rb-tree run
   (range 1024, 20 % updates, LLB-8) records every memory access; the
   recording is replayed through a fresh hierarchy, which must end with
   the live run's cache and coherence counters, probes included. So the
   access hook sees every access the hierarchy answers, and the
   hierarchy's state depends on that access sequence alone. Widely read
   tree nodes give write probes many sharers to visit. *)
let n_replay_cores = 8

let record_rbtree_run () =
  let n_cores = n_replay_cores and range = 1024 in
  let tm =
    { (Tm.default_config (Tm.Asf_mode Variant.llb8) ~n_cores) with
      Tm.params = Params.dual_socket }
  in
  let sys = Tm.create tm in
  let setup_o = Ops.setup sys in
  let tree = Trbtree.create setup_o in
  let rng = Prng.create (tm.Tm.seed + 4242) in
  let n = ref 0 in
  while !n < range / 2 do
    let k = Prng.int rng range in
    if Trbtree.insert setup_o tree k k then incr n
  done;
  let accesses = ref [] in
  Memsys.set_access_hook (Tm.memsys sys)
    (Some
       (fun ~core ~addr ~write ~speculative:_ ->
         accesses := (core, Addr.line_of addr, write) :: !accesses));
  for core = 0 to n_cores - 1 do
    ignore
      (Tm.spawn sys ~core (fun ctx ->
           let o = Ops.tx ctx and rng = Tm.prng ctx in
           for _ = 1 to 300 do
             let k = Prng.int rng range and roll = Prng.int rng 200 in
             if roll < 20 then ignore (Tm.atomic ctx (fun () -> Trbtree.insert o tree k k))
             else if roll < 40 then ignore (Tm.atomic ctx (fun () -> Trbtree.remove o tree k))
             else ignore (Tm.atomic ctx (fun () -> Trbtree.mem o tree k))
           done))
  done;
  Tm.run sys;
  (Memsys.hierarchy (Tm.memsys sys), Array.of_list (List.rev !accesses))

let replay accesses =
  let h = Hierarchy.create Params.dual_socket ~n_cores:n_replay_cores in
  Array.iter
    (fun (core, line, write) -> ignore (Hierarchy.access h ~core ~line ~write))
    accesses;
  h

let counters h =
  let lv (s : Hierarchy.level_stats) = [ s.hits; s.misses ] in
  List.concat
    (List.init n_replay_cores (fun core ->
         lv (Hierarchy.l1_stats h ~core) @ lv (Hierarchy.l2_stats h ~core)))
  @ lv (Hierarchy.l3_stats h)
  @ [
      Hierarchy.forwards h;
      Hierarchy.invalidations h;
      Hierarchy.cross_socket_probes h;
      Hierarchy.probes h;
      Hierarchy.dir_high_water h;
    ]

let test_replay_matches_live_run () =
  let live, accesses = record_rbtree_run () in
  Alcotest.(check (list int)) "replay counters = live run's" (counters live)
    (counters (replay accesses));
  Alcotest.(check bool) "write probes visit sharers" true (Hierarchy.probes live > 0)

let () =
  Alcotest.run "intset"
    [
      ( "correctness",
        [
          Alcotest.test_case "all structures/modes" `Slow test_all_structures_all_modes;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "paper shapes",
        [
          Alcotest.test_case "early release" `Quick test_early_release_helps_llb8_list;
          Alcotest.test_case "asf > stm" `Slow test_asf_beats_stm_single_thread;
        ] );
      ( "hierarchy",
        [ Alcotest.test_case "replay matches the live run" `Quick test_replay_matches_live_run ] );
    ]
