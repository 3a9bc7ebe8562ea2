(* Tests for the ASF-TM runtime: atomic re-execution, serial-irrevocable
   fallback, transactional malloc, page-fault retries, interrupt aborts,
   cycle-category accounting, and equivalence of results across all
   execution modes. *)

module Engine = Asf_engine.Engine
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Abort = Asf_core.Abort
module Variant = Asf_core.Variant
module Stats = Asf_tm_rt.Stats
module Txmalloc = Asf_tm_rt.Txmalloc
module Tm = Asf_tm_rt.Tm

let mk ?(n_cores = 4) ?(tweak = fun c -> c) mode =
  Tm.create (tweak (Tm.default_config mode ~n_cores))

let all_modes =
  [
    ("asf-llb8", Tm.Asf_mode Variant.llb8);
    ("asf-llb256", Tm.Asf_mode Variant.llb256);
    ("asf-llb8-l1", Tm.Asf_mode Variant.llb8_l1);
    ("asf-llb256-l1", Tm.Asf_mode Variant.llb256_l1);
    ("stm", Tm.Stm_mode);
  ]

(* ------------------------------------------------------------------ *)
(* Counter correctness across all modes                                 *)
(* ------------------------------------------------------------------ *)

let counter_run mode n_cores per_core =
  let sys = mk ~n_cores mode in
  let counter = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys counter 0;
  let ctxs =
    List.init n_cores (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            for _ = 1 to per_core do
              Tm.atomic ctx (fun () ->
                  let v = Tm.load ctx counter in
                  Tm.store ctx counter (v + 1))
            done))
  in
  Tm.run sys;
  (Tm.setup_peek sys counter, ctxs)

let test_counter_all_modes () =
  List.iter
    (fun (name, mode) ->
      let total, _ = counter_run mode 4 100 in
      Alcotest.(check int) (name ^ ": no lost updates") 400 total)
    all_modes

let test_counter_stats_consistent () =
  let total, ctxs = counter_run (Tm.Asf_mode Variant.llb256) 4 100 in
  Alcotest.(check int) "total" 400 total;
  let agg = Stats.create () in
  List.iter (fun c -> Stats.add (Tm.stats c) ~into:agg) ctxs;
  Alcotest.(check int) "commits = txns" 400 (Stats.commits agg);
  Alcotest.(check int) "attempts = commits + aborts" (Stats.commits agg + Stats.total_aborts agg)
    (Stats.attempts agg)

(* ------------------------------------------------------------------ *)
(* Serial fallback                                                      *)
(* ------------------------------------------------------------------ *)

let test_capacity_goes_serial () =
  (* A transaction touching 40 lines cannot run on LLB-8: it must fall
     back to serial-irrevocable mode, still committing correctly. *)
  let sys = mk ~n_cores:2 (Tm.Asf_mode Variant.llb8) in
  let arr = Tm.setup_alloc sys (40 * Addr.words_per_line) in
  for i = 0 to 39 do
    Tm.setup_poke sys (arr + (i * Addr.words_per_line)) 1
  done;
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        Tm.atomic ctx (fun () ->
            for i = 0 to 39 do
              let a = arr + (i * Addr.words_per_line) in
              Tm.store ctx a (Tm.load ctx a + 1)
            done))
  in
  Tm.run sys;
  for i = 0 to 39 do
    Alcotest.(check int) "updated" 2 (Tm.setup_peek sys (arr + (i * Addr.words_per_line)))
  done;
  let st = Tm.stats ctx in
  Alcotest.(check int) "one serial commit" 1 (Stats.serial_commits st);
  Alcotest.(check bool) "capacity abort recorded" true
    ((Stats.aborts st).(Abort.index Abort.Capacity) >= 1)

let test_serial_excludes_hardware_txns () =
  (* While core 0 is serial, core 1's hardware transactions must not
     commit concurrently: total order preserved, sum conserved. *)
  let sys = mk ~n_cores:2 (Tm.Asf_mode Variant.llb8) in
  let a = Tm.setup_alloc sys 1 and b = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys a 1000;
  Tm.setup_poke sys b 0;
  let big = Tm.setup_alloc sys (40 * Addr.words_per_line) in
  let _c0 =
    Tm.spawn sys ~core:0 (fun ctx ->
        for _ = 1 to 5 do
          Tm.atomic ctx (fun () ->
              (* Large: always serial on LLB-8. Moves 10 from a to b and
                 touches 40 lines to stay slow. *)
              for i = 0 to 39 do
                let addr = big + (i * Addr.words_per_line) in
                Tm.store ctx addr (Tm.load ctx addr + 1)
              done;
              let va = Tm.load ctx a in
              let vb = Tm.load ctx b in
              Tm.store ctx a (va - 10);
              Tm.store ctx b (vb + 10))
        done)
  in
  let _c1 =
    Tm.spawn sys ~core:1 (fun ctx ->
        for _ = 1 to 50 do
          Tm.atomic ctx (fun () ->
              let va = Tm.load ctx a in
              let vb = Tm.load ctx b in
              Tm.store ctx a (va - 1);
              Tm.store ctx b (vb + 1))
        done)
  in
  Tm.run sys;
  Alcotest.(check int) "sum conserved"
    1000
    (Tm.setup_peek sys a + Tm.setup_peek sys b);
  Alcotest.(check int) "all transfers happened" (1000 - 50 - 50)
    (Tm.setup_peek sys a)

(* ------------------------------------------------------------------ *)
(* Page faults and malloc                                               *)
(* ------------------------------------------------------------------ *)

let test_malloc_inside_txn () =
  (* Allocate nodes inside transactions; freshly touched pages fault and
     the transactions retry successfully. Committed allocations persist. *)
  let sys = mk ~n_cores:2 (Tm.Asf_mode Variant.llb256) in
  let head = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys head 0;
  (* Enough nodes that the allocation pool crosses page boundaries: the
     first store to a fresh page inside a region must fault-abort. *)
  let n = 400 in
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        for i = 1 to n do
          Tm.atomic ctx (fun () ->
              let node = Tm.malloc ctx 2 in
              Tm.store ctx node i;
              Tm.store ctx (node + 1) (Tm.load ctx head);
              Tm.store ctx head node)
        done)
  in
  Tm.run sys;
  (* Walk the list (setup access) and count nodes. *)
  let rec count addr acc =
    if addr = 0 then acc else count (Tm.setup_peek sys (addr + 1)) (acc + 1)
  in
  Alcotest.(check int) "all nodes linked" n (count (Tm.setup_peek sys head) 0);
  let st = Tm.stats ctx in
  Alcotest.(check bool) "page-fault aborts happened" true
    ((Stats.aborts st).(Abort.index (Abort.Page_fault 0)) >= 1)

let test_aborted_alloc_rolled_back () =
  (* An allocation in an explicitly aborted attempt must be returned to
     the pool: allocate-and-abort twice, then allocate for real — the pool
     hands back the same address. *)
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let seen = ref [] in
  let _ =
    Tm.spawn sys ~core:0 (fun ctx ->
        let tries = ref 0 in
        Tm.atomic ctx (fun () ->
            incr tries;
            let node = Tm.malloc ctx 4 in
            seen := node :: !seen;
            Tm.store ctx node 1;
            (* First (hardware) attempt aborts to serial; its allocation
               must be rolled back so the serial retry gets the same
               block. *)
            if !tries = 1 then Tm.irrevocable ctx))
  in
  Tm.run sys;
  match !seen with
  | [ serial_attempt; hw_attempt ] ->
      Alcotest.(check int) "rollback reuses address" hw_attempt serial_attempt
  | l -> Alcotest.failf "expected 2 attempts, got %d" (List.length l)

let test_free_deferred_to_commit () =
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let addr = ref 0 in
  let _ =
    Tm.spawn sys ~core:0 (fun ctx ->
        let a = Tm.atomic ctx (fun () -> Tm.malloc ctx 4) in
        addr := a;
        Tm.atomic ctx (fun () -> Tm.free ctx a 4);
        (* After the freeing txn commits, the block is reusable. *)
        let b = Tm.atomic ctx (fun () -> Tm.malloc ctx 4) in
        Alcotest.(check int) "freed block recycled" a b)
  in
  Tm.run sys

(* ------------------------------------------------------------------ *)
(* Interrupts                                                           *)
(* ------------------------------------------------------------------ *)

let test_interrupt_aborts_long_txn () =
  let tweak c =
    { c with Tm.params = { c.Tm.params with Params.interrupt_quantum = 5000 } }
  in
  let sys = mk ~n_cores:1 ~tweak (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        Tm.atomic ctx (fun () ->
            (* Burn more than a quantum inside the region. *)
            Tm.work ctx 20_000;
            Tm.store ctx a 1))
  in
  Tm.run sys;
  Alcotest.(check int) "eventually committed (serial)" 1 (Tm.setup_peek sys a);
  let st = Tm.stats ctx in
  Alcotest.(check bool) "interrupt aborts recorded" true
    ((Stats.aborts st).(Abort.index Abort.Interrupt) >= 1)

let test_interrupt_retry_commits_hardware () =
  (* An interrupt abort is transient: the retry must succeed in hardware
     (no serial fallback). With regions much shorter than the quantum
     tiling the timeline back to back, some region must straddle a
     boundary — and its retry, starting just past that boundary, fits
     inside the fresh quantum. *)
  let tweak c =
    { c with Tm.params = { c.Tm.params with Params.interrupt_quantum = 5000 } }
  in
  let sys = mk ~n_cores:1 ~tweak (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  let txns = 20 in
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        for _ = 1 to txns do
          Tm.atomic ctx (fun () ->
              Tm.work ctx 1200;
              Tm.store ctx a (Tm.load ctx a + 1))
        done)
  in
  Tm.run sys;
  Alcotest.(check int) "all committed" txns (Tm.setup_peek sys a);
  let st = Tm.stats ctx in
  Alcotest.(check bool) "interrupt abort recorded" true
    ((Stats.aborts st).(Abort.index Abort.Interrupt) >= 1);
  Alcotest.(check int) "retried in hardware, not serial" 0 (Stats.serial_commits st);
  Alcotest.(check int) "every txn committed exactly once" txns (Stats.commits st)

let test_syscall_goes_serial () =
  (* [irrevocable] aborts the hardware attempt with [Syscall]; the policy
     restarts it directly on the serial path (never a hardware retry). *)
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        Tm.atomic ctx (fun () ->
            Tm.store ctx a (Tm.load ctx a + 1);
            Tm.irrevocable ctx;
            Alcotest.(check bool) "now serial" true (Tm.serial_mode ctx)))
  in
  Tm.run sys;
  Alcotest.(check int) "committed" 1 (Tm.setup_peek sys a);
  let st = Tm.stats ctx in
  Alcotest.(check int) "one syscall abort" 1
    (Stats.aborts st).(Abort.index Abort.Syscall);
  Alcotest.(check int) "one serial commit" 1 (Stats.serial_commits st);
  Alcotest.(check int) "exactly two attempts" 2 (Stats.attempts st)

(* ------------------------------------------------------------------ *)
(* Selective annotation                                                 *)
(* ------------------------------------------------------------------ *)

let test_annotation_avoids_capacity () =
  (* 30 scratch lines accessed non-transactionally fit fine in LLB-8;
     with the ablation (everything transactional) the same body must fall
     back to serial. *)
  let run ~annot =
    let tweak c = { c with Tm.selective_annotation = annot } in
    let sys = mk ~n_cores:1 ~tweak (Tm.Asf_mode Variant.llb8) in
    let scratch = Tm.setup_alloc sys (30 * Addr.words_per_line) in
    let x = Tm.setup_alloc sys 1 in
    for i = 0 to 29 do
      Tm.setup_poke sys (scratch + (i * Addr.words_per_line)) i
    done;
    let ctx =
      Tm.spawn sys ~core:0 (fun ctx ->
          Tm.atomic ctx (fun () ->
              let acc = ref 0 in
              for i = 0 to 29 do
                acc := !acc + Tm.nload ctx (scratch + (i * Addr.words_per_line))
              done;
              Tm.store ctx x !acc))
    in
    Tm.run sys;
    (Tm.setup_peek sys x, Stats.serial_commits (Tm.stats ctx))
  in
  let expected = 30 * 29 / 2 in
  let v1, serial1 = run ~annot:true in
  Alcotest.(check int) "annotated result" expected v1;
  Alcotest.(check int) "annotated stays hardware" 0 serial1;
  let v2, serial2 = run ~annot:false in
  Alcotest.(check int) "ablation result" expected v2;
  Alcotest.(check int) "ablation forced serial" 1 serial2

(* ------------------------------------------------------------------ *)
(* Cycle accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_cycle_categories_cover_txn_time () =
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        for _ = 1 to 20 do
          Tm.atomic ctx (fun () ->
              Tm.work ctx 100;
              Tm.store ctx a (Tm.load ctx a + 1))
        done)
  in
  Tm.run sys;
  let st = Tm.stats ctx in
  let cy = Stats.cycles st in
  Alcotest.(check bool) "app cycles counted" true (cy.(Stats.cat_app) >= 20 * 100);
  Alcotest.(check bool) "ld/st cycles counted" true (cy.(Stats.cat_ld_st) > 0);
  Alcotest.(check bool) "start/commit cycles counted" true
    (cy.(Stats.cat_start_commit) > 0);
  Alcotest.(check int) "no serial cycles" 0 (cy.(Stats.cat_non_instr));
  (* Categories (sans outside) must not exceed the makespan. *)
  let inside =
    cy.(Stats.cat_app) + cy.(Stats.cat_ld_st) + cy.(Stats.cat_start_commit)
    + cy.(Stats.cat_abort_waste) + cy.(Stats.cat_non_instr)
  in
  Alcotest.(check bool) "inside <= makespan" true (inside <= Tm.makespan sys)

(* One core, no conflicts: a committed transaction's application
   category is exactly its [work], even when its first attempt was
   retried (that attempt folds into abort waste), and the work between
   transactions lands outside. Pins both exits of the runtime's category
   brackets: one that skipped its exit on an abort would leave the
   category stack pointing inside the transaction for the rest of the
   run. The first load of an unmapped page makes the ASF run's first
   attempt abort inside [Tm.load]; [Tm.retry] aborts the body. *)
let test_app_cycles_exact_across_retry () =
  List.iter
    (fun (mode, load_faults) ->
      let txns = 10 in
      let sys = mk ~n_cores:1 mode in
      let ctx =
        Tm.spawn sys ~core:0 (fun ctx ->
            for _ = 1 to txns do
              let first = ref true in
              Tm.atomic ctx (fun () ->
                  (* Word 1M: never allocated, its page unmapped. *)
                  ignore (Tm.load ctx (1 lsl 20));
                  Tm.work ctx 100;
                  if !first then begin
                    first := false;
                    Tm.retry ctx
                  end);
              Tm.work ctx 50
            done)
      in
      Tm.run sys;
      let st = Tm.stats ctx in
      let cy = Stats.cycles st in
      Alcotest.(check int) "every transaction commits" txns (Stats.commits st);
      Alcotest.(check bool) "every transaction retried" true
        (Stats.total_aborts st >= txns);
      Alcotest.(check bool) "an attempt aborted inside Tm.load" load_faults
        ((Stats.aborts st).(Abort.index (Abort.Page_fault 0)) > 0);
      Alcotest.(check int) "committed app cycles = work" (100 * txns) cy.(Stats.cat_app);
      Alcotest.(check bool) "work between transactions counted outside" true
        (cy.(Stats.cat_outside) >= 50 * txns))
    [ (Tm.Asf_mode Variant.llb256, true); (Tm.Stm_mode, false) ]

let test_aborted_cycles_folded_into_waste () =
  (* Regression: all cycles of an aborted attempt — whatever category they
     accrued under — must land in cat_abort_waste before the per-attempt
     buffer is reset, and committed time must keep its categories. *)
  let st = Stats.create () in
  Stats.begin_attempt st ~now:0;
  Stats.enter st ~now:0 Stats.cat_app;
  Stats.exit_ st ~now:70;
  (* 70 app cycles + 30 trailing outside-category cycles, all wasted. *)
  Stats.abort_attempt st ~now:100 Abort.Contention;
  let cy = Stats.cycles st in
  Alcotest.(check int) "aborted attempt fully in abort_waste" 100
    cy.(Stats.cat_abort_waste);
  Alcotest.(check int) "no app cycles leaked" 0 cy.(Stats.cat_app);
  (* 20 cycles between attempts are outside-tx time. *)
  Stats.begin_attempt st ~now:120;
  Stats.enter st ~now:120 Stats.cat_app;
  Stats.exit_ st ~now:150;
  Stats.commit_attempt st ~now:150 ~serial:false;
  let cy = Stats.cycles st in
  Alcotest.(check int) "committed app cycles kept" 30 cy.(Stats.cat_app);
  Alcotest.(check int) "gap counted outside" 20 cy.(Stats.cat_outside);
  Alcotest.(check int) "attempts" 2 (Stats.attempts st);
  Alcotest.(check int) "commits" 1 (Stats.commits st);
  Alcotest.(check int) "aborts" 1 (Stats.total_aborts st);
  (* The telescoping invariant: categories sum to total simulated time. *)
  Alcotest.(check int) "sum(categories) = elapsed" 150
    (Array.fold_left ( + ) 0 cy)

let test_categories_sum_to_core_time () =
  (* End-to-end invariant: after a run, each thread's category totals sum
     to exactly its core's final clock ([Tm.spawn] finalizes the stats
     when the thread ends). Contended LLB-8 exercises the abort path. *)
  let n_cores = 4 in
  let sys = mk ~n_cores (Tm.Asf_mode Variant.llb8) in
  let counter = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys counter 0;
  let ctxs =
    List.init n_cores (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            for _ = 1 to 150 do
              Tm.atomic ctx (fun () ->
                  let v = Tm.load ctx counter in
                  Tm.work ctx 25;
                  Tm.store ctx counter (v + 1))
            done))
  in
  Tm.run sys;
  List.iteri
    (fun core ctx ->
      let total = Array.fold_left ( + ) 0 (Stats.cycles (Tm.stats ctx)) in
      Alcotest.(check int)
        (Printf.sprintf "core %d: sum(categories) = core time" core)
        (Engine.core_time (Tm.engine sys) core)
        total)
    ctxs

let test_backoff_window_monotone_and_capped () =
  let prev = ref 0 in
  for r = 0 to 20 do
    let w = Tm.backoff_window r in
    Alcotest.(check bool)
      (Printf.sprintf "monotone at retry %d" r)
      true (w >= !prev);
    Alcotest.(check bool) (Printf.sprintf "capped at retry %d" r) true (w <= 65536);
    prev := w
  done;
  Alcotest.(check int) "starts at 64" 64 (Tm.backoff_window 0);
  Alcotest.(check int) "doubles" 128 (Tm.backoff_window 1);
  Alcotest.(check int) "saturates at 65536" 65536 (Tm.backoff_window 10);
  Alcotest.(check int) "stays saturated" 65536 (Tm.backoff_window 1000)

let test_serial_spin_window_monotone_and_capped () =
  let prev = ref 0 in
  for k = 0 to 20 do
    let w = Tm.serial_spin_window k in
    Alcotest.(check bool)
      (Printf.sprintf "monotone at attempt %d" k)
      true (w >= !prev);
    Alcotest.(check bool) (Printf.sprintf "capped at attempt %d" k) true (w <= 8192);
    prev := w
  done;
  Alcotest.(check int) "starts at 64" 64 (Tm.serial_spin_window 0);
  Alcotest.(check int) "doubles" 128 (Tm.serial_spin_window 1);
  Alcotest.(check int) "saturates at 8192" 8192 (Tm.serial_spin_window 7);
  Alcotest.(check int) "stays saturated" 8192 (Tm.serial_spin_window 1000)

let test_serial_lock_fairness () =
  (* Bounded wait: four cores run serial-only transactions (40 lines never
     fit LLB-8) that contend for the global lock back-to-back. The capped
     spin window must let every waiter through — each core commits its
     full quota serially; nobody starves. *)
  let n_cores = 4 and per_core = 10 in
  let sys = mk ~n_cores (Tm.Asf_mode Variant.llb8) in
  let arr = Tm.setup_alloc sys (40 * Addr.words_per_line) in
  let ctxs =
    List.init n_cores (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            for _ = 1 to per_core do
              Tm.atomic ctx (fun () ->
                  for i = 0 to 39 do
                    let a = arr + (i * Addr.words_per_line) in
                    Tm.store ctx a (Tm.load ctx a + 1)
                  done)
            done))
  in
  Tm.run sys;
  Alcotest.(check int) "all increments applied" (n_cores * per_core)
    (Tm.setup_peek sys arr);
  List.iteri
    (fun core ctx ->
      Alcotest.(check int)
        (Printf.sprintf "core %d committed its quota serially" core)
        per_core
        (Stats.serial_commits (Tm.stats ctx)))
    ctxs

(* Decorrelation: two cores aborting at the same cycle must draw different
   backoff windows. Core PRNG streams are split off one root generator,
   so for any seed, distinct cores' first few window draws cannot all
   collide (an arithmetic seed derivation failed exactly this way for
   window-aligned seeds). *)
let prop_backoff_streams_decorrelated =
  QCheck.Test.make ~name:"tm: per-core backoff draws are decorrelated" ~count:100
    (QCheck.make
       QCheck.Gen.(triple (int_range 0 100_000) (int_range 0 7) (int_range 0 7)))
    (fun (seed, i, j) ->
      QCheck.assume (i <> j);
      let sys =
        mk ~n_cores:8 ~tweak:(fun c -> { c with Tm.seed }) (Tm.Asf_mode Variant.llb256)
      in
      let pi = Tm.prng (Tm.make_ctx sys ~core:i)
      and pj = Tm.prng (Tm.make_ctx sys ~core:j) in
      let draws p =
        List.init 16 (fun r -> Asf_engine.Prng.int p (Tm.backoff_window r))
      in
      draws pi <> draws pj)

let test_stm_mode_has_no_serial () =
  let total, ctxs = counter_run Tm.Stm_mode 4 50 in
  Alcotest.(check int) "correct" 200 total;
  List.iter
    (fun c ->
      Alcotest.(check int) "no serial commits" 0 (Stats.serial_commits (Tm.stats c));
      Alcotest.(check int) "no non-instr cycles" 0
        (Stats.cycles (Tm.stats c)).(Stats.cat_non_instr))
    ctxs

(* ------------------------------------------------------------------ *)
(* Request deadlines                                                    *)
(* ------------------------------------------------------------------ *)

let test_atomic_until_generous_deadline_commits () =
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys a 0;
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        Tm.atomic_until ctx ~deadline:max_int (fun () ->
            Tm.store ctx a (Tm.load ctx a + 1)))
  in
  Tm.run sys;
  Alcotest.(check int) "committed" 1 (Tm.setup_peek sys a);
  Alcotest.(check int) "one commit" 1 (Stats.commits (Tm.stats ctx));
  Alcotest.(check int) "no timeout aborts" 0
    (Stats.aborts (Tm.stats ctx)).(Abort.index Abort.Timeout);
  Alcotest.(check int) "no deadline waiting" 0 (Tm.deadline_wait ctx)

let test_atomic_until_expired_raises_before_attempt () =
  (* A deadline already in the past must raise before any attempt opens:
     no store, no attempt, no abort record to corrupt accounting. *)
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys a 0;
  let raised = ref false in
  let ctx =
    Tm.spawn sys ~core:0 (fun ctx ->
        Tm.work ctx 100;
        try Tm.atomic_until ctx ~deadline:50 (fun () -> Tm.store ctx a 1)
        with Tm.Deadline_exceeded i ->
          raised := true;
          Alcotest.(check int) "reports the deadline" 50 i.Tm.dl_deadline;
          Alcotest.(check bool) "now past it" true (i.Tm.dl_now >= 50))
  in
  Tm.run sys;
  Alcotest.(check bool) "raised" true !raised;
  Alcotest.(check int) "no store happened" 0 (Tm.setup_peek sys a);
  Alcotest.(check int) "no attempt opened" 0 (Stats.attempts (Tm.stats ctx))

let test_atomic_until_nested_rejected () =
  let sys = mk ~n_cores:1 (Tm.Asf_mode Variant.llb256) in
  let rejected = ref false in
  let _ =
    Tm.spawn sys ~core:0 (fun ctx ->
        Tm.atomic ctx (fun () ->
            try Tm.atomic_until ctx ~deadline:max_int (fun () -> ())
            with Invalid_argument _ -> rejected := true))
  in
  Tm.run sys;
  Alcotest.(check bool) "nested atomic_until rejected" true !rejected

let test_deadline_accounting_under_contention () =
  (* Four cores hammer one counter under tight per-transaction deadlines.
     Whatever mix of commits and deadline exceptions results, the
     bookkeeping must stay exact: every call accounted for, the counter
     equal to the commits, the attempt/abort identity intact, and the
     cumulative backoff+spin wait of each call bounded by the deadline
     plus one serial-spin tail. *)
  let n_cores = 4 and per_core = 50 and rel = 600 in
  let sys = mk ~n_cores (Tm.Asf_mode Variant.llb256) in
  let a = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys a 0;
  let commits = ref 0 and timeouts = ref 0 in
  let tail = Tm.serial_spin_window max_int in
  let ctxs =
    List.init n_cores (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            for _ = 1 to per_core do
              (try
                 Tm.atomic_until ctx ~deadline:(Tm.now ctx + rel) (fun () ->
                     Tm.store ctx a (Tm.load ctx a + 1));
                 incr commits
               with Tm.Deadline_exceeded _ -> incr timeouts);
              Alcotest.(check bool) "wait bounded by deadline + tail" true
                (Tm.deadline_wait ctx <= rel + tail)
            done))
  in
  Tm.run sys;
  Alcotest.(check int) "every call accounted" (n_cores * per_core)
    (!commits + !timeouts);
  Alcotest.(check int) "counter = commits" !commits (Tm.setup_peek sys a);
  let agg = Stats.create () in
  List.iter (fun c -> Stats.add (Tm.stats c) ~into:agg) ctxs;
  Alcotest.(check int) "commits agree" !commits (Stats.commits agg);
  Alcotest.(check int) "attempts = commits + aborts"
    (Stats.commits agg + Stats.total_aborts agg)
    (Stats.attempts agg)

let prop_decorrelated_window_bounded =
  QCheck.Test.make ~name:"tm: decorrelated jitter window bounded" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 200_000)))
    (fun (seed, prev) ->
      let p = Asf_engine.Prng.create seed in
      let w = Tm.decorrelated_window p ~prev in
      w >= 16 && w <= Tm.backoff_window 10 && w <= 16 + (3 * max 16 prev))

(* ------------------------------------------------------------------ *)
(* Txmalloc unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_txmalloc_rounding_and_reuse () =
  let g = Asf_mem.Alloc.create () in
  let p = Txmalloc.create g in
  ignore (Txmalloc.refill p);
  Txmalloc.attempt_begin p;
  let a = Option.get (Txmalloc.alloc_tx p 3) in
  Alcotest.(check int) "line aligned" 0 (a mod Addr.words_per_line);
  Txmalloc.attempt_commit p;
  Txmalloc.attempt_begin p;
  Txmalloc.free_tx p a 3;
  Txmalloc.attempt_commit p;
  Txmalloc.attempt_begin p;
  let b = Option.get (Txmalloc.alloc_tx p 3) in
  Alcotest.(check int) "freed block reused" a b;
  Txmalloc.attempt_commit p

let test_txmalloc_abort_undo () =
  let g = Asf_mem.Alloc.create () in
  let p = Txmalloc.create g in
  ignore (Txmalloc.refill p);
  Txmalloc.attempt_begin p;
  let a = Option.get (Txmalloc.alloc_tx p 8) in
  Txmalloc.attempt_abort p;
  Txmalloc.attempt_begin p;
  let b = Option.get (Txmalloc.alloc_tx p 8) in
  Alcotest.(check int) "aborted allocation undone" a b;
  (* Deferred frees of aborted attempts are dropped. *)
  Txmalloc.free_tx p b 8;
  Txmalloc.attempt_abort p;
  Txmalloc.attempt_begin p;
  let c = Option.get (Txmalloc.alloc_tx p 8) in
  Alcotest.(check int) "same block again (free dropped, alloc undone)" b c;
  Txmalloc.attempt_commit p

let test_txmalloc_exhaustion () =
  let g = Asf_mem.Alloc.create () in
  let p = Txmalloc.create ~chunk_words:64 g in
  ignore (Txmalloc.refill p);
  Txmalloc.attempt_begin p;
  (* 64-word chunk: 8 8-word blocks; the 9th must fail speculatively. *)
  for _ = 1 to 8 do
    Alcotest.(check bool) "fits" true (Txmalloc.alloc_tx p 8 <> None)
  done;
  Alcotest.(check (option int)) "pool exhausted" None (Txmalloc.alloc_tx p 8);
  Txmalloc.attempt_abort p

(* Model-based qcheck property: random attempt histories of allocs and
   frees never hand out overlapping live blocks, and aborted attempts
   change nothing. *)
type pool_op = Alloc of int | Free of int (* index into live list *)

let pool_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun n -> Alloc n) (int_range 1 24)); (1, map (fun i -> Free i) (int_range 0 64)) ])

let prop_txmalloc_model =
  QCheck.Test.make ~name:"txmalloc: live blocks never overlap; aborts are no-ops"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 12) (pair (list_size (int_range 0 10) pool_op_gen) bool)))
    (fun attempts ->
      let g = Asf_mem.Alloc.create () in
      let p = Txmalloc.create ~chunk_words:256 g in
      ignore (Txmalloc.refill p);
      (* live: committed blocks (addr, words). *)
      let live = ref [] in
      let overlaps (a1, n1) (a2, n2) =
        let r1 = Asf_mem.Addr.lines_of_words n1 * Asf_mem.Addr.words_per_line in
        let r2 = Asf_mem.Addr.lines_of_words n2 * Asf_mem.Addr.words_per_line in
        not (a1 + r1 <= a2 || a2 + r2 <= a1)
      in
      List.for_all
        (fun (ops, commit) ->
          ignore (Txmalloc.refill p);
          Txmalloc.attempt_begin p;
          let attempt_allocs = ref [] in
          let attempt_frees = ref [] in
          List.iter
            (fun op ->
              match op with
              | Alloc n -> (
                  match Txmalloc.alloc_tx p n with
                  | Some a -> attempt_allocs := (a, n) :: !attempt_allocs
                  | None -> () (* pool exhausted speculatively: fine *))
              | Free i ->
                  let candidates =
                    List.filter (fun b -> not (List.mem b !attempt_frees)) !live
                  in
                  if candidates <> [] then begin
                    let b = List.nth candidates (i mod List.length candidates) in
                    Txmalloc.free_tx p (fst b) (snd b);
                    attempt_frees := b :: !attempt_frees
                  end)
            ops;
          if commit then begin
            Txmalloc.attempt_commit p;
            live :=
              !attempt_allocs @ List.filter (fun b -> not (List.mem b !attempt_frees)) !live
          end
          else Txmalloc.attempt_abort p;
          (* Invariant: live blocks are pairwise disjoint. *)
          let rec disjoint = function
            | [] -> true
            | b :: rest -> List.for_all (fun b' -> not (overlaps b b')) rest && disjoint rest
          in
          disjoint !live)
        attempts)

let () =
  Alcotest.run "tm"
    [
      ( "modes",
        [
          Alcotest.test_case "counter all modes" `Quick test_counter_all_modes;
          Alcotest.test_case "stats consistent" `Quick test_counter_stats_consistent;
          Alcotest.test_case "stm no serial" `Quick test_stm_mode_has_no_serial;
        ] );
      ( "serial",
        [
          Alcotest.test_case "capacity fallback" `Quick test_capacity_goes_serial;
          Alcotest.test_case "mutual exclusion" `Quick test_serial_excludes_hardware_txns;
        ] );
      ( "malloc",
        [
          Alcotest.test_case "alloc in txn" `Quick test_malloc_inside_txn;
          Alcotest.test_case "abort rollback" `Quick test_aborted_alloc_rolled_back;
          Alcotest.test_case "free deferred" `Quick test_free_deferred_to_commit;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "long txn aborted" `Quick test_interrupt_aborts_long_txn;
          Alcotest.test_case "short txn retries in hw" `Quick
            test_interrupt_retry_commits_hardware;
        ] );
      ( "syscall",
        [ Alcotest.test_case "irrevocable goes serial" `Quick test_syscall_goes_serial ] );
      ( "annotation",
        [ Alcotest.test_case "capacity relief" `Quick test_annotation_avoids_capacity ] );
      ( "accounting",
        [
          Alcotest.test_case "categories" `Quick test_cycle_categories_cover_txn_time;
          Alcotest.test_case "abort waste folding" `Quick
            test_aborted_cycles_folded_into_waste;
          Alcotest.test_case "sum = core time" `Quick test_categories_sum_to_core_time;
          Alcotest.test_case "app cycles exact across a retry" `Quick
            test_app_cycles_exact_across_retry;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "window monotone, capped" `Quick
            test_backoff_window_monotone_and_capped;
          QCheck_alcotest.to_alcotest prop_backoff_streams_decorrelated;
        ] );
      ( "serial lock",
        [
          Alcotest.test_case "spin window monotone, capped" `Quick
            test_serial_spin_window_monotone_and_capped;
          Alcotest.test_case "bounded wait / fairness" `Quick test_serial_lock_fairness;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "generous deadline commits" `Quick
            test_atomic_until_generous_deadline_commits;
          Alcotest.test_case "expired raises before attempt" `Quick
            test_atomic_until_expired_raises_before_attempt;
          Alcotest.test_case "nested rejected" `Quick test_atomic_until_nested_rejected;
          Alcotest.test_case "accounting under contention" `Quick
            test_deadline_accounting_under_contention;
          QCheck_alcotest.to_alcotest prop_decorrelated_window_bounded;
        ] );
      ( "txmalloc",
        [
          Alcotest.test_case "rounding/reuse" `Quick test_txmalloc_rounding_and_reuse;
          Alcotest.test_case "abort undo" `Quick test_txmalloc_abort_undo;
          Alcotest.test_case "exhaustion" `Quick test_txmalloc_exhaustion;
          QCheck_alcotest.to_alcotest prop_txmalloc_model;
        ] );
    ]
