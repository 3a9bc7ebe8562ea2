(* Tests for the TinySTM write-through baseline: isolation, undo,
   validation/extension, contention suicide, and randomized serializability
   checks. *)

module Engine = Asf_engine.Engine
module Prng = Asf_engine.Prng
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Alloc = Asf_mem.Alloc
module Memsys = Asf_cache.Memsys
module Stm = Asf_stm.Tinystm

let setup ?(n_cores = 2) () =
  let e = Engine.create ~n_cores () in
  let m = Memsys.create Params.barcelona e in
  let alloc = Alloc.create () in
  let stm = Stm.create m alloc in
  (e, m, alloc, stm)

let run_threads e fns =
  List.iteri (fun core f -> Engine.spawn e ~core f) fns;
  Engine.run e

(* Retry loop with randomized exponential backoff, like the runtime's.
   The jitter matters: deterministic backoff can livelock two suiciding
   transactions in perfect lockstep. *)
let backoff_rng = Prng.create 0xb0ff

let atomic tx body =
  let rec go delay =
    Stm.start tx;
    match body tx with
    | v -> (
        match Stm.commit tx with
        | () -> v
        | exception Stm.Stm_abort _ -> pause delay)
    | exception Stm.Stm_abort _ -> pause delay
  and pause delay =
    Engine.elapse (delay + Prng.int backoff_rng delay);
    go (min (2 * delay) 5000)
  in
  go 100

let test_commit_visible () =
  let e, m, _, stm = setup () in
  Memsys.poke m 1000 5;
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        atomic tx (fun tx ->
            let v = Stm.load tx 1000 in
            Stm.store tx 1000 (v + 1)));
    ];
  Alcotest.(check int) "incremented" 6 (Memsys.peek m 1000);
  Alcotest.(check int) "one commit" 1 (Stm.commits stm)

let test_abort_undoes_writes () =
  let e, m, _, stm = setup () in
  Memsys.poke m 1000 5;
  Memsys.poke m 1064 7;
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        Stm.store tx 1000 50;
        Stm.store tx 1064 70;
        (try Stm.abort tx with Stm.Stm_abort _ -> ()));
    ];
  Alcotest.(check int) "first undone" 5 (Memsys.peek m 1000);
  Alcotest.(check int) "second undone" 7 (Memsys.peek m 1064);
  Alcotest.(check int) "abort counted" 1 (Stm.aborts stm)

let test_write_write_conflict_suicides () =
  let e, m, _, stm = setup () in
  Memsys.poke m 2000 0;
  let second_aborted = ref false in
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        Stm.store tx 2000 1;
        Engine.elapse 3000 (* hold the orec while core 1 tries *);
        Stm.commit tx);
      (fun () ->
        Engine.elapse 500;
        let tx = Stm.make_tx stm ~core:1 in
        Stm.start tx;
        (try
           Stm.store tx 2000 2;
           Stm.commit tx
         with Stm.Stm_abort _ -> second_aborted := true));
    ];
  Alcotest.(check bool) "encounter-time conflict aborts" true !second_aborted;
  Alcotest.(check int) "winner's value" 1 (Memsys.peek m 2000)

let test_load_locked_aborts () =
  let e, m, _, stm = setup () in
  Memsys.poke m 2100 9;
  let reader_aborted = ref false in
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        Stm.store tx 2100 10;
        Engine.elapse 3000;
        Stm.commit tx);
      (fun () ->
        Engine.elapse 500;
        let tx = Stm.make_tx stm ~core:1 in
        Stm.start tx;
        (try ignore (Stm.load tx 2100)
         with Stm.Stm_abort _ -> reader_aborted := true));
    ];
  Alcotest.(check bool) "reader suicides on locked orec" true !reader_aborted

let test_snapshot_extension () =
  (* Core 1 starts, core 0 commits an unrelated update bumping the clock,
     then core 1 reads a line whose version is newer than its snapshot on
     a DIFFERENT orec: reading the updated line forces extension; with no
     conflicting reads logged, the extension succeeds. *)
  let e, m, _, stm = setup () in
  Memsys.poke m 3000 1;
  Memsys.poke m 4000 2;
  let got = ref 0 in
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Engine.elapse 200;
        atomic tx (fun tx ->
            let v = Stm.load tx 3000 in
            Stm.store tx 3000 (v + 10)));
      (fun () ->
        let tx = Stm.make_tx stm ~core:1 in
        Stm.start tx;
        Engine.elapse 5000 (* let core 0 commit *);
        got := Stm.load tx 3000;
        Stm.commit tx);
    ];
  Alcotest.(check int) "saw committed value" 11 !got;
  Alcotest.(check bool) "extension happened" true (Stm.extensions stm >= 1)

let test_inconsistent_snapshot_aborts () =
  (* Core 1 reads X, core 0 updates X and Y, core 1 then reads Y: the
     extension validation must fail (X changed) and abort core 1. *)
  let e, m, _, stm = setup () in
  Memsys.poke m 3000 1;
  Memsys.poke m 5000 2;
  let aborted = ref false in
  run_threads e
    [
      (fun () ->
        Engine.elapse 1000;
        let tx = Stm.make_tx stm ~core:0 in
        atomic tx (fun tx ->
            Stm.store tx 3000 100;
            Stm.store tx 5000 200));
      (fun () ->
        let tx = Stm.make_tx stm ~core:1 in
        Stm.start tx;
        let x = Stm.load tx 3000 in
        Engine.elapse 8000 (* core 0 commits both updates *);
        (try
           let y = Stm.load tx 5000 in
           (* If we get here the snapshot must be consistent. *)
           Alcotest.(check (pair int int)) "consistent" (1, 2) (x, y);
           Stm.commit tx
         with Stm.Stm_abort _ -> aborted := true));
    ];
  Alcotest.(check bool) "stale snapshot aborted" true !aborted

let test_read_only_commit_cheap () =
  let e, m, _, stm = setup () in
  Memsys.poke m 6000 1;
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        ignore (Stm.load tx 6000);
        Stm.commit tx);
    ];
  Alcotest.(check int) "committed" 1 (Stm.commits stm)

let test_concurrent_counter () =
  let n_cores = 4 and per_core = 200 in
  let e, m, _, stm = setup ~n_cores () in
  Memsys.poke m 7000 0;
  run_threads e
    (List.init n_cores (fun core () ->
         let tx = Stm.make_tx stm ~core in
         for _ = 1 to per_core do
           atomic tx (fun tx ->
               let v = Stm.load tx 7000 in
               Stm.store tx 7000 (v + 1))
         done));
  Alcotest.(check int) "no lost increments" (n_cores * per_core)
    (Memsys.peek m 7000)

let test_random_transfers_conserve_sum () =
  let n_cores = 4 and n_accounts = 10 and transfers = 120 in
  let e, m, _, stm = setup ~n_cores () in
  let account i = 8000 + (i * Addr.words_per_line) in
  for i = 0 to n_accounts - 1 do
    Memsys.poke m (account i) 500
  done;
  run_threads e
    (List.init n_cores (fun core () ->
         let tx = Stm.make_tx stm ~core in
         let rng = Prng.create (7 * (core + 1)) in
         for _ = 1 to transfers do
           let src = Prng.int rng n_accounts and dst = Prng.int rng n_accounts in
           let amt = Prng.int rng 20 in
           atomic tx (fun tx ->
               let s = Stm.load tx (account src) in
               let d = Stm.load tx (account dst) in
               if src <> dst then begin
                 Stm.store tx (account src) (s - amt);
                 Stm.store tx (account dst) (d + amt)
               end)
         done));
  let total = ref 0 in
  for i = 0 to n_accounts - 1 do
    total := !total + Memsys.peek m (account i)
  done;
  Alcotest.(check int) "sum conserved" (n_accounts * 500) !total

let test_stm_slower_than_raw () =
  (* The whole point of the paper: instrumented STM accesses cost several
     times a raw access. Sanity-check the overhead exists. *)
  let e, m, _, stm = setup ~n_cores:2 () in
  for i = 0 to 63 do
    Memsys.poke m (9000 + i) i
  done;
  let raw_time = ref 0 and stm_time = ref 0 in
  run_threads e
    [
      (fun () ->
        let t0 = Engine.core_time e 0 in
        for i = 0 to 63 do
          ignore (Memsys.load m ~core:0 (9000 + i))
        done;
        raw_time := Engine.core_time e 0 - t0);
      (fun () ->
        let tx = Stm.make_tx stm ~core:1 in
        let t0 = Engine.core_time e 1 in
        Stm.start tx;
        for i = 0 to 63 do
          ignore (Stm.load tx (9000 + i))
        done;
        Stm.commit tx;
        stm_time := Engine.core_time e 1 - t0);
    ];
  Alcotest.(check bool)
    (Printf.sprintf "stm (%d) > 2x raw (%d)" !stm_time !raw_time)
    true
    (!stm_time > 2 * !raw_time)

(* ------------------------------------------------------------------ *)
(* Write-back strategy                                                 *)
(* ------------------------------------------------------------------ *)

let setup_wb ?(n_cores = 2) () =
  let e = Engine.create ~n_cores () in
  let m = Memsys.create Params.barcelona e in
  let alloc = Alloc.create () in
  let stm = Stm.create ~strategy:Stm.Write_back m alloc in
  (e, m, alloc, stm)

let test_wb_buffering_invisible_until_commit () =
  let e, m, _, stm = setup_wb () in
  Memsys.poke m 1000 5;
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        Stm.store tx 1000 9;
        (* Write-back: memory still holds the old value mid-transaction,
           but our own loads see the buffered one. *)
        Alcotest.(check int) "memory unchanged" 5 (Memsys.peek m 1000);
        Alcotest.(check int) "own load sees buffer" 9 (Stm.load tx 1000);
        Stm.commit tx);
    ];
  Alcotest.(check int) "published at commit" 9 (Memsys.peek m 1000)

let test_wb_abort_cheap_and_clean () =
  let e, m, _, stm = setup_wb () in
  Memsys.poke m 1000 5;
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        Stm.store tx 1000 9;
        (try Stm.abort tx with Stm.Stm_abort _ -> ()));
    ];
  Alcotest.(check int) "nothing to undo" 5 (Memsys.peek m 1000)

let test_wb_matches_wt_results () =
  (* Same concurrent counter workload under both strategies: identical
     final value. *)
  let run strategy =
    let e = Engine.create ~n_cores:4 () in
    let m = Memsys.create Params.barcelona e in
    let alloc = Alloc.create () in
    let stm = Stm.create ~strategy m alloc in
    Memsys.poke m 7000 0;
    run_threads e
      (List.init 4 (fun core () ->
           let tx = Stm.make_tx stm ~core in
           for _ = 1 to 150 do
             atomic tx (fun tx ->
                 let v = Stm.load tx 7000 in
                 Stm.store tx 7000 (v + 1))
           done));
    Memsys.peek m 7000
  in
  Alcotest.(check int) "write-through" 600 (run Stm.Write_through);
  Alcotest.(check int) "write-back" 600 (run Stm.Write_back)

(* ------------------------------------------------------------------ *)
(* Release order and per-access allocation                             *)
(* ------------------------------------------------------------------ *)

(* Transactional data lives far above the orec table and the clock. *)
let data_base = 1 lsl 20

(* One transaction acquires [n] distinct orecs, then commits or aborts.
   The access hook tells the orecs apart from the data: a store's writes
   are its data word and, when it acquires an orec, that orec's CAS.
   Returns the orecs in acquisition order and the writes commit or
   rollback made, in order. *)
let release_run ~commit n =
  let e, m, _, stm = setup ~n_cores:1 () in
  let writes = ref [] in
  Memsys.set_access_hook m
    (Some (fun ~core:_ ~addr ~write ~speculative:_ -> if write then writes := addr :: !writes));
  let acquired = ref [] and n_acquired = ref 0 and released = ref [] in
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        Stm.start tx;
        let line = ref 0 in
        while !n_acquired < n do
          let addr = data_base + (Addr.words_per_line * !line) in
          writes := [];
          Stm.store tx addr !line;
          List.iter
            (fun a ->
              if a <> addr then begin
                acquired := a :: !acquired;
                incr n_acquired
              end)
            !writes;
          incr line
        done;
        writes := [];
        (if commit then Stm.commit tx else try Stm.abort tx with Stm.Stm_abort _ -> ());
        released := List.rev !writes);
    ];
  (List.rev !acquired, !released)

(* Commit and rollback store the owned orecs in the order [Hashtbl.iter]
   visits a [Hashtbl.create 64] fed the same [replace] sequence: the
   simulated output depends on that order. Up to 600 acquisitions cross
   the table's resizes at 129 and 257 entries; the boundaries themselves
   are drawn often. *)
let prop_release_order =
  QCheck.Test.make ~name:"owned orecs released in Hashtbl.iter order" ~count:60
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         frequency
           [ (4, int_range 0 600); (1, oneofl [ 1; 2; 128; 129; 130; 256; 257; 258; 512; 513 ]) ]))
    (fun n ->
      List.iter
        (fun commit ->
          let acquired, writes = release_run ~commit n in
          let table = Hashtbl.create 64 in
          List.iter (fun o -> Hashtbl.replace table o ()) acquired;
          let released = List.filter (Hashtbl.mem table) writes in
          if Hashtbl.length table <> n then
            QCheck.Test.fail_reportf "%d acquisitions, %d distinct orecs" n
              (Hashtbl.length table);
          let expected = ref [] in
          Hashtbl.iter (fun o () -> expected := o :: !expected) table;
          if released <> List.rev !expected then
            QCheck.Test.fail_reportf "%s of %d orecs: release order differs from Hashtbl.iter"
              (if commit then "commit" else "rollback")
              n)
        [ true; false ];
      true)

(* A transaction of [n] lines, each loaded, stored and loaded again (the
   second load finds its orec owned), then committed. *)
let rw_txn tx n =
  Stm.start tx;
  for i = 0 to n - 1 do
    let a = data_base + (Addr.words_per_line * i) in
    Stm.store tx a (Stm.load tx a + 1);
    ignore (Stm.load tx a)
  done;
  Stm.commit tx

(* Write-through loads and stores allocate nothing on the host. On one
   core every elapse fuses, so a transaction of [n] lines must allocate
   the same minor words as an empty one, once a first transaction has
   mapped the pages, filled the caches and grown the logs. *)
let test_access_allocates_nothing () =
  let n = 200 in
  let e, _, _, stm = setup ~n_cores:1 () in
  let base = ref nan and full = ref nan in
  run_threads e
    [
      (fun () ->
        let tx = Stm.make_tx stm ~core:0 in
        rw_txn tx n;
        let w0 = Gc.minor_words () in
        rw_txn tx 0;
        let w1 = Gc.minor_words () in
        rw_txn tx n;
        let w2 = Gc.minor_words () in
        base := w1 -. w0;
        full := w2 -. w1);
    ];
  Alcotest.(check (float 0.))
    (Printf.sprintf "%d loads, %d stores: minor words as an empty transaction" (2 * n) n)
    !base !full

(* With an observer installed, every access still reports, in program
   order. *)
let test_observer_sees_every_access () =
  let n = 5 in
  let e, _, _, stm = setup ~n_cores:1 () in
  let seen = ref [] in
  Stm.set_observer stm (Some (fun ~core:_ ev -> seen := ev :: !seen));
  run_threads e [ (fun () -> rw_txn (Stm.make_tx stm ~core:0) n) ];
  let expected =
    (Stm.Ev_start
    :: List.concat_map
         (fun i ->
           let a = data_base + (Addr.words_per_line * i) in
           [ Stm.Ev_read a; Stm.Ev_write a; Stm.Ev_read a ])
         (List.init n Fun.id))
    @ [ Stm.Ev_commit ]
  in
  Alcotest.(check bool) "events in program order" true (List.rev !seen = expected)

let () =
  Alcotest.run "stm"
    [
      ( "basic",
        [
          Alcotest.test_case "commit visible" `Quick test_commit_visible;
          Alcotest.test_case "abort undoes" `Quick test_abort_undoes_writes;
          Alcotest.test_case "read-only commit" `Quick test_read_only_commit_cheap;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "write/write" `Quick test_write_write_conflict_suicides;
          Alcotest.test_case "load locked" `Quick test_load_locked_aborts;
          Alcotest.test_case "extension" `Quick test_snapshot_extension;
          Alcotest.test_case "stale snapshot" `Quick test_inconsistent_snapshot_aborts;
        ] );
      ( "property",
        [
          Alcotest.test_case "counter" `Quick test_concurrent_counter;
          Alcotest.test_case "transfers" `Quick test_random_transfers_conserve_sum;
          Alcotest.test_case "overhead exists" `Quick test_stm_slower_than_raw;
        ] );
      ( "write-back",
        [
          Alcotest.test_case "buffered until commit" `Quick test_wb_buffering_invisible_until_commit;
          Alcotest.test_case "abort clean" `Quick test_wb_abort_cheap_and_clean;
          Alcotest.test_case "matches write-through" `Quick test_wb_matches_wt_results;
        ] );
      ( "descriptor",
        [
          QCheck_alcotest.to_alcotest prop_release_order;
          Alcotest.test_case "access allocates nothing" `Quick test_access_allocates_nothing;
          Alcotest.test_case "observer sees every access" `Quick
            test_observer_sees_every_access;
        ] );
    ]
