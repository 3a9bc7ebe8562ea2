(* Tests for the ASF ISA surface: speculative regions, conflict
   (requester-wins) semantics, capacity limits per implementation variant,
   early release, page-fault aborts, selective annotation, and the
   Fig. 1 DCAS primitive. *)

module Engine = Asf_engine.Engine
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Memsys = Asf_cache.Memsys
module Abort = Asf_core.Abort
module Variant = Asf_core.Variant
module Llb = Asf_core.Llb
module Asf = Asf_core.Asf

(* Small-quantum params would flood tests with interrupt aborts; use the
   real Barcelona quantum (2.2M cycles), far beyond these micro-tests. *)
let setup ?(n_cores = 2) ?(variant = Variant.llb8) ?(requester_wins = true) () =
  let e = Engine.create ~n_cores () in
  let m = Memsys.create Params.barcelona e in
  let a = Asf.create m ~requester_wins variant in
  (* Pre-map the low pages (words 0..32767), as an OS would after program
     setup; tests of fault behaviour use addresses beyond this window. *)
  for p = 0 to 63 do
    Memsys.map_page m p
  done;
  (e, m, a)

let run_threads e fns =
  List.iteri (fun core f -> Engine.spawn e ~core f) fns;
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Llb unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_llb_capacity () =
  let b = Llb.create ~capacity:2 in
  Alcotest.(check bool) "first" true (Llb.protect_read b 1 = Llb.Protected);
  Alcotest.(check bool) "second" true (Llb.protect_read b 2 = Llb.Protected);
  Alcotest.(check bool) "idempotent" true (Llb.protect_read b 1 = Llb.Protected);
  Alcotest.(check bool) "third rejected" true (Llb.protect_read b 3 = Llb.Full);
  Alcotest.(check int) "two entries" 2 (Llb.entries b);
  ignore (Llb.protect_write b 2 ~backup:(Array.make 8 0));
  Alcotest.(check bool) "written line reads as written" true
    (Llb.protect_read b 2 = Llb.Written)

let test_llb_write_upgrade () =
  let b = Llb.create ~capacity:2 in
  ignore (Llb.protect_read b 7);
  Alcotest.(check bool) "not written yet" false (Llb.written b 7);
  Alcotest.(check bool) "upgrade in place" true
    (Llb.protect_write b 7 ~backup:(Array.make 8 0));
  Alcotest.(check bool) "now written" true (Llb.written b 7);
  Alcotest.(check int) "still one entry" 1 (Llb.entries b);
  Alcotest.(check int) "one written" 1 (Llb.written_count b)

let test_llb_release_rules () =
  let b = Llb.create ~capacity:4 in
  ignore (Llb.protect_read b 1);
  ignore (Llb.protect_write b 2 ~backup:(Array.make 8 0));
  Alcotest.(check bool) "read entry releasable" true (Llb.release b 1);
  Alcotest.(check bool) "written entry pinned" false (Llb.release b 2);
  Alcotest.(check bool) "absent not releasable" false (Llb.release b 9)

(* Model check: random operation sequences against an association-list
   model of the buffer, comparing every observable after every step. A
   capacity-8 buffer has 16 slots, so probe chains collide and wrap the
   table end, exercising backward-shift deletion across the wrap; a
   capacity-5 buffer rounds its 10 slots up to 16; a capacity-[max_int]
   buffer grows from 64 slots. Lines are drawn from a range several
   times the table size. *)

type llb_op =
  | Read of int
  | Write of int
  | Release of int
  | Clear
  | Limit of int option

let show_llb_op = function
  | Read l -> Printf.sprintf "read %d" l
  | Write l -> Printf.sprintf "write %d" l
  | Release l -> Printf.sprintf "release %d" l
  | Clear -> "clear"
  | Limit None -> "limit none"
  | Limit (Some n) -> Printf.sprintf "limit %d" n

let llb_ops ~capacity ~lines ~max_len =
  let open QCheck.Gen in
  let line = int_bound (lines - 1) in
  let op =
    frequency
      [
        (8, map (fun l -> Read l) line);
        (6, map (fun l -> Write l) line);
        (6, map (fun l -> Release l) line);
        (1, return Clear);
        ( 1,
          map
            (fun n -> Limit (if n = 0 then None else Some n))
            (int_bound (min capacity 300)) );
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_llb_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 max_len) op)

(* The model is [(line, backup)] pairs, [None] for a read-only entry. *)
let llb_matches_model ~capacity ops =
  let b = Llb.create ~capacity in
  let model = ref [] and limit = ref None in
  let eff () = match !limit with Some n -> min n capacity | None -> capacity in
  let fits () = List.length !model < eff () in
  let fail step fmt =
    Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "step %d: %s" step m) fmt
  in
  List.iteri
    (fun step op ->
      let got, want =
        match op with
        | Read l ->
            let want =
              match List.assoc_opt l !model with
              | Some (Some _) -> Llb.Written
              | Some None -> Llb.Protected
              | None when fits () ->
                  model := (l, None) :: !model;
                  Llb.Protected
              | None -> Llb.Full
            in
            if Llb.protect_read b l <> want then
              fail step "%s: outcome differs from the model" (show_llb_op op);
            (true, true)
        | Write l ->
            let backup = [| l; step |] in
            let want =
              match List.assoc_opt l !model with
              | Some (Some _) -> true
              | Some None ->
                  model := (l, Some backup) :: List.remove_assoc l !model;
                  true
              | None when fits () ->
                  model := (l, Some backup) :: !model;
                  true
              | None -> false
            in
            (Llb.protect_write b l ~backup, want)
        | Release l ->
            let want =
              match List.assoc_opt l !model with
              | Some None ->
                  model := List.remove_assoc l !model;
                  true
              | _ -> false
            in
            (Llb.release b l, want)
        | Clear ->
            Llb.clear b;
            model := [];
            (true, true)
        | Limit n ->
            Llb.set_limit b n;
            limit := n;
            (true, true)
      in
      if got <> want then fail step "%s returned %b" (show_llb_op op) got;
      let written = List.filter_map (fun (l, w) -> Option.map (fun w -> (l, w)) w) !model in
      let n = List.length !model and nw = List.length written in
      let check name got want =
        if got <> want then fail step "after %s: %s = %d, model %d" (show_llb_op op) name got want
      in
      check "entries" (Llb.entries b) n;
      check "read_count" (Llb.read_count b) (n - nw);
      check "written_count" (Llb.written_count b) nw;
      check "effective_capacity" (Llb.effective_capacity b) (eff ());
      if Llb.protected_lines b <> List.sort compare (List.map fst !model) then
        fail step "after %s: protected_lines differ" (show_llb_op op);
      (match op with
      | Read l | Write l | Release l ->
          if Llb.mem b l <> List.mem_assoc l !model then fail step "mem %d" l
      | Clear | Limit _ -> ());
      List.iter
        (fun (l, w) ->
          if not (Llb.mem b l) then fail step "line %d lost" l;
          if Llb.written b l <> Option.is_some w then fail step "written %d" l)
        !model;
      let seen = ref [] in
      Llb.iter_written b (fun l backup -> seen := (l, backup) :: !seen);
      if List.sort compare !seen <> List.sort compare written then
        fail step "after %s: iter_written differs" (show_llb_op op))
    ops;
  true

let prop_llb_model ~capacity ~lines ~max_len ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "matches model (capacity %s)"
             (if capacity = max_int then "max_int" else string_of_int capacity))
    (llb_ops ~capacity ~lines ~max_len)
    (llb_matches_model ~capacity)

(* ------------------------------------------------------------------ *)
(* Single-region behaviour                                             *)
(* ------------------------------------------------------------------ *)

let test_commit_publishes () =
  let e, m, a = setup () in
  Memsys.poke m 100 1;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        let v = Asf.lock_load a ~core:0 100 in
        Asf.lock_store a ~core:0 100 (v + 41);
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "committed value" 42 (Memsys.peek m 100);
  Alcotest.(check int) "one speculate" 1 (Asf.speculates a);
  Alcotest.(check int) "one commit" 1 (Asf.commits a)

let test_explicit_abort_rolls_back () =
  let e, m, a = setup () in
  Memsys.poke m 100 7;
  let observed = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 100 99;
          Asf.abort_explicit a ~core:0 ~code:5
        with Asf.Aborted r -> observed := Some r);
    ];
  Alcotest.(check int) "store undone" 7 (Memsys.peek m 100);
  (match !observed with
  | Some (Abort.Explicit 5) -> ()
  | _ -> Alcotest.fail "expected Explicit 5");
  Alcotest.(check bool) "region closed" false (Asf.in_region a ~core:0)

let test_flat_nesting () =
  let e, m, a = setup () in
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 200 1;
        Asf.speculate a ~core:0 (* nested *);
        Asf.lock_store a ~core:0 208 2;
        Asf.commit a ~core:0 (* inner commit publishes nothing yet *);
        Alcotest.(check bool) "still in region" true (Asf.in_region a ~core:0);
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "outer data" 1 (Memsys.peek m 200);
  Alcotest.(check int) "inner data" 2 (Memsys.peek m 208);
  Alcotest.(check int) "single hardware commit" 1 (Asf.commits a)

let test_nested_abort_kills_outermost () =
  let e, m, a = setup () in
  Memsys.poke m 200 5;
  Memsys.poke m 208 6;
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 200 50;
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 208 60;
          Asf.abort_explicit a ~core:0 ~code:1
        with Asf.Aborted _ -> ());
    ];
  Alcotest.(check int) "outer store undone" 5 (Memsys.peek m 200);
  Alcotest.(check int) "inner store undone" 6 (Memsys.peek m 208)

let test_capacity_abort_llb8 () =
  let e, _m, a = setup ~variant:Variant.llb8 () in
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          (* Touch 9 distinct lines: one more than LLB-8 holds. *)
          for i = 0 to 8 do
            ignore (Asf.lock_load a ~core:0 (i * Addr.words_per_line))
          done;
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
    ];
  match !result with
  | Some Abort.Capacity -> ()
  | _ -> Alcotest.fail "expected capacity abort"

let test_no_capacity_abort_llb256 () =
  let e, _m, a = setup ~variant:Variant.llb256 () in
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        for i = 0 to 199 do
          ignore (Asf.lock_load a ~core:0 (i * Addr.words_per_line))
        done;
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "committed" 1 (Asf.commits a)

let test_hybrid_large_read_set () =
  (* LLB-8 w/ L1: reads are tracked in the L1, so 200 read lines fit even
     though the LLB holds only 8; writes are still LLB-bounded. *)
  let e, _m, a = setup ~variant:Variant.llb8_l1 () in
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        for i = 0 to 199 do
          ignore (Asf.lock_load a ~core:0 (i * Addr.words_per_line))
        done;
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "committed" 1 (Asf.commits a)

let test_hybrid_write_capacity () =
  let e, _m, a = setup ~variant:Variant.llb8_l1 () in
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          for i = 0 to 8 do
            Asf.lock_store a ~core:0 (i * Addr.words_per_line) 1
          done;
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
    ];
  match !result with
  | Some Abort.Capacity -> ()
  | _ -> Alcotest.fail "expected write-capacity abort"

let test_hybrid_l1_displacement () =
  (* Three read lines mapping to the same 2-way L1 set displace the first;
     the hybrid variant must flag a (transient) capacity abort. L1 has
     512 sets, so lines l and l+512 collide. *)
  let e, _m, a = setup ~variant:Variant.llb256_l1 () in
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          ignore (Asf.lock_load a ~core:0 (Addr.line_base 0));
          ignore (Asf.lock_load a ~core:0 (Addr.line_base 512));
          ignore (Asf.lock_load a ~core:0 (Addr.line_base 1024));
          (* The displacement doomed us; the next op delivers it. *)
          ignore (Asf.lock_load a ~core:0 (Addr.line_base 1));
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
    ];
  (match !result with
  | Some Abort.Capacity -> ()
  | Some r -> Alcotest.failf "expected capacity, got %s" (Abort.to_string r)
  | None -> Alcotest.fail "expected displacement abort");
  (* The same pattern on pure LLB-256 commits fine: the LLB is fully
     associative. *)
  let e2, _m2, a2 = setup ~variant:Variant.llb256 () in
  run_threads e2
    [
      (fun () ->
        Asf.speculate a2 ~core:0;
        ignore (Asf.lock_load a2 ~core:0 (Addr.line_base 0));
        ignore (Asf.lock_load a2 ~core:0 (Addr.line_base 512));
        ignore (Asf.lock_load a2 ~core:0 (Addr.line_base 1024));
        Asf.commit a2 ~core:0);
    ];
  Alcotest.(check int) "LLB-256 immune to associativity" 1 (Asf.commits a2)

(* The timer interrupt: a region that speculated at cycle [start] is
   interrupted by its first ASF operation at or past the start of the
   next quantum, and by none a cycle earlier. A region may start on a
   boundary. *)
let test_interrupt_at_quantum_boundary () =
  let q = 1000 in
  let params = { Params.barcelona with Params.interrupt_quantum = q } in
  let commits ~start ~at =
    let e = Engine.create ~n_cores:1 () in
    let a = Asf.create (Memsys.create params e) Variant.llb8 in
    let committed = ref false in
    run_threads e
      [
        (fun () ->
          Engine.elapse start;
          Asf.speculate a ~core:0;
          Engine.elapse (at - Engine.core_time e 0);
          match Asf.commit a ~core:0 with
          | () -> committed := true
          | exception Asf.Aborted Abort.Interrupt -> ());
      ];
    !committed
  in
  List.iter
    (fun (start, at, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "speculate at %d, commit at %d" start at)
        want (commits ~start ~at))
    [ (1500, 1999, true); (1500, 2000, false); (2000, 2999, true); (2000, 3000, false) ]

(* ------------------------------------------------------------------ *)
(* Conflicts: requester-wins                                           *)
(* ------------------------------------------------------------------ *)

let test_requester_wins_read_write () =
  (* Core 0 reads X speculatively and parks; core 1 then writes X plainly;
     core 0 must abort with Contention at its next ASF op. *)
  let e, m, a = setup () in
  Memsys.poke m 500 10;
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          ignore (Asf.lock_load a ~core:0 500);
          Engine.elapse 2000 (* park while core 1 writes *);
          ignore (Asf.lock_load a ~core:0 508);
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
      (fun () ->
        Engine.elapse 500;
        Asf.plain_store a ~core:1 500 11);
    ];
  (match !result with
  | Some Abort.Contention -> ()
  | Some r -> Alcotest.failf "expected contention, got %s" (Abort.to_string r)
  | None -> Alcotest.fail "expected abort");
  Alcotest.(check int) "plain store survives" 11 (Memsys.peek m 500)

let test_requester_wins_write_read () =
  (* Core 0 speculatively writes X and parks; core 1 then merely READS X:
     write-set lines conflict with any remote access, and crucially the
     reader must see the pre-transactional value (strong isolation, undo
     before the probe is answered). *)
  let e, m, a = setup () in
  Memsys.poke m 600 77;
  let seen = ref (-1) in
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 600 88;
          Engine.elapse 2000;
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
      (fun () ->
        Engine.elapse 500;
        seen := Asf.plain_load a ~core:1 600);
    ];
  Alcotest.(check int) "reader saw rolled-back value" 77 !seen;
  (match !result with
  | Some Abort.Contention -> ()
  | _ -> Alcotest.fail "writer aborted by reader probe");
  Alcotest.(check int) "no speculative residue" 77 (Memsys.peek m 600)

let test_requester_loses_spec_conflict () =
  (* requester_wins:false ablation: a speculative access that would
     conflict with another region aborts the *requesting* region; the
     holder keeps its protection and commits. *)
  let e, m, a = setup ~requester_wins:false () in
  Memsys.poke m 640 5;
  let requester = ref None in
  let holder = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          ignore (Asf.lock_load a ~core:0 640);
          Engine.elapse 4000 (* hold the line while core 1 collides *);
          Asf.lock_store a ~core:0 640 6;
          Asf.commit a ~core:0
        with Asf.Aborted r -> holder := Some r);
      (fun () ->
        Engine.elapse 500;
        try
          Asf.speculate a ~core:1;
          Asf.lock_store a ~core:1 640 99;
          Asf.commit a ~core:1
        with Asf.Aborted r -> requester := Some r);
    ];
  (match !requester with
  | Some Abort.Contention -> ()
  | Some r -> Alcotest.failf "requester: expected contention, got %s" (Abort.to_string r)
  | None -> Alcotest.fail "requester must self-abort under requester-loses");
  Alcotest.(check bool) "holder survives" true (!holder = None);
  Alcotest.(check int) "holder's commit is the one published" 6 (Memsys.peek m 640);
  Alcotest.(check int) "exactly one commit" 1 (Asf.commits a);
  Alcotest.(check int) "requester knows the line"
    (Addr.line_base (Addr.line_of 640))
    (match Asf.last_conflict a ~core:1 with Some l -> l | None -> -1)

let test_requester_loses_plain_still_dooms () =
  (* Even with requester_wins:false, a *non-speculative* requester cannot
     be the one to back off — strong isolation demands the holder aborts
     and rolls back before the plain access completes. *)
  let e, m, a = setup ~requester_wins:false () in
  Memsys.poke m 648 77;
  let seen = ref (-1) in
  let holder = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 648 88;
          Engine.elapse 4000;
          Asf.commit a ~core:0
        with Asf.Aborted r -> holder := Some r);
      (fun () ->
        Engine.elapse 500;
        seen := Asf.plain_load a ~core:1 648);
    ];
  (match !holder with
  | Some Abort.Contention -> ()
  | _ -> Alcotest.fail "holder must be doomed by the plain access");
  Alcotest.(check int) "plain reader saw the rolled-back value" 77 !seen;
  Alcotest.(check int) "no speculative residue" 77 (Memsys.peek m 648)

let test_read_read_no_conflict () =
  let e, m, a = setup () in
  Memsys.poke m 700 3;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        ignore (Asf.lock_load a ~core:0 700);
        Engine.elapse 2000;
        Asf.commit a ~core:0);
      (fun () ->
        Engine.elapse 500;
        Asf.speculate a ~core:1;
        ignore (Asf.lock_load a ~core:1 700);
        Asf.commit a ~core:1);
    ];
  Alcotest.(check int) "both committed" 2 (Asf.commits a)

let test_speculative_store_invisible_until_commit () =
  (* Before any conflicting probe, a remote plain read sees old data while
     the region is active (values are published only by commit... in this
     model stores go to RAM guarded by requester-wins: reading the line
     *dooms or not*? A plain read of a speculatively-written line aborts
     the writer and sees the rollback — verified above. Reading an
     UNRELATED line is simply unaffected. *)
  let e, m, a = setup () in
  Memsys.poke m 800 1;
  Memsys.poke m 900 2;
  let seen = ref 0 in
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 800 5;
        Engine.elapse 2000;
        Asf.commit a ~core:0);
      (fun () ->
        Engine.elapse 500;
        seen := Asf.plain_load a ~core:1 900);
    ];
  Alcotest.(check int) "unrelated line untouched" 2 !seen;
  Alcotest.(check int) "writer committed" 5 (Memsys.peek m 800);
  Alcotest.(check int) "one commit" 1 (Asf.commits a)

(* The per-core signatures only narrow which regions get the exact LLB
   lookup. Core 1 read-protects line A; core 0 then plain-stores 500
   other lines, enough to hit each of the 62 signature bits several
   times, A's included. None of them may doom core 1; the store to A
   itself must. *)
let test_signature_hits_are_exact () =
  let e, _m, a = setup ~variant:Variant.llb256 () in
  let line_a = 4000 in
  let spurious = ref [] and doomed_by_a = ref false and result = ref None in
  run_threads e
    [
      (fun () ->
        Engine.elapse 500;
        for l = 1 to 500 do
          Asf.plain_store a ~core:0 (Addr.line_base l) l;
          if not (Asf.line_protected a ~core:1 line_a) then spurious := l :: !spurious
        done;
        Asf.plain_store a ~core:0 (Addr.line_base line_a) 1;
        doomed_by_a := not (Asf.line_protected a ~core:1 line_a));
      (fun () ->
        try
          Asf.speculate a ~core:1;
          ignore (Asf.lock_load a ~core:1 (Addr.line_base line_a));
          Engine.elapse 1_000_000;
          ignore (Asf.lock_load a ~core:1 (Addr.line_base line_a));
          Asf.commit a ~core:1
        with Asf.Aborted r -> result := Some r);
    ];
  Alcotest.(check (list int)) "no store to another line dooms core 1" [] !spurious;
  Alcotest.(check bool) "the store to A dooms core 1" true !doomed_by_a;
  match !result with
  | Some Abort.Contention -> ()
  | Some r -> Alcotest.failf "expected contention, got %s" (Abort.to_string r)
  | None -> Alcotest.fail "core 1 committed"

(* One plain store to a line 63 regions have read dooms all of them, in
   ascending core order, as the checking layer's observer sees it. *)
let test_broadcast_dooms_in_core_order () =
  let n_cores = 64 in
  let e = Engine.create ~n_cores () in
  let m = Memsys.create (Params.with_sockets Params.barcelona ~sockets:4) e in
  let a = Asf.create m Variant.llb256 in
  for p = 0 to 63 do
    Memsys.map_page m p
  done;
  let dooms = ref [] in
  Asf.set_observer a
    (Some
       (fun ~core -> function
         | Asf.Obs_doom r -> dooms := (core, Abort.to_string r) :: !dooms
         | _ -> ()));
  let addr = Addr.line_base 4000 in
  run_threads e
    (List.init n_cores (fun core () ->
         if core = 0 then begin
           Engine.elapse 20_000;
           Asf.plain_store a ~core addr 1
         end
         else
           try
             Asf.speculate a ~core;
             ignore (Asf.lock_load a ~core addr);
             Engine.elapse 200_000;
             Asf.commit a ~core
           with Asf.Aborted _ -> ()));
  Alcotest.(check (list (pair int string)))
    "cores 1..63 doomed in order"
    (List.init (n_cores - 1) (fun i -> (i + 1, Abort.to_string Abort.Contention)))
    (List.rev !dooms)

(* A machine wider than one signature word: above 62 cores a probe's
   candidates span several column words. Pages as in [setup]. *)
let setup_wide ?(requester_wins = true) n_cores =
  let e = Engine.create ~n_cores () in
  let params = Params.with_sockets Params.barcelona ~sockets:(min 4 n_cores) in
  let m = Memsys.create params e in
  let a = Asf.create m ~requester_wins Variant.llb256 in
  for p = 0 to 63 do
    Memsys.map_page m p
  done;
  (e, m, a)

(* Requester-loses on 130 cores: the only holder of the line is core
   129, in the third, partial signature word, and a speculative store
   by core 0 must still find it and abort itself. *)
let test_requester_loses_last_word () =
  let e, m, a = setup_wide ~requester_wins:false 130 in
  let addr = Addr.line_base 4000 in
  Memsys.poke m addr 5;
  let requester = ref None and holder = ref None in
  Engine.spawn e ~core:0 (fun () ->
      Engine.elapse 20_000;
      try
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 addr 99;
        Asf.commit a ~core:0
      with Asf.Aborted r -> requester := Some r);
  Engine.spawn e ~core:129 (fun () ->
      try
        Asf.speculate a ~core:129;
        ignore (Asf.lock_load a ~core:129 addr);
        Engine.elapse 200_000;
        Asf.commit a ~core:129
      with Asf.Aborted r -> holder := Some r);
  Engine.run e;
  (match !requester with
  | Some Abort.Contention -> ()
  | Some r -> Alcotest.failf "requester: expected contention, got %s" (Abort.to_string r)
  | None -> Alcotest.fail "requester must self-abort under requester-loses");
  Alcotest.(check bool) "holder survives" true (!holder = None);
  Alcotest.(check int) "holder's commit is the only one" 1 (Asf.commits a);
  Alcotest.(check int) "store never published" 5 (Memsys.peek m addr)

(* The probe visits only the cores whose signature columns hold the
   line's bit. Pin that against brute force on 1..130 cores (up to three
   signature words, the last one partial): holder cores protect random
   lines and park, then a prober core outside any region issues plain
   loads and stores. Before each access the expected dooms are every
   other core whose live region conflicts, by [Asf.line_written] for a
   load and [Asf.line_protected] for a store; the observer must see
   exactly those, in ascending core order. Each case draws a pool of 16
   random lines; over 62 signature bits, most pools have lines that
   share a bit. At most 12 cores hold lines, half of them among the top
   8 cores, and holders mostly read, so many regions survive until the
   probes and the last, partial signature word is exercised. *)
type probe_case = {
  cores : int;
  prober : int;
  holds : (int * bool) list array; (* per core: (line, write) *)
  probes : (int * bool) list;
}

let show_accesses l =
  String.concat " "
    (List.map (fun (line, w) -> Printf.sprintf "%s%d" (if w then "w" else "r") line) l)

let show_probe_case c =
  let holds =
    List.concat
      (List.mapi
         (fun core h ->
           if h = [] then [] else [ Printf.sprintf "%d:[%s]" core (show_accesses h) ])
         (Array.to_list c.holds))
  in
  Printf.sprintf "%d cores, prober %d, probes [%s], holds %s" c.cores c.prober
    (show_accesses c.probes) (String.concat " " holds)

let probe_case =
  let open QCheck.Gen in
  let* pool = array_repeat 16 (int_bound 4095) in
  let line = map (Array.get pool) (int_bound 15) in
  let hold = pair line (frequency [ (3, return false); (1, return true) ]) in
  let* cores =
    frequency [ (1, int_range 1 62); (1, int_range 63 124); (2, int_range 125 130) ]
  in
  let* prober = int_bound (cores - 1) in
  let holder =
    frequency [ (1, int_bound (cores - 1)); (1, int_range (max 0 (cores - 8)) (cores - 1)) ]
  in
  let* holders = list_size (int_range 1 12) (pair holder (list_size (int_range 1 3) hold)) in
  let+ probes = list_size (int_range 1 10) (pair line bool) in
  let holds = Array.make cores [] in
  List.iter (fun (core, h) -> holds.(core) <- h) holders;
  { cores; prober; holds; probes }

let prop_probe_matches_brute_force =
  QCheck.Test.make ~name:"probe dooms = brute force over every core" ~count:200
    (QCheck.make ~print:show_probe_case probe_case)
    (fun c ->
      let e, _m, a = setup_wide c.cores in
      let dooms = ref [] and mismatch = ref None in
      Asf.set_observer a
        (Some
           (fun ~core -> function
             | Asf.Obs_doom r -> dooms := (core, Abort.to_string r) :: !dooms
             | _ -> ()));
      for core = 0 to c.cores - 1 do
        if core <> c.prober && c.holds.(core) <> [] then
          Engine.spawn e ~core (fun () ->
              try
                Asf.speculate a ~core;
                List.iter
                  (fun (line, w) ->
                    let addr = Addr.line_base line in
                    if w then Asf.lock_store a ~core addr core
                    else ignore (Asf.lock_load a ~core addr))
                  c.holds.(core);
                Engine.elapse 1_000_000;
                Asf.commit a ~core
              with Asf.Aborted _ -> ())
      done;
      Engine.spawn e ~core:c.prober (fun () ->
          Engine.elapse 100_000;
          List.iteri
            (fun i (line, w) ->
              let conflicts core =
                core <> c.prober
                &&
                if w then Asf.line_protected a ~core line
                else Asf.line_written a ~core line
              in
              let want =
                List.filter conflicts (List.init c.cores Fun.id)
                |> List.map (fun core -> (core, Abort.to_string Abort.Contention))
              in
              dooms := [];
              let addr = Addr.line_base line in
              if w then Asf.plain_store a ~core:c.prober addr i
              else ignore (Asf.plain_load a ~core:c.prober addr);
              let got = List.rev !dooms in
              if got <> want && !mismatch = None then
                mismatch := Some (i, want, got))
            c.probes);
      Engine.run e;
      match !mismatch with
      | None -> true
      | Some (i, want, got) ->
          let show l =
            String.concat ", " (List.map (fun (core, r) -> Printf.sprintf "%d %s" core r) l)
          in
          QCheck.Test.fail_reportf "probe %d: want dooms [%s], got [%s]" i (show want)
            (show got))

(* ------------------------------------------------------------------ *)
(* Early release                                                       *)
(* ------------------------------------------------------------------ *)

let test_release_shrinks_read_set () =
  let e, _m, a = setup ~variant:Variant.llb8 () in
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        (* Walk 20 lines hand-over-hand, keeping at most 2 protected. *)
        for i = 0 to 19 do
          ignore (Asf.lock_load a ~core:0 (i * Addr.words_per_line));
          if i > 0 then Asf.release a ~core:0 ((i - 1) * Addr.words_per_line)
        done;
        Alcotest.(check int) "read set stayed small" 1
          (Asf.protected_lines a ~core:0);
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "committed despite LLB-8" 1 (Asf.commits a)

let test_release_does_not_cancel_store () =
  let e, m, a = setup () in
  Memsys.poke m 1000 1;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.lock_store a ~core:0 1000 2;
        Asf.release a ~core:0 1000 (* hint must be ignored for writes *);
        Alcotest.(check int) "write still protected" 1
          (Asf.written_lines a ~core:0);
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "store committed" 2 (Memsys.peek m 1000)

let test_released_line_no_longer_conflicts () =
  let e, m, a = setup () in
  Memsys.poke m 1100 1;
  let result = ref `None in
  run_threads e
    [
      (fun () ->
        (try
           Asf.speculate a ~core:0;
           ignore (Asf.lock_load a ~core:0 1100);
           Asf.release a ~core:0 1100;
           Engine.elapse 2000;
           ignore (Asf.lock_load a ~core:0 1108);
           Asf.commit a ~core:0;
           result := `Committed
         with Asf.Aborted _ -> result := `Aborted));
      (fun () ->
        Engine.elapse 500;
        Asf.plain_store a ~core:1 1100 9);
    ];
  Alcotest.(check bool) "survived remote write to released line" true
    (!result = `Committed)

(* ------------------------------------------------------------------ *)
(* Page faults and selective annotation                                *)
(* ------------------------------------------------------------------ *)

let test_page_fault_aborts_region () =
  let e, m, a = setup () in
  let result = ref None in
  run_threads e
    [
      (fun () ->
        (try
           Asf.speculate a ~core:0;
           (* Word 1M: never touched, page unmapped. *)
           ignore (Asf.lock_load a ~core:0 1_000_000);
           Asf.commit a ~core:0
         with Asf.Aborted r -> result := Some r);
        (* The runtime services the fault and retries; now it commits. *)
        (match !result with
        | Some (Abort.Page_fault page) -> Memsys.service_fault m ~page
        | _ -> Alcotest.fail "expected page-fault abort");
        Asf.speculate a ~core:0;
        ignore (Asf.lock_load a ~core:0 1_000_000);
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "retry committed" 1 (Asf.commits a)

let test_store_page_fault_aborts () =
  let e, _m, a = setup () in
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 2_000_000 1;
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
    ];
  match !result with
  | Some (Abort.Page_fault _) -> ()
  | _ -> Alcotest.fail "expected page-fault abort on store"

let test_plain_access_untracked () =
  (* Selective annotation: plain accesses consume no ASF capacity. *)
  let e, _m, a = setup ~variant:Variant.llb8 () in
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        for i = 0 to 63 do
          ignore (Asf.plain_load a ~core:0 (3000 + (i * Addr.words_per_line)))
        done;
        Alcotest.(check int) "no protected lines" 0 (Asf.protected_lines a ~core:0);
        Asf.commit a ~core:0);
    ];
  Alcotest.(check int) "committed" 1 (Asf.commits a)

let test_colocation_fault () =
  let e, _m, a = setup () in
  let faulted = ref false in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.lock_store a ~core:0 4000 1;
          (try Asf.plain_store a ~core:0 4001 2
           with Asf.Colocation_fault _ -> faulted := true);
          Asf.abort_explicit a ~core:0 ~code:0
        with Asf.Aborted _ -> ());
    ];
  Alcotest.(check bool) "unprotected write to written line faults" true !faulted

let test_watchw_protects_without_data () =
  let e, m, a = setup () in
  Memsys.poke m 5000 3;
  let result = ref None in
  run_threads e
    [
      (fun () ->
        try
          Asf.speculate a ~core:0;
          Asf.watchw a ~core:0 5000;
          Engine.elapse 2000;
          Asf.commit a ~core:0
        with Asf.Aborted r -> result := Some r);
      (fun () ->
        Engine.elapse 500;
        ignore (Asf.plain_load a ~core:1 5000));
    ];
  match !result with
  | Some Abort.Contention -> ()
  | _ -> Alcotest.fail "watchw line must conflict with remote reads"

let test_watchr_tolerates_remote_reads () =
  let e, m, a = setup () in
  Memsys.poke m 5100 3;
  run_threads e
    [
      (fun () ->
        Asf.speculate a ~core:0;
        Asf.watchr a ~core:0 5100;
        Engine.elapse 2000;
        Asf.commit a ~core:0);
      (fun () ->
        Engine.elapse 500;
        ignore (Asf.plain_load a ~core:1 5100));
    ];
  Alcotest.(check int) "committed" 1 (Asf.commits a)

(* ------------------------------------------------------------------ *)
(* DCAS (Fig. 1)                                                       *)
(* ------------------------------------------------------------------ *)

(* The paper's DCAS primitive: atomically
   if mem1 = cmp1 && mem2 = cmp2 then mem1 <- new1; mem2 <- new2. *)
let dcas a ~core ~mem1 ~mem2 ~cmp1 ~cmp2 ~new1 ~new2 =
  let rec retry () =
    match
      Asf.speculate a ~core;
      let v1 = Asf.lock_load a ~core mem1 in
      let v2 = Asf.lock_load a ~core mem2 in
      if v1 = cmp1 && v2 = cmp2 then begin
        Asf.lock_store a ~core mem1 new1;
        Asf.lock_store a ~core mem2 new2;
        Asf.commit a ~core;
        `Success
      end
      else begin
        Asf.commit a ~core;
        `Mismatch (v1, v2)
      end
    with
    | outcome -> outcome
    | exception Asf.Aborted _ ->
        Engine.elapse 50;
        retry ()
  in
  retry ()

let test_dcas_success_and_failure () =
  let e, m, a = setup () in
  Memsys.poke m 6000 1;
  Memsys.poke m 6100 2;
  run_threads e
    [
      (fun () ->
        (match dcas a ~core:0 ~mem1:6000 ~mem2:6100 ~cmp1:1 ~cmp2:2 ~new1:10 ~new2:20 with
        | `Success -> ()
        | `Mismatch _ -> Alcotest.fail "dcas should succeed");
        match dcas a ~core:0 ~mem1:6000 ~mem2:6100 ~cmp1:1 ~cmp2:2 ~new1:0 ~new2:0 with
        | `Mismatch (10, 20) -> ()
        | _ -> Alcotest.fail "dcas should report current values");
    ];
  Alcotest.(check int) "mem1" 10 (Memsys.peek m 6000);
  Alcotest.(check int) "mem2" 20 (Memsys.peek m 6100)

let test_dcas_concurrent_counters () =
  (* Classic DCAS exercise: two counters must move in lockstep under
     concurrent increments from every core. *)
  let n_cores = 4 and per_core = 50 in
  let e, m, a = setup ~n_cores () in
  Memsys.poke m 7000 0;
  Memsys.poke m 7100 0;
  let fns =
    List.init n_cores (fun core () ->
        let rec bump n =
          if n > 0 then begin
            let c1 = Asf.plain_load a ~core 7000 in
            let c2 = Asf.plain_load a ~core 7100 in
            match
              dcas a ~core ~mem1:7000 ~mem2:7100 ~cmp1:c1 ~cmp2:c2
                ~new1:(c1 + 1) ~new2:(c2 + 1)
            with
            | `Success -> bump (n - 1)
            | `Mismatch _ -> bump n
          end
        in
        bump per_core)
  in
  run_threads e fns;
  Alcotest.(check int) "counter 1" (n_cores * per_core) (Memsys.peek m 7000);
  Alcotest.(check int) "counter 2" (n_cores * per_core) (Memsys.peek m 7100)

(* ------------------------------------------------------------------ *)
(* Randomized atomicity property                                       *)
(* ------------------------------------------------------------------ *)

let test_random_transfers_conserve_sum () =
  (* 4 cores make random transfers between 8 accounts inside speculative
     regions; aborted attempts retry. Total balance is invariant. *)
  let n_cores = 4 and n_accounts = 8 and transfers = 100 in
  let e, m, a = setup ~n_cores ~variant:Variant.llb256 () in
  let account i = 8000 + (i * Addr.words_per_line) in
  for i = 0 to n_accounts - 1 do
    Memsys.poke m (account i) 1000
  done;
  let fns =
    List.init n_cores (fun core () ->
        let rng = Asf_engine.Prng.create (core + 99) in
        for _ = 1 to transfers do
          let src = Asf_engine.Prng.int rng n_accounts in
          let dst = Asf_engine.Prng.int rng n_accounts in
          let amt = Asf_engine.Prng.int rng 10 in
          let rec attempt backoff =
            try
              Asf.speculate a ~core;
              let s = Asf.lock_load a ~core (account src) in
              let d = Asf.lock_load a ~core (account dst) in
              if src <> dst then begin
                Asf.lock_store a ~core (account src) (s - amt);
                Asf.lock_store a ~core (account dst) (d + amt)
              end;
              Asf.commit a ~core
            with Asf.Aborted _ ->
              Engine.elapse backoff;
              attempt (min (backoff * 2) 10_000)
          in
          attempt 100
        done)
  in
  run_threads e fns;
  let total = ref 0 in
  for i = 0 to n_accounts - 1 do
    total := !total + Memsys.peek m (account i)
  done;
  Alcotest.(check int) "sum conserved" (n_accounts * 1000) !total;
  Alcotest.(check bool) "some contention happened" true
    (Array.fold_left ( + ) 0 (Asf.aborts a) >= 0)

let () =
  Alcotest.run "asf"
    [
      ( "llb",
        [
          Alcotest.test_case "capacity" `Quick test_llb_capacity;
          Alcotest.test_case "write upgrade" `Quick test_llb_write_upgrade;
          Alcotest.test_case "release rules" `Quick test_llb_release_rules;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_llb_model ~capacity:8 ~lines:64 ~max_len:200 ~count:300;
              prop_llb_model ~capacity:5 ~lines:64 ~max_len:200 ~count:100;
              prop_llb_model ~capacity:256 ~lines:2048 ~max_len:400 ~count:100;
              prop_llb_model ~capacity:max_int ~lines:1024 ~max_len:400 ~count:100;
            ] );
      ( "region",
        [
          Alcotest.test_case "commit publishes" `Quick test_commit_publishes;
          Alcotest.test_case "abort rolls back" `Quick test_explicit_abort_rolls_back;
          Alcotest.test_case "flat nesting" `Quick test_flat_nesting;
          Alcotest.test_case "nested abort" `Quick test_nested_abort_kills_outermost;
          Alcotest.test_case "interrupt at quantum boundary" `Quick
            test_interrupt_at_quantum_boundary;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "LLB-8 overflow" `Quick test_capacity_abort_llb8;
          Alcotest.test_case "LLB-256 fits" `Quick test_no_capacity_abort_llb256;
          Alcotest.test_case "hybrid reads in L1" `Quick test_hybrid_large_read_set;
          Alcotest.test_case "hybrid write bound" `Quick test_hybrid_write_capacity;
          Alcotest.test_case "hybrid displacement" `Quick test_hybrid_l1_displacement;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "write kills reader" `Quick test_requester_wins_read_write;
          Alcotest.test_case "read kills writer" `Quick test_requester_wins_write_read;
          Alcotest.test_case "requester-loses spec" `Quick test_requester_loses_spec_conflict;
          Alcotest.test_case "requester-loses plain" `Quick
            test_requester_loses_plain_still_dooms;
          Alcotest.test_case "read/read ok" `Quick test_read_read_no_conflict;
          Alcotest.test_case "isolation" `Quick test_speculative_store_invisible_until_commit;
          Alcotest.test_case "signature hits are exact" `Quick test_signature_hits_are_exact;
          Alcotest.test_case "broadcast dooms in core order" `Quick
            test_broadcast_dooms_in_core_order;
          Alcotest.test_case "requester-loses, holder in last word" `Quick
            test_requester_loses_last_word;
          QCheck_alcotest.to_alcotest prop_probe_matches_brute_force;
        ] );
      ( "release",
        [
          Alcotest.test_case "shrinks read set" `Quick test_release_shrinks_read_set;
          Alcotest.test_case "write pinned" `Quick test_release_does_not_cancel_store;
          Alcotest.test_case "no conflict after" `Quick test_released_line_no_longer_conflicts;
        ] );
      ( "faults",
        [
          Alcotest.test_case "load fault aborts" `Quick test_page_fault_aborts_region;
          Alcotest.test_case "store fault aborts" `Quick test_store_page_fault_aborts;
          Alcotest.test_case "plain untracked" `Quick test_plain_access_untracked;
          Alcotest.test_case "colocation fault" `Quick test_colocation_fault;
          Alcotest.test_case "watchw" `Quick test_watchw_protects_without_data;
          Alcotest.test_case "watchr" `Quick test_watchr_tolerates_remote_reads;
        ] );
      ( "dcas",
        [
          Alcotest.test_case "fig1 semantics" `Quick test_dcas_success_and_failure;
          Alcotest.test_case "concurrent counters" `Quick test_dcas_concurrent_counters;
        ] );
      ( "property",
        [ Alcotest.test_case "transfers conserve sum" `Quick test_random_transfers_conserve_sum ] );
    ]
