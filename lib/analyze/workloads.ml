module Addr = Asf_mem.Addr
module Ops = Asf_dstruct.Ops
module Cap = Asf_stamp.Cap
module Stamp_common = Asf_stamp.Stamp_common
module Bank = Asf_stamp.Bank
module Stamp = Asf_stamp.Stamp
module Intset = Asf_intset.Intset

type t = { w_name : string; w_program : Stamp_common.program }

(* The IntegerSet family in one small configuration (the @check smoke
   configuration): 128 of 256 keys, 20 % updates. *)
let intset w_name structure early_release =
  let cfg =
    {
      (Intset.default_cfg structure) with
      Intset.range = 256;
      update_pct = 20;
      init_size = Some 128;
      txns_per_thread = 200;
      early_release;
      buckets = 4096;
    }
  in
  { w_name; w_program = Intset.program cfg }

let stock =
  [
    intset "intset-linked-list" Intset.Linked_list false;
    intset "intset-linked-list-er" Intset.Linked_list true;
    intset "intset-skip-list" Intset.Skip_list false;
    intset "intset-rb-tree" Intset.Rb_tree false;
    intset "intset-hash-set" Intset.Hash_set false;
    { w_name = "bank"; w_program = Bank.program ~txns:200 };
  ]
  @ List.map
      (fun app -> { w_name = Stamp.name app; w_program = Stamp.program app ~scale:0.2 })
      Stamp.all

(* Negative fixtures: [body so] builds the state and returns one atomic
   block's body, which each run executes ten times. *)
let fixture w_name block body =
  let w_program ~seed:_ ~threads:_ so =
    let body = body so in
    let worker (cap : Cap.t) _tid =
      for _ = 1 to 10 do
        cap.atomic block (fun () -> body cap)
      done
    in
    { Stamp_common.worker; checks = (fun () -> []) }
  in
  { w_name; w_program }

let fx_unsafe_annotation =
  fixture "fixture-unsafe-annotation" "racy" (fun so ->
      let shared = so.Ops.alloc 8 in
      fun cap ->
        (* Transactionally write the line, then touch it with annotated
           accesses: both directions of the static race. *)
        cap.o.st shared (cap.o.ld shared + 1);
        ignore (cap.nld (shared + 1));
        cap.nst (shared + 2) 7)

let fx_over_capacity =
  fixture "fixture-over-capacity" "huge-read" (fun so ->
      let lines = 300 in
      let block = so.Ops.alloc (lines * Addr.words_per_line) in
      fun cap ->
        for l = 0 to lines - 1 do
          ignore (cap.o.ld (block + (l * Addr.words_per_line)))
        done)

let fx_restart_hazard =
  fixture "fixture-restart-hazard" "leaky" (fun so ->
      let cell = so.Ops.alloc 1 in
      (* Host-side mutable state captured by the closure: a restart (the
         analyzer's second execution) observes the increment the first
         execution left behind. *)
      let host_counter = ref 0 in
      fun cap ->
        incr host_counter;
        cap.o.st cell !host_counter)

let fx_reread_after_release =
  fixture "fixture-reread-after-release" "reread" (fun so ->
      let block = so.Ops.alloc (2 * Addr.words_per_line) in
      fun cap ->
        ignore (cap.o.ld block);
        cap.release block;
        ignore (cap.o.ld (block + Addr.words_per_line));
        ignore (cap.o.ld block))

let fixtures =
  [ fx_unsafe_annotation; fx_over_capacity; fx_restart_hazard; fx_reread_after_release ]

let find name = List.find_opt (fun w -> w.w_name = name) (stock @ fixtures)
