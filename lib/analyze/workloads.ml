module Addr = Asf_mem.Addr
module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops
module Tlist = Asf_dstruct.Tlist
module Tskiplist = Asf_dstruct.Tskiplist
module Trbtree = Asf_dstruct.Trbtree
module Thashset = Asf_dstruct.Thashset
module Cap = Asf_stamp.Cap
module Bank = Asf_stamp.Bank
module Stamp = Asf_stamp.Stamp

type t = {
  w_name : string;
  w_er : bool;
  w_program : seed:int -> txns:int -> Ops.t -> Cap.t -> unit;
}

(* ------------------------------------------------------------------ *)
(* The weighted class schedule                                           *)
(* ------------------------------------------------------------------ *)

(* A transaction class: the body of one kind of atomic block. It draws
   its inputs through [rand] inside the block, so the analyzer's second
   pass replays them. *)
type txclass = { c_name : string; c_weight : int; c_body : Cap.t -> unit }

(* Every class once, then a weighted random pick for the rest of [txns]
   transactions. *)
let schedule ~seed ~txns classes (cap : Cap.t) =
  let srng = Prng.create (seed lxor 0x5bd1e995) in
  let run c = cap.atomic c.c_name (fun () -> c.c_body cap) in
  List.iter run classes;
  let total_weight = List.fold_left (fun s c -> s + c.c_weight) 0 classes in
  for _ = 1 to max 0 (txns - List.length classes) do
    let roll = Prng.int srng (max 1 total_weight) in
    let rec pick acc = function
      | [] -> ()
      | [ c ] -> run c
      | c :: rest -> if roll < acc + c.c_weight then run c else pick (acc + c.c_weight) rest
    in
    pick 0 classes
  done

let scheduled w_name ~er classes =
  {
    w_name;
    w_er = er;
    w_program = (fun ~seed ~txns so -> schedule ~seed ~txns (classes so ~seed));
  }

(* ------------------------------------------------------------------ *)
(* IntegerSet family                                                     *)
(* ------------------------------------------------------------------ *)

(* One configuration for the whole family, matching the runtime
   cross-validation runs (and the @check smoke configuration). *)
let intset_range = 256

let intset_update_pct = 20

let intset_init = intset_range / 2

let intset_buckets = 4096

type iface = {
  i_add : Ops.t -> int -> bool;
  i_remove : Ops.t -> int -> bool;
  i_contains : Ops.t -> int -> bool;
}

let intset_classes make_iface so ~seed =
  let s = make_iface so in
  (* Populate exactly like Intset.populate: same derived seed, same draw
     per attempted insertion. *)
  let rng = Prng.create (seed + 4242) in
  let n = ref 0 in
  while !n < intset_init do
    if s.i_add so (Prng.int rng intset_range) then incr n
  done;
  let u = intset_update_pct in
  let cls c_name c_weight op =
    { c_name; c_weight; c_body = (fun cap -> ignore (op cap.Cap.o (cap.rand intset_range))) }
  in
  List.filter
    (fun c -> c.c_weight > 0)
    [
      cls "add" u s.i_add;
      cls "remove" u s.i_remove;
      cls "contains" (200 - (2 * u)) s.i_contains;
    ]

let w_linked_list ~er name =
  scheduled name ~er
    (intset_classes (fun so ->
         let t = Tlist.create so in
         {
           i_add = (fun o k -> Tlist.add o t k);
           i_remove = (fun o k -> Tlist.remove o t k);
           i_contains = (fun o k -> Tlist.contains o t k);
         }))

let w_skip_list =
  scheduled "intset-skip-list" ~er:false
    (intset_classes (fun so ->
         let max_level = max 4 (int_of_float (Float.log2 (float_of_int intset_range))) in
         let t = Tskiplist.create so ~max_level () in
         {
           i_add = (fun o k -> Tskiplist.add o t k);
           i_remove = (fun o k -> Tskiplist.remove o t k);
           i_contains = (fun o k -> Tskiplist.contains o t k);
         }))

let w_rb_tree =
  scheduled "intset-rb-tree" ~er:false
    (intset_classes (fun so ->
         let t = Trbtree.create so in
         {
           i_add = (fun o k -> Trbtree.insert o t k k);
           i_remove = (fun o k -> Trbtree.remove o t k);
           i_contains = (fun o k -> Trbtree.mem o t k);
         }))

let w_hash_set =
  scheduled "intset-hash-set" ~er:false
    (intset_classes (fun so ->
         let t = Thashset.create so ~buckets:intset_buckets in
         {
           i_add = (fun o k -> Thashset.add o t k);
           i_remove = (fun o k -> Thashset.remove o t k);
           i_contains = (fun o k -> Thashset.contains o t k);
         }))

(* ------------------------------------------------------------------ *)
(* Bank and the STAMP applications                                       *)
(* ------------------------------------------------------------------ *)

let w_bank =
  scheduled "bank" ~er:false (fun so ~seed:_ ->
      let acct = Bank.create so in
      [
        {
          c_name = "transfer";
          c_weight = 49;
          c_body =
            (fun cap ->
              let src = acct.(cap.rand Bank.accounts) in
              let dst = acct.(cap.rand Bank.accounts) in
              let amount = cap.rand 20 in
              Bank.transfer cap ~src ~dst ~amount);
        };
        { c_name = "audit"; c_weight = 1; c_body = (fun cap -> ignore (Bank.audit cap acct)) };
      ])

let stamp_scale = 0.2

(* The application's own program, single-threaded: its atomic blocks
   are the classes, in the order the program first runs them. *)
let w_stamp app =
  {
    w_name = Stamp.name app;
    w_er = false;
    w_program =
      (fun ~seed ~txns:_ so ->
        let p = Stamp.program app ~scale:stamp_scale ~seed ~threads:1 so in
        fun cap -> p.worker cap 0);
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                              *)
(* ------------------------------------------------------------------ *)

let stock =
  [
    w_linked_list ~er:false "intset-linked-list";
    w_linked_list ~er:true "intset-linked-list-er";
    w_skip_list;
    w_rb_tree;
    w_hash_set;
    w_bank;
  ]
  @ List.map w_stamp Stamp.all

(* Negative fixtures. *)

let fixture name ~er c_name c_body =
  scheduled name ~er (fun so ~seed:_ -> [ { c_name; c_weight = 1; c_body = c_body so } ])

let fx_unsafe_annotation =
  fixture "fixture-unsafe-annotation" ~er:false "racy" (fun so ->
      let shared = so.Ops.alloc 8 in
      fun cap ->
        (* Transactionally write the line, then touch it with annotated
           accesses: both directions of the static race. *)
        cap.o.st shared (cap.o.ld shared + 1);
        ignore (cap.nld (shared + 1));
        cap.nst (shared + 2) 7)

let fx_over_capacity =
  fixture "fixture-over-capacity" ~er:false "huge-read" (fun so ->
      let lines = 300 in
      let block = so.Ops.alloc (lines * Addr.words_per_line) in
      fun cap ->
        for l = 0 to lines - 1 do
          ignore (cap.o.ld (block + (l * Addr.words_per_line)))
        done)

let fx_restart_hazard =
  fixture "fixture-restart-hazard" ~er:false "leaky" (fun so ->
      let cell = so.Ops.alloc 1 in
      (* Host-side mutable state captured by the closure: a restart (the
         analyzer's second execution) observes the increment the first
         execution left behind. *)
      let host_counter = ref 0 in
      fun cap ->
        incr host_counter;
        cap.o.st cell !host_counter)

let fx_reread_after_release =
  fixture "fixture-reread-after-release" ~er:true "reread" (fun so ->
      let block = so.Ops.alloc (2 * Addr.words_per_line) in
      fun cap ->
        ignore (cap.o.ld block);
        cap.o.release block;
        ignore (cap.o.ld (block + Addr.words_per_line));
        ignore (cap.o.ld block))

let fixtures =
  [ fx_unsafe_annotation; fx_over_capacity; fx_restart_hazard; fx_reread_after_release ]

let find name = List.find_opt (fun w -> w.w_name = name) (stock @ fixtures)
