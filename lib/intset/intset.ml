module Prng = Asf_engine.Prng
module Params = Asf_machine.Params
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Ops = Asf_dstruct.Ops
module Tlist = Asf_dstruct.Tlist
module Tskiplist = Asf_dstruct.Tskiplist
module Trbtree = Asf_dstruct.Trbtree
module Thashset = Asf_dstruct.Thashset
module Cap = Asf_stamp.Cap
module Stamp_common = Asf_stamp.Stamp_common

type structure = Linked_list | Skip_list | Rb_tree | Hash_set

let structure_name = function
  | Linked_list -> "linked-list"
  | Skip_list -> "skip-list"
  | Rb_tree -> "rb-tree"
  | Hash_set -> "hash-set"

type cfg = {
  structure : structure;
  range : int;
  update_pct : int;
  init_size : int option;
  txns_per_thread : int;
  early_release : bool;
  buckets : int;
}

let default_cfg structure =
  {
    structure;
    range = 1024;
    update_pct = (match structure with Hash_set -> 100 | _ -> 20);
    init_size = None;
    txns_per_thread = 2000;
    early_release = false;
    buckets = 1 lsl 17;
  }

type result = {
  txns : int;
  cycles : int;
  throughput_tx_per_us : float;
  stats : Stats.t;
  final_size : int;
  size_ok : bool;
}

(* A uniform view over the four structures. *)
type set_iface = {
  contains : Ops.t -> int -> bool;
  add : Ops.t -> int -> bool;
  remove : Ops.t -> int -> bool;
  size : Ops.t -> int;
}

let make_structure cfg setup_o =
  match cfg.structure with
  | Linked_list ->
      let t = Tlist.create setup_o in
      {
        contains = (fun o k -> Tlist.contains o t k);
        add = (fun o k -> Tlist.add o t k);
        remove = (fun o k -> Tlist.remove o t k);
        size = (fun o -> Tlist.size o t);
      }
  | Skip_list ->
      let max_level = max 4 (int_of_float (Float.log2 (float_of_int cfg.range))) in
      let t = Tskiplist.create setup_o ~max_level () in
      {
        contains = (fun o k -> Tskiplist.contains o t k);
        add = (fun o k -> Tskiplist.add o t k);
        remove = (fun o k -> Tskiplist.remove o t k);
        size = (fun o -> List.length (Tskiplist.to_list o t));
      }
  | Rb_tree ->
      let t = Trbtree.create setup_o in
      {
        contains = (fun o k -> Trbtree.mem o t k);
        add = (fun o k -> Trbtree.insert o t k k);
        remove = (fun o k -> Trbtree.remove o t k);
        size = (fun o -> Trbtree.size o t);
      }
  | Hash_set ->
      let t = Thashset.create setup_o ~buckets:cfg.buckets in
      {
        contains = (fun o k -> Thashset.contains o t k);
        add = (fun o k -> Thashset.add o t k);
        remove = (fun o k -> Thashset.remove o t k);
        size = (fun o -> Thashset.size o t);
      }

(* The benchmark as a program: set-up builds and populates the set,
   each worker runs [txns_per_thread] random operations, and the check
   compares the final size with the net of successful operations.
   [final_size] receives the size the check read. *)
let instance cfg ~final_size ~seed so =
  let set = make_structure cfg so in
  let init = match cfg.init_size with Some n -> n | None -> cfg.range / 2 in
  let rng = Prng.create (seed + 4242) in
  let n = ref 0 in
  while !n < init do
    if set.add so (Prng.int rng cfg.range) then incr n
  done;
  (* Per-key successful-operation balance, for the final size check. *)
  let net = Array.make cfg.range 0 in
  let worker (cap : Cap.t) _tid =
    let o = if cfg.early_release then { cap.o with release = cap.release } else cap.o in
    for _ = 1 to cfg.txns_per_thread do
      let k = cap.rand cfg.range in
      let roll = cap.rand 200 in
      if roll < cfg.update_pct then begin
        (* Half the update budget inserts, half removes. *)
        if cap.atomic "add" (fun () -> set.add o k) then net.(k) <- net.(k) + 1
      end
      else if roll < 2 * cfg.update_pct then begin
        if cap.atomic "remove" (fun () -> set.remove o k) then net.(k) <- net.(k) - 1
      end
      else ignore (cap.atomic "contains" (fun () -> set.contains o k))
    done
  in
  let checks () =
    final_size := set.size so;
    [ ("size", !final_size = init + Array.fold_left ( + ) 0 net) ]
  in
  { Stamp_common.worker; checks }

let program cfg ~seed ~threads:_ so = instance cfg ~final_size:(ref 0) ~seed so

let run (tm_cfg : Tm.config) ~threads cfg =
  let final_size = ref 0 in
  let r =
    Stamp_common.run ~name:(structure_name cfg.structure) tm_cfg ~threads
      (fun ~seed ~threads:_ so -> instance cfg ~final_size ~seed so)
  in
  let txns = threads * cfg.txns_per_thread in
  let us = Params.cycles_to_us tm_cfg.Tm.params r.cycles in
  {
    txns;
    cycles = r.cycles;
    throughput_tx_per_us = float_of_int txns /. us;
    stats = r.stats;
    final_size = !final_size;
    size_ok = Stamp_common.ok r;
  }
