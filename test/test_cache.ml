(* Tests for the cache directory model, TLB, hierarchy coherence, and the
   Memsys timed facade. *)

module Engine = Asf_engine.Engine
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Cache = Asf_cache.Cache
module Tlb = Asf_cache.Tlb
module Hierarchy = Asf_cache.Hierarchy
module Sharers = Asf_cache.Sharers
module Memsys = Asf_cache.Memsys

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~sets:4 ~assoc:2 in
  let hit, ev = Cache.touch c 0 in
  Alcotest.(check bool) "first access misses" false hit;
  Alcotest.(check (option int)) "no eviction on cold fill" None ev;
  let hit, _ = Cache.touch c 0 in
  Alcotest.(check bool) "second access hits" true hit

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~assoc:2 in
  ignore (Cache.touch c 10);
  ignore (Cache.touch c 20);
  ignore (Cache.touch c 10) (* 20 is now LRU *);
  let _, ev = Cache.touch c 30 in
  Alcotest.(check (option int)) "LRU way evicted" (Some 20) ev;
  Alcotest.(check bool) "10 survives" true (Cache.mem c 10);
  Alcotest.(check bool) "20 gone" false (Cache.mem c 20)

let test_cache_set_isolation () =
  let c = Cache.create ~sets:4 ~assoc:1 in
  (* Keys 0 and 4 share set 0; key 1 lives in set 1. *)
  ignore (Cache.touch c 0);
  ignore (Cache.touch c 1);
  let _, ev = Cache.touch c 4 in
  Alcotest.(check (option int)) "conflict in set 0" (Some 0) ev;
  Alcotest.(check bool) "set 1 untouched" true (Cache.mem c 1)

let test_cache_invalidate () =
  let c = Cache.create ~sets:2 ~assoc:2 in
  ignore (Cache.touch c 5);
  Alcotest.(check bool) "present removed" true (Cache.invalidate c 5);
  Alcotest.(check bool) "absent not removed" false (Cache.invalidate c 5)

let prop_cache_vs_reference_lru =
  (* Compare the cache against a straightforward per-set LRU list model. *)
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:100
    QCheck.(list (int_range 0 63))
    (fun keys ->
      let sets = 4 and assoc = 3 in
      let c = Cache.create ~sets ~assoc in
      let model = Array.make sets [] in
      List.for_all
        (fun k ->
          let s = k land (sets - 1) in
          let hit_model = List.mem k model.(s) in
          let hit, _ = Cache.touch c k in
          let l = k :: List.filter (fun x -> x <> k) model.(s) in
          model.(s) <- (if List.length l > assoc then List.filteri (fun i _ -> i < assoc) l else l);
          hit = hit_model)
        keys)

(* A straightforward per-set LRU list model, shared by the reference
   checks below: most-recent first, [touch] returns the displaced key. *)
module Lru_model = struct
  type t = { sets : int; assoc : int; ways : int list array }

  let create ~sets ~assoc = { sets; assoc; ways = Array.make sets [] }

  let idx t k = k land (t.sets - 1)

  let mem t k = List.mem k t.ways.(idx t k)

  let touch t k =
    let s = idx t k in
    let l = k :: List.filter (fun x -> x <> k) t.ways.(s) in
    let evicted = if List.length l > t.assoc then Some (List.nth l t.assoc) else None in
    t.ways.(s) <- List.filteri (fun i _ -> i < t.assoc) l;
    evicted

  let invalidate t k =
    let s = idx t k in
    let present = List.mem k t.ways.(s) in
    t.ways.(s) <- List.filter (fun x -> x <> k) t.ways.(s);
    present
end

(* The allocation-free hot-path entry points against the list model:
   [touch_evict], [touch_evict_at] fed [find_way_idx]'s index, and
   [invalidate] (a fifth of the ops). A fifth kind of op re-touches the
   previous op's key, which is then the most recent way of its set (or,
   after an invalidation, absent): uniform keys alone hit that way about
   once in 16 ops, and once in 64 at 48 ways, and it is the way the
   probe and the touch each decide without a scan. Hits, evicted tags
   and membership must all agree. *)
let touch_evict_matches_model ~name ~sets ~assoc ~keys ~len =
  QCheck.Test.make ~name ~count:200
    QCheck.(list_of_size len (pair (int_range 0 4) (int_range 0 (keys - 1))))
    (fun ops ->
      let c = Cache.create ~sets ~assoc in
      let m = Lru_model.create ~sets ~assoc in
      let prev = ref 0 in
      List.for_all
        (fun (op, k) ->
          let op, k = if op = 4 then (2, !prev) else (op, k) in
          prev := k;
          if op = 0 then Cache.invalidate c k = Lru_model.invalidate m k
          else begin
            let hit_model = Lru_model.mem m k in
            let idx = Cache.find_way_idx c k in
            let ev =
              if op = 1 then Cache.touch_evict c k else Cache.touch_evict_at c k idx
            in
            let ev_model = Lru_model.touch m k in
            (idx >= 0) = hit_model
            && (match ev_model with Some v -> ev = v | None -> ev = -1)
            && Cache.mem c k
          end)
        ops)

let prop_touch_evict_vs_model =
  touch_evict_matches_model ~name:"touch_evict/invalidate match reference LRU model"
    ~sets:4 ~assoc:3 ~keys:64 ~len:QCheck.Gen.nat

(* The L1 TLB's shape: one set of 48 ways. Its 64 keys are a third more
   than its ways, so the set hovers near full and invalidations land in
   the middle of full sets. *)
let prop_touch_evict_48_ways =
  touch_evict_matches_model ~name:"recency order matches LRU model, 1 set x 48 ways"
    ~sets:1 ~assoc:48 ~keys:64 ~len:(QCheck.Gen.int_bound 600)

(* A full 48-way set: an invalidation in the middle makes room for one
   fill without eviction, and the next miss evicts the least recent way. *)
let test_cache_invalidate_mid_set () =
  let c = Cache.create ~sets:1 ~assoc:48 in
  for k = 0 to 47 do
    ignore (Cache.touch_evict c k)
  done;
  Alcotest.(check bool) "middle way removed" true (Cache.invalidate c 20);
  Alcotest.(check bool) "ways behind the gap still found" true (Cache.mem c 0);
  Alcotest.(check int) "fill into the gap evicts nothing" (-1) (Cache.touch_evict c 100);
  Alcotest.(check int) "next miss evicts the LRU way" 0 (Cache.touch_evict c 101);
  Alcotest.(check bool) "the rest survive" true
    (List.for_all (Cache.mem c) (List.filter (fun k -> k > 0 && k <> 20) (List.init 48 Fun.id)))

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tlb_fault_then_hit () =
  let p = Params.barcelona in
  let t = Tlb.create p ~n_cores:1 in
  (match Tlb.translate t ~core:0 1000 ~speculative:false with
  | Tlb.Fault page -> Alcotest.(check int) "faults on unmapped" (Addr.page_of 1000) page
  | _ -> Alcotest.fail "expected fault");
  Tlb.map_page t (Addr.page_of 1000);
  (match Tlb.translate t ~core:0 1000 ~speculative:false with
  | Tlb.Translated extra ->
      Alcotest.(check int) "page walk cost" p.page_walk_latency extra
  | _ -> Alcotest.fail "expected walk");
  match Tlb.translate t ~core:0 1001 ~speculative:false with
  | Tlb.Translated extra -> Alcotest.(check int) "L1 TLB hit free" 0 extra
  | _ -> Alcotest.fail "expected hit"

let test_tlb_rock_ablation () =
  let p = Params.barcelona in
  let t = Tlb.create p ~n_cores:1 in
  Tlb.set_abort_on_tlb_miss t true;
  Tlb.map_page t 0;
  (* Miss, speculative: Rock-style abort. *)
  (match Tlb.translate t ~core:0 5 ~speculative:true with
  | Tlb.Tlb_miss_abort _ -> ()
  | _ -> Alcotest.fail "expected Rock-style abort");
  (* Non-speculative accesses are unaffected. *)
  match Tlb.translate t ~core:0 5 ~speculative:false with
  | Tlb.Translated _ -> ()
  | _ -> Alcotest.fail "expected translation"

let test_tlb_map_range () =
  let t = Tlb.create Params.barcelona ~n_cores:1 in
  Tlb.map_range t 500 100 (* crosses the page boundary at word 512 *);
  Alcotest.(check bool) "first page" true (Tlb.page_mapped t 0);
  Alcotest.(check bool) "second page" true (Tlb.page_mapped t 1);
  Alcotest.(check int) "exactly two" 2 (Tlb.mapped_pages t)

let prop_tlb_vs_reference_model =
  (* The flat page-table bitmap against a hashtable page set (the old
     representation) with LRU-model TLB caches: translate outcomes,
     page_mapped and mapped_pages must agree on random op sequences,
     including pages past the initial bitmap capacity. *)
  QCheck.Test.make ~name:"tlb bitmap matches hashtable reference model"
    ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 0 50)))
    (fun ops ->
      let p = Params.barcelona in
      let t = Tlb.create p ~n_cores:1 in
      let pages : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let l1m = Lru_model.create ~sets:1 ~assoc:p.tlb_l1_entries in
      let l2m =
        Lru_model.create ~sets:(p.tlb_l2_entries / p.tlb_l2_assoc)
          ~assoc:p.tlb_l2_assoc
      in
      let ref_translate page : Tlb.outcome =
        if Lru_model.mem l1m page then begin
          ignore (Lru_model.touch l1m page);
          Tlb.Translated 0
        end
        else if Lru_model.mem l2m page then begin
          ignore (Lru_model.touch l2m page);
          ignore (Lru_model.touch l1m page);
          Tlb.Translated p.tlb_l2_latency
        end
        else if not (Hashtbl.mem pages page) then Tlb.Fault page
        else begin
          ignore (Lru_model.touch l2m page);
          ignore (Lru_model.touch l1m page);
          Tlb.Translated p.page_walk_latency
        end
      in
      List.for_all
        (fun (tag, page) ->
          (* Pages 45-50 are remapped far past the initial 4096-slot
             bitmap so growth is exercised. *)
          let page = if page >= 45 then 5000 + ((page - 45) * 1024) else page in
          match tag with
          | 0 ->
              Tlb.map_page t page;
              Hashtbl.replace pages page ();
              true
          | 1 ->
              Tlb.unmap_page t page;
              Hashtbl.remove pages page;
              ignore (Lru_model.invalidate l1m page);
              ignore (Lru_model.invalidate l2m page);
              true
          | 2 ->
              let got = Tlb.translate t ~core:0 (page * 512) ~speculative:false in
              got = ref_translate page
          | _ ->
              Tlb.page_mapped t page = Hashtbl.mem pages page
              && Tlb.mapped_pages t = Hashtbl.length pages)
        ops)

(* [Tlb.translate] on two cores against a two-level LRU list model,
   with shootdowns ([flush_page]), unmaps and remaps interleaved and the
   Rock-style miss abort on or off. Pages come from 0..63, more than the
   48-entry L1 TLB holds, and from one L2 TLB set, more than its ways
   hold, so both levels evict. *)
type tlb_op =
  | Translate of int * int * bool (* core, page, speculative *)
  | Flush of int
  | Unmap of int
  | Map of int

let show_tlb_op = function
  | Translate (c, p, s) -> Printf.sprintf "translate c%d p%d%s" c p (if s then " spec" else "")
  | Flush p -> Printf.sprintf "flush p%d" p
  | Unmap p -> Printf.sprintf "unmap p%d" p
  | Map p -> Printf.sprintf "map p%d" p

let prop_tlb_vs_two_level_model =
  let p = Params.barcelona in
  let l2_sets = p.tlb_l2_entries / p.tlb_l2_assoc in
  let pool = List.init 64 Fun.id @ List.init 8 (fun k -> 100 + (k * l2_sets)) in
  let gen =
    let open QCheck.Gen in
    let page = oneofl pool in
    let op =
      frequency
        [
          (12, map3 (fun c pg s -> Translate (c, pg, s)) (int_bound 1) page bool);
          (1, map (fun pg -> Flush pg) page);
          (1, map (fun pg -> Unmap pg) page);
          (1, map (fun pg -> Map pg) page);
        ]
    in
    pair bool (list_size (int_bound 400) op)
  in
  let print (abort, ops) =
    Printf.sprintf "abort_on_tlb_miss %b: %s" abort
      (String.concat "; " (List.map show_tlb_op ops))
  in
  QCheck.Test.make ~name:"translate matches two-level LRU model" ~count:200
    (QCheck.make ~print gen)
    (fun (abort, ops) ->
      let t = Tlb.create p ~n_cores:2 in
      Tlb.set_abort_on_tlb_miss t abort;
      let mapped = Hashtbl.create 64 in
      List.iter
        (fun pg ->
          Tlb.map_page t pg;
          Hashtbl.replace mapped pg ())
        pool;
      let l1m = Array.init 2 (fun _ -> Lru_model.create ~sets:1 ~assoc:p.tlb_l1_entries) in
      let l2m =
        Array.init 2 (fun _ -> Lru_model.create ~sets:l2_sets ~assoc:p.tlb_l2_assoc)
      in
      let flush pg =
        Array.iter (fun m -> ignore (Lru_model.invalidate m pg)) l1m;
        Array.iter (fun m -> ignore (Lru_model.invalidate m pg)) l2m
      in
      let fill c pg =
        ignore (Lru_model.touch l2m.(c) pg);
        ignore (Lru_model.touch l1m.(c) pg)
      in
      let model c pg spec : Tlb.outcome =
        if Lru_model.mem l1m.(c) pg then begin
          ignore (Lru_model.touch l1m.(c) pg);
          Tlb.Translated 0
        end
        else if Lru_model.mem l2m.(c) pg then begin
          fill c pg;
          if abort && spec then Tlb.Tlb_miss_abort p.tlb_l2_latency
          else Tlb.Translated p.tlb_l2_latency
        end
        else if not (Hashtbl.mem mapped pg) then Tlb.Fault pg
        else if abort && spec then Tlb.Tlb_miss_abort p.page_walk_latency
        else begin
          fill c pg;
          Tlb.Translated p.page_walk_latency
        end
      in
      List.for_all
        (function
          | Translate (c, pg, spec) ->
              Tlb.translate t ~core:c (Addr.page_base pg) ~speculative:spec
              = model c pg spec
          | Flush pg ->
              Tlb.flush_page t pg;
              flush pg;
              true
          | Unmap pg ->
              Tlb.unmap_page t pg;
              Hashtbl.remove mapped pg;
              flush pg;
              true
          | Map pg ->
              Tlb.map_page t pg;
              Hashtbl.replace mapped pg ();
              true)
        ops)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let test_hierarchy_latencies () =
  let p = Params.barcelona in
  let h = Hierarchy.create p ~n_cores:2 in
  let lat1 = Hierarchy.access h ~core:0 ~line:7 ~write:false in
  Alcotest.(check int) "cold miss pays RAM" p.mem_latency lat1;
  let lat2 = Hierarchy.access h ~core:0 ~line:7 ~write:false in
  Alcotest.(check int) "then L1 hit" p.l1_latency lat2

let test_hierarchy_invalidation () =
  let p = Params.barcelona in
  let h = Hierarchy.create p ~n_cores:2 in
  ignore (Hierarchy.access h ~core:0 ~line:9 ~write:false);
  Alcotest.(check bool) "in core 0 L1" true (Hierarchy.line_in_l1 h ~core:0 ~line:9);
  let lat = Hierarchy.access h ~core:1 ~line:9 ~write:true in
  Alcotest.(check bool) "write probe costs extra" true (lat > p.l1_latency);
  Alcotest.(check bool) "invalidated from core 0" false
    (Hierarchy.line_in_l1 h ~core:0 ~line:9);
  Alcotest.(check int) "one invalidation" 1 (Hierarchy.invalidations h)

let test_hierarchy_remote_dirty_forward () =
  let p = Params.barcelona in
  let h = Hierarchy.create p ~n_cores:2 in
  ignore (Hierarchy.access h ~core:0 ~line:3 ~write:true);
  (* Core 1 read misses everywhere local but the line is dirty at core 0:
     cache-to-cache forward plus probe. *)
  let lat = Hierarchy.access h ~core:1 ~line:3 ~write:false in
  Alcotest.(check int) "forward + probe"
    (p.l3_latency + p.coherence_probe_latency) lat

let sum_l2_misses h ~n_cores =
  let acc = ref 0 in
  for c = 0 to n_cores - 1 do
    acc := !acc + (Hierarchy.l2_stats h ~core:c).Hierarchy.misses
  done;
  !acc

let test_hierarchy_forwards_accounting () =
  (* A cache-to-cache forward never consults the L3, so it lands in the
     dedicated [forwards] counter rather than either L3 bucket — and the
     read-path books balance: l3 hits + misses + forwards = l2 misses. *)
  let p = Params.barcelona in
  let h = Hierarchy.create p ~n_cores:2 in
  ignore (Hierarchy.access h ~core:0 ~line:3 ~write:true);
  ignore (Hierarchy.access h ~core:1 ~line:3 ~write:false);
  Alcotest.(check int) "one forward" 1 (Hierarchy.forwards h);
  (* A dirty write miss forwarded from core 1 counts too. *)
  ignore (Hierarchy.access h ~core:1 ~line:8 ~write:true);
  ignore (Hierarchy.access h ~core:0 ~line:8 ~write:true);
  Alcotest.(check int) "write-side forward" 2 (Hierarchy.forwards h);
  let l3 = Hierarchy.l3_stats h in
  Alcotest.(check int) "books balance"
    (sum_l2_misses h ~n_cores:2)
    (l3.Hierarchy.hits + l3.Hierarchy.misses + Hierarchy.forwards h)

let prop_l3_books_balance =
  QCheck.Test.make ~name:"l3 hits + misses + forwards = l2 misses" ~count:100
    QCheck.(list (triple (int_range 0 3) (int_range 0 63) bool))
    (fun ops ->
      let p = Params.dual_socket in
      let n_cores = 4 in
      let h = Hierarchy.create p ~n_cores in
      List.iter
        (fun (core, line, write) ->
          ignore (Hierarchy.access h ~core ~line ~write))
        ops;
      let l3 = Hierarchy.l3_stats h in
      l3.Hierarchy.hits + l3.Hierarchy.misses + Hierarchy.forwards h
      = sum_l2_misses h ~n_cores)

let test_hierarchy_cross_socket () =
  let p = { Params.dual_socket with Params.ooo_factor = 1.0 } in
  let h = Hierarchy.create p ~n_cores:4 in
  (* Cores 0-1 on socket 0, cores 2-3 on socket 1. Core 0 dirties a line;
     a read from core 1 (same socket) is cheaper than from core 2. *)
  ignore (Hierarchy.access h ~core:0 ~line:5 ~write:true);
  let same = Hierarchy.access h ~core:1 ~line:5 ~write:false in
  ignore (Hierarchy.access h ~core:0 ~line:6 ~write:true);
  let cross = Hierarchy.access h ~core:2 ~line:6 ~write:false in
  Alcotest.(check int) "same-socket forward"
    (p.Params.l3_latency + p.Params.coherence_probe_latency) same;
  Alcotest.(check int) "cross-socket forward adds the hop"
    (p.Params.l3_latency + p.Params.coherence_probe_latency
    + p.Params.cross_socket_latency)
    cross;
  Alcotest.(check bool) "cross probes counted" true
    (Hierarchy.cross_socket_probes h >= 1)

let test_hierarchy_per_socket_l3 () =
  let p = Params.dual_socket in
  let h = Hierarchy.create p ~n_cores:4 in
  (* Core 0 warms its socket's L3; core 2 (other socket) still misses to
     RAM after its own L1/L2 are cold and its L3 was never filled. *)
  ignore (Hierarchy.access h ~core:0 ~line:9 ~write:false);
  let other = Hierarchy.access h ~core:2 ~line:9 ~write:false in
  Alcotest.(check int) "other socket misses to RAM" p.Params.mem_latency other

let test_hierarchy_evict_hook () =
  let p = Params.barcelona in
  let h = Hierarchy.create p ~n_cores:1 in
  let evicted = ref [] in
  Hierarchy.set_evict_hook h ~core:0 (fun l -> evicted := l :: !evicted);
  (* L1: 64KB/2-way/64B lines -> 512 sets. Lines l and l+512 share a set;
     three distinct lines in one set with assoc 2 must evict one. *)
  ignore (Hierarchy.access h ~core:0 ~line:0 ~write:false);
  ignore (Hierarchy.access h ~core:0 ~line:512 ~write:false);
  ignore (Hierarchy.access h ~core:0 ~line:1024 ~write:false);
  Alcotest.(check (list int)) "LRU line 0 displaced" [ 0 ] !evicted

(* Reference coherence model: the directory as a hashtable of
   per-line entries (the representation the flat [dir_owners] /
   [dir_dirty] arrays replaced), over the same cache geometry. Latency,
   invalidation and cross-socket accounting and the evict-hook trail
   must be indistinguishable from [Hierarchy.access]. *)
module Ref_hier = struct
  (* Sharers as a plain core list (no packing), so the reference model
     is valid at any core count — including the 64-core topologies the
     production bitmask cannot represent. *)
  type entry = { mutable owners : int list; mutable dirty : int }

  type t = {
    p : Params.t;
    n_cores : int;
    l1 : Cache.t array;
    l2 : Cache.t array;
    l3 : Cache.t array;
    dir : (int, entry) Hashtbl.t;
    evict_hooks : (int -> unit) array;
    mutable forwards : int;
    mutable invalidations : int;
    mutable cross_socket_probes : int;
  }

  let create (p : Params.t) ~n_cores =
    let mk size assoc =
      Cache.create_bytes ~size_bytes:size ~assoc ~line_bytes:p.line_bytes
    in
    {
      p;
      n_cores;
      l1 = Array.init n_cores (fun _ -> mk p.l1_bytes p.l1_assoc);
      l2 = Array.init n_cores (fun _ -> mk p.l2_bytes p.l2_assoc);
      l3 = Array.init p.n_sockets (fun _ -> mk p.l3_bytes p.l3_assoc);
      dir = Hashtbl.create 64;
      evict_hooks = Array.make n_cores (fun _ -> ());
      forwards = 0;
      invalidations = 0;
      cross_socket_probes = 0;
    }

  let entry t line =
    match Hashtbl.find_opt t.dir line with
    | Some e -> e
    | None ->
        let e = { owners = []; dirty = -1 } in
        Hashtbl.add t.dir line e;
        e

  let socket_of t core = core * t.p.Params.n_sockets / t.n_cores

  let access t ~core ~line ~write =
    let p = t.p in
    let e = entry t line in
    let dirty0 = e.dirty in
    let socket = socket_of t core in
    let remote_dirty = dirty0 <> -1 && dirty0 <> core in
    let base_latency =
      if Cache.mem t.l1.(core) line then p.l1_latency
      else if Cache.mem t.l2.(core) line then p.l2_latency
      else if remote_dirty then begin
        t.forwards <- t.forwards + 1;
        p.l3_latency
      end
      else if Cache.mem t.l3.(socket) line then p.l3_latency
      else p.mem_latency
    in
    let extra = ref 0 in
    if write then begin
      let others = List.filter (fun c -> c <> core) e.owners in
      if others <> [] || remote_dirty then begin
        extra := !extra + p.coherence_probe_latency;
        t.invalidations <- t.invalidations + 1;
        let crossed = ref false in
        List.iter
          (fun c ->
            if socket_of t c <> socket then crossed := true;
            if Cache.invalidate t.l1.(c) line then t.evict_hooks.(c) line;
            ignore (Cache.invalidate t.l2.(c) line))
          (List.sort_uniq compare others);
        if !crossed then begin
          t.cross_socket_probes <- t.cross_socket_probes + 1;
          extra := !extra + p.cross_socket_latency
        end
      end;
      e.owners <- [ core ];
      e.dirty <- core
    end
    else begin
      if remote_dirty then begin
        extra := !extra + p.coherence_probe_latency;
        if socket_of t dirty0 <> socket then begin
          t.cross_socket_probes <- t.cross_socket_probes + 1;
          extra := !extra + p.cross_socket_latency
        end;
        e.dirty <- -1
      end;
      if not (List.mem core e.owners) then e.owners <- core :: e.owners
    end;
    (let victim = Cache.touch_evict t.l1.(core) line in
     if victim <> -1 then t.evict_hooks.(core) victim);
    ignore (Cache.touch_evict t.l2.(core) line);
    ignore (Cache.touch_evict t.l3.(socket) line);
    base_latency + !extra
end

let prop_hierarchy_vs_hashtbl_directory =
  QCheck.Test.make ~name:"hierarchy matches hashtable-directory reference"
    ~count:100
    QCheck.(list (triple (int_range 0 3) (int_range 0 63) bool))
    (fun ops ->
      let p = Params.dual_socket in
      let n_cores = 4 in
      let h = Hierarchy.create p ~n_cores in
      let r = Ref_hier.create p ~n_cores in
      let h_evicts = ref [] and r_evicts = ref [] in
      for core = 0 to n_cores - 1 do
        Hierarchy.set_evict_hook h ~core (fun l -> h_evicts := (core, l) :: !h_evicts);
        r.Ref_hier.evict_hooks.(core) <- (fun l -> r_evicts := (core, l) :: !r_evicts)
      done;
      let agree =
        List.for_all
          (fun (core, sel, write) ->
            (* Map the top of the range far past the directory's
               initial shard table so growth-by-doubling is exercised
               too. *)
            let line = if sel >= 60 then 70_000 + ((sel - 60) * 513) else sel in
            Hierarchy.access h ~core ~line ~write
            = Ref_hier.access r ~core ~line ~write)
          ops
      in
      agree
      && !h_evicts = !r_evicts
      && Hierarchy.forwards h = r.Ref_hier.forwards
      && Hierarchy.invalidations h = r.Ref_hier.invalidations
      && Hierarchy.cross_socket_probes h = r.Ref_hier.cross_socket_probes)

(* ------------------------------------------------------------------ *)
(* Sharer-set representations                                          *)
(* ------------------------------------------------------------------ *)

(* Topologies the battery sweeps: paper scale (bitmask + limited agree
   exactly) and big topologies only the limited backend can hold. *)
let sharers_topologies = [ (8, 1); (8, 2); (64, 4); (256, 8) ]

let prop_sharers_vs_reference =
  QCheck.Test.make
    ~name:"limited-pointer/coarse-vector sharer sets match reference set"
    ~count:150
    QCheck.(pair (int_range 0 3) (list (int_range 0 10_000)))
    (fun (ti, adds) ->
      let n_cores, n_sockets = List.nth sharers_topologies ti in
      let adds = List.map (fun a -> a mod n_cores) adds in
      let sock c = c * n_sockets / n_cores in
      let lim = Sharers.make_ctx ~kind:Sharers.Limited ~n_cores ~n_sockets in
      let bm =
        if n_cores <= Sharers.max_bitmask_cores then
          Some (Sharers.make_ctx ~kind:Sharers.Bitmask ~n_cores ~n_sockets)
        else None
      in
      let all_cores = List.init n_cores Fun.id in
      let check_state s_lim s_bm ref_set last_added =
        let truth = List.sort_uniq compare ref_set in
        let probe = Sharers.to_list lim s_lim in
        let repr_ok =
          if Sharers.exact lim s_lim then probe = truth
          else begin
            (* Coarse probe set: every core of every socket holding a
               true sharer — a superset of the truth, nothing else. *)
            let socks = List.sort_uniq compare (List.map sock truth) in
            probe = List.filter (fun c -> List.mem (sock c) socks) all_cores
          end
        in
        (* Coarse mode only engages past the pointer capacity. *)
        let overflow_ok =
          Sharers.exact lim s_lim || List.length truth > 4
        in
        let bm_ok =
          match s_bm with
          | None -> true
          | Some s -> Sharers.to_list (Option.get bm) s = truth
        in
        (* others / crossed must answer exactly per the true sharer set,
           coarse or not, for a sample of querying cores. *)
        let sample =
          List.sort_uniq compare [ 0; last_added; n_cores - 1 ]
        in
        let queries_ok =
          List.for_all
            (fun core ->
              let t_others = List.exists (fun c -> c <> core) truth in
              let t_crossed =
                List.exists (fun c -> c <> core && sock c <> sock core) truth
              in
              Sharers.others lim s_lim ~except:core = t_others
              && Sharers.crossed lim s_lim ~socket:(sock core) ~except:core
                 = t_crossed
              &&
              match s_bm with
              | None -> true
              | Some s ->
                  let ctx = Option.get bm in
                  Sharers.others ctx s ~except:core = t_others
                  && Sharers.crossed ctx s ~socket:(sock core) ~except:core
                     = t_crossed)
            sample
        in
        repr_ok && overflow_ok && bm_ok && queries_ok
      in
      let rec go s_lim s_bm ref_set = function
        | [] -> true
        | c :: rest ->
            let s_lim = Sharers.add lim s_lim c in
            let s_bm = Option.map (fun s -> Sharers.add (Option.get bm) s c) s_bm in
            let ref_set = c :: ref_set in
            check_state s_lim s_bm ref_set c && go s_lim s_bm ref_set rest
      in
      let s_bm0 = Option.map (fun _ -> Sharers.empty) bm in
      Sharers.is_empty Sharers.empty
      && (adds = []
          || Sharers.singleton lim (List.hd adds)
             = Sharers.add lim Sharers.empty (List.hd adds))
      && go Sharers.empty s_bm0 [] adds)

(* The same reference-model comparison as above, at 8, 64 and 256 cores
   (2, 4 and 8 sockets). The latter two run on the auto-selected limited
   backend, at topologies the old one-int-bitmask directory could not
   represent ([1 lsl 63] overflows): the coarse vector's spurious probes
   only hit cores that hold nothing, so latencies, evictions and every
   counter still match the exact-set reference. Lines fall on both sides
   of 512-line directory shard boundaries, and in two far shards (258
   and 20481) that grow the outer shard table and that a shard index cut
   to 256 to 4096 slots would alias with shards 2 and 1. The caches
   shrink to 4, 16 and 64 KiB, so a 256-core pair stays cheap to build
   and evictions are common. Directory occupancy must equal the
   reference's line count: two lines aliasing one slot would show
   there. *)
let reference_topologies = [| (8, 2); (64, 4); (256, 8) |]

let shard_line sel =
  let offsets = [| 0; 1; 2; 255; 256; 509; 510; 511 |] in
  let shard = sel / 8 in
  let base = if shard = 7 then 20_481 else if shard = 6 then 258 else shard in
  (base * 512) + offsets.(sel mod 8)

let prop_hierarchy64_vs_reference =
  QCheck.Test.make
    ~name:
      "64-core hierarchy (limited directory) matches reference, as do 8 and \
       256 cores"
    ~count:180
    QCheck.(pair (int_range 0 2) (list (triple (int_range 0 255) (int_range 0 63) bool)))
    (fun (ti, ops) ->
      let n_cores, sockets = reference_topologies.(ti) in
      let p =
        {
          (Params.with_sockets Params.barcelona ~sockets) with
          l1_bytes = 4096;
          l2_bytes = 16384;
          l3_bytes = 65536;
        }
      in
      let h = Hierarchy.create p ~n_cores in
      let r = Ref_hier.create p ~n_cores in
      let h_evicts = ref [] and r_evicts = ref [] in
      for core = 0 to n_cores - 1 do
        Hierarchy.set_evict_hook h ~core (fun l ->
            h_evicts := (core, l) :: !h_evicts);
        r.Ref_hier.evict_hooks.(core) <-
          (fun l -> r_evicts := (core, l) :: !r_evicts)
      done;
      let agree =
        List.for_all
          (fun (c, sel, write) ->
            let core = c mod n_cores and line = shard_line sel in
            Hierarchy.access h ~core ~line ~write
            = Ref_hier.access r ~core ~line ~write)
          ops
      in
      Hierarchy.backend h
      = (if n_cores > Sharers.max_bitmask_cores then Sharers.Limited
         else Sharers.Bitmask)
      && agree
      && !h_evicts = !r_evicts
      && Hierarchy.forwards h = r.Ref_hier.forwards
      && Hierarchy.invalidations h = r.Ref_hier.invalidations
      && Hierarchy.cross_socket_probes h = r.Ref_hier.cross_socket_probes
      && Hierarchy.dir_high_water h = Hashtbl.length r.Ref_hier.dir)

(* Directory shards hold 512 lines, so lines 511 and 512, and 1023 and
   1024, sit in different shards. Each keeps its own dirty owner and
   sharer set: a write or a downgrade on one side of a boundary leaves
   the other side as it was. *)
let test_hierarchy_shard_boundary () =
  let p = Params.barcelona in
  let h = Hierarchy.create p ~n_cores:8 in
  let forward = p.l3_latency + p.coherence_probe_latency in
  ignore (Hierarchy.access h ~core:0 ~line:511 ~write:true);
  Alcotest.(check int) "the clean neighbour pays RAM" p.mem_latency
    (Hierarchy.access h ~core:1 ~line:512 ~write:true);
  Alcotest.(check bool) "core 0 keeps its dirty line" true
    (Hierarchy.line_in_l1 h ~core:0 ~line:511);
  Alcotest.(check int) "511 forwarded from core 0" forward
    (Hierarchy.access h ~core:2 ~line:511 ~write:false);
  Alcotest.(check int) "512 still dirty at core 1" forward
    (Hierarchy.access h ~core:3 ~line:512 ~write:false);
  Alcotest.(check int) "511 clean after its downgrade" p.l3_latency
    (Hierarchy.access h ~core:4 ~line:511 ~write:false);
  Alcotest.(check int) "no invalidation yet" 0 (Hierarchy.invalidations h);
  List.iter
    (fun core ->
      ignore (Hierarchy.access h ~core ~line:1023 ~write:false);
      ignore (Hierarchy.access h ~core ~line:1024 ~write:false))
    [ 4; 5; 6 ];
  ignore (Hierarchy.access h ~core:7 ~line:1024 ~write:true);
  Alcotest.(check int) "one invalidation for 1024" 1 (Hierarchy.invalidations h);
  List.iter
    (fun core ->
      Alcotest.(check (pair bool bool))
        (Printf.sprintf "core %d keeps 1023, loses 1024" core)
        (true, false)
        ( Hierarchy.line_in_l1 h ~core ~line:1023,
          Hierarchy.line_in_l1 h ~core ~line:1024 ))
    [ 4; 5; 6 ];
  ignore (Hierarchy.access h ~core:7 ~line:1023 ~write:true);
  Alcotest.(check int) "then one for 1023" 2 (Hierarchy.invalidations h);
  Alcotest.(check bool) "core 4 loses 1023" false
    (Hierarchy.line_in_l1 h ~core:4 ~line:1023);
  Alcotest.(check int) "four directory lines" 4 (Hierarchy.dir_high_water h)

(* Whole-hierarchy backend equivalence on fig4-shaped traffic: mostly
   per-core private working sets, plus widely-shared read-hot lines
   (these overflow the 4 pointers and go coarse) and a few contended
   RMW lines — the access mix STAMP produces. Latency streams, eviction
   traces, stats and directory occupancy must be identical under both
   backends; only the probe census may differ (coarse sends spurious
   probes at cores that hold nothing). *)
let prop_backends_equivalent_on_fig4_traffic =
  QCheck.Test.make
    ~name:"bitmask vs limited backends equivalent on fig4-shaped traffic"
    ~count:40 QCheck.small_nat
    (fun seed ->
      let p = Params.dual_socket in
      let n_cores = 8 in
      let hb = Hierarchy.create ~sharers:Sharers.Bitmask p ~n_cores in
      let hl = Hierarchy.create ~sharers:Sharers.Limited p ~n_cores in
      let eb = ref [] and el = ref [] in
      for core = 0 to n_cores - 1 do
        Hierarchy.set_evict_hook hb ~core (fun l -> eb := (core, l) :: !eb);
        Hierarchy.set_evict_hook hl ~core (fun l -> el := (core, l) :: !el)
      done;
      let st = ref (seed + 1) in
      let rand m =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st mod m
      in
      let ok = ref true in
      for _ = 1 to 1500 do
        let core = rand n_cores in
        let r = rand 10 in
        let line, write =
          if r < 6 then ((1000 * core) + rand 48, rand 4 = 0)
          else if r < 8 then (500 + rand 8, false)
          else (600 + rand 4, true)
        in
        if
          Hierarchy.access hb ~core ~line ~write
          <> Hierarchy.access hl ~core ~line ~write
        then ok := false
      done;
      !ok
      && !eb = !el
      && Hierarchy.forwards hb = Hierarchy.forwards hl
      && Hierarchy.invalidations hb = Hierarchy.invalidations hl
      && Hierarchy.cross_socket_probes hb = Hierarchy.cross_socket_probes hl
      && Hierarchy.dir_high_water hb = Hierarchy.dir_high_water hl
      && Hierarchy.probes hl >= Hierarchy.probes hb)

(* Regression for the latent >= 63-core overflow: creation and traffic
   at 64 cores now work (auto-switched representation), and forcing the
   bitmask there is an explicit error instead of silent bit wraparound. *)
let test_hierarchy_64core () =
  let p = Params.with_sockets Params.barcelona ~sockets:4 in
  let h = Hierarchy.create p ~n_cores:64 in
  Alcotest.(check bool)
    "limited backend auto-selected" true
    (Hierarchy.backend h = Sharers.Limited);
  let line = 42 in
  for core = 0 to 63 do
    ignore (Hierarchy.access h ~core ~line ~write:false)
  done;
  let dropped = ref [] in
  Hierarchy.set_evict_hook h ~core:63 (fun l -> dropped := l :: !dropped);
  Alcotest.(check bool) "core 63 holds the line" true
    (Hierarchy.line_in_l1 h ~core:63 ~line);
  ignore (Hierarchy.access h ~core:0 ~line ~write:true);
  Alcotest.(check bool) "core 63 invalidated" false
    (Hierarchy.line_in_l1 h ~core:63 ~line);
  Alcotest.(check (list int)) "evict hook fired for core 63" [ line ] !dropped;
  Alcotest.(check int) "one invalidation event" 1 (Hierarchy.invalidations h);
  Alcotest.(check bool) "cross-socket probe charged" true
    (Hierarchy.cross_socket_probes h > 0);
  (* Distant lines exercise outer-array growth + lazy shard allocation. *)
  ignore (Hierarchy.access h ~core:7 ~line:10_000_000 ~write:true);
  Alcotest.(check bool) "distant line landed in L1" true
    (Hierarchy.line_in_l1 h ~core:7 ~line:10_000_000)

let test_bitmask_backend_caps_at_62 () =
  (match Hierarchy.create ~sharers:Sharers.Bitmask Params.barcelona ~n_cores:64 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bitmask backend accepted 64 cores");
  (match Sharers.make_ctx ~kind:Sharers.Bitmask ~n_cores:63 ~n_sockets:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bitmask ctx accepted 63 cores");
  ignore (Hierarchy.create ~sharers:Sharers.Bitmask Params.barcelona ~n_cores:62);
  (match Sharers.make_ctx ~kind:Sharers.Limited ~n_cores:513 ~n_sockets:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limited ctx accepted 513 cores");
  (match Sharers.make_ctx ~kind:Sharers.Limited ~n_cores:256 ~n_sockets:17 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limited ctx accepted 17 sockets")

(* ------------------------------------------------------------------ *)
(* Memsys                                                              *)
(* ------------------------------------------------------------------ *)

let with_thread f =
  (* Run [f] inside a single simulated thread and return (result, cycles). *)
  let e = Engine.create ~n_cores:2 () in
  let result = ref None in
  Engine.spawn e ~core:0 (fun () -> result := Some (f e));
  Engine.run e;
  (Option.get !result, Engine.core_time e 0)

let test_memsys_load_store () =
  let (), cycles =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Memsys.store m ~core:0 100 42;
        let v = Memsys.load m ~core:0 100 in
        Alcotest.(check int) "value round trip" 42 v)
  in
  Alcotest.(check bool) "time charged" true (cycles > 0)

let test_memsys_fault_serviced_outside_region () =
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        (* No fault hook: the OS services the first touch transparently. *)
        let v = Memsys.load m ~core:0 9999 in
        Alcotest.(check int) "zero fill after fault" 0 v;
        Alcotest.(check int) "one fault serviced" 1 (Memsys.faults_serviced m))
  in
  ()

let test_memsys_fault_hook_raises () =
  let exception Region_abort of int in
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Memsys.set_fault_hook m (fun ~core:_ fault ->
            match fault with
            | Memsys.Unmapped page -> raise (Region_abort page)
            | Memsys.Tlb_miss -> ());
        (try
           ignore (Memsys.load m ~core:0 777777);
           Alcotest.fail "expected abort"
         with Region_abort page ->
           Alcotest.(check int) "page reported" (Addr.page_of 777777) page);
        Alcotest.(check int) "not serviced by OS" 0 (Memsys.faults_serviced m);
        (* The runtime then services it explicitly and the retry succeeds. *)
        Memsys.service_fault m ~page:(Addr.page_of 777777);
        Alcotest.(check int) "retry ok" 0 (Memsys.load m ~core:0 777777))
  in
  ()

(* Rock-style TLB ablation with a fault hook that returns: the access
   falls back to normal translation, so the hook hears of the miss once.
   A speculative retry would miss on the page walk again, forever; the
   hook raises on a second delivery so that shows as a failure, not a
   hang. An L2-TLB hit is the one miss a speculative retry escaped,
   because it fills the L1 TLB before aborting. *)
let test_memsys_tlb_miss_hook_returns () =
  let exception Delivered_twice in
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Tlb.set_abort_on_tlb_miss (Memsys.tlb m) true;
        let deliveries = ref 0 in
        Memsys.set_fault_hook m (fun ~core:_ fault ->
            match fault with
            | Memsys.Tlb_miss ->
                incr deliveries;
                if !deliveries > 1 then raise Delivered_twice
            | Memsys.Unmapped _ -> Alcotest.fail "page is mapped");
        Memsys.poke m 4096 7;
        Alcotest.(check int) "page-walk miss: value" 7
          (Memsys.load m ~core:0 ~speculative:true 4096);
        Alcotest.(check int) "page-walk miss: one delivery" 1 !deliveries;
        Alcotest.(check int) "then an L1-TLB hit: no delivery" 7
          (Memsys.load m ~core:0 ~speculative:true 4096);
        Alcotest.(check int) "still one delivery" 1 !deliveries)
  in
  ()

let test_memsys_cas () =
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Memsys.poke m 50 5;
        Alcotest.(check bool) "cas fails on mismatch" false
          (Memsys.cas m ~core:0 50 ~expect:4 ~value:9);
        Alcotest.(check int) "unchanged" 5 (Memsys.peek m 50);
        Alcotest.(check bool) "cas succeeds" true
          (Memsys.cas m ~core:0 50 ~expect:5 ~value:9);
        Alcotest.(check int) "swapped" 9 (Memsys.peek m 50))
  in
  ()

let test_memsys_faa () =
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Memsys.poke m 60 10;
        Alcotest.(check int) "returns previous" 10 (Memsys.faa m ~core:0 60 3);
        Alcotest.(check int) "added" 13 (Memsys.peek m 60))
  in
  ()

let test_memsys_probe_hook_order () =
  (* The probe hook must fire before the access takes effect: it observes
     the pre-access RAM value. *)
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Memsys.poke m 80 1;
        let seen = ref (-1) in
        Memsys.set_probe_hook m (fun ~requester:_ ~line ~write ->
            if line = Addr.line_of 80 && write then seen := Memsys.peek m 80);
        Memsys.store m ~core:0 80 2;
        Alcotest.(check int) "hook saw old value" 1 !seen)
  in
  ()

let test_memsys_hot_cold_timing () =
  let (), _ =
    with_thread (fun e ->
        let m = Memsys.create Params.barcelona e in
        Memsys.poke m 200 0;
        let t0 = Engine.core_time e 0 in
        ignore (Memsys.load m ~core:0 200);
        let cold = Engine.core_time e 0 - t0 in
        let t1 = Engine.core_time e 0 in
        ignore (Memsys.load m ~core:0 200);
        let hot = Engine.core_time e 0 - t1 in
        Alcotest.(check bool)
          (Printf.sprintf "cold (%d) slower than hot (%d)" cold hot)
          true (cold > hot))
  in
  ()

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "set isolation" `Quick test_cache_set_isolation;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "invalidate mid-set" `Quick test_cache_invalidate_mid_set;
          q prop_cache_vs_reference_lru;
          q prop_touch_evict_vs_model;
          q prop_touch_evict_48_ways;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "fault then hit" `Quick test_tlb_fault_then_hit;
          Alcotest.test_case "rock ablation" `Quick test_tlb_rock_ablation;
          Alcotest.test_case "map range" `Quick test_tlb_map_range;
          q prop_tlb_vs_reference_model;
          q prop_tlb_vs_two_level_model;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "invalidation" `Quick test_hierarchy_invalidation;
          Alcotest.test_case "dirty forward" `Quick test_hierarchy_remote_dirty_forward;
          Alcotest.test_case "forwards accounting" `Quick test_hierarchy_forwards_accounting;
          q prop_l3_books_balance;
          Alcotest.test_case "cross socket" `Quick test_hierarchy_cross_socket;
          Alcotest.test_case "per-socket L3" `Quick test_hierarchy_per_socket_l3;
          Alcotest.test_case "evict hook" `Quick test_hierarchy_evict_hook;
          q prop_hierarchy_vs_hashtbl_directory;
          q prop_hierarchy64_vs_reference;
          Alcotest.test_case "shard boundary" `Quick test_hierarchy_shard_boundary;
          q prop_backends_equivalent_on_fig4_traffic;
          Alcotest.test_case "64-core topology" `Quick test_hierarchy_64core;
          Alcotest.test_case "backend capacity limits" `Quick
            test_bitmask_backend_caps_at_62;
        ] );
      ( "sharers",
        [
          q prop_sharers_vs_reference;
        ] );
      ( "memsys",
        [
          Alcotest.test_case "load/store" `Quick test_memsys_load_store;
          Alcotest.test_case "fault service" `Quick test_memsys_fault_serviced_outside_region;
          Alcotest.test_case "fault hook" `Quick test_memsys_fault_hook_raises;
          Alcotest.test_case "tlb-miss hook returns" `Quick
            test_memsys_tlb_miss_hook_returns;
          Alcotest.test_case "cas" `Quick test_memsys_cas;
          Alcotest.test_case "faa" `Quick test_memsys_faa;
          Alcotest.test_case "probe order" `Quick test_memsys_probe_hook_order;
          Alcotest.test_case "hot vs cold" `Quick test_memsys_hot_cold_timing;
        ] );
    ]
