module Params = Asf_machine.Params

type level_stats = { mutable hits : int; mutable misses : int }

module Counters = Asf_engine.Counters

(* A one-line read of the {!Counters} bank, kept because the repository
   benchmark (bench/perf) calls it: the coherence slots in their bank
   order, [| invalidations; forwards; cross_socket_probes; probes;
   dir_high_water |]. *)
let domain_coherence () =
  Array.sub (Counters.bank ()) Counters.invalidations (Counters.n - Counters.invalidations)

(* Directory shard geometry: 512 lines per shard, the span of one
   4096-word transactional-allocator chunk. Growth allocates two 4 KiB
   shard arrays at a time (plus an occasional doubling of the small
   outer pointer arrays), so the directory's host footprint follows
   the lines a run touches rather than the address range around them. *)
let shard_bits = 9
let shard_size = 1 lsl shard_bits
let shard_mask = shard_size - 1

type t = {
  params : Params.t;
  n_cores : int;
  l1 : Cache.t array;
  l2 : Cache.t array;
  (* One L3 per socket. *)
  l3 : Cache.t array;
  (* Coherence directory, indexed by line number, sharded by line-index
     stripe: shard [line lsr shard_bits], slot [line land shard_mask].
     Each slot holds a packed {!Sharers.t} word (cores holding a copy)
     and the core owning an exclusive dirty copy ([-1] = none). A
     zero-length inner array marks an unallocated shard. *)
  mutable dir_owners : Sharers.t array array;
  mutable dir_dirty : int array array;
  sharers : Sharers.ctx;
  evict_hooks : (int -> unit) array;
  l1s : level_stats array;
  l2s : level_stats array;
  l3s : level_stats;
  (* L2 misses served by a cache-to-cache forward from a remote dirty
     copy: these bypass the L3 lookup entirely, so they belong to neither
     [l3s.hits] nor [l3s.misses]. Counting them separately keeps the
     read-path books balanced: l3 hits + l3 misses + forwards = l2
     misses. *)
  mutable forwards : int;
  mutable invalidations : int;
  mutable cross_socket_probes : int;
  (* Remote cores actually probed by write-invalidations. Under the
     limited backend in coarse mode this exceeds the true sharer count
     (spurious probes hit cores that hold nothing — a no-op); it is
     surfaced for the scale experiment, never in cmp-gated output. *)
  mutable probes : int;
  (* Directory lines whose sharer word ever became non-empty. Writes
     collapse the word to a singleton, never to empty, so this is
     monotone: occupancy doubles as its own high-water mark. *)
  mutable dir_occ : int;
  (* Preallocated invalidation callback: [iter_others] calls it for each
     recorded sharer so the probe loop allocates no closure per event.
     The line being invalidated travels via [drop_line]. *)
  mutable drop_fn : int -> unit;
  mutable drop_line : int;
  (* The creating domain's {!Counters} bank, bumped beside the instance's
     own coherence counters. *)
  bank : int array;
}

let fresh_stats () = { hits = 0; misses = 0 }

let drop_from_core t ~core line =
  if Cache.invalidate t.l1.(core) line then t.evict_hooks.(core) line;
  ignore (Cache.invalidate t.l2.(core) line)

let create ?sharers (params : Params.t) ~n_cores =
  let kind =
    match sharers with
    | Some k -> k
    | None ->
        if n_cores <= Sharers.max_bitmask_cores then Sharers.Bitmask
        else Sharers.Limited
  in
  let sharers =
    Sharers.make_ctx ~kind ~n_cores ~n_sockets:params.n_sockets
  in
  let mk_l1 () =
    Cache.create_bytes ~size_bytes:params.l1_bytes ~assoc:params.l1_assoc
      ~line_bytes:params.line_bytes
  in
  let mk_l2 () =
    Cache.create_bytes ~size_bytes:params.l2_bytes ~assoc:params.l2_assoc
      ~line_bytes:params.line_bytes
  in
  let t =
    {
      params;
      n_cores;
      l1 = Array.init n_cores (fun _ -> mk_l1 ());
      l2 = Array.init n_cores (fun _ -> mk_l2 ());
      l3 =
        Array.init params.n_sockets (fun _ ->
            Cache.create_bytes ~size_bytes:params.l3_bytes
              ~assoc:params.l3_assoc ~line_bytes:params.line_bytes);
      dir_owners = Array.make 8 [||];
      dir_dirty = Array.make 8 [||];
      sharers;
      evict_hooks = Array.make n_cores (fun _ -> ());
      l1s = Array.init n_cores (fun _ -> fresh_stats ());
      l2s = Array.init n_cores (fun _ -> fresh_stats ());
      l3s = fresh_stats ();
      forwards = 0;
      invalidations = 0;
      cross_socket_probes = 0;
      probes = 0;
      dir_occ = 0;
      drop_fn = ignore;
      drop_line = 0;
      bank = Counters.bank ();
    }
  in
  t.drop_fn <-
    (fun c ->
      t.probes <- t.probes + 1;
      Counters.add t.bank Counters.probes 1;
      drop_from_core t ~core:c t.drop_line);
  t

let set_evict_hook t ~core f = t.evict_hooks.(core) <- f

(* Make the shard covering [line] exist (fresh slots: no owners, clean).
   The outer pointer arrays grow by doubling; that copy moves a few
   thousand words at most, the shards themselves are never copied. *)
let[@inline] ensure_dir t line =
  let si = line lsr shard_bits in
  (if si >= Array.length t.dir_owners then begin
     let n = Array.length t.dir_owners in
     let n' = ref n in
     while si >= !n' do
       n' := !n' * 2
     done;
     let owners = Array.make !n' [||] and dirty = Array.make !n' [||] in
     Array.blit t.dir_owners 0 owners 0 n;
     Array.blit t.dir_dirty 0 dirty 0 n;
     t.dir_owners <- owners;
     t.dir_dirty <- dirty
   end);
  if Array.length (Array.unsafe_get t.dir_owners si) = 0 then begin
    t.dir_owners.(si) <- Array.make shard_size Sharers.empty;
    t.dir_dirty.(si) <- Array.make shard_size (-1)
  end

let line_in_l1 t ~core ~line = Cache.mem t.l1.(core) line

let[@inline] bump_occupancy t =
  t.dir_occ <- t.dir_occ + 1;
  if t.dir_occ > t.bank.(Counters.dir_high_water) then
    t.bank.(Counters.dir_high_water) <- t.dir_occ

let[@inline] access t ~core ~line ~write =
  let p = t.params in
  ensure_dir t line;
  let si = line lsr shard_bits in
  let idx = line land shard_mask in
  let sh_owners = Array.unsafe_get t.dir_owners si in
  let sh_dirty = Array.unsafe_get t.dir_dirty si in
  let owners0 = Array.unsafe_get sh_owners idx in
  let dirty0 = Array.unsafe_get sh_dirty idx in
  (* Latency from the nearest level that holds the line. A miss that must
     be served by a remote dirty copy costs a cache-to-cache forward at
     L3-like latency plus the probe. Each level is scanned once: the way
     indices found here feed the fills at the end. They stay valid
     because in between only *other* cores' L1 and L2 are invalidated
     ([iter_others ~except:core]), and the evict hooks touch no cache. *)
  let ctx = t.sharers in
  let socket = Sharers.socket ctx core in
  let l1 = t.l1.(core) and l2 = t.l2.(core) and l3 = t.l3.(socket) in
  let i1 = Cache.find_way_idx l1 line in
  let i2 = Cache.find_way_idx l2 line in
  let i3 = Cache.find_way_idx l3 line in
  let in_l1 = i1 >= 0 and in_l2 = i2 >= 0 and in_l3 = i3 >= 0 in
  let remote_dirty = dirty0 <> -1 && dirty0 <> core in
  let base_latency =
    if in_l1 then begin
      t.l1s.(core).hits <- t.l1s.(core).hits + 1;
      p.l1_latency
    end
    else begin
      t.l1s.(core).misses <- t.l1s.(core).misses + 1;
      if in_l2 then begin
        t.l2s.(core).hits <- t.l2s.(core).hits + 1;
        p.l2_latency
      end
      else begin
        t.l2s.(core).misses <- t.l2s.(core).misses + 1;
        if remote_dirty then begin
          t.forwards <- t.forwards + 1;
          Counters.add t.bank Counters.forwards 1;
          p.l3_latency (* cache-to-cache forward *)
        end
        else if in_l3 then begin
          t.l3s.hits <- t.l3s.hits + 1;
          p.l3_latency
        end
        else begin
          t.l3s.misses <- t.l3s.misses + 1;
          p.mem_latency
        end
      end
    end
  in
  let extra = ref 0 in
  if write then begin
    (* Socket-granular snoop filtering: only recorded sharers (or, in
       coarse mode, cores of flagged sockets) are probed — never a
       [0 .. n_cores-1] scan. *)
    if Sharers.others ctx owners0 ~except:core || remote_dirty then begin
      extra := !extra + p.coherence_probe_latency;
      t.invalidations <- t.invalidations + 1;
      Counters.add t.bank Counters.invalidations 1;
      let crossed = Sharers.crossed ctx owners0 ~socket ~except:core in
      t.drop_line <- line;
      Sharers.iter_others ctx owners0 ~except:core t.drop_fn;
      if crossed then begin
        t.cross_socket_probes <- t.cross_socket_probes + 1;
        Counters.add t.bank Counters.cross_socket_probes 1;
        extra := !extra + p.cross_socket_latency
      end
    end;
    if Sharers.is_empty owners0 then bump_occupancy t;
    Array.unsafe_set sh_owners idx (Sharers.singleton ctx core);
    Array.unsafe_set sh_dirty idx core
  end
  else begin
    if remote_dirty then begin
      extra := !extra + p.coherence_probe_latency;
      (* A forward across a socket boundary pays the interconnect hop. *)
      if Sharers.socket ctx dirty0 <> socket then begin
        t.cross_socket_probes <- t.cross_socket_probes + 1;
        Counters.add t.bank Counters.cross_socket_probes 1;
        extra := !extra + p.cross_socket_latency
      end;
      Array.unsafe_set sh_dirty idx (-1)
      (* downgrade to shared; memory is already current *)
    end;
    if Sharers.is_empty owners0 then bump_occupancy t;
    Array.unsafe_set sh_owners idx (Sharers.add ctx owners0 core)
  end;
  (* Fill this core's caches and the shared L3. *)
  (let victim = Cache.touch_evict_at l1 line i1 in
   if victim <> -1 then t.evict_hooks.(core) victim);
  ignore (Cache.touch_evict_at l2 line i2);
  ignore (Cache.touch_evict_at l3 line i3);
  base_latency + !extra

let l1_stats t ~core = t.l1s.(core)

let l2_stats t ~core = t.l2s.(core)

let l3_stats t = t.l3s

let forwards t = t.forwards

let invalidations t = t.invalidations

let cross_socket_probes t = t.cross_socket_probes

let probes t = t.probes

let dir_high_water t = t.dir_occ

let backend t = Sharers.kind t.sharers
