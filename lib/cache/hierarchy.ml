module Params = Asf_machine.Params

type level_stats = { mutable hits : int; mutable misses : int }

module Counters = Asf_engine.Counters

(* A one-line read of the {!Counters} bank, kept because the repository
   benchmark (bench/perf) calls it: the coherence slots in their bank
   order, [| invalidations; forwards; cross_socket_probes; probes;
   dir_high_water |]. *)
let domain_coherence () =
  Array.sub (Counters.bank ()) Counters.invalidations (Counters.n - Counters.invalidations)

(* Directory shard geometry. A line takes [1 lsl stride_bits] ints: its
   dirty owner, then its {!Sharers} words, so the owner and the sharers
   share a host cache line. Every shard holds 512 ints, 256 lines at up
   to 62 cores and 64 at 256. Shards are allocated as lines are first
   touched, so the directory's host footprint follows the lines a run
   touches rather than the address range around them. A 512-line shard
   would take 32 KiB at 256 cores, where the touched lines are sparse
   (DESIGN.md, "Directory representations"). *)
let shard_bits = 9
let shard_size = 1 lsl shard_bits
let shard_mask = shard_size - 1

type t = {
  params : Params.t;
  n_cores : int;
  l1 : Cache.t array;
  l2 : Cache.t array;
  (* Whether an L1 hit in its set's most-recent way skips L2 (see
     [create]). *)
  l2_skip : bool;
  (* One L3 per socket. *)
  l3 : Cache.t array;
  (* Coherence directory: line [line] sits at index
     [i = line lsl stride_bits], in shard [i lsr shard_bits] at slot
     [i land shard_mask]. The slot holds the core owning an exclusive
     dirty copy, [-1] if none, or [-2] for a line no access has
     touched yet; the next {!Sharers.words} slots hold the cores
     holding a copy. A zero-length shard is unallocated. *)
  mutable dir : int array array;
  stride_bits : int;
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
  (* Remote cores probed by write-invalidations: the recorded sharers
     other than the writer, one per visit. *)
  mutable probes : int;
  (* Directory lines some access has touched. A touched line never
     turns untouched again, so this is monotone: occupancy doubles as
     its own high-water mark. *)
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

let create (params : Params.t) ~n_cores =
  let sharers = Sharers.make_ctx ~n_cores ~n_sockets:params.n_sockets in
  let stride_bits = ref 1 in
  while 1 lsl !stride_bits < Sharers.words sharers + 1 do
    incr stride_bits
  done;
  let mk_l1 () =
    Cache.create_bytes ~size_bytes:params.l1_bytes ~assoc:params.l1_assoc
      ~line_bytes:params.line_bytes
  in
  let mk_l2 () =
    Cache.create_bytes ~size_bytes:params.l2_bytes ~assoc:params.l2_assoc
      ~line_bytes:params.line_bytes
  in
  (* A core's access fills or touches its line in its L1 and L2
     together, [drop_from_core] removes a line from both, and nothing
     else changes either. When L1's set count divides L2's, the lines
     of one L2 set all map to one L1 set, so L2 holds them in L1's
     recency order; when L1 is also no more associative than L2, L2
     cannot evict a line while L1 holds it. A line in its L1 set's
     most-recent way is then in its L2 set's most-recent way, where a
     touch changes nothing, and an L1 hit never reads the L2 lookup. *)
  let sets bytes assoc = bytes / (assoc * params.line_bytes) in
  let l2_skip =
    sets params.l2_bytes params.l2_assoc mod sets params.l1_bytes params.l1_assoc = 0
    && params.l1_assoc <= params.l2_assoc
  in
  let t =
    {
      params;
      n_cores;
      l1 = Array.init n_cores (fun _ -> mk_l1 ());
      l2 = Array.init n_cores (fun _ -> mk_l2 ());
      l2_skip;
      l3 =
        Array.init params.n_sockets (fun _ ->
            Cache.create_bytes ~size_bytes:params.l3_bytes
              ~assoc:params.l3_assoc ~line_bytes:params.line_bytes);
      dir = Array.make 8 [||];
      stride_bits = !stride_bits;
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

(* Allocate shard [si], every line untouched. The outer pointer
   array grows by doubling; that copy moves a few thousand words at
   most, the shards themselves are never copied. *)
let new_shard t si =
  if si >= Array.length t.dir then begin
    let n = ref (Array.length t.dir) in
    while si >= !n do
      n := !n * 2
    done;
    let dir = Array.make !n [||] in
    Array.blit t.dir 0 dir 0 (Array.length t.dir);
    t.dir <- dir
  end;
  let stride_mask = (1 lsl t.stride_bits) - 1 in
  let sh = Array.init shard_size (fun i -> if i land stride_mask = 0 then -2 else 0) in
  t.dir.(si) <- sh;
  sh

(* The shard holding directory index [i]. *)
let[@inline] shard t i =
  let si = i lsr shard_bits in
  if si < Array.length t.dir then begin
    let sh = Array.unsafe_get t.dir si in
    if Array.length sh > 0 then sh else new_shard t si
  end
  else new_shard t si

let line_in_l1 t ~core ~line = Cache.mem t.l1.(core) line

let[@inline] bump_occupancy t =
  t.dir_occ <- t.dir_occ + 1;
  if t.dir_occ > t.bank.(Counters.dir_high_water) then
    t.bank.(Counters.dir_high_water) <- t.dir_occ

let[@inline] access t ~core ~line ~write =
  let p = t.params in
  let i = line lsl t.stride_bits in
  let sh = shard t i in
  let slot = i land shard_mask in
  let ws = slot + 1 in
  let dirty0 = Array.unsafe_get sh slot in
  (* Latency from the nearest level that holds the line. A miss that must
     be served by a remote dirty copy costs a cache-to-cache forward at
     L3-like latency plus the probe. Each level is scanned once: the way
     indices found here feed the fills at the end. They stay valid
     because in between only *other* cores' L1 and L2 are invalidated
     ([iter_others ~except:core]), and the evict hooks touch no cache.
     An L1 hit in the set's most-recent way skips L2 where [create]
     allows it. *)
  let ctx = t.sharers in
  let socket = Sharers.socket ctx core in
  let l1 = t.l1.(core) and l2 = t.l2.(core) and l3 = t.l3.(socket) in
  let i1 = Cache.find_way_idx l1 line in
  let skip_l2 = t.l2_skip && Cache.is_most_recent l1 line i1 in
  let i2 = if skip_l2 then -1 else Cache.find_way_idx l2 line in
  let i3 = Cache.find_way_idx l3 line in
  let in_l1 = i1 >= 0 and in_l2 = i2 >= 0 and in_l3 = i3 >= 0 in
  let remote_dirty = dirty0 >= 0 && dirty0 <> core in
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
    (* Only the recorded sharers are probed, never a [0 .. n_cores-1]
       scan. *)
    if Sharers.others ctx sh ws ~except:core || remote_dirty then begin
      extra := !extra + p.coherence_probe_latency;
      t.invalidations <- t.invalidations + 1;
      Counters.add t.bank Counters.invalidations 1;
      let crossed = Sharers.crossed ctx sh ws ~socket in
      t.drop_line <- line;
      Sharers.iter_others ctx sh ws ~except:core t.drop_fn;
      if crossed then begin
        t.cross_socket_probes <- t.cross_socket_probes + 1;
        Counters.add t.bank Counters.cross_socket_probes 1;
        extra := !extra + p.cross_socket_latency
      end
    end;
    if dirty0 = -2 then bump_occupancy t;
    Sharers.set_singleton ctx sh ws core;
    Array.unsafe_set sh slot core
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
      Array.unsafe_set sh slot (-1)
      (* downgrade to shared; memory is already current *)
    end
    else if dirty0 = -2 then begin
      bump_occupancy t;
      Array.unsafe_set sh slot (-1)
    end;
    Sharers.add ctx sh ws core
  end;
  (* Fill this core's caches and the shared L3. *)
  (let victim = Cache.touch_evict_at l1 line i1 in
   if victim <> -1 then t.evict_hooks.(core) victim);
  if not skip_l2 then ignore (Cache.touch_evict_at l2 line i2);
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
