module Prng = Asf_engine.Prng
module Addr = Asf_mem.Addr
module Ops = Asf_dstruct.Ops

type cfg = { vertices : int; edges : int; max_degree : int; work_per_edge : int }

let default = { vertices = 2048; edges = 6144; max_degree = 8; work_per_edge = 60 }

(* Adjacency block per vertex (line-padded): [0] degree, [1..max] slots. *)

let program cfg ~seed ~threads (so : Ops.t) =
  let rng = Prng.create (seed + 1311) in
  let block_words = 1 + cfg.max_degree in
  let stride = Addr.lines_of_words block_words * Addr.words_per_line in
  let adj = so.alloc (cfg.vertices * stride) in
  for v = 0 to cfg.vertices - 1 do
    so.st (adj + (v * stride)) 0
  done;
  let src = Array.init cfg.edges (fun _ -> Prng.int rng cfg.vertices) in
  let dst = Array.init cfg.edges (fun _ -> Prng.int rng cfg.vertices) in
  let dropped = Array.make threads 0 in
  let worker (cap : Cap.t) tid =
    let start, stop = Stamp_common.chunk cfg.edges ~threads ~tid in
    for e = start to stop - 1 do
      cap.work cfg.work_per_edge;
      let block = adj + (src.(e) * stride) in
      let added =
        cap.atomic "insert-edge" (fun () ->
            let deg = cap.o.ld block in
            if deg < cfg.max_degree then begin
              cap.o.st (block + 1 + deg) dst.(e);
              cap.o.st block (deg + 1);
              true
            end
            else false)
      in
      if not added then dropped.(tid) <- dropped.(tid) + 1
    done
  in
  let checks () =
    let total_degree = ref 0 in
    for v = 0 to cfg.vertices - 1 do
      total_degree := !total_degree + so.ld (adj + (v * stride))
    done;
    let total_dropped = Array.fold_left ( + ) 0 dropped in
    [ ("all edges accounted", !total_degree + total_dropped = cfg.edges) ]
  in
  { Stamp_common.worker; checks }
