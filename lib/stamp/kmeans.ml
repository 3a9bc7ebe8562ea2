module Prng = Asf_engine.Prng
module Addr = Asf_mem.Addr
module Ops = Asf_dstruct.Ops

type cfg = {
  points : int;
  dims : int;
  clusters : int;
  iterations : int;
  work_per_distance : int;
}

let base = { points = 1024; dims = 8; clusters = 16; iterations = 3; work_per_distance = 24 }

let low = { base with clusters = 40 }

let high = { base with clusters = 15 }

(* Simulated-memory layout:
   - points: cfg.points * cfg.dims words, read-only during the run;
   - centers: cfg.clusters * cfg.dims words, rewritten between iterations;
   - one accumulator block per cluster: [0] count, [1..dims] sums
     (line-padded, so clusters never false-share). *)

let program cfg ~seed ~threads (so : Ops.t) =
  let rng = Prng.create (seed + 77) in
  let pts = so.alloc (cfg.points * cfg.dims) in
  for i = 0 to (cfg.points * cfg.dims) - 1 do
    so.st (pts + i) (Prng.int rng 1000)
  done;
  let centers = so.alloc (cfg.clusters * cfg.dims) in
  for c = 0 to cfg.clusters - 1 do
    (* Initial centers: the first points. *)
    for d = 0 to cfg.dims - 1 do
      so.st (centers + (c * cfg.dims) + d) (so.ld (pts + (c * cfg.dims) + d))
    done
  done;
  let accum = Array.init cfg.clusters (fun _ -> so.alloc (1 + cfg.dims)) in
  Array.iter
    (fun a ->
      for i = 0 to cfg.dims do
        so.st (a + i) 0
      done)
    accum;
  let barrier = Stamp_common.Barrier.create so ~n:threads in
  let membership_ok = ref true in
  let worker (cap : Cap.t) tid =
    let start, stop = Stamp_common.chunk cfg.points ~threads ~tid in
    for _iter = 1 to cfg.iterations do
      for p = start to stop - 1 do
        (* Nearest center: centers are stable within an iteration, so the
           reads are selectively annotated as non-transactional. *)
        let best = ref 0 and best_d = ref max_int in
        for c = 0 to cfg.clusters - 1 do
          let dist = ref 0 in
          for d = 0 to cfg.dims - 1 do
            let pv = cap.nld (pts + (p * cfg.dims) + d) in
            let cv = cap.nld (centers + (c * cfg.dims) + d) in
            dist := !dist + ((pv - cv) * (pv - cv))
          done;
          cap.work cfg.work_per_distance;
          if !dist < !best_d then begin
            best_d := !dist;
            best := c
          end
        done;
        let acc = accum.(!best) in
        cap.atomic "accumulate" (fun () ->
            cap.o.st acc (cap.o.ld acc + 1);
            for d = 0 to cfg.dims - 1 do
              let slot = acc + 1 + d in
              cap.o.st slot (cap.o.ld slot + cap.nld (pts + (p * cfg.dims) + d))
            done)
      done;
      Stamp_common.Barrier.wait cap barrier;
      if tid = 0 then begin
        (* Sequential center recomputation (timed, uninstrumented). *)
        let total = ref 0 in
        Array.iteri
          (fun c a ->
            let count = cap.o.ld a in
            total := !total + count;
            if count > 0 then
              for d = 0 to cfg.dims - 1 do
                cap.o.st (centers + (c * cfg.dims) + d) (cap.o.ld (a + 1 + d) / count)
              done;
            for i = 0 to cfg.dims do
              cap.o.st (a + i) 0
            done)
          accum;
        if !total <> cfg.points then membership_ok := false
      end;
      Stamp_common.Barrier.wait cap barrier
    done
  in
  let checks () = [ ("every point assigned each iteration", !membership_ok) ] in
  { Stamp_common.worker; checks }
