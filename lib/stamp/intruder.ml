module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops
module Tqueue = Asf_dstruct.Tqueue
module Thashmap = Asf_dstruct.Thashmap

type cfg = { flows : int; frags_per_flow : int; attack_pct : int; detect_work : int }

let default = { flows = 256; frags_per_flow = 4; attack_pct = 10; detect_work = 40 }

(* Fragment payloads are 4 words (32 bytes) of random content held in a
   shared read-only capture pool; reassembly copies them into a per-flow
   buffer: [0] fragments received, [1..] the flow's payload words in
   order. Attack flows carry a signature word somewhere in their payload,
   found by the (compute-heavy) detection scan. *)

let frag_words = 4

let signature = 0x5eC0DE

let program cfg ~seed ~threads (so : Ops.t) =
  assert (cfg.frags_per_flow < 64);
  let rng = Prng.create (seed + 31337) in
  let is_attack flow = flow * 100 / cfg.flows < cfg.attack_pct in
  (* Capture pool: payload words for every fragment, indexed by
     (flow * frags + idx) * frag_words. *)
  let pool = so.alloc (cfg.flows * cfg.frags_per_flow * frag_words) in
  for flow = 0 to cfg.flows - 1 do
    for w = 0 to (cfg.frags_per_flow * frag_words) - 1 do
      (* Random payload, never colliding with the signature. *)
      let v =
        let r = Prng.int rng (1 lsl 24) in
        if r = signature then r + 1 else r
      in
      so.st (pool + (flow * cfg.frags_per_flow * frag_words) + w) v
    done;
    if is_attack flow then begin
      let pos = Prng.int rng (cfg.frags_per_flow * frag_words) in
      so.st (pool + (flow * cfg.frags_per_flow * frag_words) + pos) signature
    end
  done;
  let capture = Tqueue.create so in
  let frags =
    Array.init (cfg.flows * cfg.frags_per_flow) (fun i ->
        let flow = i / cfg.frags_per_flow and idx = i mod cfg.frags_per_flow in
        (flow * 64) + idx)
  in
  Prng.shuffle rng frags;
  Array.iter (fun f -> Tqueue.enqueue so capture f) frags;
  let reassembly = Thashmap.create so ~buckets:1024 in
  let completed = Array.make threads 0 in
  let attacks = Array.make threads 0 in
  let flow_words = cfg.frags_per_flow * frag_words in
  let worker (cap : Cap.t) tid =
    let o = cap.o in
    let running = ref true in
    while !running do
      match cap.atomic "dequeue" (fun () -> Tqueue.dequeue o capture) with
      | None -> running := false
      | Some frag ->
          let flow = frag / 64 and idx = frag mod 64 in
          let src = pool + (((flow * cfg.frags_per_flow) + idx) * frag_words) in
          let complete =
            cap.atomic "reassemble" (fun () ->
                let block =
                  match Thashmap.get o reassembly flow with
                  | Some b -> b
                  | None ->
                      let b = o.alloc (1 + flow_words) in
                      o.st b 0;
                      Thashmap.put o reassembly flow b;
                      b
                in
                (* Copy the fragment payload into place: the capture pool
                   is shared, so the compiler instruments its reads too. *)
                for w = 0 to frag_words - 1 do
                  o.st (block + 1 + (idx * frag_words) + w) (o.ld (src + w))
                done;
                let got = o.ld block + 1 in
                o.st block got;
                if got = cfg.frags_per_flow then begin
                  ignore (Thashmap.remove o reassembly flow);
                  Some block
                end
                else None)
          in
          (match complete with
          | Some block ->
              (* Detection: scan the assembled flow. The buffer is private
                 after removal from the shared map, so the scan is
                 non-transactional. *)
              let found = ref false in
              for w = 1 to flow_words do
                cap.work cfg.detect_work;
                if cap.nld (block + w) = signature then found := true
              done;
              completed.(tid) <- completed.(tid) + 1;
              if !found then attacks.(tid) <- attacks.(tid) + 1;
              cap.atomic "free-buffer" (fun () -> o.free block (1 + flow_words))
          | None -> ())
    done
  in
  let checks () =
    let total_completed = Array.fold_left ( + ) 0 completed in
    let total_attacks = Array.fold_left ( + ) 0 attacks in
    let expected_attacks =
      let n = ref 0 in
      for f = 0 to cfg.flows - 1 do
        if is_attack f then incr n
      done;
      !n
    in
    [
      ("all flows reassembled", total_completed = cfg.flows);
      ("all attacks detected, no false positives", total_attacks = expected_attacks);
      ("reassembly map drained", Thashmap.size so reassembly = 0);
    ]
  in
  { Stamp_common.worker; checks }
