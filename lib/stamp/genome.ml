module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops
module Thashmap = Asf_dstruct.Thashmap

type cfg = { gene_length : int; seg_len : int; n_segs : int; work_per_segment : int }

let default = { gene_length = 1024; seg_len = 16; n_segs = 1024; work_per_segment = 60 }

(* Segment record in simulated memory (one padded line):
   [0] packed content, [1] successor record (0 = chain end),
   [2] overlap used for the successor link, [3] claimed flag (this
   segment already has a predecessor), [4] chain head (maintained on
   tails), [5] chain tail (maintained on heads). The head/tail metadata
   is STAMP's O(1) chain merge, which also rules out cycles: a tail never
   links to its own chain's head. *)

let f_content = 0

let f_next = 1

let f_overlap = 2

let f_claimed = 3

let f_head = 4

let f_tail = 5

let record_words = 6

let program cfg ~seed ~threads (so : Ops.t) =
  assert (cfg.seg_len >= 2 && cfg.seg_len <= 31);
  let rng = Prng.create (seed + 616) in
  (* The gene: 2 bits per base (host copy; the timed phases work on the
     packed segments in simulated memory). *)
  let gene = Array.init cfg.gene_length (fun _ -> Prng.int rng 4) in
  let pack start len =
    let v = ref 0 in
    for i = 0 to len - 1 do
      v := (!v lsl 2) lor gene.(start + i)
    done;
    !v
  in
  (* Packed values keyed into hash maps must be distinguishable from the
     null pointer / absent key; offset by 1 (content 0 = "AAAA..."). *)
  let starts =
    Array.init cfg.n_segs (fun _ -> Prng.int rng (cfg.gene_length - cfg.seg_len + 1))
  in
  let instances = so.alloc cfg.n_segs in
  Array.iteri (fun i s -> so.st (instances + i) (1 + pack s cfg.seg_len)) starts;
  let unique_expected =
    List.length
      (List.sort_uniq compare (Array.to_list (Array.map (fun s -> pack s cfg.seg_len) starts)))
  in
  (* A prefix of length o is the top 2o bits of the packed content; a
     suffix the bottom 2o bits. *)
  let prefix content o = ((content - 1) lsr (2 * (cfg.seg_len - o))) + 1 in
  let suffix content o = ((content - 1) land ((1 lsl (2 * o)) - 1)) + 1 in
  let dedup = Thashmap.create so ~buckets:2048 in
  let round_maps =
    Array.init cfg.seg_len (fun _ -> Thashmap.create so ~buckets:2048)
  in
  let barrier = Stamp_common.Barrier.create so ~n:threads in
  (* Unique records, collected by thread 0 between phases 1 and 2. *)
  let records = ref [||] in
  let chains = ref 0 in
  let chained_segments = ref 0 in
  let assembled_bases = ref 0 in
  let worker (cap : Cap.t) tid =
    let o = cap.o in
    (* Phase 1: deduplication. *)
    let start, stop = Stamp_common.chunk cfg.n_segs ~threads ~tid in
    for i = start to stop - 1 do
      cap.work cfg.work_per_segment;
      let content = cap.nld (instances + i) in
      cap.atomic "dedup" (fun () ->
          if Thashmap.get o dedup content = None then begin
            let r = o.alloc record_words in
            o.st (r + f_content) content;
            o.st (r + f_next) 0;
            o.st (r + f_overlap) 0;
            o.st (r + f_claimed) 0;
            o.st (r + f_head) r;
            o.st (r + f_tail) r;
            Thashmap.put o dedup content r
          end)
    done;
    Stamp_common.Barrier.wait cap barrier;
    (* Phase boundary: thread 0 gathers the unique records (timed plain
       scan, as STAMP's inter-phase processing is). *)
    if tid = 0 then begin
      let acc = ref [] in
      Thashmap.iter o dedup (fun _ r -> acc := r :: !acc);
      records := Array.of_list !acc
    end;
    Stamp_common.Barrier.wait cap barrier;
    let records = !records in
    let n_unique = Array.length records in
    (* Phase 2: overlap matching, longest overlaps first. *)
    for ov = cfg.seg_len - 1 downto 1 do
      let map = round_maps.(ov) in
      let ustart, ustop = Stamp_common.chunk n_unique ~threads ~tid in
      (* 2a: publish prefixes of segments that may still gain a
         predecessor. *)
      for i = ustart to ustop - 1 do
        let r = records.(i) in
        cap.atomic "publish-prefix" (fun () ->
            if o.ld (r + f_claimed) = 0 then begin
              let content = o.ld (r + f_content) in
              Thashmap.put o map (prefix content ov) r
            end)
      done;
      Stamp_common.Barrier.wait cap barrier;
      (* 2b: try to extend chain ends by their suffix. *)
      for i = ustart to ustop - 1 do
        let r = records.(i) in
        cap.work (cfg.work_per_segment / 2);
        cap.atomic "link" (fun () ->
            if o.ld (r + f_next) = 0 then begin
              let content = o.ld (r + f_content) in
              match Thashmap.get o map (suffix content ov) with
              | Some succ when succ <> r && o.ld (succ + f_claimed) = 0 ->
                  (* Refuse links that would close a cycle: [succ] must
                     not be the head of [r]'s own chain. *)
                  let head = o.ld (r + f_head) in
                  if head <> succ then begin
                    let tail = o.ld (succ + f_tail) in
                    o.st (r + f_next) succ;
                    o.st (r + f_overlap) ov;
                    o.st (succ + f_claimed) 1;
                    o.st (head + f_tail) tail;
                    o.st (tail + f_head) head
                  end
              | Some _ | None -> ()
            end)
      done;
      Stamp_common.Barrier.wait cap barrier
    done;
    (* Phase 3: sequential rebuild by thread 0: walk every chain. *)
    if tid = 0 then begin
      let visited = Hashtbl.create n_unique in
      Array.iter
        (fun r ->
          if o.ld (r + f_claimed) = 0 then begin
            (* Chain head. *)
            incr chains;
            let cur = ref r in
            let continue_ = ref true in
            while !continue_ do
              if Hashtbl.mem visited !cur then continue_ := false (* cycle guard *)
              else begin
                Hashtbl.add visited !cur ();
                incr chained_segments;
                cap.work 20;
                let next = o.ld (!cur + f_next) in
                let ov = o.ld (!cur + f_overlap) in
                assembled_bases :=
                  !assembled_bases + if next = 0 then cfg.seg_len else cfg.seg_len - ov;
                if next = 0 then continue_ := false else cur := next
              end
            done
          end)
        records
    end
  in
  let checks () =
    let n_unique = Array.length !records in
    [
      ("deduplicated to distinct segments", n_unique = unique_expected);
      ("chains partition the segments", !chained_segments = n_unique);
      ("assembly is compressive", !assembled_bases <= n_unique * cfg.seg_len);
      ("some overlaps were found", !chains < n_unique || n_unique <= 1);
    ]
  in
  { Stamp_common.worker; checks }
