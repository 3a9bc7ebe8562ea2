module Params = Asf_machine.Params
module Addr = Asf_mem.Addr

type t = {
  params : Params.t;
  l1 : Cache.t array;
  l2 : Cache.t array;
  (* Shared page table as a presence bitmap indexed by page number, grown
     by doubling: page numbers are small and dense (word address / page
     words), so the per-translation mapped test is one byte load instead
     of a hashtable probe. [mapped] counts the set bits. *)
  mutable page_table : Bytes.t;
  mutable mapped : int;
  mutable abort_on_tlb_miss : bool;
  (* The two translations that cost cycles, built once: an L2-TLB hit and
     a page walk. *)
  l2_hit : outcome;
  walk : outcome;
}

and outcome = Translated of int | Fault of int | Tlb_miss_abort of int

let create (params : Params.t) ~n_cores =
  {
    params;
    l1 =
      Array.init n_cores (fun _ ->
          Cache.create ~sets:1 ~assoc:params.tlb_l1_entries);
    l2 =
      Array.init n_cores (fun _ ->
          Cache.create
            ~sets:(params.tlb_l2_entries / params.tlb_l2_assoc)
            ~assoc:params.tlb_l2_assoc);
    page_table = Bytes.make 4096 '\000';
    mapped = 0;
    abort_on_tlb_miss = false;
    l2_hit = Translated params.tlb_l2_latency;
    walk = Translated params.page_walk_latency;
  }

let page_mapped t page =
  page < Bytes.length t.page_table
  && Bytes.unsafe_get t.page_table page <> '\000'

let map_page t page =
  let n = Bytes.length t.page_table in
  if page >= n then begin
    let n' = ref n in
    while page >= !n' do
      n' := !n' * 2
    done;
    let table = Bytes.make !n' '\000' in
    Bytes.blit t.page_table 0 table 0 n;
    t.page_table <- table
  end;
  if Bytes.unsafe_get t.page_table page = '\000' then begin
    Bytes.unsafe_set t.page_table page '\001';
    t.mapped <- t.mapped + 1
  end

let map_range t addr words =
  let first = Addr.page_of addr and last = Addr.page_of (addr + words - 1) in
  for p = first to last do
    map_page t p
  done

let set_abort_on_tlb_miss t b = t.abort_on_tlb_miss <- b

(* A shootdown invalidates the cached translation on every core; the next
   access to the page pays a full page walk. *)
let flush_page t page =
  Array.iter (fun c -> ignore (Cache.invalidate c page)) t.l1;
  Array.iter (fun c -> ignore (Cache.invalidate c page)) t.l2

let unmap_page t page =
  if page_mapped t page then begin
    Bytes.unsafe_set t.page_table page '\000';
    t.mapped <- t.mapped - 1
  end;
  flush_page t page

let translate t ~core addr ~speculative =
  let page = Addr.page_of addr in
  let l1 = t.l1.(core) and l2 = t.l2.(core) in
  (* One scan per level: a miss index is [-1], which is all
     [touch_evict_at] needs to fill. *)
  let i1 = Cache.find_way_idx l1 page in
  if i1 >= 0 then begin
    ignore (Cache.touch_evict_at l1 page i1);
    Translated 0
  end
  else
    let i2 = Cache.find_way_idx l2 page in
    if i2 >= 0 then begin
      ignore (Cache.touch_evict_at l2 page i2);
      ignore (Cache.touch_evict_at l1 page (-1));
      if t.abort_on_tlb_miss && speculative then
        Tlb_miss_abort t.params.tlb_l2_latency
      else t.l2_hit
    end
    else if not (page_mapped t page) then Fault page
    else if t.abort_on_tlb_miss && speculative then
      Tlb_miss_abort t.params.page_walk_latency
    else begin
      ignore (Cache.touch_evict_at l2 page (-1));
      ignore (Cache.touch_evict_at l1 page (-1));
      t.walk
    end

let mapped_pages t = t.mapped
