module Params = Asf_machine.Params
module Addr = Asf_mem.Addr

(* One core's TLBs. The fully associative L1 TLB is a recency list:
   nodes [1 .. ways] are its ways and node 0 is the list's sentinel, so
   the list runs most recent first from [next 0] and ends at [prev 0].
   Valid ways come first and invalid ones trail them. A hit moves its
   way to the front. A fill takes the tail way, an invalid one while any
   is left, else the least recently used valid way. A shootdown moves
   its way to the tail. That is exact LRU over the valid ways, and a
   fill evicts only when all ways are valid. *)
type core = {
  (* Slot 0 holds the most-recent way's page, which the inline hit test
     compares; slot [w] holds way [w]'s page. [-1] marks an invalid way,
     and slot 0 reads [-1] while the most-recent way is invalid. *)
  pages : int array;
  (* Node [n]'s next at byte [2n], its prev at [2n + 1]. *)
  links : Bytes.t;
  (* Page -> the way holding it, 0 if none, for the pages below
     [indexed], the index's length (kept apart so that a lookup's bound
     test does not read the bytes' last word). A lookup needs no hash.
     A fill past the end at least doubles the index, so it spans the
     pages this core has filled rather than the whole page table (in a
     256-core rb-tree run the median core's highest page is 60 of
     4096). *)
  mutable index : Bytes.t;
  mutable indexed : int;
  l2 : Cache.t;
}

type t = {
  params : Params.t;
  cores : core array;
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

(* The links are bytes, so a node number is at most 255. *)
let max_l1_entries = 255

let create_core (params : Params.t) ~ways =
  let links = Bytes.create (2 * (ways + 1)) in
  for n = 0 to ways do
    Bytes.set links (2 * n) (Char.chr ((n + 1) mod (ways + 1)));
    Bytes.set links ((2 * n) + 1) (Char.chr ((n + ways) mod (ways + 1)))
  done;
  {
    pages = Array.make (ways + 1) (-1);
    links;
    index = Bytes.empty;
    indexed = 0;
    l2 =
      Cache.create
        ~sets:(params.tlb_l2_entries / params.tlb_l2_assoc)
        ~assoc:params.tlb_l2_assoc;
  }

let create (params : Params.t) ~n_cores =
  let ways = params.tlb_l1_entries in
  if ways < 1 || ways > max_l1_entries then
    invalid_arg
      (Printf.sprintf "Tlb.create: tlb_l1_entries must be in 1..%d" max_l1_entries);
  {
    params;
    cores = Array.init n_cores (fun _ -> create_core params ~ways);
    page_table = Bytes.make 4096 '\000';
    mapped = 0;
    abort_on_tlb_miss = false;
    l2_hit = Translated params.tlb_l2_latency;
    walk = Translated params.page_walk_latency;
  }

let[@inline] next c n = Char.code (Bytes.unsafe_get c.links (2 * n))

let[@inline] prev c n = Char.code (Bytes.unsafe_get c.links ((2 * n) + 1))

let[@inline] set_next c n m = Bytes.unsafe_set c.links (2 * n) (Char.unsafe_chr m)

let[@inline] set_prev c n m = Bytes.unsafe_set c.links ((2 * n) + 1) (Char.unsafe_chr m)

let[@inline] unlink c w =
  let n = next c w and p = prev c w in
  set_next c p n;
  set_prev c n p

(* Link way [w], out of the list, between node [p] and its next. *)
let[@inline] insert_after c p w =
  let n = next c p in
  set_next c w n;
  set_prev c w p;
  set_next c p w;
  set_prev c n w

let[@inline] way_of c page =
  if page < c.indexed then Char.code (Bytes.unsafe_get c.index page) else 0

(* Make [w] the most recent way. *)
let[@inline] to_front c w =
  unlink c w;
  insert_after c 0 w;
  Array.unsafe_set c.pages 0 (Array.unsafe_get c.pages w)

(* Grow [c]'s index to cover [page]: at least doubling, so a core grows
   it only a few times in a run. *)
let grow_index c page =
  let n = ref (max 64 (2 * c.indexed)) in
  while page >= !n do
    n := !n * 2
  done;
  let index = Bytes.make !n '\000' in
  Bytes.blit c.index 0 index 0 c.indexed;
  c.index <- index;
  c.indexed <- !n

(* Put [page], not held, into the tail way. The index write is
   bounds-checked, so a growth that fell short fails here instead of
   writing past the end. *)
let fill c page =
  if page >= c.indexed then grow_index c page;
  let w = prev c 0 in
  let old = Array.unsafe_get c.pages w in
  if old <> -1 then Bytes.unsafe_set c.index old '\000';
  Bytes.set c.index page (Char.unsafe_chr w);
  Array.unsafe_set c.pages w page;
  to_front c w

(* Invalidate [page]'s way, if any, and move it to the tail. *)
let shootdown c page =
  let w = way_of c page in
  if w <> 0 then begin
    Bytes.unsafe_set c.index page '\000';
    Array.unsafe_set c.pages w (-1);
    unlink c w;
    insert_after c (prev c 0) w;
    Array.unsafe_set c.pages 0 (Array.unsafe_get c.pages (next c 0))
  end

let[@inline] page_mapped t page =
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
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    shootdown c page;
    ignore (Cache.invalidate c.l2 page)
  done

let unmap_page t page =
  if page_mapped t page then begin
    Bytes.unsafe_set t.page_table page '\000';
    t.mapped <- t.mapped - 1
  end;
  flush_page t page

(* Everything but a hit in the most-recent way: a hit elsewhere in the
   L1 TLB, then the L2 TLB, the page table and the fills. *)
let translate_rest t ~core addr ~speculative =
  let page = Addr.page_of addr in
  let c = t.cores.(core) in
  let w = way_of c page in
  if w <> 0 then begin
    to_front c w;
    Translated 0
  end
  else
    let i2 = Cache.find_way_idx c.l2 page in
    if i2 >= 0 then begin
      ignore (Cache.touch_evict_at c.l2 page i2);
      fill c page;
      if t.abort_on_tlb_miss && speculative then
        Tlb_miss_abort t.params.tlb_l2_latency
      else t.l2_hit
    end
    else if not (page_mapped t page) then Fault page
    else if t.abort_on_tlb_miss && speculative then
      Tlb_miss_abort t.params.page_walk_latency
    else begin
      ignore (Cache.touch_evict_at c.l2 page (-1));
      fill c page;
      t.walk
    end

let[@inline] mru_hit t ~core addr =
  Array.unsafe_get t.cores.(core).pages 0 = Addr.page_of addr

let[@inline] translate t ~core addr ~speculative =
  if mru_hit t ~core addr then Translated 0
  else translate_rest t ~core addr ~speculative

let mapped_pages t = t.mapped
