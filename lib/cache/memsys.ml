module Params = Asf_machine.Params
module Engine = Asf_engine.Engine
module Addr = Asf_mem.Addr
module Ram = Asf_mem.Ram
module Trace = Asf_trace.Trace
module Faults = Asf_faults.Faults

type fault = Unmapped of int | Tlb_miss

type t = {
  params : Params.t;
  engine : Engine.t;
  ram : Ram.t;
  tlb : Tlb.t;
  hier : Hierarchy.t;
  tracer : Trace.t;
  faults : Faults.t;
  mutable probe_hook : requester:int -> line:int -> write:bool -> unit;
  mutable access_hook :
    (core:int -> addr:Addr.t -> write:bool -> speculative:bool -> unit) option;
  mutable fault_hook : (core:int -> fault -> unit) option;
  mutable faults_serviced : int;
  (* Memoised OOO scaling: [scale] runs once per access, and the raw
     latencies it sees are small sums of fixed machine parameters, so a
     lookup table removes the per-access float multiply/round. *)
  scale_tab : int array;
}

let scale_raw (params : Params.t) latency =
  max 1 (int_of_float ((float_of_int latency *. params.ooo_factor) +. 0.5))

let scale_tab_size = 1024

let create params engine =
  let n_cores = Engine.n_cores engine in
  {
    params;
    engine;
    ram = Ram.create ();
    tlb = Tlb.create params ~n_cores;
    hier = Hierarchy.create params ~n_cores;
    tracer = Trace.installed ();
    faults = Faults.installed ();
    probe_hook = (fun ~requester:_ ~line:_ ~write:_ -> ());
    access_hook = None;
    fault_hook = None;
    faults_serviced = 0;
    scale_tab = Array.init scale_tab_size (scale_raw params);
  }

let params t = t.params

let engine t = t.engine

let ram t = t.ram

let tlb t = t.tlb

let hierarchy t = t.hier

let tracer t = t.tracer

let set_probe_hook t f = t.probe_hook <- f

let set_access_hook t f = t.access_hook <- f

let set_fault_hook t f = t.fault_hook <- Some f

let set_evict_hook t ~core f = Hierarchy.set_evict_hook t.hier ~core f

let[@inline] scale t latency =
  if latency < scale_tab_size then t.scale_tab.(latency)
  else scale_raw t.params latency

let deliver_fault t ~core fault =
  match t.fault_hook with Some h -> h ~core fault | None -> ()

let service_fault t ~page =
  t.faults_serviced <- t.faults_serviced + 1;
  (let core = Engine.current_core t.engine in
   Trace.emit t.tracer ~core
     ~cycle:(Engine.core_time t.engine core)
     (Trace.Fault_service { page }));
  Engine.elapse t.params.page_fault_latency;
  Tlb.map_page t.tlb page

(* Translate, retrying after OS-serviced minor faults. Returns the extra
   translation latency. A registered fault hook that raises (ASF abort)
   interrupts the access before any state change. The first translation
   is inlined into every access; an outcome that aborts or faults, and
   the retries after it, run out of line in [translate_retry]. *)
let rec translate_retry t ~core ~speculative addr = function
  | Tlb.Translated extra -> extra
  | Tlb.Tlb_miss_abort extra ->
      Engine.elapse (scale t extra);
      deliver_fault t ~core Tlb_miss;
      (* The hook must raise. If it returns (the ablation on without a
         region to abort), the access falls back to normal translation
         semantics: the retry is non-speculative, so a page walk fills the
         TLB instead of missing, and aborting, again. *)
      translate_retry t ~core ~speculative:false addr
        ((Tlb.translate [@inlined never]) t.tlb ~core addr ~speculative:false)
  | Tlb.Fault page ->
      deliver_fault t ~core (Unmapped page);
      service_fault t ~page;
      translate_retry t ~core ~speculative addr
        ((Tlb.translate [@inlined never]) t.tlb ~core addr ~speculative)

let[@inline] translate t ~core ~speculative addr =
  match Tlb.translate t.tlb ~core addr ~speculative with
  | Tlb.Translated extra -> extra
  | outcome -> translate_retry t ~core ~speculative addr outcome

(* Every access runs [access_pre], its own data transfer inline, then
   [access_post] — the transfer must take effect at the access's commit
   point: after the coherence probe (so conflicting regions roll back
   first and requester-wins ordering holds) but before the cache fill —
   a fill can displace a hybrid-tracked line and doom the *requester's
   own* region, whose rollback must cover this very store. The split
   keeps the sequence closure-free: each caller inlines its transfer
   between the two halves instead of boxing it into an [apply] thunk,
   and both halves return/take plain ints. *)
let[@inline] access_pre t ~core ~speculative ~write addr =
  (* Fault injection, drawn per access before translation. [page_unmap]
     models the OS paging the target out (page-table removal + shootdown):
     translation then takes the real minor-fault path — aborting an
     in-flight ASF region, or OS-serviced otherwise. [tlb_flush] is a
     shootdown only: the page stays mapped, the access just repays a page
     walk. Both reuse the genuine recovery paths; nothing is short-cut. *)
  if Faults.enabled t.faults then begin
    let page = Addr.page_of addr in
    if Faults.page_unmap t.faults ~core then begin
      Trace.emit t.tracer ~core
        ~cycle:(Engine.core_time t.engine core)
        (Trace.Fault_inject { kind = "page-unmap" });
      Tlb.unmap_page t.tlb page
    end
    else if Faults.tlb_flush t.faults ~core then begin
      Trace.emit t.tracer ~core
        ~cycle:(Engine.core_time t.engine core)
        (Trace.Fault_inject { kind = "tlb-flush" });
      Tlb.flush_page t.tlb page
    end
  end;
  let extra = translate t ~core ~speculative addr in
  (* A speculative write is probed by the layer that issues it (ASF
     resolves its conflicts before it backs the line up), and no other
     core has run since, so a second probe here would find nothing. *)
  if not (speculative && write) then
    t.probe_hook ~requester:core ~line:(Addr.line_of addr) ~write;
  (* Observers (the checking layer) see the access after conflict
     resolution but before the data transfer, so they can snapshot the
     pre-access memory image; they must not elapse simulated time. *)
  (match t.access_hook with
  | Some h -> h ~core ~addr ~write ~speculative
  | None -> ());
  extra

let[@inline] access_post t ~core ~write ~extra addr =
  let lat = Hierarchy.access t.hier ~core ~line:(Addr.line_of addr) ~write in
  Engine.elapse (scale t (lat + extra))

(* [load] and [store] stay out of line, each with the whole access
   compiled into it (translation, the three cache levels, the
   directory), so a caller pays one call per access. Inlined into their
   forty-odd callers as well, they grew the benchmark binary's text 3.6
   times as much and its resident size twice as much, and ran no
   faster. *)
let load t ~core ?(speculative = false) addr =
  let extra = access_pre t ~core ~speculative ~write:false addr in
  let v = Ram.read t.ram addr in
  access_post t ~core ~write:false ~extra addr;
  v

let store t ~core ?(speculative = false) addr v =
  let extra = access_pre t ~core ~speculative ~write:true addr in
  Ram.write t.ram addr v;
  access_post t ~core ~write:true ~extra addr

(* The rarer accesses call the out-of-line copies of the two halves, so
   the chain is compiled into [load] and [store] only. *)
let cas t ~core addr ~expect ~value =
  let extra =
    (access_pre [@inlined never]) t ~core ~speculative:false ~write:true addr
  in
  let cur = Ram.read t.ram addr in
  let ok = cur = expect in
  if ok then Ram.write t.ram addr value;
  (access_post [@inlined never]) t ~core ~write:true ~extra addr;
  ok

let faa t ~core addr delta =
  let extra =
    (access_pre [@inlined never]) t ~core ~speculative:false ~write:true addr
  in
  let cur = Ram.read t.ram addr in
  Ram.write t.ram addr (cur + delta);
  (access_post [@inlined never]) t ~core ~write:true ~extra addr;
  cur

let touch_line t ~core ?(speculative = true) ~write addr =
  let extra = (access_pre [@inlined never]) t ~core ~speculative ~write addr in
  (access_post [@inlined never]) t ~core ~write ~extra addr

let peek t addr = Ram.read t.ram addr

let poke t addr v =
  Tlb.map_page t.tlb (Addr.page_of addr);
  Ram.write t.ram addr v

let map_page t page = Tlb.map_page t.tlb page

let faults_serviced t = t.faults_serviced
