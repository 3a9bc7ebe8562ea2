module Params = Asf_machine.Params
module Stats = Asf_tm_rt.Stats
module Tm = Asf_tm_rt.Tm
module Ops = Asf_dstruct.Ops

type result = {
  name : string;
  threads : int;
  cycles : int;
  stats : Stats.t;
  checks : (string * bool) list;
}

let ok r = List.for_all snd r.checks

let ms params r = Params.cycles_to_ms params r.cycles

module Barrier = struct
  (* One padded line: [0] arrival count, [1] generation. *)
  type t = { addr : Asf_mem.Addr.t; n : int }

  let create (so : Ops.t) ~n =
    let addr = so.alloc 2 in
    so.st addr 0;
    so.st (addr + 1) 0;
    { addr; n }

  let wait (c : Cap.t) b =
    let gen =
      c.atomic "barrier" (fun () ->
          let g = c.o.ld (b.addr + 1) in
          let n = c.o.ld b.addr + 1 in
          if n = b.n then begin
            c.o.st b.addr 0;
            c.o.st (b.addr + 1) (g + 1)
          end
          else c.o.st b.addr n;
          g)
    in
    while c.o.ld (b.addr + 1) = gen do
      c.work 300
    done
end

type instance = { worker : Cap.t -> int -> unit; checks : unit -> (string * bool) list }

type program = seed:int -> threads:int -> Ops.t -> instance

let run ~name tm_cfg ~threads (program : program) =
  let sys = Tm.create tm_cfg in
  let p = program ~seed:tm_cfg.Tm.seed ~threads (Ops.setup sys) in
  let ctxs =
    List.init threads (fun tid ->
        Tm.spawn sys ~core:tid (fun ctx -> p.worker (Cap.of_ctx ctx) tid))
  in
  Tm.run sys;
  let stats = Stats.create () in
  List.iter (fun c -> Stats.add (Tm.stats c) ~into:stats) ctxs;
  { name; threads; cycles = Tm.makespan sys; stats; checks = p.checks () }

let chunk n ~threads ~tid =
  let per = (n + threads - 1) / threads in
  let start = tid * per in
  (min start n, min (start + per) n)
