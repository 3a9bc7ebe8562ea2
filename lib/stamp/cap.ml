module Tm = Asf_tm_rt.Tm

type t = {
  o : Asf_dstruct.Ops.t;
  nld : Asf_mem.Addr.t -> int;
  nst : Asf_mem.Addr.t -> int -> unit;
  release : Asf_mem.Addr.t -> unit;
  rand : int -> int;
  work : int -> unit;
  atomic : 'a. string -> (unit -> 'a) -> 'a;
  retry : 'a. unit -> 'a;
}

let of_ctx ctx =
  let rng = Tm.prng ctx in
  {
    o = Asf_dstruct.Ops.tx ctx;
    nld = Tm.nload ctx;
    nst = Tm.nstore ctx;
    release = Tm.release ctx;
    rand = Asf_engine.Prng.int rng;
    work = Tm.work ctx;
    atomic = (fun _ body -> Tm.atomic ctx body);
    retry = (fun () -> Tm.retry ctx);
  }
