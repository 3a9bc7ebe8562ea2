module Engine = Asf_engine.Engine
module Memsys = Asf_cache.Memsys

type t = { word : Asf_mem.Addr.t }

let make sys =
  let word = Tm.setup_alloc sys 1 in
  Tm.setup_poke sys word 0;
  { word }

let spin_acquire ctx word =
  let sys = Tm.system ctx in
  let mem = Tm.memsys sys in
  let core = Tm.core ctx in
  let rec go () =
    if not (Memsys.cas mem ~core word ~expect:0 ~value:(core + 1)) then begin
      Engine.elapse_on (Memsys.engine mem) 150;
      go ()
    end
  in
  go ()

let acquire ctx t = spin_acquire ctx t.word

let release ctx t =
  let mem = Tm.memsys (Tm.system ctx) in
  Memsys.store mem ~core:(Tm.core ctx) t.word 0

let with_lock ctx t f =
  Tm.atomic ctx (fun () ->
      if Tm.serial_mode ctx then begin
        (* Fallback: really take the lock, so raw acquirers and this
           serial section exclude each other. *)
        acquire ctx t;
        Fun.protect ~finally:(fun () -> release ctx t) f
      end
      else if Tm.load ctx t.word <> 0 then
        (* Lock held by a conventional owner: abort, back off, retry —
           the speculative region never blocks while holding state. *)
        Tm.retry ctx
      else f ())

let held sys t = Tm.setup_peek sys t.word <> 0
