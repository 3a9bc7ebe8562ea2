(* Stack-depth guard for the scheduler. The engine switches threads from
   its effect handler, with every [continue] and [match_with] in tail
   position, so a run's stack holds one frame however many switches it
   makes. The dune rule runs this program under a 64k-word stack limit
   (OCAMLRUNPARAM l=65536): a dispatch that kept one frame per switch
   raises [Stack_overflow] here long before the counts below. *)

module Engine = Asf_engine.Engine

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* Eight cores elapse one cycle at a time in lockstep: every elapse ties
   with or trails a queued task, so none fuses and each is a yield that
   switches threads inside the handler. *)
let yields () =
  let n_cores = 8 and per_core = 125_000 in
  let e = Engine.create ~n_cores () in
  for core = 0 to n_cores - 1 do
    Engine.spawn e ~core (fun () ->
        for _ = 1 to per_core do
          Engine.elapse_on e 1
        done)
  done;
  Engine.run e;
  let scheduled = Engine.scheduled_elapses e in
  if scheduled < n_cores * per_core then
    fail "stack guard: %d of %d elapses scheduled" scheduled (n_cores * per_core);
  Printf.printf "stack guard: %d scheduled yields on %d cores\n" scheduled n_cores

(* Eight chains of threads: each thread starts its successor on the next
   core with [spawn_at] and finishes, so every start after the first
   eight comes from the handler's return case. *)
let starts () =
  let n_cores = 8 and total = 100_000 in
  let e = Engine.create ~n_cores () in
  let spawned = ref 0 and finished = ref 0 in
  let rec thread core () =
    if !spawned < total then begin
      incr spawned;
      let core = (core + 1) mod n_cores in
      Engine.spawn_at e ~core ~time:(Engine.now e + 1) (thread core)
    end;
    incr finished
  in
  for core = 0 to n_cores - 1 do
    Engine.spawn e ~core (thread core)
  done;
  Engine.run e;
  if !finished <> total + n_cores then
    fail "stack guard: %d of %d threads finished" !finished (total + n_cores);
  Printf.printf "stack guard: %d threads started by threads, all finished\n" !spawned

let () =
  yields ();
  starts ()
