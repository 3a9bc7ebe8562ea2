(* Asf_parallel: a deterministic fork-join domain pool for the experiment
   harness.

   The unit of parallelism is the *cell*: one fully deterministic
   simulator instance (a (workload x variant x thread-count x seed)
   combination). Cells share no mutable state, so they can execute on any
   domain in any order; the pool merges their results back in canonical
   (submission) order, which makes the output of [--jobs n] bit-identical
   to [--jobs 1].

   Scheduling is guided self-scheduling over one shared atomic counter:
   a worker claims a *chunk* of [max 1 (remaining / (4 * jobs))]
   consecutive cell indices per fetch-and-add (Polychronopoulos & Kuck's
   decreasing-chunk rule), so early claims amortize the atomic op and the
   cache-line ping-pong over many cells while the tail degrades to
   one-at-a-time claims that keep the finish times balanced. Chunks are
   claimed in increasing index order — the property the fail-fast
   determinism argument below rests on.

   Observability state (Txcheck checkers, Faultline injectors, tracers)
   is *domain-local* ({!Asf_trace.Trace}, {!Asf_check.Check} and
   {!Asf_faults.Faults} keep their installed instance in [Domain.DLS]):
   [cell_map] gives every worker one cached checker / injector pair
   derived from the main domain's configuration — reset between cells,
   which is observably identical to the fresh-per-cell derivation it
   replaces — and merges the harvested findings and injection censuses
   back in cell order. See DESIGN.md, "The determinism contract". *)

module Counters = Asf_engine.Counters
module Trace = Asf_trace.Trace
module Check = Asf_check.Check
module Faults = Asf_faults.Faults

(* ------------------------------------------------------------------ *)
(* The pool                                                             *)
(* ------------------------------------------------------------------ *)

let available () = Domain.recommended_domain_count ()

(* The harness-wide degree of parallelism, set once from the CLI on the
   main domain before any cells run. 1 = fully sequential (no domain is
   ever spawned, today's path). *)
let current_jobs = ref 1

let set_jobs n = current_jobs := max 1 n

let jobs () = !current_jobs

(* Execute every thunk and return the results in submission order.

   [jobs <= 1] (or a single thunk) runs inline on the calling domain,
   fail-fast; otherwise [jobs - 1] worker domains are spawned and the
   caller participates as worker 0. [around wid body] wraps worker
   [wid]'s whole participation (domain-local setup / harvest hooks for
   the cell runner); it must call [body] exactly once and let exceptions
   through. [chunk] pins the claim-chunk size (tests); the default is the
   guided rule above.

   Fail-fast: the first raising thunk sets a shared flag that stops
   further *claims* — cells inside already-claimed chunks still run.
   That claim-time-only check is what keeps the re-raised exception
   deterministic: chunks are claimed in increasing index order, and a
   failing thunk runs only after its own chunk was claimed, so by the
   time the flag is first set the chunk holding the lowest failing index
   has already been claimed and will run to completion. The lowest-index
   exception therefore always materializes in [results], and re-raising
   it reproduces what a sequential left-to-right run would have surfaced
   first — regardless of jobs, chunking, or timing. *)
let run_thunks ?jobs:(j = !current_jobs) ?chunk ?around thunks =
  let n = Array.length thunks in
  let j = max 1 (min j n) in
  let wrap = match around with Some g -> g | None -> fun _wid k -> k () in
  if j <= 1 then begin
    let out = ref [||] in
    wrap 0 (fun () -> out := Array.map (fun f -> f ()) thunks);
    !out
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let chunk_of remaining =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (remaining / (4 * j))
    in
    let worker wid =
      wrap wid (fun () ->
          let running = ref true in
          while !running do
            if Atomic.get failed then running := false
            else begin
              (* The [remaining] estimate may be stale by claim time; the
                 chunk size is a heuristic, so that only skews the grain,
                 never the claimed range itself. *)
              let k = chunk_of (n - Atomic.get next) in
              let lo = Atomic.fetch_and_add next k in
              if lo >= n then running := false
              else
                for i = lo to min (lo + k) n - 1 do
                  results.(i) <-
                    Some
                      (match thunks.(i) () with
                      | v -> Ok v
                      | exception e ->
                          Atomic.set failed true;
                          Error (e, Printexc.get_raw_backtrace ()))
                done
            end
          done)
    in
    let workers =
      Array.init (j - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join workers;
    let first_error = ref None in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Some (Error eb) -> first_error := Some eb
      | _ -> ()
    done;
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function
            | Some (Ok v) -> v
            | Some (Error _) | None ->
                (* No thunk failed, so the flag never stopped a claim and
                   every index was claimed and run before the join. *)
                assert false)
          results
  end

let map_array ?jobs ?chunk ?around f xs =
  run_thunks ?jobs ?chunk ?around (Array.map (fun x () -> f x) xs)

let map ?jobs ?chunk ?around f xs =
  Array.to_list (map_array ?jobs ?chunk ?around f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

(* Every {!Counters} slot over the cells run through [cell_map] since the
   last [reset_counters]: harvested once per worker participation from
   the executing domain's bank and merged on the main domain at join.
   Powers the cycles/sec, fused-ratio and coherence figures in
   BENCH_asf.json. *)
let totals = Array.make Counters.n 0

let reset_counters () = Array.fill totals 0 Counters.n 0

let counters () = Array.copy totals

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)
(* ------------------------------------------------------------------ *)

type 'b cell_out = {
  co_val : 'b;
  co_findings : Check.finding list;
  co_hits : int array;
}

(* Map [f] over [xs] as independent deterministic cells across the pool.

   Each worker installs one cached Txcheck checker and Faultline injector
   for its whole participation, derived from whatever the main domain has
   installed (same parts; same plan and seed) and *reset* between cells —
   {!Check.reset} / {!Faults.reset} restore the just-created state, so a
   cell sees exactly the instance a fresh per-cell derivation would have
   given it, without the per-cell allocation. After all cells complete,
   their findings and injection counts are absorbed into the main
   domain's instances in cell order — so the final findings table and
   census are independent of which domain ran which cell, and of the
   completion order.

   The simulation counters are domain-local too; each worker stores its
   participation's {!Counters} window in its own slot and the main domain
   merges the slots once after the join, instead of per-cell updates on
   the main domain.

   Tracing has no such merge path (rings are ordered by host emission):
   when a tracer is installed, the map degrades to sequential so every
   cell keeps appending to the main tracer exactly as today. *)
let cell_map f xs =
  let main_chk = Check.installed () in
  let main_fl = Faults.installed () in
  let parts = Option.map (fun c -> Check.parts c) main_chk in
  let fplan =
    if Faults.enabled main_fl then Some (Faults.plan main_fl, Faults.seed main_fl)
    else None
  in
  let scoped = parts <> None || fplan <> None in
  let jobs = if Trace.enabled (Trace.installed ()) then 1 else !current_jobs in
  (* Per-worker counter windows: distinct slots, written by the owning
     worker inside [around]'s finally and read on the main domain only
     after the join (which orders the writes before the reads). *)
  let windows = Array.init (max 1 jobs) (fun _ -> Array.make Counters.n 0) in
  let around wid body =
    (* Executing-domain scope: save whatever this domain had installed
       (the main domain's own instances when wid = 0), substitute the
       worker's cached derivations, and restore on the way out. *)
    let saved_chk = Check.installed () in
    let saved_fl = Faults.installed () in
    let chk = Option.map (fun parts -> Check.create ~parts ()) parts in
    let fl = Option.map (fun (plan, seed) -> Faults.create ~seed plan) fplan in
    (match chk with Some c -> Check.install c | None -> ());
    (match fl with Some fl -> Faults.install fl | None -> ());
    let window = Counters.open_window () in
    Fun.protect
      ~finally:(fun () ->
        windows.(wid) <- Counters.close_window window;
        (match saved_chk with
        | Some c -> Check.install c
        | None -> Check.uninstall ());
        Faults.install saved_fl)
      body
  in
  let run_cell x =
    if not scoped then { co_val = f x; co_findings = []; co_hits = [||] }
    else begin
      let v = f x in
      (* Harvest and reset the worker's cached pair so the next cell on
         this domain starts from the just-created state. *)
      let findings =
        match Check.installed () with
        | Some c ->
            let fs = Check.export c in
            Check.reset c;
            fs
        | None -> []
      in
      let hits =
        let fl = Faults.installed () in
        if Faults.enabled fl then begin
          let h = Faults.hits fl in
          Faults.reset fl;
          h
        end
        else [||]
      in
      { co_val = v; co_findings = findings; co_hits = hits }
    end
  in
  let outs = map ~jobs ~around run_cell xs in
  Array.iter (Counters.merge ~into:totals) windows;
  List.map
    (fun o ->
      (match main_chk with
      | Some c -> Check.absorb c o.co_findings
      | None -> ());
      if Faults.enabled main_fl then Faults.absorb main_fl o.co_hits;
      o.co_val)
    outs
