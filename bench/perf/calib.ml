(* The reference kernel that corrects host times for host contention.

   The benchmark's host shares its memory system with other tenants, and
   their load slows memory-bound code by up to 2x for minutes at a time
   while leaving arithmetic almost untouched. The simulator is
   memory-bound the same way: it allocates short-lived values by the
   million and walks hash tables and arrays. This kernel does the same
   two things with fixed inputs and no code from lib/, so its time moves
   with the host's contention and never with a change to the simulator.

   [measure] times every repeat between two runs of the kernel and
   scales the repeat's seconds by [nominal_s] over their mean: a host
   time is reported as the seconds it would take at the host speed
   where the kernel takes [nominal_s]. *)

(* The kernel's median time over the 100 runs of two ten-seed sets on
   the 2-core Xeon container the bounds in BENCHMARK.json were measured
   on (0.124 s; a tenth of the runs read under 0.100 s, a tenth over
   0.156 s). *)
let nominal_s = 0.12

let kernel ~size =
  let sum = ref 0 in
  for _ = 1 to size do
    let l = List.init 50_000 (fun i -> (i, i + 1)) in
    sum := !sum + List.fold_left (fun acc (x, _) -> acc + x) 0 l
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to (size * 2_500) - 1 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) i
  done;
  for i = 0 to (size * 10_000) - 1 do
    match Hashtbl.find_opt h ((i * 104729) land 0xfffff) with
    | Some v -> sum := !sum + v
    | None -> ()
  done;
  !sum

let full_size = 20

(* Host CPU seconds of one kernel run at [size], scaled to [full_size],
   the size outside the smoke run. The heap is compacted after it, so
   the kernel leaves no garbage behind for the timed code. *)
let time ~size =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (kernel ~size) : int);
  let dt = Sys.time () -. t0 in
  Gc.compact ();
  dt *. float_of_int full_size /. float_of_int size
