let sim_cycles = 0
let fused_elapses = 1
let scheduled_elapses = 2
let invalidations = 3
let forwards = 4
let cross_socket_probes = 5
let probes = 6
let dir_high_water = 7
let n = 8

let names =
  [|
    "sim_cycles"; "fused_elapses"; "scheduled_elapses"; "invalidations";
    "forwards"; "cross_socket_probes"; "probes"; "dir_high_water";
  |]

let key = Domain.DLS.new_key (fun () -> Array.make n 0)

let bank () = Domain.DLS.get key

(* Slots are constants below [n] and every bank has length [n]. *)
let add b slot k = Array.unsafe_set b slot (Array.unsafe_get b slot + k)

let open_window () =
  let b = bank () in
  let snap = Array.copy b in
  b.(dir_high_water) <- 0;
  snap

let close_window snap =
  let b = bank () in
  let d = Array.mapi (fun i v -> v - snap.(i)) b in
  d.(dir_high_water) <- b.(dir_high_water);
  b.(dir_high_water) <- max snap.(dir_high_water) b.(dir_high_water);
  d

let merge ~into d =
  Array.iteri
    (fun i v -> into.(i) <- (if i = dir_high_water then max into.(i) v else into.(i) + v))
    d
