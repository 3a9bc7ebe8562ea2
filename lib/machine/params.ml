type t = {
  name : string;
  ghz : float;
  l1_bytes : int;
  l1_assoc : int;
  l1_latency : int;
  l2_bytes : int;
  l2_assoc : int;
  l2_latency : int;
  l3_bytes : int;
  l3_assoc : int;
  l3_latency : int;
  mem_latency : int;
  line_bytes : int;
  tlb_l1_entries : int;
  tlb_l2_entries : int;
  tlb_l2_assoc : int;
  tlb_l2_latency : int;
  page_walk_latency : int;
  page_fault_latency : int;
  coherence_probe_latency : int;
  ooo_factor : float;
  interrupt_quantum : int;
  n_sockets : int;
  cross_socket_latency : int;
}

let barcelona =
  {
    name = "barcelona";
    ghz = 2.2;
    l1_bytes = 64 * 1024;
    l1_assoc = 2;
    l1_latency = 3;
    l2_bytes = 512 * 1024;
    l2_assoc = 16;
    l2_latency = 15;
    l3_bytes = 2 * 1024 * 1024;
    l3_assoc = 16;
    l3_latency = 50;
    mem_latency = 210;
    line_bytes = 64;
    tlb_l1_entries = 48;
    tlb_l2_entries = 512;
    tlb_l2_assoc = 4;
    tlb_l2_latency = 5;
    page_walk_latency = 35;
    page_fault_latency = 2500;
    coherence_probe_latency = 40;
    (* An out-of-order three-wide core hides part of each load-to-use
       latency behind independent work; 0.6 keeps miss costs dominant while
       avoiding the fully-exposed in-order worst case. *)
    ooo_factor = 0.6;
    (* 1 ms timer tick at 2.2 GHz. *)
    interrupt_quantum = 2_200_000;
    n_sockets = 1;
    cross_socket_latency = 0;
  }

let dual_socket =
  {
    barcelona with
    name = "dual-socket";
    n_sockets = 2;
    (* A HyperTransport-like hop for probes and forwards that cross the
       socket boundary. *)
    cross_socket_latency = 110;
  }

let native_reference =
  {
    barcelona with
    name = "native-reference";
    (* Ideal-cache analytical stand-in: flat small latencies, no OOO
       correction needed because nothing is exposed. *)
    l1_latency = 3;
    l2_latency = 12;
    l3_latency = 40;
    mem_latency = 180;
    coherence_probe_latency = 30;
    ooo_factor = 0.5;
  }

let with_sockets p ~sockets =
  if sockets < 1 then invalid_arg "Params.with_sockets: sockets < 1";
  if sockets = p.n_sockets then p
  else
    {
      p with
      name = Printf.sprintf "%s/%ds" p.name sockets;
      n_sockets = sockets;
      (* Same HyperTransport-like hop the dual_socket profile charges;
         collapsing back to one socket removes it. *)
      cross_socket_latency = (if sockets > 1 then 110 else 0);
    }

type topology = { topo_name : string; topo_cores : int; topo_params : t }

let topology ~cores ~sockets =
  {
    topo_name = Printf.sprintf "%dc%ds" cores sockets;
    topo_cores = cores;
    topo_params = with_sockets barcelona ~sockets;
  }

let topo_64c4s = topology ~cores:64 ~sockets:4
let topo_256c8s = topology ~cores:256 ~sockets:8

let cycles_to_us p cycles = float_of_int cycles /. (p.ghz *. 1000.0)

let us_to_cycles p us = int_of_float (float_of_int us *. p.ghz *. 1000.)

let cycles_to_ms p cycles = cycles_to_us p cycles /. 1000.0

let pp fmt p =
  Format.fprintf fmt
    "%s: %.1f GHz, L1 %dKB/%d-way/%dcy, L2 %dKB/%d-way/%dcy, L3 %dKB/%d-way/%dcy, RAM %dcy"
    p.name p.ghz (p.l1_bytes / 1024) p.l1_assoc p.l1_latency (p.l2_bytes / 1024)
    p.l2_assoc p.l2_latency (p.l3_bytes / 1024) p.l3_assoc p.l3_latency
    p.mem_latency
