(** Machine configurations.

    All sizes are in bytes, all latencies in core cycles (load-to-use).
    The default profile, {!barcelona}, matches the simulated machine of the
    paper's Section 5: an AMD Opteron family-10h ("Barcelona")-like core at
    2.2 GHz with

    - L1D: 64 KB, 2-way set associative, 3 cycles;
    - L2: 512 KB, 16-way, 15 cycles;
    - L3: 2 MB (shared), 16-way, 50 cycles;
    - RAM: 210 cycles;
    - D-TLB: 48 fully-associative L1 entries, 512 4-way L2 entries.

    [ooo_factor] approximates out-of-order latency hiding: charged memory
    latencies are multiplied by it (1.0 = fully exposed, in-order). The
    {!native_reference} profile is the shallow analytical model used as the
    stand-in for native hardware in the Fig. 3 accuracy experiment (see
    DESIGN.md, substitution table). *)

type t = {
  name : string;
  ghz : float;  (** core frequency; cycles / 1000 = time in ns at 1 GHz *)
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
  line_bytes : int;  (** coherence / protection granularity (64) *)
  tlb_l1_entries : int;
  tlb_l2_entries : int;
  tlb_l2_assoc : int;
  tlb_l2_latency : int;  (** extra cycles on L1-TLB miss, L2-TLB hit *)
  page_walk_latency : int;  (** extra cycles on full TLB miss *)
  page_fault_latency : int;  (** OS minor-fault service time *)
  coherence_probe_latency : int;  (** extra cycles when a probe must
                                      invalidate or downgrade remote copies *)
  ooo_factor : float;
  interrupt_quantum : int;  (** cycles between timer interrupts *)
  n_sockets : int;  (** cores are split evenly across sockets; the L3 is
                        per socket and cross-socket probes pay
                        [cross_socket_latency] *)
  cross_socket_latency : int;
}

val barcelona : t
(** The paper's simulated machine: all cores on one socket, "resembling
    future processors with higher levels of core integration" (Section 5). *)

val dual_socket : t
(** The same cores split across two sockets with a cross-socket probe
    penalty — the configuration the paper's footnote 9 points to its
    earlier study for. Used by the [abl-socket] extension. *)

val native_reference : t
(** Shallow ideal-cache profile standing in for native hardware in the
    Fig. 3 methodology reproduction. *)

val with_sockets : t -> sockets:int -> t
(** [with_sockets p ~sockets] re-spreads the cores of [p] over [sockets]
    sockets (one shared L3 per socket). Returns [p] unchanged when the
    count already matches; otherwise multi-socket results charge the
    same 110-cycle interconnect hop as {!dual_socket} on cross-socket
    probes and forwards. *)

type topology = { topo_name : string; topo_cores : int; topo_params : t }
(** A named big-machine preset: a core count plus the machine profile
    it runs on. Cores are not part of {!t} itself (the simulator takes
    [~n_cores] separately), so presets pair the two. *)

val topo_64c4s : topology
(** 64 Barcelona-like cores over 4 sockets — the scale experiment's
    topology. *)

val topo_256c8s : topology
(** 256 cores over 8 sockets: five words per directory sharer set. *)

val cycles_to_us : t -> int -> float
(** Convert a cycle count to microseconds at the profile's frequency. *)

val us_to_cycles : t -> int -> int
(** Convert whole microseconds to cycles at the profile's frequency,
    rounded down. *)

val cycles_to_ms : t -> int -> float

val pp : Format.formatter -> t -> unit
