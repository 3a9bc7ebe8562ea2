(** Three-level cache hierarchy with directory-based MESI-lite coherence.

    Per-core L1 and L2, one L3 per socket (the paper's configuration is
    a single socket; the [dual_socket] profile splits cores and charges
    an interconnect hop on cross-socket probes and forwards). Values live in {!Asf_mem.Ram}; the
    hierarchy tracks presence and computes the load-to-use latency of each
    access, including coherence costs: a miss that hits a remote dirty copy
    pays a cache-to-cache forward, a write that finds remote copies pays an
    invalidation probe and removes the line from the remote L1/L2. The
    directory keeps each line's dirty owner and its exact set of sharers
    ({!Sharers}), so a write probes only the cores recorded as holding a
    copy, at any core count.

    L1 evictions and invalidations are reported through a per-core hook —
    the mechanism the hybrid ASF variants use to detect displacement of
    speculatively-read lines (Section 2.3 / Fig. 6 of the paper). *)

type t

val create : Asf_machine.Params.t -> n_cores:int -> t

val set_evict_hook : t -> core:int -> (int -> unit) -> unit
(** [set_evict_hook t ~core f]: [f line] is called whenever [line] leaves
    the core's L1 (capacity eviction or remote invalidation). *)

val access : t -> core:int -> line:int -> write:bool -> int
(** Performs an access, updating cache and directory state; returns the
    raw (pre-OOO-scaling) latency in cycles. *)

val line_in_l1 : t -> core:int -> line:int -> bool

type level_stats = { mutable hits : int; mutable misses : int }

val l1_stats : t -> core:int -> level_stats

val l2_stats : t -> core:int -> level_stats

val l3_stats : t -> level_stats

val forwards : t -> int
(** L2 misses served by a cache-to-cache forward from a remote dirty
    copy. Such an access never consults the L3, so it appears in neither
    {!l3_stats} bucket; across all cores,
    [l3 hits + l3 misses + forwards = total l2 misses]. *)

val invalidations : t -> int
(** Total remote invalidation probes sent (diagnostics). *)

val cross_socket_probes : t -> int
(** Probes and forwards that crossed a socket boundary (multi-socket
    configurations only). *)

val probes : t -> int
(** Remote cores probed by write-invalidations: for each invalidation,
    the recorded sharers other than the writer. *)

val dir_high_water : t -> int
(** Directory occupancy high-water: lines whose sharer set ever became
    non-empty (occupancy is monotone, so this equals current
    occupancy). *)

val domain_coherence : unit -> int array
(** The calling domain's coherence slots of {!Asf_engine.Counters}, in
    bank order:
    [| invalidations; forwards; cross_socket_probes; probes;
       dir_high_water |]. Kept because the repository benchmark
    (bench/perf) reads it. *)
