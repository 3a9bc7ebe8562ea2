(** Three-level cache hierarchy with directory-based MESI-lite coherence.

    Per-core L1 and L2, one L3 per socket (the paper's configuration is
    a single socket; the [dual_socket] profile splits cores and charges
    an interconnect hop on cross-socket probes and forwards). Values live in {!Asf_mem.Ram}; the
    hierarchy tracks presence and computes the load-to-use latency of each
    access, including coherence costs: a miss that hits a remote dirty copy
    pays a cache-to-cache forward, a write that finds remote copies pays an
    invalidation probe and removes the line from the remote L1/L2.

    L1 evictions and invalidations are reported through a per-core hook —
    the mechanism the hybrid ASF variants use to detect displacement of
    speculatively-read lines (Section 2.3 / Fig. 6 of the paper). *)

type t

val create : ?sharers:Sharers.kind -> Asf_machine.Params.t -> n_cores:int -> t
(** The directory's sharer-set backend defaults to {!Sharers.Bitmask}
    for topologies of at most 62 cores and {!Sharers.Limited} (4
    exact pointers overflowing to per-socket presence bits) beyond —
    the old one-bit-per-core representation silently overflowed the
    tagged int at core 63. The [?sharers] argument forces a backend;
    forcing [Bitmask] above 62 cores raises [Invalid_argument]. Both
    backends produce byte-identical runs on every topology the bitmask
    supports. *)

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
(** Remote cores probed by write-invalidations. Exceeds the true sharer
    population when the limited backend has degraded a line to a coarse
    socket vector (spurious probes are semantic no-ops); surfaced for
    the scale experiment, never part of byte-compared output. *)

val dir_high_water : t -> int
(** Directory occupancy high-water: lines whose sharer set ever became
    non-empty (occupancy is monotone, so this equals current
    occupancy). *)

val backend : t -> Sharers.kind

val domain_coherence : unit -> int array
(** The calling domain's coherence slots of {!Asf_engine.Counters}, in
    bank order:
    [| invalidations; forwards; cross_socket_probes; probes;
       dir_high_water |]. Kept because the repository benchmark
    (bench/perf) reads it. *)
