(** Two-level per-core data TLB with a shared page table.

    Translation returns extra cycles on top of the data-cache latency:
    0 on an L1-TLB hit, [tlb_l2_latency] on an L2 hit, [page_walk_latency]
    on a full miss. If the page is not mapped in the shared page table, the
    walk reports a fault instead of filling the TLB — first-touch minor
    faults, which inside an ASF speculative region abort the region (unlike
    mere TLB misses, which ASF tolerates; cf. the Rock comparison in the
    paper). The [abort_on_tlb_miss] flag enables the Rock-style ablation.

    Each core's L1 TLB is fully associative with exact LRU replacement,
    kept as a recency list over its ways with a page-to-way index, so a
    hit, a fill and a shootdown each do constant work; a hit in the
    most-recent way is one compare inline in the caller. The L2 TLB is a
    set-associative {!Cache}. A translation allocates only when a fill
    grows its core's index, which at least doubles each time. *)

type t

val create : Asf_machine.Params.t -> n_cores:int -> t
(** Raises [Invalid_argument] unless [tlb_l1_entries] is in 1..255. *)

type outcome =
  | Translated of int  (** extra latency in cycles *)
  | Fault of int  (** unmapped page index *)
  | Tlb_miss_abort of int
      (** full TLB miss with Rock-style semantics enabled; payload is the
          extra latency already incurred *)

val translate : t -> core:int -> Asf_mem.Addr.t -> speculative:bool -> outcome
(** [mru_hit] inline, else [translate_rest]. *)

val mru_hit : t -> core:int -> Asf_mem.Addr.t -> bool
(** Whether the address's page sits in the core's most-recent L1-TLB way:
    such a translation is [Translated 0] and changes nothing. One compare,
    inlined into the caller, so a caller can answer that hit with the int
    0 instead of matching on an outcome. *)

val translate_rest : t -> core:int -> Asf_mem.Addr.t -> speculative:bool -> outcome
(** {!translate} for an address that {!mru_hit} rejects: a hit elsewhere in
    the L1 TLB, the L2 TLB, the page table and the fills, out of line. *)

val map_page : t -> int -> unit
(** OS page-table update: marks a page present. *)

val page_mapped : t -> int -> bool

val map_range : t -> Asf_mem.Addr.t -> int -> unit
(** [map_range t addr words] maps every page overlapping the range (setup
    helper: memory initialised before the measured run is already mapped). *)

val set_abort_on_tlb_miss : t -> bool -> unit
(** Ablation switch (default off = ASF semantics). *)

val flush_page : t -> int -> unit
(** TLB shootdown: invalidate the page's cached translation in every
    core's L1 and L2 TLB, leaving the page table untouched — the next
    access pays a full page walk. *)

val unmap_page : t -> int -> unit
(** OS page-table removal plus shootdown ({!flush_page}): the next access
    to the page takes the first-touch minor-fault path — inside an ASF
    region that aborts it; otherwise the OS services the fault and remaps
    the page. *)

val mapped_pages : t -> int
