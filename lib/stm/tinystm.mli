(** Word-based software transactional memory: a reimplementation of
    TinySTM 0.9.9 in write-through mode, the STM baseline of the paper's
    evaluation (Section 5).

    Algorithm (encounter-time locking, time-based validation):

    - a global version clock and an array of ownership records (orecs),
      hashed by cache line, both living in {e simulated} memory so every
      metadata access pays real cache/coherence costs;
    - transactional loads read the orec, the data word, and the orec again;
      a version newer than the snapshot triggers incremental revalidation
      of the read set ("timestamp extension") or an abort;
    - transactional stores acquire the orec with a CAS (suicide on
      conflict), log the old word, and write through to memory;
    - commit fetches-and-adds the clock, revalidates if needed, and
      releases orecs at the new version; aborts undo in reverse order.

    Aborts are delivered as {!Stm_abort}; the caller (the TM runtime's
    retry loop) handles back-off and re-execution.

    Host-side bookkeeping: a descriptor keeps its read log (orec,
    observed word), undo log (address, old word) and owned orecs in flat
    int arrays that every transaction it runs reuses, plus an
    open-addressing int set of the owned orecs, so a write-through load
    or store allocates nothing on the host and calls no polymorphic hash.
    The logs are walked newest first. Commit and rollback store the owned
    orecs in the order [Hashtbl.iter] visits a [Hashtbl.create 64] fed
    the same acquisitions: buckets in ascending order of
    [Hashtbl.hash orec land (b - 1)], where [b] starts at 64 and doubles
    while the count exceeds [2b], newest first within a bucket. That was
    the order of the table the owned log replaced, so every simulated
    access, and every cycle count after it, stays where it was. *)

exception Stm_abort of { orec : Asf_mem.Addr.t option }
(** [orec] is the conflicting ownership record when the STM knows it —
    the locked orec a load or store ran into, the CAS that lost an
    acquisition race, or the first read-set entry that failed validation.
    Parity with {!Asf_core.Asf.last_conflict}, so STM aborts trace and
    check with the same detail as hardware aborts. *)

type strategy =
  | Write_through
      (** encounter-time locking, in-place stores, undo log (the paper's
          baseline configuration) *)
  | Write_back
      (** encounter-time locking, stores buffered in a redo log that is
          replayed at commit; aborts are cheaper, loads must snoop the
          write log and commits pay the write-back *)

type t

val create : ?strategy:strategy -> Asf_cache.Memsys.t -> Asf_mem.Alloc.t -> t
(** Allocates the orec table (2^16 words) and the global clock in
    simulated memory, pre-mapped as a loaded STM library's data segment
    would be. [strategy] defaults to {!Write_through}. *)

val strategy : t -> strategy

type tx

val make_tx : t -> core:int -> tx
(** The per-thread transaction descriptor. *)

val start : tx -> unit

val load : tx -> Asf_mem.Addr.t -> int

val store : tx -> Asf_mem.Addr.t -> int -> unit

val commit : tx -> unit
(** @raise Stm_abort if final validation fails (state already undone). *)

val abort : tx -> 'a
(** Explicit abort: undo, release, raise {!Stm_abort}. *)

val active : tx -> bool

val last_conflict : tx -> Asf_mem.Addr.t option
(** The conflicting orec behind this descriptor's most recent abort, when
    known. Survives the abort; cleared at the next {!start}. *)

(** {1 Counters} *)

val starts : t -> int

val commits : t -> int

val aborts : t -> int

val extensions : t -> int

(** {1 Observation (checking layer)} *)

type observer_event =
  | Ev_start
  | Ev_read of Asf_mem.Addr.t  (** transactional load of the address *)
  | Ev_write of Asf_mem.Addr.t  (** transactional store to the address *)
  | Ev_commit
  | Ev_abort of Asf_mem.Addr.t option  (** conflicting orec, when known *)

val set_observer : t -> (core:int -> observer_event -> unit) option -> unit
(** Install (or clear) a passive observer of logical transaction events
    (internal orec/clock/redo-log traffic is not reported). Observers must
    not advance simulated time. *)
