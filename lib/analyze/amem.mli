(** Abstract memory for the static transaction analyzer (Txstatic).

    A word-addressed shadow store with a bump allocator, mirroring the
    simulated machine's address arithmetic ({!Asf_mem.Addr}: 8-word
    lines, line-padded allocation) but with {e no} caches, no timing and
    no scheduler. A workload's program ({!Asf_stamp.Stamp_common.program})
    is built over {!setup_ops} and its worker 0 runs single-threaded
    through a {!Asf_stamp.Cap.t} capability record ({!cap}), so the code
    the simulator runs runs unchanged while every access inside an
    atomic block is recorded.

    Each atomic block executes {e twice} against the same pre-state with
    identical random draws — the abstract form of ASF-TM's closure
    restart. A body whose two executions perform different operation
    sequences depends on host-side mutable state that an abort would not
    roll back: a restart hazard, reported in the execution summary. The
    second execution's effects are then committed. *)

type t

val create : unit -> t

val alloc_words : t -> int -> Asf_mem.Addr.t
(** Line-padded bump allocation, like {!Asf_tm_rt.Tm.setup_alloc} /
    [malloc]: [n] words rounded up to whole cache lines. Address 0 is
    never returned (it is the null sentinel of the list structures). *)

val peek : t -> Asf_mem.Addr.t -> int
(** Unrecorded read; unwritten words read 0. *)

val poke : t -> Asf_mem.Addr.t -> int -> unit
(** Unrecorded write. *)

val setup_ops : t -> Asf_dstruct.Ops.t
(** Unrecorded operations for building workload state before analysis —
    the analyzer's counterpart of {!Asf_dstruct.Ops.setup}. *)

(** {1 Recorded transactional execution} *)

type exec = {
  x_rd : int list;  (** distinct transactionally-read lines, ascending *)
  x_wr : int list;  (** distinct transactionally-written lines *)
  x_ard : int list;  (** distinct annotated-read lines *)
  x_awr : int list;  (** distinct annotated-written lines *)
  x_peak : int;
      (** peak concurrently-protected lines — what an LLB must hold;
          RELEASE shrinks the live set but never the peak already seen *)
  x_releases : int;  (** early releases that dropped a read-only line *)
  x_rereads : int;  (** released lines later re-protected (misuse) *)
  x_allocs : int;  (** transactional allocations *)
  x_diverged : bool;  (** the two executions disagreed: restart hazard *)
}
(** The summary of one atomic block. *)

val cap : t -> Asf_engine.Prng.t -> (string -> exec -> unit) -> Asf_stamp.Cap.t
(** [cap t rng on_exec] is the shadow of a simulated thread. Outside
    [atomic], every access is a plain, unrecorded peek/poke and [rand]
    draws from [rng]. [atomic name body] executes [body] twice from the
    same pre-state (the first pass draws from a copy of [rng], so both
    passes see identical [rand] values), compares the operation traces,
    commits the second pass, hands its summary to [on_exec name], and
    returns the second pass's result. Nested blocks are flattened.
    [release] records a RELEASE, like {!Asf_tm_rt.Tm.release}; [o.release]
    is a no-op, as in {!Asf_dstruct.Ops.tx}, so only a program that hands
    [release] to its structure releases. [work] is ignored, and [retry]
    raises [Invalid_argument]: with no other thread, the re-execution
    would fail its validation again.

    Annotated stores write memory immediately and are {e not} undone
    between the passes — exactly the hardware semantics (an [nstore] is
    not rolled back by an abort), so a body that feeds an annotated
    store back into its own reads is reported as diverged. *)
