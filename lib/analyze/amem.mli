(** Abstract memory for the static transaction analyzer (Txstatic).

    A word-addressed shadow store with a bump allocator, mirroring the
    simulated machine's address arithmetic ({!Asf_mem.Addr}: 8-word
    lines, line-padded allocation) but with {e no} caches, no timing and
    no scheduler. Transaction bodies execute against it through an
    {!Asf_dstruct.Ops.t} capability record ({!Ops.dry}), so the real
    data-structure code runs unchanged while every access is recorded.

    {!run_tx} executes a body {e twice} against the same pre-state with
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

type actx = {
  o : Asf_dstruct.Ops.t;  (** recorded transactional operations *)
  nld : Asf_mem.Addr.t -> int;  (** annotated (selective) load *)
  nst : Asf_mem.Addr.t -> int -> unit;  (** annotated store *)
  rand : int -> int;  (** replayed-on-restart input randomness *)
  work : int -> unit;  (** application compute; ignored here *)
}
(** The shadow of {!Asf_tm_rt.Tm.ctx}: what a transaction body may do.
    Workload models close over [actx] exactly as benchmark bodies close
    over a [ctx]. *)

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
  x_alloc_lines : int;  (** lines they span *)
  x_frees : int;
  x_ops : int;  (** recorded operations *)
  x_diverged : bool;  (** the two executions disagreed: restart hazard *)
}

val run_tx : ?early_release:bool -> t -> Asf_engine.Prng.t -> (actx -> unit) -> exec
(** Execute [body] twice from the same pre-state (the PRNG is copied for
    the first pass, so both passes draw identical [rand] values), compare
    the operation traces, commit the second pass, and summarize it.
    [early_release] (default [false]) wires the capability record's
    [release] to a recorded RELEASE; when off it is a no-op, as in
    {!Asf_dstruct.Ops.tx}.

    Annotated stores write memory immediately and are {e not} undone
    between the passes — exactly the hardware semantics (an [nstore] is
    not rolled back by an abort), so a body that feeds an annotated
    store back into its own reads is reported as diverged. *)
