(** The experiment registry: one entry per table and figure of the paper's
    evaluation, plus the ablations called out in DESIGN.md.

    Every experiment is deterministic in [(quick, seed)]. [quick] runs a
    scaled-down configuration (used by the benchmark harness and smoke
    tests); the default full configuration is the one recorded in
    EXPERIMENTS.md.

    Each experiment lists its simulator runs as cells (a workload, a TM
    configuration and a thread count) and formats its tables from their
    results. A process memoises every cell by that configuration plus the
    installed fault plan and seed, so a run that several experiments need
    is simulated once: Fig. 6 reads Fig. 4's runs, tab1 reads fig9's, and
    fig8's runs without early release are Fig. 7's. Under [--check] such a
    shared run is checked once, by the experiment that simulated it. *)

type t = {
  id : string;
  description : string;
  run : quick:bool -> seed:int -> Report.t list;
}

val all : t list
(** fig3 fig4 fig5 fig6 fig7 fig8 fig9 tab1 abl-wins abl-tlb abl-annot
    abl-backoff abl-cache abl-phased abl-wb abl-socket serve scale, in
    that order. *)

val find : string -> t option

val ids : unit -> string list

val clear_cache : unit -> unit
(** Drop every memoised cell, so the next experiment simulates all of its
    runs (a timing harness measures real work). *)
