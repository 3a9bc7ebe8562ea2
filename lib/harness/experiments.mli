(** The experiment registry: one entry per table and figure of the paper's
    evaluation, plus the ablations called out in DESIGN.md.

    Every experiment is deterministic in [(quick, seed)]. [quick] runs a
    scaled-down configuration (used by the benchmark harness and smoke
    tests); the default full configuration is the one recorded in
    EXPERIMENTS.md. Identical (application, mode, threads) runs are
    memoised within a process, so regenerating Fig. 4 and Fig. 6 together
    costs one sweep. *)

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
(** Drop memoised runs (so a timing harness measures real work). *)
