(** Registry of the STAMP-like applications evaluated in the paper
    (bayes and yada are excluded, as in the paper's Section 5). *)

type app =
  | Genome
  | Intruder
  | Kmeans_low
  | Kmeans_high
  | Labyrinth
  | Ssca2
  | Vacation_low
  | Vacation_high

val all : app list
(** In the paper's figure order. *)

val name : app -> string

val of_name : string -> app option

val program : app -> scale:float -> Stamp_common.program
(** The application's program with its main size parameter multiplied by
    [scale]: what {!run_scaled} simulates and what Txstatic analyzes. *)

val run : app -> Asf_tm_rt.Tm.config -> threads:int -> Stamp_common.result
(** Runs the application at its default (simulator-scale) configuration. *)

val run_scaled : app -> scale:float -> Asf_tm_rt.Tm.config -> threads:int -> Stamp_common.result
(** Like {!run} with the main size parameter multiplied by [scale]
    (quick configurations for host-time measurements). *)
