(** Domain-local simulation counters: one fixed bank of slots per domain.

    Engines and cache hierarchies cache their domain's bank at [create]
    (a simulator instance always runs on the domain that created it) and
    bump slots on the hot path. The domain pool reads each worker's
    participation as one {!open_window}/{!close_window} pair and merges
    the differences with {!merge}, so it names no individual counter.

    Every slot is a monotone sum except {!dir_high_water}, a high-water
    mark: windows report their own mark and {!merge} takes the max. *)

(** {1 Slots} *)

val sim_cycles : int
(** Cycles simulated by every engine (fused and scheduled elapses). *)

val fused_elapses : int
(** Elapses served by the engine's fusion fast path. *)

val scheduled_elapses : int
(** Elapses that went through the engine's heap round-trip. *)

val invalidations : int
(** Coherence write-invalidations. *)

val forwards : int
(** Cache-to-cache forwards of a remote dirty copy. *)

val cross_socket_probes : int

val probes : int
(** Remote cores probed by write-invalidations. *)

val dir_high_water : int
(** Directory occupancy high-water (merged with [max], not summed). *)

val n : int
(** Number of slots; every bank has this length. *)

val names : string array
(** Slot names, indexed by slot. *)

(** {1 Banks} *)

val bank : unit -> int array
(** The calling domain's bank (live; indexed by slot). *)

val add : int array -> int -> int -> unit
(** [add bank slot k] adds [k] to [slot]. *)

val open_window : unit -> int array
(** Snapshot the calling domain's bank and zero its high-water slot, so
    the window's mark is its own. Pass the snapshot to {!close_window}. *)

val close_window : int array -> int array
(** The window's counts: each sum's difference since {!open_window}, and
    the window's own high-water. Restores the bank's high-water slot to
    the max of its value before the window and the window's mark. *)

val merge : into:int array -> int array -> unit
(** Add the sums of the second bank into [into] and take the max of the
    high-water slot. *)
