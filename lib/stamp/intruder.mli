(** STAMP intruder: signature-based network intrusion detection.

    Packets of fragmented flows are drained from a shared capture queue
    (the contention hot spot that gives intruder its high abort rate in
    the paper's Fig. 6), reassembled in a shared hash map, and scanned by
    a compute-only detector once complete. *)

type cfg = {
  flows : int;
  frags_per_flow : int;
  attack_pct : int;
  detect_work : int;  (** compute cycles per reassembled byte-equivalent *)
}

val default : cfg

val program : cfg -> Stamp_common.program
