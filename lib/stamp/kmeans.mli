(** STAMP kmeans: iterative K-means clustering.

    Threads partition the points; for every point they find the nearest
    center (non-transactional reads of the stable per-iteration centers)
    and transactionally fold the point into that cluster's accumulator —
    short transactions whose conflict probability scales with 1/clusters.
    The paper's "K-Means (low)" uses more clusters (lower contention) than
    "K-Means (high)". Between iterations a barrier-protected sequential
    step recomputes the centers. *)

type cfg = {
  points : int;
  dims : int;
  clusters : int;
  iterations : int;
  work_per_distance : int;  (** compute cycles per point-center distance *)
}

val low : cfg
(** Low contention: 40 clusters (STAMP's -m40 -n40 style). *)

val high : cfg
(** High contention: 15 clusters (STAMP's -m15 -n15 style). *)

val program : cfg -> Stamp_common.program
