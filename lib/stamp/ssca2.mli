(** STAMP ssca2 (kernel 1: graph construction).

    Threads insert a shuffled edge list into per-vertex adjacency arrays;
    each insertion is a tiny transaction on a random vertex, so contention
    is minimal and every ASF variant behaves alike — the paper's
    best-scaling application. *)

type cfg = {
  vertices : int;
  edges : int;
  max_degree : int;
  work_per_edge : int;
}

val default : cfg
(** 2048 vertices, 3 edges per vertex on average. *)

val program : cfg -> Stamp_common.program
