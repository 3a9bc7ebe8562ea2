(** STAMP labyrinth: transactional maze routing.

    Threads take (source, destination) pairs from a shared work queue and
    route rectilinear paths through a shared 3-D grid: each routing
    transaction snapshots the grid, computes a shortest path on the
    snapshot with host-side BFS, then claims every path cell.

    By default the snapshot reads are transactional, as DTMC generates
    for any shared access: the read set is the whole grid, so ASF
    transactions overflow any LLB and run serial-irrevocable
    extensively — the paper's own description of labyrinth — while the
    STM drowns in validation work (its values are literally off the
    paper's Fig. 4 chart). With [privatized_snapshot] the snapshot uses
    selectively-annotated plain reads and transactions revalidate the
    path cells before claiming them (the later privatisation trick;
    here an ablation of what selective annotation buys an expert). *)

type cfg = {
  x : int;
  y : int;
  z : int;
  paths : int;
  work_per_cell : int;  (** BFS expansion cost per visited cell *)
  privatized_snapshot : bool;
}

val default : cfg
(** 32 x 32 x 3 grid (the STAMP simulator input), 64 paths, transactional snapshot. *)

val program : cfg -> Stamp_common.program
