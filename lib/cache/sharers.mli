(** Packed per-line sharer sets for the coherence directory.

    A sharer set is a single immutable OCaml int; the layout is chosen
    per hierarchy by the {!ctx}:

    - {!Bitmask} — one presence bit per core. Exact at every size it
      supports, but capped at 62 cores by the tagged-int width. This is
      the fast path for paper-scale topologies and the reference model
      for the QCheck equivalence battery.
    - {!Limited} — limited-pointer directory with coarse-vector
      overflow (Dir_k-CV): up to 4 exact core pointers, and once a
      fifth distinct sharer appears the word degrades to a per-socket
      presence mask. Supports up to 512 cores / 16 sockets. Coarse
      words over-approximate the sharer set — probes may visit cores
      that hold nothing, which is a semantic no-op (invalidating an
      absent line does not touch cache state) — while the cross-socket
      verdict stays exact because socket bits record precisely the
      true sharers' sockets.

    All iteration orders are ascending core number in every mode, so a
    hierarchy built on either backend drops remote copies in the same
    order. *)

type kind = Bitmask | Limited

type ctx
(** Topology-bound interpretation context for sharer words. *)

type t = int
(** A sharer set, packed into one immutable int so the directory can
    store it in flat [int array] shards. Treat it as abstract: the
    layout is only meaningful through the [ctx] it was built under. *)

val max_bitmask_cores : int
(** 62: the widest topology the bitmask backend can represent. *)

val max_limited_cores : int
(** 512: the widest topology the limited backend can represent. *)

val max_sockets : int
(** 16: the most sockets the limited backend's coarse vector holds. *)

val make_ctx : kind:kind -> n_cores:int -> n_sockets:int -> ctx
(** Raises [Invalid_argument] when the backend cannot represent the
    topology: [Bitmask] with more than {!max_bitmask_cores} cores,
    [Limited] with more than {!max_limited_cores} cores or
    {!max_sockets} sockets. *)

val kind : ctx -> kind

val socket : ctx -> int -> int
(** [socket ctx core] is the socket that holds [core]:
    [core * n_sockets / n_cores], read from a table built once, so the
    sockets are contiguous ascending core ranges. *)

val empty : t

val is_empty : t -> bool

val singleton : ctx -> int -> t

val add : ctx -> t -> int -> t
(** [add ctx s core] records [core] as a sharer. Idempotent. *)

val mem : ctx -> t -> int -> bool
(** Membership in the probe set. Exact except for coarse words, where
    any core of a flagged socket is reported present. *)

val others : ctx -> t -> except:int -> bool
(** [others ctx s ~except]: does some core other than [except] share
    the line? Exact in every mode (coarse words always hold at least
    5 distinct true sharers). *)

val crossed : ctx -> t -> socket:int -> except:int -> bool
(** [crossed ctx s ~socket ~except]: does some sharer other than
    [except] live outside [socket]? Exact in every mode. *)

val iter_others : ctx -> t -> except:int -> (int -> unit) -> unit
(** Visit the probe set minus [except] in ascending core order.
    Coarse words visit every core of each flagged socket. *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a non-zero int, read from the same
    byte table the bitmask backend iterates with. Allocation-free. *)

val exact : ctx -> t -> bool
(** [true] unless the word has degraded to a coarse vector. *)

val coarse : ctx -> t -> bool

val to_list : ctx -> t -> int list
(** The probe set, ascending (tests / diagnostics). *)

val cardinal : ctx -> t -> int
