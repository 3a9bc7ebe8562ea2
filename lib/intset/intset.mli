(** The IntegerSet micro-benchmark driver (Section 5 of the paper).

    Runs random search / insert / remove operations over an ordered set of
    integers implemented as a linked list, skip list, red-black tree, or
    hash set. Following the paper's setup: operations and elements are
    uniformly random; the initial size is half the key range; an insertion
    (removal) of a present (absent) element is a no-op; the update
    percentage is split evenly between insertions and removals, so the set
    size stays near its initial value. *)

type structure = Linked_list | Skip_list | Rb_tree | Hash_set

val structure_name : structure -> string

type cfg = {
  structure : structure;
  range : int;  (** keys drawn from [\[0, range)] *)
  update_pct : int;  (** e.g. 20 = 10 % insert + 10 % remove + 80 % search *)
  init_size : int option;  (** default [range / 2] *)
  txns_per_thread : int;
  early_release : bool;  (** ASF early release during list traversals *)
  buckets : int;  (** hash-set bucket count (power of two) *)
}

val default_cfg : structure -> cfg
(** range 1024, 20 % updates (100 % for the hash set, as in Fig. 5),
    2^17 buckets, 2000 transactions per thread. *)

type result = {
  txns : int;  (** committed top-level transactions *)
  cycles : int;  (** simulated makespan *)
  throughput_tx_per_us : float;
  stats : Asf_tm_rt.Stats.t;  (** aggregated over threads *)
  final_size : int;
  size_ok : bool;  (** final size consistent with successful ops *)
}

val program : cfg -> Asf_stamp.Stamp_common.program
(** The benchmark as a program. Set-up builds the structure and inserts
    [init_size] distinct keys drawn from a stream seeded by [seed + 4242].
    Each worker runs [txns_per_thread] operations: it draws a key and a
    roll in [\[0, 200)], and runs an atomic ["add"], ["remove"] or
    ["contains"] (early release handed to the structure only when
    [early_release] is set). The one check, ["size"], compares the final
    size with the initial size plus the net of successful updates. *)

val run : Asf_tm_rt.Tm.config -> threads:int -> cfg -> result
(** {!program} on the simulated machine ({!Asf_stamp.Stamp_common.run}):
    builds the structure (untimed setup), runs [threads] worker threads,
    and reports simulated-time throughput. Deterministic for a given
    configuration and [config.seed]. *)
