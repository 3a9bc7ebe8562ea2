(** Per-thread runtime statistics with cycle-category accounting.

    Reproduces the paper's Table 1 / Fig. 9 methodology: simulated cycles
    are attributed to exclusive categories ("Tx start/commit",
    "Tx load/store", instrumented application code, non-instrumented code
    in serial-irrevocable mode). Cycles of an attempt that aborts are
    folded wholesale into the "Abort/restart" bucket, as the paper does.

    Attribution uses a category stack: {!enter} switches the current
    category (flushing elapsed cycles to the previous one), {!exit_}
    restores it. While an attempt is open (between {!begin_attempt} and
    {!commit_attempt}/{!abort_attempt}) flushes accumulate in a per-attempt
    buffer, so they can be redirected on abort. *)

type t

(** {1 Category indices} *)

val cat_non_instr : int
(** Serial-irrevocable (uninstrumented) code inside transactions. *)

val cat_app : int
(** Instrumented application code inside transactions. *)

val cat_ld_st : int
(** Transactional load/store instrumentation. *)

val cat_start_commit : int
(** Transaction begin/commit paths (ABI + hardware/STM costs). *)

val cat_abort_waste : int
(** Work of attempts that aborted, plus back-off (synthesised). *)

val cat_outside : int
(** Cycles outside any transaction (not part of Table 1). *)

val n_categories : int

type nonrec category = int

val create : unit -> t

(** {1 Category stack} *)

val enter : t -> now:int -> category -> unit

val exit_ : t -> now:int -> unit

(** {1 Attempt lifecycle} *)

val begin_attempt : t -> now:int -> unit

val commit_attempt : t -> now:int -> serial:bool -> unit

val abort_attempt : t -> now:int -> Asf_core.Abort.t -> unit
(** Folds the attempt's cycles into {!cat_abort_waste} and counts the
    abort under its {!Asf_core.Abort.index} class. *)

val finalize : t -> now:int -> unit
(** Flush the cycles since the last category change (called when a thread
    ends). Afterwards the category totals in {!cycles} sum to exactly the
    thread's simulated lifetime — the invariant
    [sum(categories) = total simulated cycles]. *)

(** {1 Results} *)

val commits : t -> int
(** Committed transactions (hardware/STM + serial). *)

val serial_commits : t -> int

val attempts : t -> int

val aborts : t -> int array
(** By {!Asf_core.Abort.index}; live array. *)

val total_aborts : t -> int

val cycles : t -> int array
(** Committed cycles by category; live array of length {!n_categories}. *)

val add : t -> into:t -> unit
(** Accumulate counters of [t] into [into] (aggregation across threads). *)
