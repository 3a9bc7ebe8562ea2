(** A bank: random transfers between accounts plus a full-balance audit
    every 50th transaction, a classic TM scenario mixing small update
    transactions with large read-only ones. The audit reads every
    account, so it overflows LLB-8 and fits LLB-256.

    The two transaction bodies exist once: {!program} runs them on the
    simulated machine ([examples/bank.ml] and Txstatic's runtime twin),
    and Txstatic's bank classes call them with inputs drawn inside the
    transaction. *)

val accounts : int
(** 64 accounts, one padded line each. *)

val create : Asf_dstruct.Ops.t -> Asf_mem.Addr.t array
(** Allocate the accounts through the setup operations, each holding
    1000. *)

val transfer : Cap.t -> src:Asf_mem.Addr.t -> dst:Asf_mem.Addr.t -> amount:int -> unit
(** The body of a transfer: move [amount] from [src] to [dst] (nothing
    when they are the same account). *)

val audit : Cap.t -> Asf_mem.Addr.t array -> int
(** The body of an audit: the sum of every balance. *)

val program : txns:int -> Stamp_common.program
(** Every thread runs [txns] transactions: an audit (class ["audit"])
    every 50th, a transfer (class ["transfer"]) between random accounts
    otherwise. Checks that the total is conserved and that every audit
    saw it. *)
