(** A bank: random transfers between accounts plus a full-balance audit
    every 50th transaction, a classic TM scenario mixing small update
    transactions with large read-only ones. The audit reads every
    account, so it overflows LLB-8 and fits LLB-256.

    {!program} is the one driver: the simulated machine runs it
    ([examples/bank.ml] and bank's runtime twin), and Txstatic runs its
    worker 0 over abstract memory. *)

val accounts : int
(** 64 accounts, one padded line each, each starting at 1000. *)

val program : txns:int -> Stamp_common.program
(** Every thread runs [txns] transactions: an audit (class ["audit"]:
    the sum of every balance) every 50th, a transfer (class
    ["transfer"]) of up to 19 between two random accounts otherwise.
    Checks that the total is conserved and that every audit saw it. *)
