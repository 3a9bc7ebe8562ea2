(** STAMP vacation: a travel-reservation system.

    Three resource tables (cars, flights, rooms) and a customer table, all
    red-black trees in simulated memory. Client transactions browse
    several random resources and book one (user transactions), query a
    customer's bill (read-only), or update tables by inserting/removing
    resources. Transactions traverse O(log n) tree paths, giving the
    medium-sized read sets that separate LLB-8 from LLB-256 in the
    paper's Fig. 4/6. The "(low)"/"(high)" configurations follow STAMP:
    high contention queries more relations per transaction and books more
    aggressively. *)

type cfg = {
  relations : int;  (** resources per table and number of customers *)
  txns : int;  (** total transactions, divided among threads (fixed problem
                    size, as in the paper's Fig. 4) *)
  queries_per_txn : int;
  user_pct : int;  (** percentage of user (reservation) transactions *)
}

val low : cfg

val high : cfg

val program : cfg -> Stamp_common.program
