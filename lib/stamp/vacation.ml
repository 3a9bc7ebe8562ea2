module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops
module Trbtree = Asf_dstruct.Trbtree

type cfg = {
  relations : int;
  txns : int;
  queries_per_txn : int;
  user_pct : int;
}

let low = { relations = 1024; txns = 2048; queries_per_txn = 2; user_pct = 98 }

let high = { relations = 1024; txns = 2048; queries_per_txn = 4; user_pct = 90 }

(* Resource record (one padded line): [0] total, [1] available, [2] price.
   Customer record: [0] spent, [1] bookings, [2] reservation-list head.
   Reservation node (one padded line): [0] resource record, [1] price
   paid, [2] next. Resources with outstanding bookings are never retired,
   so reservation pointers stay valid until the customer releases them. *)

let r_total = 0

let r_avail = 1

let r_price = 2

let c_spent = 0

let c_bookings = 1

let c_reservations = 2

let res_words = 3

let n_tables = 3

let program cfg ~seed ~threads (so : Ops.t) =
  let rng = Prng.create (seed + 9090) in
  let tables = Array.init n_tables (fun _ -> Trbtree.create so) in
  let customers = Trbtree.create so in
  for id = 0 to cfg.relations - 1 do
    Array.iter
      (fun t ->
        let rcd = so.alloc 3 in
        let capacity = 1 + Prng.int rng 5 in
        so.st (rcd + r_total) capacity;
        so.st (rcd + r_avail) capacity;
        so.st (rcd + r_price) (100 + Prng.int rng 900);
        ignore (Trbtree.insert so t id rcd))
      tables;
    let cust = so.alloc 3 in
    so.st (cust + c_spent) 0;
    so.st (cust + c_bookings) 0;
    so.st (cust + c_reservations) 0;
    ignore (Trbtree.insert so customers id cust)
  done;
  let worker (cap : Cap.t) tid =
    let o = cap.o in
    let start, stop = Stamp_common.chunk cfg.txns ~threads ~tid in
    for _ = start + 1 to stop do
      let roll = cap.rand 100 in
      if roll < cfg.user_pct then begin
        (* User transaction: browse queries_per_txn random resources,
           book the last available one for a random customer. *)
        let cust_id = cap.rand cfg.relations in
        let picks =
          Array.init cfg.queries_per_txn (fun _ ->
              (cap.rand n_tables, cap.rand cfg.relations))
        in
        cap.atomic "user" (fun () ->
            let chosen = ref 0 in
            Array.iter
              (fun (t, id) ->
                match Trbtree.find o tables.(t) id with
                | Some rcd ->
                    cap.work 40;
                    if o.ld (rcd + r_avail) > 0 then chosen := rcd
                | None -> ())
              picks;
            if !chosen <> 0 then begin
              let rcd = !chosen in
              match Trbtree.find o customers cust_id with
              | Some cust ->
                  let price = o.ld (rcd + r_price) in
                  o.st (rcd + r_avail) (o.ld (rcd + r_avail) - 1);
                  o.st (cust + c_spent) (o.ld (cust + c_spent) + price);
                  o.st (cust + c_bookings) (o.ld (cust + c_bookings) + 1);
                  let node = o.alloc res_words in
                  o.st node rcd;
                  o.st (node + 1) price;
                  o.st (node + 2) (o.ld (cust + c_reservations));
                  o.st (cust + c_reservations) node
              | None -> ()
            end)
      end
      else if roll < cfg.user_pct + ((100 - cfg.user_pct) / 2) then begin
        (* Delete customer: release every reservation back to its
           resource and reset the account (STAMP's customer deletion). *)
        let cust_id = cap.rand cfg.relations in
        cap.atomic "delete-customer" (fun () ->
            match Trbtree.find o customers cust_id with
            | Some cust ->
                let rec release node =
                  if node <> 0 then begin
                    let rcd = o.ld node in
                    o.st (rcd + r_avail) (o.ld (rcd + r_avail) + 1);
                    let next = o.ld (node + 2) in
                    o.free node res_words;
                    release next
                  end
                in
                release (o.ld (cust + c_reservations));
                o.st (cust + c_reservations) 0;
                o.st (cust + c_spent) 0;
                o.st (cust + c_bookings) 0
            | None -> ())
      end
      else begin
        (* Table update: insert a fresh resource, or retire an unbooked
           one (structural tree updates). *)
        let t = cap.rand n_tables in
        let id = cap.rand (2 * cfg.relations) in
        cap.atomic "update-tables" (fun () ->
            match Trbtree.find o tables.(t) id with
            | Some rcd ->
                if o.ld (rcd + r_avail) = o.ld (rcd + r_total) then begin
                  ignore (Trbtree.remove o tables.(t) id);
                  o.free rcd 3
                end
                else
                  (* Booked: just reprice it. *)
                  o.st (rcd + r_price) (100 + (id mod 900))
            | None ->
                let rcd = o.alloc 3 in
                let capacity = 1 + (id mod 5) in
                o.st (rcd + r_total) capacity;
                o.st (rcd + r_avail) capacity;
                o.st (rcd + r_price) (100 + (id mod 900));
                ignore (Trbtree.insert o tables.(t) id rcd))
      end
    done
  in
  (* Conservation: total booked across resources == total customer
     bookings; tree invariants hold. *)
  let checks () =
    let booked = ref 0 in
    Array.iter
      (fun t ->
        List.iter
          (fun (_, rcd) -> booked := !booked + (so.ld (rcd + r_total) - so.ld (rcd + r_avail)))
          (Trbtree.to_list so t))
      tables;
    let customer_bookings =
      List.fold_left
        (fun acc (_, cust) -> acc + so.ld (cust + c_bookings))
        0
        (Trbtree.to_list so customers)
    in
    let invariants =
      Array.for_all (fun t -> Trbtree.check_invariants so t = Ok ()) tables
      && Trbtree.check_invariants so customers = Ok ()
    in
    [ ("bookings conserved", !booked = customer_bookings); ("tree invariants", invariants) ]
  in
  { Stamp_common.worker; checks }
