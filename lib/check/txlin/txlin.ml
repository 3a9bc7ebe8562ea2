module Serve = Asf_serve.Serve
module Findings = Asf_analyze.Findings

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let op_name (op : Serve.op) =
  match op with
  | Read k -> Printf.sprintf "read(%d)" k
  | Update (k, v) -> Printf.sprintf "update(%d,%d)" k v
  | Insert (k, v) -> Printf.sprintf "insert(%d,%d)" k v
  | Scan (k, len) -> Printf.sprintf "scan(%d,%d)" k len
  | Rmw k -> Printf.sprintf "rmw(%d)" k
  | Order { src; dst; amount } -> Printf.sprintf "order(%d->%d,%d)" src dst amount
  | Settle idx -> Printf.sprintf "settle(%d)" idx
  | Audit -> "audit"

let obs_name (obs : Serve.obs) =
  let opt = function None -> "-" | Some v -> string_of_int v in
  match obs with
  | O_unit -> "()"
  | O_val v -> opt v
  | O_vals vs -> "[" ^ String.concat "," (List.map opt vs) ^ "]"
  | O_flag b -> if b then "t" else "f"
  | O_rmw v -> Printf.sprintf "old:%d" v

let render_event (e : Serve.event) =
  let outcome =
    match e.ev_outcome with
    | Ev_done { obs; commit } ->
        Printf.sprintf "-> %s @%d..%d commit=%d" (obs_name obs) e.ev_invoke
          e.ev_respond commit
    | Ev_timeout -> Printf.sprintf "-> timeout @%d..%d" e.ev_invoke e.ev_respond
    | Ev_shed -> Printf.sprintf "-> shed @%d" e.ev_invoke
  in
  Printf.sprintf "#%d %s %s" e.ev_id (op_name e.ev_op) outcome

(* ------------------------------------------------------------------ *)
(* Sequential specifications                                            *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

(* A SplitMix64-style finaliser on OCaml's 63-bit ints. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* The hash of one binding of a model state; the ledger's log head is
   the binding of key -1. *)
let binding_hash k v = mix (mix k lxor v)

(* A model state is purely functional and carries [h], the XOR of
   [binding_hash] over its bindings. [step] keeps [h] up to date, so the
   memo can hash a search node without walking the state. *)
type mstate =
  | Kv_m of { map : int Imap.t; h : int }
  | Ledger_m of { bal : int array; head : int; slot_cap : int; h : int }

let state_hash = function Kv_m { h; _ } | Ledger_m { h; _ } -> h

let same_state a b =
  match (a, b) with
  | Kv_m a, Kv_m b -> a.h = b.h && Imap.equal Int.equal a.map b.map
  | Ledger_m a, Ledger_m b -> a.h = b.h && a.head = b.head && a.bal = b.bal
  | Kv_m _, Ledger_m _ | Ledger_m _, Kv_m _ -> false

let kv_state map =
  Kv_m { map; h = Imap.fold (fun k v h -> h lxor binding_hash k v) map 0 }

let ledger_state ~accounts ~slot_cap =
  let bal = Array.make accounts Serve.initial_balance in
  let h = ref (binding_hash (-1) 0) in
  Array.iteri (fun a b -> h := !h lxor binding_hash a b) bal;
  Ledger_m { bal; head = 0; slot_cap; h = !h }

(* Upsert (mirrors Thashmap.put: insert-or-replace). *)
let kv_put map h k v =
  let h =
    match Imap.find k map with
    | old -> h lxor binding_hash k old
    | exception Not_found -> h
  in
  Kv_m { map = Imap.add k v map; h = h lxor binding_hash k v }

(* Key [k] is bound to [o] ([None]: unbound). *)
let holds map k = function
  | None -> not (Imap.mem k map)
  | Some v -> ( match Imap.find k map with v' -> v = v' | exception Not_found -> false)

let rec scan_holds map k len = function
  | [] -> len = 0
  | o :: tl -> len > 0 && holds map k o && scan_holds map (k + 1) (len - 1) tl

(* [step st op obs] is the successor state when the specification,
   applying [op] in [st], observes exactly [obs], and [None] when it
   observes anything else. *)
let step st (op : Serve.op) (obs : Serve.obs) =
  match (st, op, obs) with
  | Kv_m _, (Order _ | Settle _ | Audit), _
  | Ledger_m _, (Read _ | Update _ | Insert _ | Scan _ | Rmw _), _ ->
      invalid_arg "Txlin: operation does not belong to this service"
  | Kv_m { map; _ }, Read k, O_val o -> if holds map k o then Some st else None
  | Kv_m { map; h }, Update (k, v), O_unit -> Some (kv_put map h k v)
  | Kv_m { map; h }, Insert (k, v), O_flag fresh ->
      if fresh = Imap.mem k map then None
      else if fresh then Some (kv_put map h k v)
      else Some st
  | Kv_m { map; _ }, Scan (k, len), O_vals vs ->
      if scan_holds map k (max 0 len) vs then Some st else None
  | Kv_m { map; h }, Rmw k, O_rmw old ->
      let cur = match Imap.find k map with v -> v | exception Not_found -> 0 in
      if cur = old then Some (kv_put map h k (old + 1)) else None
  | Ledger_m l, Order { src; dst; amount }, O_flag appended ->
      if appended <> (l.head < l.slot_cap) then None
      else begin
        let bal = Array.copy l.bal in
        let h = l.h lxor binding_hash src bal.(src) in
        bal.(src) <- bal.(src) - amount;
        let h = h lxor binding_hash src bal.(src) lxor binding_hash dst bal.(dst) in
        bal.(dst) <- bal.(dst) + amount;
        let head = if appended then l.head + 1 else l.head in
        let h =
          h lxor binding_hash dst bal.(dst)
          lxor binding_hash (-1) l.head
          lxor binding_hash (-1) head
        in
        Some (Ledger_m { l with bal; head; h })
      end
  | Ledger_m l, Settle _, O_flag existed ->
      (* Settlement marks are never read back by any request, so the only
         observable part is whether an order existed to settle. *)
      if existed = (l.head > 0) then Some st else None
  | Ledger_m l, Audit, O_flag balanced ->
      let total = Array.fold_left ( + ) 0 l.bal in
      if balanced = (total = Array.length l.bal * Serve.initial_balance) then Some st
      else None
  | _, _, (O_unit | O_val _ | O_vals _ | O_flag _ | O_rmw _) -> None

(* ------------------------------------------------------------------ *)
(* Per-key independence (the locality pruning)                          *)
(* ------------------------------------------------------------------ *)

(* KV requests touch explicit key sets and nothing else, so the history
   is linearizable iff each connected component of the "touched together"
   relation is (linearizability is local). A scan spans [k, k+len),
   merging every group it crosses; the ledger's orders/audits all share
   the account array and the log head, so ledger histories are one
   group. *)

let key_span (op : Serve.op) =
  match op with
  | Read k | Update (k, _) | Insert (k, _) | Rmw k -> (k, k)
  | Scan (k, len) -> (k, k + max 1 len - 1)
  | Order _ | Settle _ | Audit -> (0, 0)

(* Union-find over the touched keys, Hashtbl-backed (keys are sparse). *)
let uf_find parent k =
  let rec go k =
    match Hashtbl.find_opt parent k with
    | None | Some (-1) -> k
    | Some p ->
        let r = go p in
        Hashtbl.replace parent k r;
        r
  in
  go k

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then Hashtbl.replace parent ra rb

(* ------------------------------------------------------------------ *)
(* The linearization-point search (WGL over the AsyncSpec construction)  *)
(* ------------------------------------------------------------------ *)

(* The pending-request / pending-response multisets of the AsyncSpec
   construction appear here as the remaining set: a remaining event
   whose invoke has passed is a pending request, one whose
   linearization point has been chosen moves to the (implicit) response
   multiset and is removed when its response is consumed. Concretely the
   search picks, at every step, one remaining event [o] that is minimal
   in real time — no other remaining event responded strictly before
   [o]'s invocation — whose specification observation in the current
   model state matches what the client recorded, and recurses.

   Completed events are tried in commit-cycle order: the final attempt's
   commit lies inside the event's [invoke, respond] window, and on
   correct hardware replaying commits in order satisfies the spec, so
   the first candidate always works and clean histories explore one
   search node per event. On lying hardware the search backtracks;
   memoization over (remaining-set, model-state) and the [budget] bound
   the blow-up.

   Apart from [step], a search node and each candidate it tries cost
   O(1) and allocate nothing; [step] is O(log K) for K keys in a KV
   group (the ledger's order step copies its balance array). The
   remaining set is two intrusive doubly-linked lists over the indices
   of the commit-ordered event array: one in commit order gives the
   candidate order, one in respond order has the minimum response at its
   head. Descent unlinks an event from both and backtracking relinks it,
   which restores both lists exactly because relinks run in reverse
   order of unlinks. The set is also kept as a bitset and as the XOR of
   one [mix] per member; a memo entry is keyed by that XOR combined with
   the state's hash, and a hit prunes only after the bitset and the
   state compare equal. *)

type tri = Lin | Nonlin | Unknown

(* The search-node budget of one check, shared by its groups. *)
let budget = 500_000

exception Out_of_budget

let ev_obs (e : Serve.event) =
  match e.ev_outcome with
  | Ev_done { obs; _ } -> obs
  | Ev_timeout | Ev_shed -> invalid_arg "Txlin: obligation has no observation"

let ev_commit (e : Serve.event) =
  match e.ev_outcome with Ev_done { commit; _ } -> commit | _ -> max_int

(* A doubly-linked list over [0, n) in the given order, with sentinel
   [n] as both head and tail. *)
type links = { next : int array; prev : int array }

let links order =
  let n = Array.length order in
  let next = Array.make (n + 1) n and prev = Array.make (n + 1) n in
  let last =
    Array.fold_left
      (fun last i ->
        next.(last) <- i;
        prev.(i) <- last;
        i)
      n order
  in
  next.(last) <- n;
  prev.(n) <- last;
  { next; prev }

let unlink l i =
  l.next.(l.prev.(i)) <- l.next.(i);
  l.prev.(l.next.(i)) <- l.prev.(i)

let relink l i =
  l.next.(l.prev.(i)) <- i;
  l.prev.(l.next.(i)) <- i

(* [events] must be sorted by commit cycle. [states] counts explored
   search nodes across calls (shared budget). *)
let search ~states ~init (events : Serve.event array) : tri =
  let n = Array.length events in
  let obs = Array.map ev_obs events in
  let by_commit = links (Array.init n Fun.id) in
  let by_respond =
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> Int.compare events.(a).ev_respond events.(b).ev_respond) order;
    links order
  in
  let set = Bytes.make ((n + 7) / 8) '\255' and set_h = ref 0 in
  let flip i =
    let b = i lsr 3 in
    Bytes.set_uint8 set b (Bytes.get_uint8 set b lxor (1 lsl (i land 7)));
    set_h := !set_h lxor mix i
  in
  for i = 0 to n - 1 do
    set_h := !set_h lxor mix i
  done;
  let memo : (int, (Bytes.t * mstate) list) Hashtbl.t = Hashtbl.create 64 in
  let rec seen st = function
    | [] -> false
    | (s, st') :: tl -> (Bytes.equal s set && same_state st st') || seen st tl
  in
  let pruned st =
    Hashtbl.length memo > 0
    &&
    match Hashtbl.find memo (!set_h lxor state_hash st) with
    | entries -> seen st entries
    | exception Not_found -> false
  in
  let remember st =
    let k = !set_h lxor state_hash st in
    let entries = Option.value (Hashtbl.find_opt memo k) ~default:[] in
    Hashtbl.replace memo k ((Bytes.copy set, st) :: entries)
  in
  let rec dfs st =
    incr states;
    if !states > budget then raise Out_of_budget;
    let first = by_commit.next.(n) in
    if first = n then true
    else if pruned st then false
    else
      try_from st events.(by_respond.next.(n)).ev_respond first
      || (remember st; false)
  (* The candidates from [i] on in commit order, each real-time minimal
     (no remaining event responded before it was invoked). *)
  and try_from st min_resp i =
    i <> n
    && ((events.(i).ev_invoke <= min_resp
        &&
        match step st events.(i).ev_op obs.(i) with
        | None -> false
        | Some st' ->
            unlink by_commit i;
            unlink by_respond i;
            flip i;
            let ok = dfs st' in
            flip i;
            relink by_respond i;
            relink by_commit i;
            ok)
       || try_from st min_resp by_commit.next.(i))
  in
  match dfs init with
  | true -> Lin
  | false -> Nonlin
  | exception Out_of_budget -> Unknown

(* Greedy 1-minimal shrink: repeatedly drop any single event whose
   removal keeps the history conclusively non-linearizable. The result
   still fails the search, which is what the shrink property test pins. *)
let shrink ~init events =
  let still_bad evs =
    let states = ref 0 in
    search ~states ~init evs = Nonlin
  in
  let rec go evs =
    let n = Array.length evs in
    let rec try_drop i =
      if i >= n then evs
      else
        let cand = Array.init (n - 1) (fun j -> if j < i then evs.(j) else evs.(j + 1)) in
        if still_bad cand then go cand else try_drop (i + 1)
    in
    try_drop 0
  in
  go events

(* ------------------------------------------------------------------ *)
(* Verdicts                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = {
  v_service : string;
  v_obligations : int;
  v_absent : int;
  v_groups : int;
  v_states : int;
  v_ok : bool;
  v_inconclusive : bool;
  v_witness : Serve.event list;
  v_detail : string;
}

let check ~service ~records ~accounts (events : Serve.event array) : verdict =
  let completed, absent =
    Array.fold_right
      (fun (e : Serve.event) (c, a) ->
        match e.ev_outcome with
        | Ev_done _ -> (e :: c, a)
        | Ev_timeout | Ev_shed -> (c, a + 1))
      events ([], 0)
  in
  (* The run sizes the order log over *all scheduled* orders — shed and
     timed-out ones included — so the spec's log capacity must count
     every order obligation, not just the completed ones. *)
  let slot_cap =
    Array.fold_left
      (fun acc (e : Serve.event) ->
        match e.ev_op with Order _ -> acc + 1 | _ -> acc)
      0 events
  in
  let by_commit evs =
    let sorted = Array.of_list evs in
    Array.sort
      (fun (a : Serve.event) b ->
        match Int.compare (ev_commit a) (ev_commit b) with
        | 0 -> Int.compare a.ev_id b.ev_id
        | c -> c)
      sorted;
    sorted
  in
  (* Partition the completed events into independent groups, each with
     its own initial model state. *)
  let groups =
    match service with
    | Serve.Ledger -> [ (by_commit completed, ledger_state ~accounts ~slot_cap) ]
    | Serve.Kv _ ->
        let parent = Hashtbl.create 64 in
        List.iter
          (fun (e : Serve.event) ->
            let lo, hi = key_span e.ev_op in
            for k = lo + 1 to hi do
              uf_union parent lo k
            done)
          completed;
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (e : Serve.event) ->
            let lo, _ = key_span e.ev_op in
            let root = uf_find parent lo in
            Hashtbl.replace tbl root
              (e :: (Option.value (Hashtbl.find_opt tbl root) ~default:[])))
          completed;
        (* Every touched key below [records] starts at [k + 1]. *)
        let rec preload m k hi = if k > hi then m else preload (Imap.add k (k + 1) m) (k + 1) hi in
        Hashtbl.fold
          (fun root evs acc ->
            let init =
              List.fold_left
                (fun m (e : Serve.event) ->
                  let lo, hi = key_span e.ev_op in
                  preload m lo (min hi (records - 1)))
                Imap.empty evs
            in
            (root, by_commit evs, kv_state init) :: acc)
          tbl []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
        |> List.map (fun (_, evs, init) -> (evs, init))
  in
  let states = ref 0 in
  let bad = ref [] (* (events, init) of violating groups *)
  and unknown = ref 0 in
  List.iter
    (fun (evs, init) ->
      if !bad = [] then
        match search ~states ~init evs with
        | Lin -> ()
        | Nonlin -> bad := [ (evs, init) ]
        | Unknown -> incr unknown)
    groups;
  let witness =
    match !bad with
    | [] -> []
    | (evs, init) :: _ -> Array.to_list (shrink ~init evs)
  in
  let ok = !bad = [] && !unknown = 0 in
  let detail =
    if !bad <> [] then
      Printf.sprintf
        "non-linearizable: no order over %d committed request(s) explains the \
         observations; minimal violating history (%d event(s)): %s"
        (Array.length (fst (List.hd !bad)))
        (List.length witness)
        (String.concat " | " (List.map render_event witness))
    else if !unknown > 0 then
      Printf.sprintf
        "inconclusive: %d group(s) exceeded the %d-state search budget"
        !unknown budget
    else
      Printf.sprintf
        "linearizable: %d committed + %d absent obligation(s), %d group(s), %d state(s)"
        (List.length completed) absent (List.length groups) !states
  in
  {
    v_service = Serve.service_name service;
    v_obligations = List.length completed;
    v_absent = absent;
    v_groups = List.length groups;
    v_states = !states;
    v_ok = ok && !unknown = 0;
    v_inconclusive = !unknown > 0;
    v_witness = witness;
    v_detail = detail;
  }

let check_result (cfg : Serve.cfg) (r : Serve.result) =
  check ~service:cfg.service ~records:cfg.records ~accounts:cfg.accounts r.r_events

(* ------------------------------------------------------------------ *)
(* Findings                                                             *)
(* ------------------------------------------------------------------ *)

let findings ~workload v =
  if v.v_ok then []
  else if v.v_inconclusive then
    [
      Findings.make ~source:Findings.Runtime ~severity:"advisory"
        ~kind:"lin-inconclusive" ~workload ~count:v.v_groups ~detail:v.v_detail ();
    ]
  else
    [
      Findings.make ~source:Findings.Runtime ~severity:"violation"
        ~kind:"non-linearizable" ~workload
        ~count:(List.length v.v_witness)
        ~detail:v.v_detail ();
    ]

let partition_finding ~workload (r : Serve.result) =
  if r.r_partition_ok then None
  else
    Some
      (Findings.make ~source:Findings.Runtime ~severity:"violation"
         ~kind:"partition" ~workload
         ~count:(abs (r.r_arrivals - (r.r_completed + r.r_shed + r.r_timeout)))
         ~detail:
           (Printf.sprintf
              "outcome partition violated: completed %d + shed %d + timeout %d \
               <> arrivals %d"
              r.r_completed r.r_shed r.r_timeout r.r_arrivals)
         ())
