module Engine = Asf_engine.Engine
module Prng = Asf_engine.Prng
module Params = Asf_machine.Params
module Addr = Asf_mem.Addr
module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Ops = Asf_dstruct.Ops
module Thashmap = Asf_dstruct.Thashmap

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type mix = A | B | C | D | E | F

type service = Kv of mix | Ledger

let service_name = function
  | Kv A -> "kv-a"
  | Kv B -> "kv-b"
  | Kv C -> "kv-c"
  | Kv D -> "kv-d"
  | Kv E -> "kv-e"
  | Kv F -> "kv-f"
  | Ledger -> "ledger"

type arrival =
  | Poisson of { mean_gap : int }
  | Bursty of {
      mean_gap : int;
      burst_gap : int;
      on_window : int;
      off_window : int;
    }
  | Ramp of { low_gap : int; high_gap : int; period : int }
  | Closed

type cfg = {
  service : service;
  arrival : arrival;
  requests : int;
  queue_cap : int;
  deadline : int option;
  governor : bool;
  records : int;
  accounts : int;
  record : bool;
}

let default_cfg service =
  {
    service;
    arrival = Poisson { mean_gap = 300 };
    requests = 2000;
    queue_cap = 64;
    deadline = None;
    governor = true;
    records = 1024;
    accounts = 48;
    record = false;
  }

let initial_balance = 1000

(* Idle worker re-poll interval, cycles. *)
let poll_cycles = 200

(* KV mix E: keys per scan. *)
let scan_len = 8

(* Governor sampling interval, cycles. *)
let sample_every = 2048

(* ------------------------------------------------------------------ *)
(* Request population                                                   *)
(* ------------------------------------------------------------------ *)

(* Request contents are decided at schedule-generation time, from their
   own PRNG streams: the client does not adapt to what the server is
   doing, which is what makes the system "open". *)

type op =
  | Read of int
  | Update of int * int
  | Insert of int * int
  | Scan of int * int
  | Rmw of int
  | Order of { src : int; dst : int; amount : int }
  | Settle of int
  | Audit

type request = { rq_id : int; rq_core : int; rq_arrival : int; rq_op : op }

(* ------------------------------------------------------------------ *)
(* History events (the linearizability oracle's input)                  *)
(* ------------------------------------------------------------------ *)

(* What a completed request observed, as seen by the client. The oracle
   replays the sequential specification and demands that every
   observation is explained by *some* linearization order. *)
type obs =
  | O_unit  (** Update: no observable return *)
  | O_val of int option  (** Read: the value found (or absence) *)
  | O_vals of int option list  (** Scan: values for k, k+1, ... *)
  | O_flag of bool
      (** Insert: key was absent; Order: log slot appended;
          Settle: some order existed; Audit: balances summed correctly *)
  | O_rmw of int  (** Rmw: the old value read (new value = old + 1) *)

type outcome_ev =
  | Ev_done of { obs : obs; commit : int }
      (** committed; [commit] is the final attempt's commit cycle — the
          linearization-point witness (invoke <= commit <= respond) *)
  | Ev_timeout  (** deadline passed: committed nothing (no-op obligation) *)
  | Ev_shed  (** rejected at admission: never executed *)

type event = {
  ev_id : int;
  ev_op : op;
  ev_invoke : int;  (** arrival cycle (the client's send) *)
  ev_respond : int;  (** cycle the outcome was decided *)
  ev_outcome : outcome_ev;
}

(* Exponential inter-arrival gap with the given mean (cycles). *)
let exp_gap g mean =
  if mean <= 0 then 0
  else begin
    let u = Prng.float g 1.0 in
    max 1 (int_of_float ((-.float_of_int mean *. log (1.0 -. u)) +. 0.5))
  end

(* The schedule PRNG root is seeded away from [Tm]'s per-core streams
   (which split the raw seed): a SplitMix-finalized different seed gives
   decorrelated streams, so arrival timing never echoes backoff draws. *)
let schedule cfg ~seed ~threads =
  let root = Prng.create (seed + 0x9E3779B9) in
  let garr = Prng.split root in
  let gop = Prng.split root in
  let next_key = ref cfg.records in
  let last_ins = ref (max 0 (cfg.records - 1)) in
  let orders = ref 0 in
  let t = ref 0 in
  let key () = Prng.int gop (max 1 cfg.records) in
  let value () = 1 + Prng.int gop 1000 in
  let insert () =
    let k = !next_key in
    incr next_key;
    last_ins := k;
    Insert (k, value ())
  in
  let read_latest () = Read (max 0 (!last_ins - Prng.int gop 16)) in
  let gen_kv m =
    let roll = Prng.int gop 100 in
    match m with
    | A -> if roll < 50 then Read (key ()) else Update (key (), value ())
    | B -> if roll < 95 then Read (key ()) else Update (key (), value ())
    | C -> Read (key ())
    | D -> if roll < 95 then read_latest () else insert ()
    | E -> if roll < 95 then Scan (key (), scan_len) else insert ()
    | F -> if roll < 50 then Read (key ()) else Rmw (key ())
  in
  let gen_ledger () =
    let roll = Prng.int gop 100 in
    if roll < 70 then begin
      incr orders;
      let src = Prng.int gop cfg.accounts in
      let dst = (src + 1 + Prng.int gop (max 1 (cfg.accounts - 1))) mod cfg.accounts in
      Order { src; dst; amount = 1 + Prng.int gop 100 }
    end
    else if roll < 95 then Settle (Prng.int gop (max 1 !orders))
    else Audit
  in
  Array.init cfg.requests (fun i ->
      let gap =
        match cfg.arrival with
        | Closed -> 0
        | Poisson { mean_gap } -> exp_gap garr mean_gap
        | Bursty { mean_gap; burst_gap; on_window; off_window } ->
            let window = max 1 (on_window + off_window) in
            let phase = !t mod window in
            exp_gap garr (if phase < on_window then burst_gap else mean_gap)
        | Ramp { low_gap; high_gap; period } ->
            let p = max 2 period in
            let ph = !t mod p in
            let half = p / 2 in
            (* Triangle wave: 0 at the trough, 1 at the peak. *)
            let frac =
              if ph < half then float_of_int ph /. float_of_int half
              else float_of_int (p - ph) /. float_of_int (p - half)
            in
            let mean =
              float_of_int high_gap
              +. ((float_of_int low_gap -. float_of_int high_gap) *. frac)
            in
            exp_gap garr (max 1 (int_of_float mean))
      in
      t := !t + gap;
      let op = match cfg.service with Kv m -> gen_kv m | Ledger -> gen_ledger () in
      { rq_id = i; rq_core = i mod threads; rq_arrival = !t; rq_op = op })

(* ------------------------------------------------------------------ *)
(* Overload governor                                                    *)
(* ------------------------------------------------------------------ *)

type gov_state = Normal | Shedding | Serial

let gov_state_name = function
  | Normal -> "normal"
  | Shedding -> "shedding"
  | Serial -> "serial"

type governor = {
  g_hi : int;
  g_lo : int;
  g_streak_needed : int;
  g_zero_window : int;
  mutable g_state : gov_state;
  mutable g_streak : int;
  mutable g_last_depth : int;
  mutable g_last_commits : int;
  mutable g_commit_seen : int;
  mutable g_to_shed : int;
  mutable g_to_serial : int;
  mutable g_recovered : int;
}

let governor_create ?(streak = 3) ?(zero_window = 1_000_000) ~hi ~lo () =
  {
    g_hi = hi;
    g_lo = lo;
    g_streak_needed = max 1 streak;
    g_zero_window = max 1 zero_window;
    g_state = Normal;
    g_streak = 0;
    g_last_depth = 0;
    g_last_commits = 0;
    g_commit_seen = 0;
    g_to_shed = 0;
    g_to_serial = 0;
    g_recovered = 0;
  }

let governor_step g ~now ~depth ~commits =
  if commits > g.g_last_commits then g.g_commit_seen <- now;
  (match g.g_state with
  | Normal ->
      (* Sustained growth: the queue sits at the high watermark and is
         not draining, for several consecutive samples. *)
      if depth >= g.g_hi && depth >= g.g_last_depth then begin
        g.g_streak <- g.g_streak + 1;
        if g.g_streak >= g.g_streak_needed then begin
          g.g_state <- Shedding;
          g.g_to_shed <- g.g_to_shed + 1;
          g.g_streak <- 0
        end
      end
      else g.g_streak <- 0
  | Shedding ->
      if depth <= g.g_lo then begin
        g.g_state <- Normal;
        g.g_recovered <- g.g_recovered + 1
      end
      else if now - g.g_commit_seen >= g.g_zero_window then begin
        (* The watchdog's zero-commit signal, acted on while it is still
           a degradation decision rather than a [Livelock] diagnosis. *)
        g.g_state <- Serial;
        g.g_to_serial <- g.g_to_serial + 1
      end
  | Serial ->
      if depth <= g.g_lo then begin
        g.g_state <- Normal;
        g.g_recovered <- g.g_recovered + 1
      end);
  g.g_last_depth <- depth;
  g.g_last_commits <- commits

let governor_state g = g.g_state

let governor_census g = (g.g_to_shed, g.g_to_serial, g.g_recovered)

(* ------------------------------------------------------------------ *)
(* Service state                                                        *)
(* ------------------------------------------------------------------ *)

type state =
  | Kv_state of { map : Thashmap.t }
  | Ledger_state of {
      accounts : Addr.t array;
      head : Addr.t;
      slots : Addr.t;  (** order log; slot [i] at [slots + i * words_per_line] *)
      slot_cap : int;
    }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let make_state sys setup_o cfg reqs =
  match cfg.service with
  | Kv _ ->
      let buckets = next_pow2 (max 16 (2 * cfg.records)) in
      let map = Thashmap.create setup_o ~buckets in
      for k = 0 to cfg.records - 1 do
        Thashmap.put setup_o map k (k + 1)
      done;
      Kv_state { map }
  | Ledger ->
      let accounts = Array.init cfg.accounts (fun _ -> Tm.setup_alloc sys 1) in
      Array.iter (fun a -> Tm.setup_poke sys a initial_balance) accounts;
      let head = Tm.setup_alloc sys 1 in
      Tm.setup_poke sys head 0;
      let slot_cap =
        Array.fold_left
          (fun acc r -> match r.rq_op with Order _ -> acc + 1 | _ -> acc)
          0 reqs
      in
      let slots = Tm.setup_alloc sys (max 1 slot_cap * Addr.words_per_line) in
      Ledger_state { accounts; head; slots; slot_cap }

(* One request body, executed inside a transaction. Host-visible effects
   are returned as [(extra, obs)] (applied/recorded by the worker after
   commit), never performed in the body — an aborted attempt re-executes
   the closure, and only the final attempt's observation escapes. *)
let exec_op (o : Ops.t) state rq =
  match (state, rq.rq_op) with
  | Kv_state s, Read k -> (0, O_val (Thashmap.get o s.map k))
  | Kv_state s, Update (k, v) ->
      Thashmap.put o s.map k v;
      (0, O_unit)
  | Kv_state s, Insert (k, v) ->
      let fresh = Thashmap.put_if_absent o s.map k v in
      ((if fresh then 1 else 0), O_flag fresh)
  | Kv_state s, Scan (k, len) ->
      let vs = List.init len (fun i -> Thashmap.get o s.map (k + i)) in
      (0, O_vals vs)
  | Kv_state s, Rmw k ->
      let v = match Thashmap.get o s.map k with Some v -> v | None -> 0 in
      Thashmap.put o s.map k (v + 1);
      (0, O_rmw v)
  | Ledger_state s, Order { src; dst; amount } ->
      let appended =
        let h = o.Ops.ld s.head in
        if h < s.slot_cap then begin
          let slot = s.slots + (h * Addr.words_per_line) in
          o.Ops.st slot src;
          o.Ops.st (slot + 1) dst;
          o.Ops.st (slot + 2) amount;
          o.Ops.st (slot + 3) 0;
          o.Ops.st s.head (h + 1);
          1
        end
        else 0
      in
      let a = s.accounts.(src) and b = s.accounts.(dst) in
      o.Ops.st a (o.Ops.ld a - amount);
      o.Ops.st b (o.Ops.ld b + amount);
      (appended, O_flag (appended = 1))
  | Ledger_state s, Settle idx ->
      let h = o.Ops.ld s.head in
      if h > 0 then begin
        let slot = s.slots + (idx mod h * Addr.words_per_line) in
        o.Ops.st (slot + 3) (o.Ops.ld (slot + 3) + 1)
      end;
      (0, O_flag (h > 0))
  | Ledger_state s, Audit ->
      let total = Array.fold_left (fun acc a -> acc + o.Ops.ld a) 0 s.accounts in
      let balanced = total = Array.length s.accounts * initial_balance in
      ((if balanced then 0 else 1), O_flag balanced)
  | Kv_state _, (Order _ | Settle _ | Audit) | Ledger_state _, (Read _ | Update _ | Insert _ | Scan _ | Rmw _) ->
      assert false

(* ------------------------------------------------------------------ *)
(* Bounded per-core run queues                                          *)
(* ------------------------------------------------------------------ *)

type queue = {
  buf : request option array;
  mutable head : int;
  mutable len : int;
}

let qpush q r =
  q.buf.((q.head + q.len) mod Array.length q.buf) <- Some r;
  q.len <- q.len + 1

let qpop q =
  if q.len = 0 then None
  else begin
    let r = q.buf.(q.head) in
    q.buf.(q.head) <- None;
    q.head <- (q.head + 1) mod Array.length q.buf;
    q.len <- q.len - 1;
    r
  end

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  r_service : string;
  r_arrivals : int;
  r_completed : int;
  r_shed : int;
  r_timeout : int;
  r_late : int;
  r_retries : int;
  r_retry_hist : int array;
  r_timeout_aborts : int;
  r_serial_served : int;
  r_max_depth : int;
  r_max_dl_wait : int;
  r_gov_to_shed : int;
  r_gov_to_serial : int;
  r_gov_recovered : int;
  r_final_gov : string;
  r_p50 : int;
  r_p90 : int;
  r_p99 : int;
  r_p999 : int;
  r_max_lat : int;
  r_mean_lat : float;
  r_span : int;
  r_makespan : int;
  r_offered : float;
  r_achieved : float;
  r_stats : Stats.t;
  r_invariant_ok : bool;
  r_invariant_msg : string;
  r_partition_ok : bool;
  r_events : event array;
}

let retry_bucket r =
  if r = 0 then 0 else if r = 1 then 1 else if r <= 3 then 2 else if r <= 7 then 3 else 4

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

let run (tm_cfg : Tm.config) ~threads cfg =
  if threads <= 0 then invalid_arg "Serve.run: threads must be positive";
  if threads > tm_cfg.Tm.n_cores then invalid_arg "Serve.run: threads > n_cores";
  if cfg.requests <= 0 then invalid_arg "Serve.run: requests must be positive";
  if cfg.queue_cap <= 0 then invalid_arg "Serve.run: queue_cap must be positive";
  if cfg.accounts < 2 then invalid_arg "Serve.run: need at least 2 accounts";
  if cfg.records < 1 then invalid_arg "Serve.run: need at least 1 record";
  let reqs = schedule cfg ~seed:tm_cfg.Tm.seed ~threads in
  let span = reqs.(cfg.requests - 1).rq_arrival in
  let sys = Tm.create tm_cfg in
  let setup_o = Ops.setup sys in
  let state = make_state sys setup_o cfg reqs in
  (* The closed-loop probe delivers the whole population at cycle 0; its
     queue must hold it (capacity is what is being measured, shedding
     would clip it). *)
  let cap_limit =
    match cfg.arrival with Closed -> cfg.requests | _ -> cfg.queue_cap
  in
  let queues =
    Array.init threads (fun _ ->
        { buf = Array.make cap_limit None; head = 0; len = 0 })
  in
  let completed = ref 0
  and shed = ref 0
  and timeout = ref 0
  and late = ref 0 in
  let retries_total = ref 0 in
  let hist = Array.make 5 0 in
  let completed_inserts = ref 0
  and completed_orders = ref 0
  and audit_fails = ref 0 in
  let serial_served = ref 0
  and max_depth = ref 0
  and max_dl_wait = ref 0 in
  let latencies = Array.make cfg.requests (-1) in
  (* History recording (host-side only — never touches simulated time, so
     recording on/off cannot change any reported number). One slot per
     request id; a slot left [None] is itself a partition violation. *)
  let events : event option array =
    Array.make (if cfg.record then cfg.requests else 0) None
  in
  let record rq ~respond outcome =
    if cfg.record then
      events.(rq.rq_id) <-
        Some
          {
            ev_id = rq.rq_id;
            ev_op = rq.rq_op;
            ev_invoke = rq.rq_arrival;
            ev_respond = respond;
            ev_outcome = outcome;
          }
  in
  let accounted () = !completed + !shed + !timeout in
  (* Governor watermarks scale with total queue capacity. *)
  let total_cap = cap_limit * threads in
  let gov =
    governor_create ~hi:(max 1 (total_cap * 3 / 4)) ~lo:(total_cap / 8) ()
  in
  let last_sample = ref 0 in
  let total_depth () = Array.fold_left (fun acc q -> acc + q.len) 0 queues in
  let gov_poll t =
    if cfg.governor && t - !last_sample >= sample_every then begin
      last_sample := t;
      governor_step gov ~now:t ~depth:(total_depth ())
        ~commits:(Tm.total_commits sys)
    end
  in
  let effective_cap () =
    if not cfg.governor then cap_limit
    else
      match governor_state gov with
      | Normal -> cap_limit
      | Shedding | Serial -> max 1 (cap_limit / 2)
  in
  (* Arrival injection: a chain of absolute-time events (each admits one
     request, then schedules the next), so the engine heap carries at
     most one pending arrival besides the workers. Admission control
     happens here, at "network" level: it consumes no worker cycles. *)
  let engine = Tm.engine sys in
  let rec inject i =
    if i < cfg.requests then begin
      let r = reqs.(i) in
      Engine.spawn_at engine ~core:r.rq_core ~time:r.rq_arrival (fun () ->
          gov_poll r.rq_arrival;
          let q = queues.(r.rq_core) in
          if q.len >= effective_cap () then begin
            incr shed;
            record r ~respond:r.rq_arrival Ev_shed
          end
          else begin
            qpush q r;
            if q.len > !max_depth then max_depth := q.len
          end;
          inject (i + 1))
    end
  in
  inject 0;
  let serve_one ctx o rq =
    let dl = Option.map (fun d -> rq.rq_arrival + d) cfg.deadline in
    match dl with
    | Some d when Tm.now ctx >= d ->
        (* Expired while queued: drop without burning a single cycle on
           work nobody is waiting for anymore. *)
        incr timeout;
        record rq ~respond:(Tm.now ctx) Ev_timeout
    | _ ->
        let forced = cfg.governor && governor_state gov = Serial in
        Tm.set_force_serial ctx forced;
        if forced then incr serial_served;
        let st = Tm.stats ctx in
        let a0 = Stats.attempts st in
        let outcome =
          match dl with
          | None -> Ok (Tm.atomic ctx (fun () -> exec_op o state rq))
          | Some d -> (
              try Ok (Tm.atomic_until ctx ~deadline:d (fun () -> exec_op o state rq))
              with Tm.Deadline_exceeded _ -> Error ())
        in
        if dl <> None then begin
          let w = Tm.deadline_wait ctx in
          if w > !max_dl_wait then max_dl_wait := w
        end;
        (match outcome with
        | Ok (extra, obs) ->
            let fin = Tm.now ctx in
            latencies.(rq.rq_id) <- fin - rq.rq_arrival;
            let rt = max 0 (Stats.attempts st - a0 - 1) in
            retries_total := !retries_total + rt;
            hist.(retry_bucket rt) <- hist.(retry_bucket rt) + 1;
            (match rq.rq_op with
            | Insert _ -> completed_inserts := !completed_inserts + extra
            | Order _ -> completed_orders := !completed_orders + extra
            | Audit -> audit_fails := !audit_fails + extra
            | Read _ | Update _ | Scan _ | Rmw _ | Settle _ -> ());
            (match dl with Some d when fin > d -> incr late | _ -> ());
            incr completed;
            record rq ~respond:fin
              (Ev_done { obs; commit = Tm.last_commit_cycle ctx })
        | Error () ->
            let rt = max 0 (Stats.attempts st - a0) in
            retries_total := !retries_total + rt;
            incr timeout;
            record rq ~respond:(Tm.now ctx) Ev_timeout)
  in
  let ctxs =
    List.init threads (fun core ->
        Tm.spawn sys ~core (fun ctx ->
            let o = Ops.tx ctx in
            let rec loop () =
              if accounted () < cfg.requests then begin
                (match qpop queues.(core) with
                | None -> Tm.work ctx poll_cycles
                | Some rq -> serve_one ctx o rq);
                gov_poll (Tm.now ctx);
                loop ()
              end
            in
            loop ()))
  in
  Tm.run sys;
  (* Outcome-partition invariant, *recorded* rather than asserted: an
     assert here would tear the run down before any report exists, so a
     partition bug on an early-exit path was invisible. The caller turns
     [r_partition_ok = false] into a structured Finding and a non-zero
     exit instead. *)
  let partition_ok = accounted () = cfg.requests in
  let agg = Stats.create () in
  List.iter (fun c -> Stats.add (Tm.stats c) ~into:agg) ctxs;
  let lats =
    Array.of_list (List.filter (fun x -> x >= 0) (Array.to_list latencies))
  in
  Array.sort compare lats;
  let n_lat = Array.length lats in
  let pct q =
    if n_lat = 0 then 0
    else
      lats.(min (n_lat - 1)
              (max 0 (int_of_float (ceil (q *. float_of_int n_lat)) - 1)))
  in
  let mean =
    if n_lat = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 lats) /. float_of_int n_lat
  in
  let makespan = Tm.makespan sys in
  let params = tm_cfg.Tm.params in
  let per_ms n cycles =
    if cycles <= 0 || n = 0 then 0.0
    else float_of_int n /. Params.cycles_to_ms params cycles
  in
  let offered =
    match cfg.arrival with
    | Closed -> per_ms cfg.requests makespan
    | _ -> per_ms cfg.requests (max 1 span)
  in
  let to_shed, to_serial, recovered = governor_census gov in
  let inv_ok, inv_msg =
    match state with
    | Kv_state s ->
        let size = Thashmap.size setup_o s.map in
        let expect = cfg.records + !completed_inserts in
        ( size = expect,
          Printf.sprintf "kv size %d = %d preloaded + %d committed inserts" size
            cfg.records !completed_inserts )
    | Ledger_state s ->
        let total =
          Array.fold_left (fun acc a -> acc + Tm.setup_peek sys a) 0 s.accounts
        in
        let head = Tm.setup_peek sys s.head in
        let ok =
          total = cfg.accounts * initial_balance
          && head = !completed_orders
          && !audit_fails = 0
        in
        ( ok,
          Printf.sprintf
            "balance %d/%d, order log %d/%d committed orders, %d audit failures"
            total
            (cfg.accounts * initial_balance)
            head !completed_orders !audit_fails )
  in
  {
    r_service = service_name cfg.service;
    r_arrivals = cfg.requests;
    r_completed = !completed;
    r_shed = !shed;
    r_timeout = !timeout;
    r_late = !late;
    r_retries = !retries_total;
    r_retry_hist = hist;
    r_timeout_aborts = (Stats.aborts agg).(Asf_core.Abort.index Asf_core.Abort.Timeout);
    r_serial_served = !serial_served;
    r_max_depth = !max_depth;
    r_max_dl_wait = !max_dl_wait;
    r_gov_to_shed = to_shed;
    r_gov_to_serial = to_serial;
    r_gov_recovered = recovered;
    r_final_gov = gov_state_name (governor_state gov);
    r_p50 = pct 0.50;
    r_p90 = pct 0.90;
    r_p99 = pct 0.99;
    r_p999 = pct 0.999;
    r_max_lat = (if n_lat = 0 then 0 else lats.(n_lat - 1));
    r_mean_lat = mean;
    r_span = span;
    r_makespan = makespan;
    r_offered = offered;
    r_achieved = per_ms !completed makespan;
    r_stats = agg;
    r_invariant_ok = inv_ok;
    r_invariant_msg = inv_msg;
    r_partition_ok = partition_ok;
    r_events =
      Array.of_list
        (List.filter_map Fun.id (Array.to_list events));
  }

(* ------------------------------------------------------------------ *)
(* Capacity and the offered-load sweep                                  *)
(* ------------------------------------------------------------------ *)

let measure_capacity tm_cfg ~threads cfg =
  let probe = { cfg with arrival = Closed; deadline = None; governor = false } in
  (run tm_cfg ~threads probe).r_achieved

let knee_point ?(threshold = 0.9) pts =
  let good = List.filter (fun (o, a) -> a >= threshold *. o) pts in
  let saturated = List.exists (fun (o, a) -> a < threshold *. o) pts in
  if not saturated then None
  else Some (List.fold_left (fun acc (o, _) -> max acc o) 0.0 good)

let load_gap (tm_cfg : Tm.config) ~threads cfg =
  let capacity = measure_capacity tm_cfg ~threads cfg in
  let cycles_per_ms = 1.0 /. Params.cycles_to_ms tm_cfg.Tm.params 1 in
  fun mult -> max 1 (int_of_float (cycles_per_ms /. Float.max 1e-9 (capacity *. mult)))

let sweep tm_cfg ~threads cfg ~mults =
  let gap = load_gap tm_cfg ~threads cfg in
  let results =
    List.map
      (fun m ->
        (m, run tm_cfg ~threads { cfg with arrival = Poisson { mean_gap = gap m } }))
      mults
  in
  let pts = List.map (fun (_, r) -> (r.r_offered, r.r_achieved)) results in
  (results, knee_point pts)
