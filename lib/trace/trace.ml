type payload =
  | Tx_begin
  | Tx_commit of { serial : bool }
  | Tx_abort of { abort_class : string; addr : int option }
  | Probe_rollback of { requester : int; line_addr : int }
  | Fallback_enter
  | Fallback_exit
  | Backoff of { cycles : int }
  | Cache_evict of { level : string; line_addr : int }
  | Fault_service of { page : int }
  | Stm_rollback of { reads : int; writes : int }
  | Thread_spawn
  | Thread_finish
  | Thread_resume
  | Check_violation of { check : string; line_addr : int option }
  | Fault_inject of { kind : string }

type event = {
  run : int;
  core : int;
  cycle : int;
  attempt : int;
  seq : int;
  payload : payload;
}

let n_kinds = 15

let kind_index = function
  | Tx_begin -> 0
  | Tx_commit _ -> 1
  | Tx_abort _ -> 2
  | Probe_rollback _ -> 3
  | Fallback_enter -> 4
  | Fallback_exit -> 5
  | Backoff _ -> 6
  | Cache_evict _ -> 7
  | Fault_service _ -> 8
  | Stm_rollback _ -> 9
  | Thread_spawn -> 10
  | Thread_finish -> 11
  | Thread_resume -> 12
  | Check_violation _ -> 13
  | Fault_inject _ -> 14

let kind_names =
  [|
    "Tx_begin"; "Tx_commit"; "Tx_abort"; "Probe_rollback"; "Fallback_enter";
    "Fallback_exit"; "Backoff"; "Cache_evict"; "Fault_service"; "Stm_rollback";
    "Thread_spawn"; "Thread_finish"; "Thread_resume"; "Check_violation";
    "Fault_inject";
  |]

let kind_name p = kind_names.(kind_index p)

(* CLI-facing filter vocabulary; one name may cover several kinds
   (enter/exit pairs). *)
let filter_table =
  [
    ("begin", [ 0 ]);
    ("commit", [ 1 ]);
    ("abort", [ 2 ]);
    ("probe", [ 3 ]);
    ("fallback", [ 4; 5 ]);
    ("backoff", [ 6 ]);
    ("evict", [ 7 ]);
    ("fault", [ 8 ]);
    ("stm", [ 9 ]);
    ("spawn", [ 10 ]);
    ("finish", [ 11 ]);
    ("resume", [ 12 ]);
    ("check", [ 13 ]);
    ("inject", [ 14 ]);
  ]

let filter_names = List.map fst filter_table

(* Everything except the per-elapse scheduler resumptions, which would
   drown the transaction-level signal. *)
let default_filter () =
  let f = Array.make n_kinds true in
  f.(12) <- false;
  f

let filter_of_names names =
  let f = Array.make n_kinds false in
  List.iter
    (fun name ->
      match List.assoc_opt (String.trim name) filter_table with
      | Some kinds -> List.iter (fun k -> f.(k) <- true) kinds
      | None ->
          invalid_arg
            (Printf.sprintf "Trace: unknown event filter %S (valid: %s)" name
               (String.concat ", " filter_names)))
    names;
  f

(* Bounded per-core ring: a full ring overwrites (and counts) the oldest
   event, so a trace always holds the most recent window. *)
type ring = {
  buf : event array;
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
}

let dummy_event =
  { run = 0; core = 0; cycle = 0; attempt = 0; seq = 0; payload = Tx_begin }

let ring_create capacity =
  { buf = Array.make capacity dummy_event; start = 0; len = 0; dropped = 0 }

let ring_push r ev =
  let cap = Array.length r.buf in
  if r.len < cap then begin
    r.buf.((r.start + r.len) mod cap) <- ev;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.start) <- ev;
    r.start <- (r.start + 1) mod cap;
    r.dropped <- r.dropped + 1
  end

let ring_to_list r =
  let cap = Array.length r.buf in
  List.init r.len (fun i -> r.buf.((r.start + i) mod cap))

type t = {
  mutable enabled : bool;
  capacity : int;
  filter : bool array;
  mutable rings : ring option array;  (* indexed by core, grown on demand *)
  mutable attempt_of_core : int array;
  mutable run : int;
  mutable next_attempt : int;
  mutable seq : int;
  counts : int array;
}

let make ~enabled ~capacity ~filter =
  {
    enabled;
    capacity;
    filter;
    rings = Array.make 8 None;
    attempt_of_core = Array.make 8 0;
    run = 0;
    next_attempt = 0;
    seq = 0;
    counts = Array.make n_kinds 0;
  }

let null = make ~enabled:false ~capacity:1 ~filter:(Array.make n_kinds false)

let create ?(capacity_per_core = 16384) ?filter () =
  if capacity_per_core <= 0 then
    invalid_arg "Trace.create: capacity_per_core must be positive";
  let filter =
    match filter with None -> default_filter () | Some names -> filter_of_names names
  in
  make ~enabled:true ~capacity:capacity_per_core ~filter

let enabled t = t.enabled

let set_enabled t v = t.enabled <- v

(* The installed tracer is domain-local: a tracer installed on the main
   domain is never observed (or mutated) by pool worker domains, whose
   cells see the null tracer instead — the parallel cell runner degrades
   to sequential whenever a tracer is installed, so no events are lost. *)
let global = Domain.DLS.new_key (fun () -> null)

let install t = Domain.DLS.set global t

let uninstall () = Domain.DLS.set global null

let installed () = Domain.DLS.get global

let ensure_core t core =
  let n = Array.length t.rings in
  if core >= n then begin
    let n' = max (core + 1) (2 * n) in
    let rings = Array.make n' None in
    Array.blit t.rings 0 rings 0 n;
    t.rings <- rings;
    let ids = Array.make n' 0 in
    Array.blit t.attempt_of_core 0 ids 0 n;
    t.attempt_of_core <- ids
  end;
  match t.rings.(core) with
  | Some r -> r
  | None ->
      let r = ring_create t.capacity in
      t.rings.(core) <- Some r;
      r

let run_start t =
  if t.enabled then begin
    t.run <- t.run + 1;
    Array.fill t.attempt_of_core 0 (Array.length t.attempt_of_core) 0
  end

let record t ~core ~cycle payload =
  (* Attempt ids advance even when Tx_begin itself is filtered out, so
     every retained event carries the right attempt. *)
  (match payload with
  | Tx_begin ->
      if core >= Array.length t.attempt_of_core then ignore (ensure_core t core);
      t.next_attempt <- t.next_attempt + 1;
      t.attempt_of_core.(core) <- t.next_attempt
  | _ -> ());
  let k = kind_index payload in
  if t.filter.(k) then begin
    let r = ensure_core t core in
    t.counts.(k) <- t.counts.(k) + 1;
    t.seq <- t.seq + 1;
    ring_push r
      {
        run = t.run;
        core;
        cycle;
        attempt = t.attempt_of_core.(core);
        seq = t.seq;
        payload;
      }
  end

(* The disabled test is inlined into every emitting site; the recording
   runs out of line. *)
let[@inline] emit t ~core ~cycle payload =
  if t.enabled then record t ~core ~cycle payload

let core_events t ~core =
  if core < Array.length t.rings then
    match t.rings.(core) with Some r -> ring_to_list r | None -> []
  else []

let events t =
  Array.to_list t.rings
  |> List.concat_map (function Some r -> ring_to_list r | None -> [])
  |> List.sort (fun (a : event) (b : event) -> compare a.seq b.seq)

let counts t =
  List.init n_kinds (fun k -> (kind_names.(k), t.counts.(k)))

let dropped t =
  Array.fold_left
    (fun acc -> function Some r -> acc + r.dropped | None -> acc)
    0 t.rings

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* args as (key, json-value) pairs *)
let args_of_payload = function
  | Tx_begin -> []
  | Tx_commit { serial } -> [ ("serial", string_of_bool serial) ]
  | Tx_abort { abort_class; addr } ->
      ("class", "\"" ^ json_escape abort_class ^ "\"")
      :: (match addr with Some a -> [ ("addr", string_of_int a) ] | None -> [])
  | Probe_rollback { requester; line_addr } ->
      [ ("requester", string_of_int requester); ("addr", string_of_int line_addr) ]
  | Fallback_enter | Fallback_exit -> []
  | Backoff { cycles } -> [ ("cycles", string_of_int cycles) ]
  | Cache_evict { level; line_addr } ->
      [ ("level", "\"" ^ json_escape level ^ "\""); ("addr", string_of_int line_addr) ]
  | Fault_service { page } -> [ ("page", string_of_int page) ]
  | Stm_rollback { reads; writes } ->
      [ ("reads", string_of_int reads); ("writes", string_of_int writes) ]
  | Thread_spawn | Thread_finish | Thread_resume -> []
  | Check_violation { check; line_addr } ->
      ("check", "\"" ^ json_escape check ^ "\"")
      :: (match line_addr with Some a -> [ ("addr", string_of_int a) ] | None -> [])
  | Fault_inject { kind } -> [ ("kind", "\"" ^ json_escape kind ^ "\"") ]

let detail_of_payload p =
  String.concat " "
    (List.map (fun (k, v) -> k ^ "=" ^ v) (args_of_payload p))

let add_json_event b ~first ~name ~ph ~extra ev args =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"asf\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d%s"
       name ph ev.cycle ev.run ev.core extra);
  let args = ("attempt", string_of_int ev.attempt) :: args in
  Buffer.add_string b ",\"args\":{";
  Buffer.add_string b
    (String.concat "," (List.map (fun (k, v) -> "\"" ^ k ^ "\":" ^ v) args));
  Buffer.add_string b "}}"

let chrome_json t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  (* One instant event per retained event... *)
  let evs = events t in
  List.iter
    (fun ev ->
      add_json_event b ~first ~name:(kind_name ev.payload) ~ph:"i"
        ~extra:",\"s\":\"t\"" ev (args_of_payload ev.payload))
    evs;
  (* ...plus a complete-span ("X") event per reconstructed attempt, so
     chrome://tracing / Perfetto shows one transaction lane per core. *)
  let open_begin : (int * int, event) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : event) ->
      let key = (ev.run, ev.core) in
      match ev.payload with
      | Tx_begin -> Hashtbl.replace open_begin key ev
      | Tx_commit _ | Tx_abort _ -> (
          match Hashtbl.find_opt open_begin key with
          | Some b0 when b0.attempt = ev.attempt ->
              Hashtbl.remove open_begin key;
              let outcome =
                match ev.payload with
                | Tx_commit { serial } -> if serial then "\"commit-serial\"" else "\"commit\""
                | Tx_abort { abort_class; _ } -> "\"abort:" ^ json_escape abort_class ^ "\""
                | _ -> assert false
              in
              add_json_event b ~first ~name:"tx" ~ph:"X"
                ~extra:(Printf.sprintf ",\"dur\":%d" (max 1 (ev.cycle - b0.cycle)))
                b0
                [ ("outcome", outcome) ]
          | _ -> ())
      | _ -> ())
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let csv t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "run,core,cycle,attempt,event,detail\n";
  List.iter
    (fun (ev : event) ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%s,%s\n" ev.run ev.core ev.cycle ev.attempt
           (kind_name ev.payload)
           (detail_of_payload ev.payload)))
    (events t);
  Buffer.contents b

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let write_chrome_json t path = write_file path (chrome_json t)

let write_csv t path = write_file path (csv t)
