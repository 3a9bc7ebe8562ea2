(* The asf_bench gate table: every asf_bench command the build gates run,
   one row each, with the exit code it must end with. Each group is one
   dune alias of the root dune file, which runs it as

     gate.exe path/to/asf_bench.exe GROUP

   A row pins an exact exit code: 0 clean, 1 violation (Txcheck, Txlin,
   Txstatic, a service invariant), 2 usage error, 3 livelock watchdog.
   A row may also name a finding kind: the row then runs with
   [--check-json F], and F must record a finding of that kind. And a row
   may have a twin command: the same arguments again must give
   byte-identical stdout and stderr (determinism), other arguments must
   give stdout that begins with this row's stdout (a flag that must not
   change results may only append a report). Lines ending in
   "host time]" are dropped before either comparison. The gate exits 0
   when every row of the group holds, 1 otherwise. *)

type row = {
  group : string;
  args : string;
  exit : int;
  kind : string option;
  twin : string option;
}

let row group ?(exit = 0) ?kind ?twin args = { group; args; exit; kind; twin }
let twice group args = row group ~twin:args args
let rb_tree = "intset -s rb-tree -r 256 -u 20 -t 4 --txns 200 -m llb256"

let overload =
  "serve --service kv-e -t 4 -n 800 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5"

let table =
  (* check: the Txcheck smoke configurations. One small IntegerSet and
     one STAMP workload per execution mode (ASF, STM, Phased; STAMP runs
     ASF on both LLB-8 and LLB-256), each under --check, plus two ASF
     runs where the per-core conflict signatures do the most work: 256
     cores on 8 sockets (255 remote regions per probe) and the LLB-256 +
     L1 hybrid, whose read set is tracked outside the LLB. A 63-core run
     on 3 sockets puts core 62 alone in the second word of every
     directory sharer set and of every signature column. A violated
     guarantee exits 1. The twins that follow are the flag equivalences
     of the determinism contract (DESIGN.md): tracing, --check and
     --faults none only append to the plain run's output, and --jobs 2
     prints the tables --jobs 1 prints, also under --check, where each
     pool worker resets its cached checker between cells and the
     findings are merged in cell order. *)
  List.map (row "check")
    [
      rb_tree ^ " --check";
      "intset -s rb-tree -r 256 -u 20 -t 4 --txns 200 -m stm --check";
      "intset -s rb-tree -r 256 -u 20 -t 4 --txns 200 -m phased --check";
      "intset -s rb-tree -r 8192 -u 20 -t 256 --sockets 8 --txns 4 -m llb256 --check";
      "intset -s rb-tree -r 1024 -u 20 -t 63 --sockets 3 --txns 20 -m llb256 --check";
      "intset -s rb-tree -r 1024 -u 20 -t 8 --txns 500 -m llb256-l1 --check";
      "stamp -a kmeans-low -m llb8 -t 4 --scale 0.2 --check";
      "stamp -a kmeans-low -m llb256 -t 4 --scale 0.2 --check";
      "stamp -a kmeans-low -m stm -t 4 --scale 0.2 --check";
      "stamp -a kmeans-low -m phased -t 4 --scale 0.2 --check";
    ]
  @ List.map
      (fun flag -> row "check" ~twin:(rb_tree ^ " " ^ flag) rb_tree)
      [ "--trace /dev/null"; "--check"; "--faults none" ]
  @ [
      row "check" ~twin:"repro -e abl-wins -e fig8 --quick --jobs 2"
        "repro -e abl-wins -e fig8 --quick --jobs 1";
      row "check" ~twin:"repro -e tab1 -e fig9 --quick --check --jobs 2"
        "repro -e tab1 -e fig9 --quick --check --jobs 1";
    ]
  (* analyze: Txstatic over every stock workload with the runtime
     cross-validation on. Exit 1 on any unsafe-annotation,
     restart-hazard or release-misuse verdict, and on any capacity
     contradiction (a workload statically judged to fit an LLB size
     while its runtime twin recorded a capacity abort there: an analyzer
     bug by construction). Truthful capacity overflows are advisories.
     Also writes ANALYZE_asf.json. *)
  @ [ row "analyze" "analyze --json ANALYZE_asf.json" ]
  (* soak: the fault-injection matrix, one IntegerSet and one STAMP
     workload under every named fault plan (storm merges them), each
     with --check. A soak run must stay correct (no checker violation;
     the intset size and progress checks and the STAMP self-checks pass)
     and make progress (the watchdog ends a stalled run with exit 3). *)
  @ List.concat_map
      (fun workload ->
        List.map
          (fun plan ->
            row "soak" (Printf.sprintf "%s --check --faults=%s --faults-seed=7" workload plan))
          [ "jitter"; "pagefaults"; "spurious"; "capacity"; "stall"; "storm" ])
      [
        "intset -s rb-tree -r 256 -u 20 -t 4 --txns 150 -m llb256";
        "stamp -a kmeans-low -m llb8 -t 4 --scale 0.2";
      ]
  (* serve-smoke: the open-system serving smoke. A short Poisson run
     under --check, a sustained 2.5x-capacity overload run and a
     --faults storm overload run, the latter two twice each (the
     determinism contract covers the shed and timeout censuses and the
     latency percentiles), and one small sweep with knee detection. A
     failed service invariant or partition exits 1, a livelock 3. *)
  @ [
      row "serve-smoke" "serve --service kv-a -t 4 -n 400 --gap 400 --deadline-us 4 --check";
      twice "serve-smoke" (overload ^ " --check");
      twice "serve-smoke"
        "serve --service ledger -t 4 -n 600 --load 2.0 --queue-cap 16 --deadline-us 4 \
         --faults storm --faults-seed 7";
      row "serve-smoke" "serve --service kv-b -t 4 -n 400 --sweep 0.5,1.0,2.0";
    ]
  (* lin-smoke: the linearizability oracle Txlin (--check=lin) over a
     clean underload run, a 2.5x-capacity overload run on every shipped
     service, a --faults storm overload run, and a 12000-request kv-e
     history (4457 committed requests in 235 key groups, about 0.6 s) on
     which a search node whose cost grows with the history would take
     several times longer. A conclusive non-linearizable verdict exits 1.
     Then the proof that recording and checking never perturb the
     simulated run: with --check=lin the overload run prints the plain
     run's whole output before its verdict, and repeats byte for byte.
     Last, the oracle's soak: the storm, stall and spurious fault plans
     crossed with a kv service and the ledger at 2.5x overload, each run
     twice. *)
  @ List.map (row "lin-smoke")
      [
        "serve --service kv-a -t 4 -n 400 --gap 400 --deadline-us 4 --check=lin";
        "serve --service kv-b -t 4 -n 400 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5 \
         --check=lin";
        "serve --service kv-c -t 4 -n 400 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5 \
         --check=lin";
        "serve --service kv-d -t 4 -n 400 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5 \
         --check=lin";
        "serve --service kv-e -t 4 -n 400 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5 \
         --check=lin";
        "serve --service kv-f -t 4 -n 400 --load 2.5 --queue-cap 8 --deadline-us 2 --seed 5 \
         --check=lin";
        "serve --service ledger -t 4 -n 400 --load 2.5 --queue-cap 8 --deadline-us 4 \
         --seed 5 --check=lin";
        "serve --service ledger -t 4 -n 600 --load 2.0 --queue-cap 16 --deadline-us 4 \
         --faults storm --faults-seed 7 --check=lin";
        "serve --service kv-e -t 4 -n 12000 --load 2.5 --queue-cap 8 --deadline-us 4 \
         --seed 2 --check=lin";
      ]
  @ [ row "lin-smoke" ~twin:(overload ^ " --check=lin") overload ]
  @ List.map (twice "lin-smoke")
      [
        overload ^ " --check=lin";
        "serve --service kv-f -t 4 -n 800 --load 2.5 --queue-cap 8 --deadline-us 2 \
         --seed 11 --faults storm --faults-seed 7 --check=lin";
        "serve --service ledger -t 4 -n 800 --load 2.5 --queue-cap 16 --deadline-us 4 \
         --seed 11 --faults storm --faults-seed 7 --check=lin";
        "serve --service kv-f -t 4 -n 800 --load 2.5 --queue-cap 8 --deadline-us 2 \
         --seed 11 --faults stall --faults-seed 7 --check=lin";
        "serve --service ledger -t 4 -n 800 --load 2.5 --queue-cap 16 --deadline-us 4 \
         --seed 11 --faults stall --faults-seed 7 --check=lin";
        "serve --service kv-f -t 4 -n 800 --load 2.5 --queue-cap 8 --deadline-us 2 \
         --seed 11 --faults spurious --faults-seed 7 --check=lin";
        "serve --service ledger -t 4 -n 800 --load 2.5 --queue-cap 16 --deadline-us 4 \
         --seed 11 --faults spurious --faults-seed 7 --check=lin";
      ]
  (* scale-smoke: a 64-core / 4-socket fig4 slice (kmeans-low, LLB-256)
     and a 64-core serve underload run, each twice: the determinism
     contract at a core count where every directory sharer set and
     signature column takes two words. *)
  @ [
      twice "scale-smoke" "stamp -a kmeans-low -m llb256 -t 64 --sockets 4 --scale 0.1";
      twice "scale-smoke"
        "serve --service kv-a -t 64 --sockets 4 -n 400 --gap 2000 --deadline-us 8";
    ]
  (* fixtures: commands that must fail, each with its exact exit code,
     so that a misspelt fixture (a usage error, exit 2) cannot pass for
     a caught one. The Txlin fixtures run a deliberately broken stack (a
     seeded lost-update fault plan, rollback-on-abort disabled, conflict
     resolution disabled) and must end non-linearizable (exit 1). Under
     the livelock plan (permanent spurious aborts and a hanging
     serial-lock holder) the watchdog must end the run (exit 3). The
     same two ablations must fail Txcheck (exit 1): conflict resolution
     disabled leaves conflicting regions undoomed (isolation) and lets
     an unserializable history commit (serial), and rollback disabled
     leaves speculative stores in memory after an abort (serial). The
     --check-json file must record the finding that explains a failed
     run. Out-of-range and malformed flag values are usage errors with a
     message (exit 2, README "Exit codes"), never an uncaught
     exception. *)
  @ List.map (row "fixtures" ~exit:1)
      [
        "serve --service kv-f -t 4 -n 300 --gap 200 --records 4 --faults lostupdate \
         --faults-seed 3 --check=lin";
        "serve --service kv-f -t 4 -n 300 --gap 200 --records 4 --ablate rollback --check=lin";
        "serve --service kv-f -t 4 -n 400 --gap 60 --records 2 --ablate resolve --check=lin";
      ]
  @ [
      row "fixtures" ~exit:3
        "intset -s rb-tree -r 64 -u 20 -t 2 --txns 50 --faults=livelock --faults-seed=1";
      row "fixtures" ~exit:3 ~kind:"livelock"
        "intset -s rb-tree -r 64 -u 20 -t 2 --txns 50 --faults=livelock --faults-seed=1 \
         --check";
      row "fixtures" ~exit:1 ~kind:"non-linearizable"
        "serve --service kv-f -t 4 -n 300 --gap 200 --records 4 --faults lostupdate \
         --faults-seed 3 --check=lin";
      row "fixtures" ~exit:1 ~kind:"unresolved-conflict"
        "serve --service kv-f -t 4 -n 400 --gap 60 --records 2 --ablate resolve \
         --check=isolation";
      row "fixtures" ~exit:1 ~kind:"conflict-cycle"
        "serve --service kv-f -t 4 -n 400 --gap 60 --records 2 --ablate resolve --check=serial";
      row "fixtures" ~exit:1 ~kind:"abort-hygiene"
        "serve --service kv-f -t 4 -n 300 --gap 200 --records 4 --ablate rollback \
         --check=serial";
    ]
  @ List.map (row "fixtures" ~exit:2)
      [
        "intset -t 0"; "intset -t 600"; "intset -t 64 --sockets 17";
        "intset -t 8 --sockets 17"; "serve --queue-cap 0"; "--bogus"; "intset -t abc";
        "intset -r 0"; "intset -u 150";
        "intset --txns=0"; "intset --txns=-1"; "serve -n 0"; "serve --records 0";
        "serve --load 0"; "serve --load=-1"; "serve --deadline-us 0";
        "serve --deadline-us=-3"; "stamp --scale=-1"; "serve --sweep 0,1";
        "serve --sweep=-1"; "serve --sweep 1e-9"; "serve --load 1e-9"; "serve --gap 0";
        "serve --gap=-5"; "serve --sweep 1,abc"; "serve --sweep nan"; "serve --sweep inf";
        "serve --sweep ,"; "intset -s foo"; "intset -m foo"; "stamp -a foo";
        "serve --service foo"; "serve -m foo"; "serve --arrival foo"; "serve --ablate foo";
        "repro -e nope"; "analyze -w nope"; "intset -m seq -t 8"; "stamp -m seq -t 4";
        "serve -m seq -t 4"; "intset --check foo"; "intset --check=lin";
        "serve --check foo"; "repro -e tab1 --check foo"; "intset --faults strom";
        "repro -e tab1 --faults nope"; "intset --trace /dev/null --trace-filter bogus";
        "intset --trace-filter bogus"; "repro -e tab1 --quick --jobs=-3";
      ]

let bench, group =
  match Sys.argv with
  | [| _; bench; group |] -> (bench, group)
  | _ ->
      prerr_endline "usage: gate.exe ASF_BENCH GROUP";
      exit 2

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)
let read file = In_channel.with_open_bin file In_channel.input_all

(* Runs asf_bench on [args]: its exit code (-1 if a signal ended it),
   stdout and stderr. *)
let run args =
  let out = Filename.temp_file "gate" ".out" and err = Filename.temp_file "gate" ".err" in
  let fd file = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let fd_out = fd out and fd_err = fd err in
  let argv = Array.of_list (bench :: args) in
  let pid = Unix.create_process bench argv Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1 in
  let result = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  result

let mask s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> not (String.ends_with ~suffix:"host time]" l))
  |> String.concat "\n"

let contains s sub =
  let n = String.length sub in
  let rec from i = i + n <= String.length s && (String.sub s i n = sub || from (i + 1)) in
  from 0

(* Where [a] and [b] first differ, for a failure message. *)
let first_diff a b =
  let rec go i = function
    | x :: xs, y :: ys when x = y -> go (i + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "line %d: %S vs %S" i x y
    | x :: _, [] | [], x :: _ -> Printf.sprintf "line %d: %S vs nothing" i x
    | [], [] -> "no line"
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

(* [None] if the twin command holds against its row's masked output, or
   why it does not. *)
let twin_verdict r twin out err =
  let code, tout, terr = run (words twin) in
  let tout = mask tout and terr = mask terr in
  if code <> r.exit then
    Some (Printf.sprintf "twin %S exited %d, expected %d\n%s" twin code r.exit terr)
  else if twin <> r.args then
    if String.starts_with ~prefix:out tout then None
    else Some (Printf.sprintf "twin %S stdout differs at %s" twin (first_diff out tout))
  else if out <> tout then Some ("repeat stdout differs at " ^ first_diff out tout)
  else if err <> terr then Some ("repeat stderr differs at " ^ first_diff err terr)
  else None

(* [None] if [r] holds, or why it does not. *)
let verdict r =
  let json = Option.map (fun _ -> Filename.temp_file "gate" ".json") r.kind in
  let extra = Option.fold ~none:[] ~some:(fun f -> [ "--check-json"; f ]) json in
  let code, out, err = run (words r.args @ extra) in
  let findings = Option.fold ~none:"" ~some:read json in
  Option.iter Sys.remove json;
  match (r.kind, r.twin) with
  | _ when code <> r.exit -> Some (Printf.sprintf "exit %d, expected %d\n%s" code r.exit err)
  | Some k, _ when not (contains findings (Printf.sprintf "\"kind\": \"%s\"" k)) ->
      Some (Printf.sprintf "--check-json recorded no %S finding" k)
  | _, Some twin -> twin_verdict r twin (mask out) (mask err)
  | _, None -> None

let () =
  let rows = List.filter (fun r -> r.group = group) table in
  if rows = [] then begin
    Printf.eprintf "gate: no group %S\n" group;
    exit 2
  end;
  let failed = List.filter_map (fun r -> Option.map (fun why -> (r, why)) (verdict r)) rows in
  List.iter
    (fun (r, why) -> Printf.eprintf "gate %s: asf_bench %s: %s\n" group r.args why)
    failed;
  Printf.printf "gate %s: %d of %d rows hold\n" group
    (List.length rows - List.length failed)
    (List.length rows);
  exit (if failed = [] then 0 else 1)
