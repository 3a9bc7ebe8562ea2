(* The repository benchmark: host cost of the simulator, end to end and
   layer by layer. See README.md in this directory.

     perf.exe [--seed N] [--json FILE] [--smoke]
       runs every workload, each in its own child process, and prints
       every end-to-end metric (value, median, q1, q3, n) and every per-layer
       metric of the traced run.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--json FILE] [--smoke]
       runs one workload in this process and ends its output with one
       JSON line: end-to-end values with --trace 0, per-layer values of
       the traced run with --trace 1.

   Exit codes: 0 every run correct, 1 a failed run (digest mismatch,
   failed self-check or exception), 2 usage error. *)

open Perfbench

let workload = ref ""

let seed = ref 1

let seconds = ref 0.0

let trace = ref 1

let json = ref ""

let smoke = ref false

let usage =
  "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] \
   [--smoke]"

let usage_error msg =
  Printf.eprintf "perf: %s\n%s\n" msg usage;
  exit 2

let write_file path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

let one name =
  let w =
    match Workload.find ~smoke:!smoke name with
    | Some w -> w
    | None ->
        usage_error
          (Printf.sprintf "unknown workload %S (known: %s)" name
             (String.concat ", " (List.map (fun w -> w.Workload.name) (Workload.all ~smoke:false))))
  in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  let golden =
    if !smoke || !seed <> 1 then Measure.Unchecked
    else match Measure.read_golden name with Some d -> Measure.Expect d | None -> Measure.Missing
  in
  let r =
    Measure.measure w ~seed:!seed ~seconds:!seconds
      ~kernel:(if !smoke then 1 else Calib.full_size)
      ~trace:(!trace = 1) ~golden
  in
  Measure.print r;
  if !json <> "" then write_file !json (Measure.to_json r);
  print_endline (Measure.summary_line r ~trace:(!trace = 1));
  exit (if r.failed = 0 then 0 else 1)

(* Each workload in its own process, one after the other, so peak RSS
   and GC state are the workload's own. *)
let suite () =
  let t0 = Unix.gettimeofday () in
  let runs =
    List.map
      (fun (w : Workload.t) ->
        let part = if !json = "" then "" else !json ^ "." ^ w.name in
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int !seed; "--trace"; "1" ]
          @ (if !smoke then [ "--smoke" ] else [])
          @ if part = "" then [] else [ "--json"; part ]
        in
        let t = Unix.gettimeofday () in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        let ok = match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false in
        (w.name, ok, Unix.gettimeofday () -. t, part))
      (Workload.all ~smoke:!smoke)
  in
  if !json <> "" then begin
    let part_json (_, _, _, part) =
      match In_channel.with_open_text part In_channel.input_all with
      | s ->
          Sys.remove part;
          Some s
      | exception Sys_error _ -> None
    in
    write_file !json
      (Printf.sprintf "{\"seed\": %d, \"smoke\": %b, \"workloads\": [%s]}\n" !seed !smoke
         (String.concat ", " (List.filter_map part_json runs)))
  end;
  Printf.printf "\n%-20s %-6s %9s\n" "workload" "status" "wall s";
  List.iter
    (fun (name, ok, dt, _) -> Printf.printf "%-20s %-6s %9.1f\n" name (if ok then "ok" else "FAILED") dt)
    runs;
  Printf.printf "%-20s %-6s %9.1f\n" "total" "" (Unix.gettimeofday () -. t0);
  exit (if List.for_all (fun (_, ok, _, _) -> ok) runs then 0 else 1)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME Run one workload in this process");
      ("--seed", Arg.Set_int seed, "N Workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S Repeat until S wall seconds passed, at least 8 times (default 0: 8 repeats)" );
      ("--trace", Arg.Set_int trace, "0|1 Run the traced pass (default 1)");
      ("--json", Arg.Set_string json, "FILE Write every metric as JSON");
      ("--smoke", Arg.Set smoke, " Tiny sizes");
    ]
    (fun a -> usage_error ("unexpected argument " ^ a))
    usage;
  if !workload = "" then suite () else one !workload
