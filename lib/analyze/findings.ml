module Check = Asf_check.Check

type source = Static | Runtime

type t = {
  f_source : source;
  f_severity : string;
  f_kind : string;
  f_workload : string;
  f_class : string;
  f_variant : string;
  f_line : int option;
  f_count : int;
  f_detail : string;
}

let make ~source ~severity ~kind ~workload ?(cls = "") ?(variant = "") ?line
    ?(count = 1) ~detail () =
  {
    f_source = source;
    f_severity = severity;
    f_kind = kind;
    f_workload = workload;
    f_class = cls;
    f_variant = variant;
    f_line = line;
    f_count = count;
    f_detail = detail;
  }

let of_check ~workload findings =
  List.map
    (fun (f : Check.finding) ->
      {
        f_source = Runtime;
        f_severity =
          (match f.Check.severity with
          | Check.Violation -> "violation"
          | Check.Advisory -> "advisory");
        f_kind = f.Check.kind;
        f_workload = workload;
        f_class = "";
        f_variant = "";
        f_line = f.Check.line;
        f_count = f.Check.count;
        f_detail =
          Printf.sprintf "[%s] %s" (Check.part_name f.Check.part) f.Check.detail;
      })
    findings

(* The livelock watchdog's structured diagnosis, flattened into the same
   machine-readable record stream the checker and the static analyzer
   emit: one summary record (count = cycles since the last commit) plus
   one advisory per stalled core, so `--check-json` artifacts carry the
   whole progress-failure picture instead of only an exit code. *)
let of_livelock ~workload (d : Asf_tm_rt.Tm.diagnosis) =
  let summary =
    make ~source:Runtime ~severity:"violation" ~kind:"livelock" ~workload
      ~cls:"progress" ~count:(d.diag_cycle - d.diag_last_commit_cycle)
      ~detail:
        (Printf.sprintf
           "no commit for %d cycles (window %d) at cycle %d; %d commits \
            system-wide; serial lock %s"
           (d.diag_cycle - d.diag_last_commit_cycle)
           d.diag_window d.diag_cycle d.diag_commits
           (match d.diag_serial_holder with
           | Some c -> Printf.sprintf "held by core %d" c
           | None -> "free"))
      ()
  in
  let cores =
    List.map
      (fun (r : Asf_tm_rt.Tm.core_report) ->
        make ~source:Runtime ~severity:"advisory" ~kind:"livelock-core" ~workload
          ~cls:r.rep_path
          ~variant:(Printf.sprintf "core-%d" r.rep_core)
          ~count:r.rep_consec_aborts
          ~detail:
            (Printf.sprintf
               "core %d on %s path: %d commits (%d serial), %d attempts, %d \
                aborts, %d consecutive"
               r.rep_core r.rep_path r.rep_commits r.rep_serial_commits
               r.rep_attempts r.rep_aborts r.rep_consec_aborts)
          ())
      d.diag_cores
  in
  summary :: cores

let is_violation f = f.f_severity = "violation"

(* ------------------------------------------------------------------ *)
(* JSON                                                                  *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_finding b f =
  Buffer.add_string b
    (Printf.sprintf
       "{\"source\": \"%s\", \"severity\": \"%s\", \"kind\": \"%s\", \
        \"workload\": \"%s\", \"class\": \"%s\", \"variant\": \"%s\", \
        \"line\": %s, \"count\": %d, \"detail\": \"%s\"}"
       (match f.f_source with Static -> "static" | Runtime -> "runtime")
       (escape f.f_severity) (escape f.f_kind) (escape f.f_workload)
       (escape f.f_class) (escape f.f_variant)
       (match f.f_line with Some l -> string_of_int l | None -> "null")
       f.f_count (escape f.f_detail))

let json_of_findings fs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",\n ";
      json_of_finding b f)
    fs;
  Buffer.add_string b "]";
  Buffer.contents b

(* Structural validation: bracket balance outside string literals, plus
   the required keys (by default the two every findings artifact
   carries). *)
let validate_json ?(required = [ "schema"; "findings" ]) s =
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let bad = ref None in
  String.iteri
    (fun i c ->
      if !bad = None then
        if !esc then esc := false
        else if !in_str then begin
          if c = '\\' then esc := true else if c = '"' then in_str := false
        end
        else
          match c with
          | '"' -> in_str := true
          | '{' | '[' -> incr depth
          | '}' | ']' ->
              decr depth;
              if !depth < 0 then bad := Some (Printf.sprintf "unbalanced at byte %d" i)
          | _ -> ())
    s;
  match !bad with
  | Some m -> Error m
  | None ->
      if !in_str then Error "unterminated string"
      else if !depth <> 0 then Error "unbalanced brackets"
      else
        let has key =
          let needle = "\"" ^ key ^ "\"" in
          let n = String.length needle and len = String.length s in
          let rec scan i =
            if i + n > len then false
            else if String.sub s i n = needle then true
            else scan (i + 1)
          in
          scan 0
        in
        let missing = List.filter (fun k -> not (has k)) required in
        if missing = [] then Ok ()
        else Error ("missing keys: " ^ String.concat ", " missing)

let write_json ?required ~path doc =
  match
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc)
  with
  | exception Sys_error m -> Error m
  | () -> (
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error m -> Error m
      | back ->
          if back <> doc then Error "re-read mismatch" else validate_json ?required back)
