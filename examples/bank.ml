(* A bank: random transfers between accounts plus periodic full-balance
   audits, a classic TM scenario mixing small update transactions with
   large read-only ones. The audit reads every account, so it exercises
   ASF capacity: on LLB-8 audits fall back to serial-irrevocable mode,
   on LLB-256 they run in hardware; all modes preserve the invariant that
   the total balance never changes. The program is [Asf_stamp.Bank], the
   same code the static analyzer checks. *)

module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Variant = Asf_core.Variant
module Params = Asf_machine.Params
module Bank = Asf_stamp.Bank
module C = Asf_stamp.Stamp_common

let txns_per_thread = 400

let n_threads = 4

let run_mode name mode =
  let cfg = Tm.default_config mode ~n_cores:n_threads in
  let r = C.run ~name:"bank" cfg ~threads:n_threads (Bank.program ~txns:txns_per_thread) in
  Printf.printf "%-14s %s time=%.1f us, serial=%d, aborts=%d\n" name
    (String.concat " "
       (List.map (fun (check, ok) -> Printf.sprintf "%s=%b" check ok) r.C.checks))
    (Params.cycles_to_us cfg.Tm.params r.C.cycles)
    (Stats.serial_commits r.C.stats) (Stats.total_aborts r.C.stats);
  assert (C.ok r)

let () =
  Printf.printf
    "Bank: %d threads, %d accounts, transfers + full audits every 50 txns\n\n"
    n_threads Bank.accounts;
  run_mode "ASF LLB-8" (Tm.Asf_mode Variant.llb8);
  run_mode "ASF LLB-256" (Tm.Asf_mode Variant.llb256);
  run_mode "ASF LLB-8+L1" (Tm.Asf_mode Variant.llb8_l1);
  run_mode "TinySTM" Tm.Stm_mode;
  print_newline ();
  print_endline
    "The 64-line audit overflows LLB-8 (serial commits > 0) but fits LLB-256\n\
     and the hybrid variant, whose L1 tracks the read set.";
  print_endline "OK"
