module Ops = Asf_dstruct.Ops

let accounts = 64

let initial_balance = 1000

let program ~txns ~seed:_ ~threads:_ (so : Ops.t) =
  let acct = Array.init accounts (fun _ -> so.alloc 1) in
  Array.iter (fun a -> so.st a initial_balance) acct;
  let expected = accounts * initial_balance in
  let failed_audits = ref 0 in
  let worker (cap : Cap.t) _tid =
    let audit () = Array.fold_left (fun sum a -> sum + cap.o.ld a) 0 acct in
    for i = 1 to txns do
      if i mod 50 = 0 then begin
        if cap.atomic "audit" audit <> expected then incr failed_audits
      end
      else begin
        let src = acct.(cap.rand accounts) in
        let dst = acct.(cap.rand accounts) in
        let amount = cap.rand 20 in
        cap.atomic "transfer" (fun () ->
            if src <> dst then begin
              cap.o.st src (cap.o.ld src - amount);
              cap.o.st dst (cap.o.ld dst + amount)
            end)
      end
    done
  in
  let checks () =
    [
      ("conserved", Array.fold_left (fun sum a -> sum + so.ld a) 0 acct = expected);
      ("audits-consistent", !failed_audits = 0);
    ]
  in
  { Stamp_common.worker; checks }
