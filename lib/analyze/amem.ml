module Addr = Asf_mem.Addr
module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops

type t = {
  mem : (Addr.t, int) Hashtbl.t;
  mutable bump : Addr.t;  (* next free word; always line-aligned *)
}

(* Start allocation at line 1 so address 0 stays the null sentinel the
   list structures rely on, as in the real allocator. *)
let create () = { mem = Hashtbl.create 4096; bump = Addr.words_per_line }

let alloc_words t n =
  let lines = Addr.lines_of_words (max n 1) in
  let a = t.bump in
  t.bump <- t.bump + (lines * Addr.words_per_line);
  a

let peek t a = match Hashtbl.find_opt t.mem a with Some v -> v | None -> 0

let poke t a v = Hashtbl.replace t.mem a v

(* The seed of the set-up operations' random bits. *)
let setup_seed = 0x5e70

let setup_ops t =
  let rng = Prng.create setup_seed in
  Ops.dry ~ld:(peek t) ~st:(poke t) ~alloc:(alloc_words t)
    ~rand_bits:(fun () -> Prng.int rng (1 lsl 30))
    ()

type actx = {
  o : Ops.t;
  nld : Addr.t -> int;
  nst : Addr.t -> int -> unit;
  rand : int -> int;
  work : int -> unit;
}

type exec = {
  x_rd : int list;
  x_wr : int list;
  x_ard : int list;
  x_awr : int list;
  x_peak : int;
  x_releases : int;
  x_rereads : int;
  x_allocs : int;
  x_alloc_lines : int;
  x_frees : int;
  x_ops : int;
  x_diverged : bool;
}

(* One recorded operation. Traces of the two passes are compared
   structurally: any difference in kind, address, or value means the body
   depends on state a restart would not reproduce. *)
type op =
  | O_ld of Addr.t * int
  | O_st of Addr.t * int
  | O_nld of Addr.t * int
  | O_nst of Addr.t * int
  | O_rel of Addr.t
  | O_alloc of int * Addr.t
  | O_free of Addr.t * int
  | O_rand of int * int

type pass = {
  p_trace : op list;  (* reverse order *)
  p_overlay : (Addr.t, int) Hashtbl.t;
  p_rd : (int, unit) Hashtbl.t;
  p_wr : (int, unit) Hashtbl.t;
  p_ard : (int, unit) Hashtbl.t;
  p_awr : (int, unit) Hashtbl.t;
  p_peak : int;
  p_releases : int;
  p_rereads : int;
  p_allocs : int;
  p_alloc_lines : int;
  p_frees : int;
}

let exec_pass t ~early_release rng body =
  let trace = ref [] in
  let overlay = Hashtbl.create 64 in
  (* live protected set: line -> true when written *)
  let prot : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let released = Hashtbl.create 8 in
  let rereads = Hashtbl.create 8 in
  let rd = Hashtbl.create 64 and wr = Hashtbl.create 64 in
  let ard = Hashtbl.create 8 and awr = Hashtbl.create 8 in
  let peak = ref 0 in
  let releases = ref 0 in
  let allocs = ref 0 and alloc_lines = ref 0 and frees = ref 0 in
  let protect line ~write =
    match Hashtbl.find_opt prot line with
    | None ->
        Hashtbl.replace prot line write;
        let n = Hashtbl.length prot in
        if n > !peak then peak := n;
        if Hashtbl.mem released line then Hashtbl.replace rereads line ()
    | Some false when write -> Hashtbl.replace prot line true
    | Some _ -> ()
  in
  let ld a =
    let line = Addr.line_of a in
    Hashtbl.replace rd line ();
    protect line ~write:false;
    let v = match Hashtbl.find_opt overlay a with Some v -> v | None -> peek t a in
    trace := O_ld (a, v) :: !trace;
    v
  in
  let st a v =
    let line = Addr.line_of a in
    Hashtbl.replace wr line ();
    protect line ~write:true;
    Hashtbl.replace overlay a v;
    trace := O_st (a, v) :: !trace
  in
  let release a =
    if early_release then begin
      let line = Addr.line_of a in
      (match Hashtbl.find_opt prot line with
      | Some false ->
          (* Only read-only entries can be dropped, as in Llb.release. *)
          Hashtbl.remove prot line;
          Hashtbl.replace released line ();
          incr releases
      | _ -> ());
      trace := O_rel a :: !trace
    end
  in
  let alloc n =
    let a = alloc_words t n in
    incr allocs;
    alloc_lines := !alloc_lines + Addr.lines_of_words (max n 1);
    trace := O_alloc (n, a) :: !trace;
    a
  in
  let free a n =
    incr frees;
    trace := O_free (a, n) :: !trace
  in
  let rand n =
    let v = Prng.int rng n in
    trace := O_rand (n, v) :: !trace;
    v
  in
  let nld a =
    Hashtbl.replace ard (Addr.line_of a) ();
    (* An annotated load bypasses the speculative write buffer: it sees
       committed memory, never the transaction's own pending stores. *)
    let v = peek t a in
    trace := O_nld (a, v) :: !trace;
    v
  in
  let nst a v =
    Hashtbl.replace awr (Addr.line_of a) ();
    (* Applied immediately and never rolled back — hardware semantics. *)
    poke t a v;
    trace := O_nst (a, v) :: !trace
  in
  let o =
    Ops.dry ~ld ~st ~alloc ~free ~release
      ~rand_bits:(fun () -> rand (1 lsl 30))
      ()
  in
  body { o; nld; nst; rand; work = (fun _ -> ()) };
  {
    p_trace = !trace;
    p_overlay = overlay;
    p_rd = rd;
    p_wr = wr;
    p_ard = ard;
    p_awr = awr;
    p_peak = !peak;
    p_releases = !releases;
    p_rereads = Hashtbl.length rereads;
    p_allocs = !allocs;
    p_alloc_lines = !alloc_lines;
    p_frees = !frees;
  }

let sorted_lines h = Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare

let run_tx ?(early_release = false) t rng body =
  (* Pass 1 consumes a copy of the stream, so pass 2 replays the same
     draws — the analyzer's setjmp. Pass 1's speculative effects are
     discarded: the allocator is rewound and the overlay dropped. *)
  let rng1 = Prng.copy rng in
  let bump0 = t.bump in
  let p1 = exec_pass t ~early_release rng1 body in
  t.bump <- bump0;
  let p2 = exec_pass t ~early_release rng body in
  Hashtbl.iter (fun a v -> Hashtbl.replace t.mem a v) p2.p_overlay;
  {
    x_rd = sorted_lines p2.p_rd;
    x_wr = sorted_lines p2.p_wr;
    x_ard = sorted_lines p2.p_ard;
    x_awr = sorted_lines p2.p_awr;
    x_peak = p2.p_peak;
    x_releases = p2.p_releases;
    x_rereads = p2.p_rereads;
    x_allocs = p2.p_allocs;
    x_alloc_lines = p2.p_alloc_lines;
    x_frees = p2.p_frees;
    x_ops = List.length p2.p_trace;
    x_diverged = p1.p_trace <> p2.p_trace;
  }
