module Addr = Asf_mem.Addr
module Prng = Asf_engine.Prng
module Ops = Asf_dstruct.Ops
module Cap = Asf_stamp.Cap

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

type exec = {
  x_rd : int list;
  x_wr : int list;
  x_ard : int list;
  x_awr : int list;
  x_peak : int;
  x_releases : int;
  x_rereads : int;
  x_allocs : int;
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

(* One execution of an atomic block's body. *)
type pass = {
  rng : Prng.t;
  mutable trace : op list;  (* reverse order *)
  overlay : (Addr.t, int) Hashtbl.t;  (* speculative stores *)
  prot : (int, bool) Hashtbl.t;  (* live protected set: line -> written *)
  released : (int, unit) Hashtbl.t;
  rereads : (int, unit) Hashtbl.t;
  rd : (int, unit) Hashtbl.t;
  wr : (int, unit) Hashtbl.t;
  ard : (int, unit) Hashtbl.t;
  awr : (int, unit) Hashtbl.t;
  mutable peak : int;
  mutable releases : int;
  mutable allocs : int;
}

let fresh_pass rng =
  {
    rng;
    trace = [];
    overlay = Hashtbl.create 64;
    prot = Hashtbl.create 64;
    released = Hashtbl.create 8;
    rereads = Hashtbl.create 8;
    rd = Hashtbl.create 64;
    wr = Hashtbl.create 64;
    ard = Hashtbl.create 8;
    awr = Hashtbl.create 8;
    peak = 0;
    releases = 0;
    allocs = 0;
  }

let record p op = p.trace <- op :: p.trace

let protect p line ~write =
  match Hashtbl.find_opt p.prot line with
  | None ->
      Hashtbl.replace p.prot line write;
      p.peak <- max p.peak (Hashtbl.length p.prot);
      if Hashtbl.mem p.released line then Hashtbl.replace p.rereads line ()
  | Some false when write -> Hashtbl.replace p.prot line true
  | Some _ -> ()

let sorted_lines h = Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare

let cap t rng on_exec =
  (* The pass being recorded; [None] outside every atomic block, where
     each access is a plain, unrecorded one. *)
  let cur = ref None in
  let ld a =
    match !cur with
    | None -> peek t a
    | Some p ->
        let line = Addr.line_of a in
        Hashtbl.replace p.rd line ();
        protect p line ~write:false;
        let v = match Hashtbl.find_opt p.overlay a with Some v -> v | None -> peek t a in
        record p (O_ld (a, v));
        v
  in
  let st a v =
    match !cur with
    | None -> poke t a v
    | Some p ->
        let line = Addr.line_of a in
        Hashtbl.replace p.wr line ();
        protect p line ~write:true;
        Hashtbl.replace p.overlay a v;
        record p (O_st (a, v))
  in
  let release a =
    match !cur with
    | Some p ->
        let line = Addr.line_of a in
        (match Hashtbl.find_opt p.prot line with
        | Some false ->
            (* Only read-only entries can be dropped, as in Llb.release. *)
            Hashtbl.remove p.prot line;
            Hashtbl.replace p.released line ();
            p.releases <- p.releases + 1
        | _ -> ());
        record p (O_rel a)
    | None -> ()
  in
  let alloc n =
    let a = alloc_words t n in
    Option.iter
      (fun p ->
        p.allocs <- p.allocs + 1;
        record p (O_alloc (n, a)))
      !cur;
    a
  in
  let free a n = Option.iter (fun p -> record p (O_free (a, n))) !cur in
  let rand n =
    match !cur with
    | None -> Prng.int rng n
    | Some p ->
        let v = Prng.int p.rng n in
        record p (O_rand (n, v));
        v
  in
  let nld a =
    match !cur with
    | None -> peek t a
    | Some p ->
        Hashtbl.replace p.ard (Addr.line_of a) ();
        (* An annotated load bypasses the speculative write buffer: it
           sees committed memory, never the transaction's own pending
           stores. *)
        let v = peek t a in
        record p (O_nld (a, v));
        v
  in
  let nst a v =
    (* Applied immediately and never rolled back — hardware semantics. *)
    poke t a v;
    Option.iter
      (fun p ->
        Hashtbl.replace p.awr (Addr.line_of a) ();
        record p (O_nst (a, v)))
      !cur
  in
  let in_pass p body =
    cur := Some p;
    Fun.protect ~finally:(fun () -> cur := None) body
  in
  let atomic name body =
    match !cur with
    | Some _ -> body () (* flat nesting, as in Tm.atomic *)
    | None ->
        (* Pass 1 consumes a copy of the stream, so pass 2 replays the
           same draws — the analyzer's setjmp. Pass 1's speculative
           effects are discarded: the allocator is rewound and the
           overlay dropped. *)
        let bump0 = t.bump in
        let p1 = fresh_pass (Prng.copy rng) in
        ignore (in_pass p1 body);
        t.bump <- bump0;
        let p2 = fresh_pass rng in
        let result = in_pass p2 body in
        Hashtbl.iter (fun a v -> Hashtbl.replace t.mem a v) p2.overlay;
        on_exec name
          {
            x_rd = sorted_lines p2.rd;
            x_wr = sorted_lines p2.wr;
            x_ard = sorted_lines p2.ard;
            x_awr = sorted_lines p2.awr;
            x_peak = p2.peak;
            x_releases = p2.releases;
            x_rereads = Hashtbl.length p2.rereads;
            x_allocs = p2.allocs;
            x_diverged = p1.trace <> p2.trace;
          };
        result
  in
  {
    Cap.o = Ops.dry ~ld ~st ~alloc ~free ~rand_bits:(fun () -> rand (1 lsl 30)) ();
    nld;
    nst;
    release;
    rand;
    work = ignore;
    atomic;
    retry =
      (fun () ->
        invalid_arg "Amem: a retry in a single-threaded run would repeat forever");
  }
