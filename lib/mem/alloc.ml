type block_state = Live | Freed

type t = {
  mutable cursor : Addr.t;
  (* (size, align) -> free addresses of that exact shape. *)
  free_lists : (int * int, Addr.t list ref) Hashtbl.t;
  (* addr -> (size, align, state); the simulated header word itself lives
     only in the host, keeping simulated memory free of allocator noise. *)
  blocks : (Addr.t, int * int * block_state ref) Hashtbl.t;
  mutable live_words : int;
}

(* The first address the arena may return: one page. *)
let base = Addr.words_per_page

let create () =
  {
    cursor = base;
    free_lists = Hashtbl.create 64;
    blocks = Hashtbl.create 4096;
    live_words = 0;
  }

let align_up a align = (a + align - 1) land lnot (align - 1)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let free_list t key =
  match Hashtbl.find_opt t.free_lists key with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.free_lists key l;
      l

let alloc t ?(align = 1) n =
  if n <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  if not (is_power_of_two align) then
    invalid_arg "Alloc.alloc: align must be a power of two";
  let key = (n, align) in
  let fl = free_list t key in
  let addr =
    match !fl with
    | a :: rest ->
        fl := rest;
        let _, _, state = Hashtbl.find t.blocks a in
        state := Live;
        a
    | [] ->
        let a = align_up t.cursor align in
        t.cursor <- a + n;
        Hashtbl.replace t.blocks a (n, align, ref Live);
        a
  in
  t.live_words <- t.live_words + n;
  addr

let alloc_lines t n =
  let padded = Addr.lines_of_words n * Addr.words_per_line in
  alloc t ~align:Addr.words_per_line padded

let free t addr =
  match Hashtbl.find_opt t.blocks addr with
  | None -> invalid_arg "Alloc.free: unknown address"
  | Some (size, align, state) -> (
      match !state with
      | Freed -> invalid_arg "Alloc.free: double free"
      | Live ->
          state := Freed;
          t.live_words <- t.live_words - size;
          let fl = free_list t (size, align) in
          fl := addr :: !fl)

let size_of t addr =
  match Hashtbl.find_opt t.blocks addr with
  | Some (size, _, _) -> size
  | None -> invalid_arg "Alloc.size_of: unknown address"

let live_words t = t.live_words
