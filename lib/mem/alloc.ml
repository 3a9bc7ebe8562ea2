(* The allocator's books are three int tables ({!Inttab}). [blocks]
   maps the address of every block ever handed out to
   [(shape lsl 1) lor freed], where a block's shape is
   [(size lsl 6) lor log2 align]; a freed block keeps its entry and its
   size. The free lists are intrusive LIFO stacks: [heads] maps a shape
   to the address of its most recently freed block, and [links] maps a
   freed block to the next free block of its shape (0 ends the list:
   address 0 is never allocated). Only table growth allocates on the
   host. *)

let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1)

type t = {
  mutable cursor : Addr.t;
  blocks : Inttab.t;
  heads : Inttab.t;
  links : Inttab.t;
  mutable live_words : int;
}

(* The first address the arena may return: one page. *)
let base = Addr.words_per_page

let create () =
  {
    cursor = base;
    blocks = Inttab.create 64;
    heads = Inttab.create 64;
    links = Inttab.create 64;
    live_words = 0;
  }

let align_up a align = (a + align - 1) land lnot (align - 1)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let alloc t ?(align = 1) n =
  if n <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  if not (is_power_of_two align) then
    invalid_arg "Alloc.alloc: align must be a power of two";
  let shape = (n lsl 6) lor log2 align in
  let h = Inttab.find t.heads shape in
  let head = if h < 0 then 0 else Inttab.value t.heads h in
  let addr =
    if head <> 0 then begin
      Inttab.set_value t.heads h (Inttab.value t.links (Inttab.find t.links head));
      Inttab.set_value t.blocks (Inttab.find t.blocks head) (shape lsl 1);
      head
    end
    else begin
      let a = align_up t.cursor align in
      t.cursor <- a + n;
      Inttab.add t.blocks a (shape lsl 1);
      a
    end
  in
  t.live_words <- t.live_words + n;
  addr

let alloc_lines t n =
  let padded = Addr.lines_of_words n * Addr.words_per_line in
  alloc t ~align:Addr.words_per_line padded

let free t addr =
  let b = Inttab.find t.blocks addr in
  if b < 0 then invalid_arg "Alloc.free: unknown address";
  let v = Inttab.value t.blocks b in
  if v land 1 = 1 then invalid_arg "Alloc.free: double free";
  Inttab.set_value t.blocks b (v lor 1);
  let shape = v lsr 1 in
  t.live_words <- t.live_words - (shape lsr 6);
  let h = Inttab.bind t.heads shape in
  let next = Inttab.value t.heads h in
  Inttab.add t.links addr next;
  Inttab.set_value t.heads h addr

let size_of t addr =
  let b = Inttab.find t.blocks addr in
  if b < 0 then invalid_arg "Alloc.size_of: unknown address";
  Inttab.value t.blocks b lsr 7

let live_words t = t.live_words
