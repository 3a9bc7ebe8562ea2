(* The allocator's books are three open-addressing int tables, the
   pattern of [Llb] and Txcheck: Fibonacci hashing, linear probing, no
   deletion. [blocks] maps the address of every block ever handed out
   (address 0 is never allocated, so 0 marks an empty slot) to
   [(shape lsl 1) lor freed], where a block's shape is
   [(size lsl 6) lor log2 align]; a freed block keeps its entry and its
   size. The free lists are intrusive LIFO stacks: [heads] maps a shape
   to the address of its most recently freed block, and [links] maps a
   freed block to the next free block of its shape (0 ends the list).
   Only table growth allocates on the host. *)

let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1)

type tab = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* [63 - log2 (Array.length keys)] *)
  mutable count : int;
}

let tab_alloc t size =
  t.keys <- Array.make size 0;
  t.vals <- Array.make size 0;
  t.shift <- Sys.int_size - log2 size;
  t.count <- 0

let tab () =
  let t = { keys = [||]; vals = [||]; shift = 0; count = 0 } in
  tab_alloc t 64;
  t

(* The slot holding [key] (positive), or the empty slot that ends its
   chain. *)
let rec probe keys key i =
  let k = Array.unsafe_get keys i in
  if k = 0 || k = key then i
  else probe keys key ((i + 1) land (Array.length keys - 1))

let slot t key = probe t.keys key ((key * 0x4F1BBCDCBFA53E0B) lsr t.shift)

(* The slot of [key], or -1. *)
let find t key =
  if key <= 0 then -1
  else
    let i = slot t key in
    if Array.unsafe_get t.keys i = 0 then -1 else i

(* The slot of [key], bound to 0 if it was absent. The table doubles
   past three-quarters full: a run's blocks all stay in it, and a
   half-full rule would hold twice the slots. *)
let rec bind t key =
  let i = slot t key in
  if Array.unsafe_get t.keys i <> 0 then i
  else if 4 * (t.count + 1) > 3 * Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    tab_alloc t (2 * Array.length keys);
    Array.iteri
      (fun i k ->
        if k <> 0 then begin
          let j = bind t k in
          t.vals.(j) <- vals.(i)
        end)
      keys;
    bind t key
  end
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- 0;
    t.count <- t.count + 1;
    i
  end

type t = {
  mutable cursor : Addr.t;
  blocks : tab;
  heads : tab;
  links : tab;
  mutable live_words : int;
}

(* The first address the arena may return: one page. *)
let base = Addr.words_per_page

let create () =
  { cursor = base; blocks = tab (); heads = tab (); links = tab (); live_words = 0 }

let align_up a align = (a + align - 1) land lnot (align - 1)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let alloc t ?(align = 1) n =
  if n <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  if not (is_power_of_two align) then
    invalid_arg "Alloc.alloc: align must be a power of two";
  let shape = (n lsl 6) lor log2 align in
  let h = find t.heads shape in
  let head = if h < 0 then 0 else t.heads.vals.(h) in
  let addr =
    if head <> 0 then begin
      t.heads.vals.(h) <- t.links.vals.(find t.links head);
      t.blocks.vals.(find t.blocks head) <- shape lsl 1;
      head
    end
    else begin
      let a = align_up t.cursor align in
      t.cursor <- a + n;
      let b = bind t.blocks a in
      t.blocks.vals.(b) <- shape lsl 1;
      a
    end
  in
  t.live_words <- t.live_words + n;
  addr

let alloc_lines t n =
  let padded = Addr.lines_of_words n * Addr.words_per_line in
  alloc t ~align:Addr.words_per_line padded

let free t addr =
  let b = find t.blocks addr in
  if b < 0 then invalid_arg "Alloc.free: unknown address";
  let v = t.blocks.vals.(b) in
  if v land 1 = 1 then invalid_arg "Alloc.free: double free";
  t.blocks.vals.(b) <- v lor 1;
  let shape = v lsr 1 in
  t.live_words <- t.live_words - (shape lsr 6);
  let h = bind t.heads shape in
  let l = bind t.links addr in
  t.links.vals.(l) <- t.heads.vals.(h);
  t.heads.vals.(h) <- addr

let size_of t addr =
  let b = find t.blocks addr in
  if b < 0 then invalid_arg "Alloc.size_of: unknown address";
  t.blocks.vals.(b) lsr 7

let live_words t = t.live_words
