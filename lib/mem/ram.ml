(* Paged backing store: one-page (512-word, 4 KB) chunks materialised on
   first write, so a run pays host memory for the pages it touches, not
   for the span of the address space around them. An untouched page is
   the shared zero-length [untouched] array rather than an [option]: a
   read tells the two apart by length, with no box to follow. *)

let chunk_words = Addr.words_per_page

let chunk_mask = chunk_words - 1

let untouched : int array = [||]

type t = { mutable chunks : int array array; mutable resident : int }

let create () = { chunks = Array.make 64 untouched; resident = 0 }

let ensure_index t i =
  let n = Array.length t.chunks in
  if i >= n then begin
    let n' = max (i + 1) (n * 2) in
    let a = Array.make n' untouched in
    Array.blit t.chunks 0 a 0 n;
    t.chunks <- a
  end

let chunk_for t a =
  let i = Addr.page_of a in
  ensure_index t i;
  let c = Array.unsafe_get t.chunks i in
  if Array.length c > 0 then c
  else begin
    let c = Array.make chunk_words 0 in
    t.chunks.(i) <- c;
    t.resident <- t.resident + 1;
    c
  end

let[@inline] read t a =
  let i = Addr.page_of a in
  if i < Array.length t.chunks then
    let c = Array.unsafe_get t.chunks i in
    if Array.length c > 0 then Array.unsafe_get c (a land chunk_mask) else 0
  else 0

let write t a v = Array.unsafe_set (chunk_for t a) (a land chunk_mask) v

let resident_pages t = t.resident

(* A line never straddles a page, so a line is one slice of one chunk. *)
let read_line t line =
  let base = Addr.line_base line in
  let i = Addr.page_of base in
  let c = if i < Array.length t.chunks then Array.unsafe_get t.chunks i else untouched in
  if Array.length c > 0 then Array.sub c (base land chunk_mask) Addr.words_per_line
  else Array.make Addr.words_per_line 0

let write_line t line words =
  assert (Array.length words = Addr.words_per_line);
  let base = Addr.line_base line in
  Array.blit words 0 (chunk_for t base) (base land chunk_mask) Addr.words_per_line
