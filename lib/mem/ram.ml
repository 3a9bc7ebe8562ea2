(* Chunked backing store: 64 Ki-word (512 KB) chunks materialised on first
   write so that sparse address spaces stay cheap. *)

let chunk_shift = 16

let chunk_words = 1 lsl chunk_shift

let chunk_mask = chunk_words - 1

type t = { mutable chunks : int array option array }

let create () = { chunks = Array.make 64 None }

let ensure_index t i =
  let n = Array.length t.chunks in
  if i >= n then begin
    let n' = max (i + 1) (n * 2) in
    let a = Array.make n' None in
    Array.blit t.chunks 0 a 0 n;
    t.chunks <- a
  end

let chunk_for t a =
  let i = a lsr chunk_shift in
  ensure_index t i;
  match t.chunks.(i) with
  | Some c -> c
  | None ->
      let c = Array.make chunk_words 0 in
      t.chunks.(i) <- Some c;
      c

let read t a =
  let i = a lsr chunk_shift in
  if i < Array.length t.chunks then
    match t.chunks.(i) with Some c -> c.(a land chunk_mask) | None -> 0
  else 0

let write t a v = (chunk_for t a).(a land chunk_mask) <- v

let read_line t line =
  let base = Addr.line_base line in
  Array.init Addr.words_per_line (fun i -> read t (base + i))

let write_line t line words =
  assert (Array.length words = Addr.words_per_line);
  let base = Addr.line_base line in
  Array.iteri (fun i v -> write t (base + i) v) words
