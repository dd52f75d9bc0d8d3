open Nyx_sim

let interesting_bytes = [| 0; 1; 16; 32; 64; 100; 127; 128; 255 |]

let clamp max_len b = if Bytes.length b > max_len then Bytes.sub b 0 max_len else b

(* [b] with [src.[pos .. pos+len)] inserted at [at]. *)
let insert_sub b at src pos len =
  let blen = Bytes.length b in
  let out = Bytes.create (blen + len) in
  Bytes.blit b 0 out 0 at;
  Bytes.blit src pos out at len;
  Bytes.blit b at out (at + len) (blen - at);
  out

let delete_range rng b =
  let len = Bytes.length b in
  if len < 2 then b
  else begin
    let start = Rng.int rng len in
    let dlen = 1 + Rng.int rng (min 16 (len - start)) in
    let out = Bytes.create (len - dlen) in
    Bytes.blit b 0 out 0 start;
    Bytes.blit b (start + dlen) out start (len - start - dlen);
    out
  end

let duplicate_range rng b =
  let len = Bytes.length b in
  if len = 0 then b
  else begin
    let start = Rng.int rng len in
    let dlen = 1 + Rng.int rng (min 16 (len - start)) in
    let at = Rng.int rng (len + 1) in
    insert_sub b at b start dlen
  end

let insert_random rng b =
  let len = Bytes.length b in
  let at = Rng.int rng (len + 1) in
  let n = 1 + Rng.int rng 8 in
  let out = Bytes.create (len + n) in
  Bytes.blit b 0 out 0 at;
  for i = at to at + n - 1 do
    Bytes.set out i (Rng.byte rng)
  done;
  Bytes.blit b at out (at + n) (len - at);
  out

(* [b] is owned by [mutate]: the overwrite edits it in place. *)
let splice_dict rng dict b =
  match dict with
  | [] -> b
  | _ ->
    let token = Rng.choose_list rng dict in
    let len = Bytes.length b in
    let at = Rng.int rng (len + 1) in
    if Rng.bool rng && len > at + Bytes.length token then begin
      Bytes.blit token 0 b at (Bytes.length token);
      b
    end
    else insert_sub b at token 0 (Bytes.length token)

(* One byte of [b] rewritten in place: rounds 0-3 of [mutate]. *)
let set_byte rng b choice =
  let len = Bytes.length b in
  if len > 0 then begin
    let i = Rng.int rng len in
    let c = Char.code (Bytes.get b i) in
    let v =
      match choice with
      | 0 -> c lxor (1 lsl Rng.int rng 8)
      | 1 -> Rng.choose rng interesting_bytes
      | 2 -> Char.code (Rng.byte rng)
      | _ -> c + Rng.int_in rng (-16) 16
    in
    Bytes.set b i (Char.chr (v land 0xff))
  end

let mutate rng ?(dict = []) ?(max_len = 4096) ?(rounds = 8) data =
  let n = 1 + Rng.int rng rounds in
  (* A private copy: every round either edits it in place or replaces it
     with fresh bytes, so [data] itself is never touched. *)
  let b = ref (Bytes.copy data) in
  for _ = 1 to n do
    let choice = Rng.int rng 8 in
    match choice with
    | 0 | 1 | 2 | 3 -> set_byte rng !b choice
    | 4 -> b := delete_range rng !b
    | 5 -> b := duplicate_range rng !b
    | 6 -> b := insert_random rng !b
    | 7 -> b := splice_dict rng dict !b
    | _ -> assert false
  done;
  clamp max_len !b
