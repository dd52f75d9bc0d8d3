(* Declarative binary codecs. One ['a codec] value is both the writer and
   the reader of a type, so the two directions cannot drift apart. *)

exception Corrupt of string

type cursor = { data : bytes; mutable pos : int; limit : int }
type 'a codec = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

let corrupt m = raise (Corrupt m)
let remaining c = c.limit - c.pos

(* Claim the next [n] bytes; returns their offset. *)
let take c n =
  if n > remaining c then corrupt "truncated";
  let p = c.pos in
  c.pos <- p + n;
  p

let conv to_repr of_repr r =
  { put = (fun b v -> r.put b (to_repr v)); get = (fun c -> of_repr (r.get c)) }

let i64 =
  { put = Buffer.add_int64_be; get = (fun c -> Bytes.get_int64_be c.data (take c 8)) }

let int = conv Int64.of_int Int64.to_int i64

let bool =
  let get c =
    match Bytes.get c.data (take c 1) with
    | '\000' -> false
    | '\001' -> true
    | _ -> corrupt "bad boolean"
  in
  { put = (fun b v -> Buffer.add_char b (if v then '\001' else '\000')); get }

(* A count of items that each take at least one byte: anything larger
   than what is left cannot be honest, and must not reach an allocator. *)
let length c =
  let n = int.get c in
  if n < 0 || n > remaining c then corrupt "bad length field";
  n

let bytes =
  let put b s = int.put b (Bytes.length s); Buffer.add_bytes b s in
  { put; get = (fun c -> let n = length c in Bytes.sub c.data (take c n) n) }

let string = conv Bytes.unsafe_of_string Bytes.unsafe_to_string bytes

let option e =
  let put b = function None -> bool.put b false | Some v -> bool.put b true; e.put b v in
  { put; get = (fun c -> if bool.get c then Some (e.get c) else None) }

let list e =
  let put b l = int.put b (List.length l); List.iter (e.put b) l in
  { put; get = (fun c -> List.init (length c) (fun _ -> e.get c)) }

let array e = conv Array.to_list Array.of_list (list e)

let pair x y =
  let put b (u, v) = x.put b u; y.put b v in
  { put; get = (fun c -> let u = x.get c in let v = y.get c in (u, v)) }

(* Records: [fget] threads the partially applied constructor through the
   remaining fields, so values reach it in declaration order. *)
type ('r, 'k) fields = { fput : Buffer.t -> 'r -> unit; fget : cursor -> 'k -> 'r }

let fields_end = { fput = (fun _ _ -> ()); fget = (fun _ r -> r) }

let field proj e rest =
  let fput b r = e.put b (proj r); rest.fput b r in
  { fput; fget = (fun c k -> let v = e.get c in rest.fget c (k v)) }

let record ctor fs = { put = fs.fput; get = (fun c -> fs.fget c ctor) }

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). *)

(* domain-safe: read-only after module initialisation *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc_len = 4

let frame ~magic e v =
  let b = Buffer.create 65536 in
  Buffer.add_string b magic;
  e.put b v;
  Buffer.add_int32_be b 0l;
  let out = Buffer.to_bytes b in
  let body_end = Bytes.length out - crc_len in
  let m = String.length magic in
  Bytes.set_int32_be out body_end (Int32.of_int (crc32 out m (body_end - m)));
  out

let looks_like_magic s =
  String.for_all (function 'A' .. 'Z' | '0' .. '9' -> true | _ -> false) s

let unframe ~magic e data =
  let m = String.length magic in
  if Bytes.length data < m then corrupt "truncated";
  let found = Bytes.sub_string data 0 m in
  if found <> magic then
    corrupt
      (if looks_like_magic found then
         Printf.sprintf "unsupported format %s (this build reads %s)" found magic
       else "bad magic");
  let body_end = Bytes.length data - crc_len in
  if body_end < m then corrupt "truncated";
  let stored = Int32.to_int (Bytes.get_int32_be data body_end) land 0xFFFFFFFF in
  if stored <> crc32 data m (body_end - m) then corrupt "CRC mismatch";
  let c = { data; pos = m; limit = body_end } in
  let v = e.get c in
  if c.pos <> body_end then corrupt "trailing garbage";
  v
