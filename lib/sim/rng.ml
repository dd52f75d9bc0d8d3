(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] field would box a fresh int64 on every step. Reads and writes
   go through the native-endian primitives, and every draw below inlines
   the step, so a draw allocates nothing. *)
type t = { state : Bytes.t }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let b = Bytes.create 8 in
  set64 b 0 s;
  { state = b }

let create seed = of_state (Int64.of_int seed)

(* splitmix64 step: one 64-bit output per call. *)
let[@inline always] next_int64 t =
  let z = Int64.add (get64 t.state 0) golden_gamma in
  set64 t.state 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let state t = get64 t.state 0
let set_state t s = set64 t.state 0 s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits: Int64.to_int keeps the low 63 bits, so a raw
     63-bit value could still come out negative. *)
  let v = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let[@inline] float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x *. v /. 9007199254740992.0 (* 2^53 *)

let chance t p = float t 1.0 < p

let byte t = Char.chr (int t 256)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (byte t)
  done;
  b

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Loops over local float refs rather than a fold and a recursive scan:
   the accumulators then stay unboxed. Same additions in the same order. *)
let weighted t pairs =
  let total = ref 0.0 and rest = ref pairs in
  while
    match !rest with
    | (_, w) :: tl ->
      total := !total +. w;
      rest := tl;
      true
    | [] -> false
  do () done;
  if !total <= 0.0 then invalid_arg "Rng.weighted: non-positive total weight";
  let target = float t !total in
  let acc = ref 0.0 and rest = ref pairs in
  while
    match !rest with
    | (_, w) :: (_ :: _ as tl) when not (!acc +. w > target) ->
      acc := !acc +. w;
      rest := tl;
      true
    | _ -> false
  do () done;
  match !rest with
  | (x, _) :: _ -> x
  | [] -> invalid_arg "Rng.weighted: empty list"
