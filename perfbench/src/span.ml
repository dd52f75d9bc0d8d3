(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer's public function:
   name, start/end on the monotonic clock, the span that was open around it (its parent),
   the candidate ("exec") it belongs to, and the GC counters of the
   calling domain at both boundaries. Spans are appended to flat arrays
   and written out once, when the run ends, so recording costs a few
   stores per boundary and no I/O. *)

type t = {
  mutable len : int;
  mutable name : string array;
  mutable exec : int array;
  mutable parent : int array;
  mutable t0 : int array;  (* Clock.now_ns *)
  mutable t1 : int array;
  mutable minor : float array;  (* minor words allocated inside the span *)
  mutable promoted : float array;
  mutable major : float array;
  mutable open_ : int;  (* innermost open span, -1 at top level *)
}

let create () =
  let n = 1024 in
  {
    len = 0;
    name = Array.make n "";
    exec = Array.make n 0;
    parent = Array.make n (-1);
    t0 = Array.make n 0;
    t1 = Array.make n 0;
    minor = Array.make n 0.0;
    promoted = Array.make n 0.0;
    major = Array.make n 0.0;
    open_ = -1;
  }

let grow t =
  let n = 2 * Array.length t.name in
  let g a d = Array.append a (Array.make (n - Array.length a) d) in
  t.name <- g t.name "";
  t.exec <- g t.exec 0;
  t.parent <- g t.parent (-1);
  t.t0 <- g t.t0 0;
  t.t1 <- g t.t1 0;
  t.minor <- g t.minor 0.0;
  t.promoted <- g t.promoted 0.0;
  t.major <- g t.major 0.0

(* [record t ~exec name f] runs [f] inside a span. The slot is claimed
   before [f] runs so that children name it as parent; the GC counters
   are read outside the timed window so the recorder's own allocation is
   not charged to the layer. *)
let record t ?(exec = 0) name f =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.exec.(i) <- exec;
  t.parent.(i) <- t.open_;
  let saved = t.open_ in
  t.open_ <- i;
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  let w0 = Clock.now_ns () in
  let finish () =
    let w1 = Clock.now_ns () in
    let m1 = Gc.minor_words () in
    let _, p1, j1 = Gc.counters () in
    t.t0.(i) <- w0;
    t.t1.(i) <- w1;
    t.minor.(i) <- m1 -. m0;
    t.promoted.(i) <- p1 -. p0;
    t.major.(i) <- j1 -. j0;
    t.open_ <- saved
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Seconds. *)
let duration t i = float_of_int (t.t1.(i) - t.t0.(i)) /. 1e9

(* Self time per the choosing-metrics rule: a span's duration minus the
   part of its interval its child spans cover. Children of one parent
   never overlap (calls are sequential on one domain), so the covered
   part is the sum of their durations. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

let indices_named t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.name.(i) = name then acc := i :: !acc
  done;
  !acc

let durations t name = List.map (duration t) (indices_named t name)
let minor_words t name = List.map (fun i -> t.minor.(i)) (indices_named t name)
let count t name = List.length (indices_named t name)

(* Summed self time per span name, in first-seen order. *)
let self_by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 and order = ref [] in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    match Hashtbl.find_opt tbl n with
    | Some s -> Hashtbl.replace tbl n (s +. self.(i))
    | None ->
      order := n :: !order;
      Hashtbl.replace tbl n self.(i)
  done;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let write_jsonl t oc =
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"parent\":%d,\"exec\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f}\n"
      i t.name.(i) t.parent.(i) t.exec.(i) t.t0.(i) t.t1.(i) t.minor.(i)
      t.promoted.(i) t.major.(i)
  done
