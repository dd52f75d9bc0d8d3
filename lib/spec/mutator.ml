open Nyx_sim

(* Pick a node type able to carry data (for fresh-op append); falls back to
   any non-snapshot node. *)
let random_node rng spec =
  let all = Spec.nodes spec in
  let is_candidate (nt : Spec.node_ty) = nt.Spec.nt_id <> Spec.snapshot_node_id in
  let k = Array.fold_left (fun k nt -> if is_candidate nt then k + 1 else k) 0 all in
  if k = 0 then None
  else begin
    (* The [r]-th candidate: the draw [Rng.choose] makes over them. *)
    let r = ref (Rng.int rng k) and i = ref 0 in
    while not (is_candidate all.(!i)) || !r > 0 do
      if is_candidate all.(!i) then decr r;
      incr i
    done;
    Some all.(!i)
  end

let fresh_op rng spec =
  match random_node rng spec with
  | None -> None
  | Some nt ->
    let data =
      Array.of_list
        (List.map
           (fun (dt : Spec.data_ty) ->
             Rng.bytes rng (Rng.int rng (min 64 (dt.Spec.max_len + 1))))
           nt.Spec.data)
    in
    (* Args are placeholders; repair binds them to real values. *)
    let nargs = List.length nt.Spec.borrows + List.length nt.Spec.consumes in
    Some { Program.node = nt.Spec.nt_id; args = Array.make nargs 0; data }

let havoc_op rng dict (op : Program.op) spec =
  let nt = Spec.node spec op.Program.node in
  if Array.length op.Program.data = 0 then op
  else begin
    let i = Rng.int rng (Array.length op.Program.data) in
    let dt = List.nth nt.Spec.data i in
    let data = Array.copy op.Program.data in
    data.(i) <- Havoc.mutate rng ~dict ~max_len:dt.Spec.max_len data.(i);
    { op with Program.data }
  end

(* Stands in for unused slots of the suffix buffer below. *)
let filler = { Program.node = Spec.snapshot_node_id; args = [||]; data = [||] }

let mutate rng ?(frozen = 0) ?(max_ops = 24) ?(dict = []) ?(corpus = [||]) (p : Program.t) =
  let ops = p.Program.ops in
  let frozen = min frozen (Array.length ops) in
  (* The mutable suffix, edited in place in a growable buffer: [buf.(0)]
     … [buf.(!n - 1)]. *)
  let buf = ref (Array.make (max 8 (2 * (Array.length ops - frozen))) filler) in
  let n = ref 0 in
  let reserve extra =
    if !n + extra > Array.length !buf then begin
      let bigger = Array.make (max (!n + extra) (2 * Array.length !buf)) filler in
      Array.blit !buf 0 bigger 0 !n;
      buf := bigger
    end
  in
  let push op =
    reserve 1;
    !buf.(!n) <- op;
    incr n
  in
  (* Drop stray snapshot ops from the mutable region; policies re-inject. *)
  for i = frozen to Array.length ops - 1 do
    if ops.(i).Program.node <> Spec.snapshot_node_id then push ops.(i)
  done;
  let n_rounds = 1 + Rng.int rng 4 in
  for _ = 1 to n_rounds do
    let len = !n in
    let choice = Rng.weighted rng
        [ (`Havoc, 5.0); (`Dup, 1.0); (`Del, 1.0); (`Swap, 1.0); (`Splice, 1.5); (`Append, 1.0) ]
    in
    match choice with
    | `Havoc when len > 0 ->
      let i = Rng.int rng len in
      !buf.(i) <- havoc_op rng dict !buf.(i) p.Program.spec
    | `Dup when len > 0 ->
      let i = Rng.int rng len in
      reserve 1;
      let b = !buf in
      Array.blit b i b (i + 1) (len - i);
      incr n
    | `Del when len > 1 ->
      let i = Rng.int rng len in
      let b = !buf in
      Array.blit b (i + 1) b i (len - i - 1);
      decr n
    | `Swap when len > 1 ->
      let i = Rng.int rng (len - 1) in
      let b = !buf in
      let a = b.(i) in
      b.(i) <- b.(i + 1);
      b.(i + 1) <- a
    | `Splice when Array.length corpus > 0 ->
      let donor = (Rng.choose rng corpus).Program.ops in
      let keep = if len = 0 then 0 else Rng.int rng (len + 1) in
      let dlen = ref 0 in
      Array.iter (fun op -> if op.Program.node <> Spec.snapshot_node_id then incr dlen) donor;
      let from = if !dlen = 0 then 0 else Rng.int rng !dlen in
      (* Keep [keep] ops, then the donor's non-snapshot ops from the
         [from]-th on. *)
      n := keep;
      let j = ref 0 in
      Array.iter
        (fun op ->
          if op.Program.node <> Spec.snapshot_node_id then begin
            if !j >= from then push op;
            incr j
          end)
        donor
    | `Append -> (
      match fresh_op rng p.Program.spec with Some op -> push op | None -> ())
    | _ -> ()
  done;
  (* Cap total length: keep the frozen prefix, trim the suffix tail. *)
  let room = max 0 (max_ops - frozen) in
  let len = min !n room in
  let out = Array.make (frozen + len) filler in
  Array.blit ops 0 out 0 frozen;
  Array.blit !buf 0 out frozen len;
  Program.repair ~rng { p with Program.ops = out }
