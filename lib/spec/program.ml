type op = { node : int; args : int array; data : bytes array }
type t = { spec : Spec.t; ops : op array }

let op_inputs (nt : Spec.node_ty) = nt.Spec.borrows @ nt.Spec.consumes

let validate t =
  let open Spec in
  let exception Bad of string in
  try
    let value_types = ref [] (* newest first: (index, edge_ty, consumed ref) *) in
    let n_values = ref 0 in
    let snapshots = ref 0 in
    Array.iteri
      (fun opi op ->
        let nt =
          try Spec.node t.spec op.node
          with Invalid_argument m -> raise (Bad m)
        in
        if nt.nt_id = Spec.snapshot_node_id then begin
          incr snapshots;
          if !snapshots > 1 then raise (Bad "multiple snapshot opcodes");
          if Array.length op.args <> 0 || Array.length op.data <> 0 then
            raise (Bad "snapshot opcode carries no args or data")
        end;
        let inputs = op_inputs nt in
        let n_borrows = List.length nt.borrows in
        if Array.length op.args <> List.length inputs then
          raise (Bad (Printf.sprintf "op %d (%s): wrong arity" opi nt.nt_name));
        List.iteri
          (fun i expected ->
            let idx = op.args.(i) in
            if idx < 0 || idx >= !n_values then
              raise (Bad (Printf.sprintf "op %d (%s): arg %d out of range" opi nt.nt_name i));
            let _, ty, consumed =
              List.find (fun (v, _, _) -> v = idx) !value_types
            in
            if !consumed then
              raise (Bad (Printf.sprintf "op %d (%s): value %d already consumed" opi nt.nt_name idx));
            if ty.et_id <> expected.et_id then
              raise
                (Bad
                   (Printf.sprintf "op %d (%s): arg %d has type %s, expected %s" opi
                      nt.nt_name i ty.et_name expected.et_name));
            (* Mark slot by slot, as the sanitizer does: an op may not
               consume one value twice. *)
            if i >= n_borrows then consumed := true)
          inputs;
        if Array.length op.data <> List.length nt.data then
          raise (Bad (Printf.sprintf "op %d (%s): wrong data field count" opi nt.nt_name));
        List.iteri
          (fun i dt ->
            if Bytes.length op.data.(i) > dt.max_len then
              raise
                (Bad (Printf.sprintf "op %d (%s): data field %d too long" opi nt.nt_name i)))
          nt.data;
        List.iter
          (fun ty ->
            value_types := (!n_values, ty, ref false) :: !value_types;
            incr n_values)
          nt.outputs)
      t.ops;
    Ok ()
  with Bad m -> Error m

let packet_count t =
  Array.fold_left
    (fun acc op -> if op.node = Spec.snapshot_node_id then acc else acc + 1)
    0 t.ops

let snapshot_index t =
  let rec scan i packets =
    if i >= Array.length t.ops then None
    else if t.ops.(i).node = Spec.snapshot_node_id then Some packets
    else scan (i + 1) (packets + 1)
  in
  scan 0 0

let strip_snapshots t =
  let kept = packet_count t in
  let ops = if kept = 0 then [||] else Array.make kept t.ops.(0) in
  let n = ref 0 in
  for i = 0 to Array.length t.ops - 1 do
    let op = t.ops.(i) in
    if op.node <> Spec.snapshot_node_id then begin
      ops.(!n) <- op;
      incr n
    end
  done;
  { t with ops }

let with_snapshot_at t i =
  let t = strip_snapshots t in
  let i = max 0 (min i (Array.length t.ops)) in
  let snap = { node = Spec.snapshot_node_id; args = [||]; data = [||] } in
  let ops =
    Array.concat [ Array.sub t.ops 0 i; [| snap |]; Array.sub t.ops i (Array.length t.ops - i) ]
  in
  { t with ops }

(* [repair] keeps its value pool in arrays. Values are numbered in push
   order, so "available, newest first" is indices [n-1 … 0] minus the
   consumed ones. [mark.(v)] is [consumed] once a kept op consumed [v],
   and the binding op's stamp while one of its consume slots holds [v];
   any other value is free (stale stamps belong to dropped ops). *)
let consumed = -1

let rec data_fits data i = function
  | [] -> true
  | (dt : Spec.data_ty) :: rest ->
    Bytes.length data.(i) <= dt.Spec.max_len && data_fits data (i + 1) rest

let repair ?rng t =
  let open Spec in
  let ops = t.ops in
  let n_ops = Array.length ops in
  let spec = t.spec in
  let n_nodes = Spec.node_count spec and c = Spec.counts spec in
  let cap = ref 1 in
  for i = 0 to n_ops - 1 do
    let id = ops.(i).node in
    if id >= 0 && id < n_nodes then cap := !cap + c.n_outputs.(id)
  done;
  let vty = Array.make !cap 0 (* edge type id of each value *) in
  let mark = Array.make !cap 0 in
  let n_values = ref 0 in
  let usable stamp ty v =
    v >= 0 && v < !n_values && vty.(v) = ty && mark.(v) <> consumed && mark.(v) <> stamp
  in
  (* The [r]-th newest unconsumed value of type [ty]. *)
  let rec nth_newest ty r v =
    if vty.(v) = ty && mark.(v) <> consumed then
      if r = 0 then v else nth_newest ty (r - 1) (v - 1)
    else nth_newest ty r (v - 1)
  in
  (* Bound args of the op being repaired: its own array until the first
     slot that changes, a fresh copy from then on. *)
  let args = ref [||] and fresh = ref false in
  let bind (op : op) stamp slot (expected : edge_ty) is_consume =
    let ty = expected.et_id in
    let current = if slot < Array.length op.args then op.args.(slot) else -1 in
    let v =
      if usable stamp ty current then current
      else begin
        let k = ref 0 in
        for v = 0 to !n_values - 1 do
          if vty.(v) = ty && mark.(v) <> consumed then incr k
        done;
        if !k = 0 then -1
        else begin
          let r = match rng with None -> 0 | Some rng -> Nyx_sim.Rng.int rng !k in
          let picked = nth_newest ty r (!n_values - 1) in
          if usable stamp ty picked then picked
          else begin
            (* The random pick may collide with a value consumed by an
               earlier slot of this op; fall back to the newest usable one. *)
            let v = ref (!n_values - 1) in
            while !v >= 0 && not (usable stamp ty !v) do decr v done;
            !v
          end
        end
      end
    in
    if v < 0 then false
    else begin
      if !fresh then !args.(slot) <- v
      else if op.args.(slot) <> v then begin
        let a = Array.copy op.args in
        a.(slot) <- v;
        args := a;
        fresh := true
      end;
      if is_consume then mark.(v) <- stamp;
      true
    end
  in
  let rec bind_all op stamp slot is_consume = function
    | [] -> true
    | e :: rest ->
      bind op stamp slot e is_consume && bind_all op stamp (slot + 1) is_consume rest
  in
  let rec push_outputs = function
    | [] -> ()
    | ty :: rest ->
      vty.(!n_values) <- ty.et_id;
      incr n_values;
      push_outputs rest
  in
  let out = if n_ops = 0 then [||] else Array.make n_ops ops.(0) in
  let n_out = ref 0 in
  let seen_snapshot = ref false in
  for i = 0 to n_ops - 1 do
    let op = ops.(i) in
    let id = op.node in
    if id < 0 || id >= n_nodes then () (* unknown opcode: drop *)
    else if id = Spec.snapshot_node_id && !seen_snapshot then
      () (* at most one snapshot: keep the first *)
    else begin
      let nt = Spec.node spec id in
      let stamp = i + 1 in
      let n_borrows = c.n_borrows.(id) in
      let arity = c.arity.(id) in
      (* Keep existing bindings that are still valid, fixing only the
         broken ones. Consumed slots must bind distinct values. *)
      args := op.args;
      fresh := Array.length op.args <> arity;
      if !fresh then args := Array.make arity 0;
      if bind_all op stamp 0 false nt.borrows && bind_all op stamp n_borrows true nt.consumes
      then begin
        let args = !args in
        (* Consumed values leave the pool. *)
        for slot = n_borrows to arity - 1 do
          mark.(args.(slot)) <- consumed
        done;
        let data =
          if Array.length op.data = c.n_data.(id) && data_fits op.data 0 nt.data
          then op.data
          else
            Array.of_list
              (List.mapi
                 (fun i dt ->
                   let d = if i < Array.length op.data then op.data.(i) else Bytes.empty in
                   if Bytes.length d > dt.max_len then Bytes.sub d 0 dt.max_len else d)
                 nt.data)
        in
        push_outputs nt.outputs;
        if nt.nt_id = Spec.snapshot_node_id then seen_snapshot := true;
        out.(!n_out) <-
          (if args == op.args && data == op.data then op else { node = op.node; args; data });
        incr n_out
      end
    end
  done;
  { t with ops = (if !n_out = n_ops then out else Array.sub out 0 !n_out) }

(* Wire format *)

let magic = "NYXB1"

let serialize t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  let add_u32 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))
  in
  let add_u16 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))
  in
  add_u32 (Array.length t.ops);
  Array.iter
    (fun op ->
      add_u16 op.node;
      Buffer.add_char buf (Char.chr (Array.length op.args land 0xff));
      Array.iter add_u32 op.args;
      Buffer.add_char buf (Char.chr (Array.length op.data land 0xff));
      Array.iter
        (fun d ->
          add_u32 (Bytes.length d);
          Buffer.add_bytes buf d)
        op.data)
    t.ops;
  Buffer.to_bytes buf

let parse spec b =
  let exception Bad of string in
  let pos = ref 0 in
  let len = Bytes.length b in
  let u8 () =
    if !pos >= len then raise (Bad "truncated");
    let v = Char.code (Bytes.get b !pos) in
    incr pos;
    v
  in
  let u16 () = let lo = u8 () in lo lor (u8 () lsl 8) in
  let u32 () =
    let a = u8 () in
    let b' = u8 () in
    let c = u8 () in
    let d = u8 () in
    a lor (b' lsl 8) lor (c lsl 16) lor (d lsl 24)
  in
  try
    if len < String.length magic || Bytes.sub_string b 0 (String.length magic) <> magic
    then raise (Bad "bad magic");
    pos := String.length magic;
    let n_ops = u32 () in
    if n_ops > 1_000_000 then raise (Bad "unreasonable op count");
    let ops =
      Array.init n_ops (fun _ ->
          let node = u16 () in
          let nargs = u8 () in
          let args = Array.init nargs (fun _ -> u32 ()) in
          let ndata = u8 () in
          let data =
            Array.init ndata (fun _ ->
                let dlen = u32 () in
                if !pos + dlen > len then raise (Bad "truncated data");
                let d = Bytes.sub b !pos dlen in
                pos := !pos + dlen;
                d)
          in
          { node; args; data })
    in
    if !pos <> len then raise (Bad "trailing bytes");
    let t = { spec; ops } in
    match validate t with Ok () -> Ok t | Error m -> Error m
  with Bad m -> Error m

let pp ppf t =
  Array.iteri
    (fun i op ->
      let nt = Spec.node t.spec op.node in
      let args = String.concat ", " (List.map string_of_int (Array.to_list op.args)) in
      let data =
        String.concat " "
          (List.map
             (fun d ->
               let s = Bytes.to_string d in
               let printable =
                 String.map (fun c -> if c >= ' ' && c < '\127' then c else '.') s
               in
               Printf.sprintf "%S" (if String.length printable > 40
                                    then String.sub printable 0 40 ^ "..."
                                    else printable))
             (Array.to_list op.data))
      in
      Format.fprintf ppf "%3d: %s(%s) %s@." i nt.Spec.nt_name args data)
    t.ops
