type value = { idx : int; ty : Spec.edge_ty; mutable consumed : bool }

type t = {
  spec : Spec.t;
  mutable rev_ops : Program.op list;
  mutable n_values : int;
}

let create spec = { spec; rev_ops = []; n_values = 0 }

let call t node_name ?(data = []) inputs =
  let nt = Spec.node_by_name t.spec node_name in
  let expected = nt.Spec.borrows @ nt.Spec.consumes in
  if List.length inputs <> List.length expected then
    invalid_arg (Printf.sprintf "Builder.call %s: wrong arity" node_name);
  let n_borrows = List.length nt.Spec.borrows in
  (* Checked slot by slot, counting this call's own earlier consumes, so
     one op cannot consume a value twice; a rejected call marks nothing. *)
  let consumed_here = ref [] in
  List.iteri
    (fun i (v, e) ->
      if v.consumed || List.memq v !consumed_here then
        invalid_arg (Printf.sprintf "Builder.call %s: value already consumed" node_name);
      if v.ty.Spec.et_id <> e.Spec.et_id then
        invalid_arg
          (Printf.sprintf "Builder.call %s: expected %s, got %s" node_name
             e.Spec.et_name v.ty.Spec.et_name);
      if i >= n_borrows then consumed_here := v :: !consumed_here)
    (List.combine inputs expected);
  List.iter (fun v -> v.consumed <- true) !consumed_here;
  let data_fields =
    List.mapi
      (fun i (dt : Spec.data_ty) ->
        let d = match List.nth_opt data i with Some d -> d | None -> Bytes.empty in
        if Bytes.length d > dt.Spec.max_len then
          invalid_arg (Printf.sprintf "Builder.call %s: data field %d too long" node_name i);
        Bytes.copy d)
      nt.Spec.data
  in
  let op =
    {
      Program.node = nt.Spec.nt_id;
      args = Array.of_list (List.map (fun v -> v.idx) inputs);
      data = Array.of_list data_fields;
    }
  in
  t.rev_ops <- op :: t.rev_ops;
  let outputs =
    List.map
      (fun ty ->
        let v = { idx = t.n_values; ty; consumed = false } in
        t.n_values <- t.n_values + 1;
        v)
      nt.Spec.outputs
  in
  outputs

let snapshot t =
  t.rev_ops <- { Program.node = Spec.snapshot_node_id; args = [||]; data = [||] } :: t.rev_ops

let build t =
  let p = { Program.spec = t.spec; ops = Array.of_list (List.rev t.rev_ops) } in
  match Program.validate p with
  | Ok () -> p
  | Error m -> invalid_arg ("Builder.build: internal error: " ^ m)
