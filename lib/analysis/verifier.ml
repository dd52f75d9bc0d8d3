open Nyx_spec

(* One walk serves every caller. [All] builds every diagnostic, [Errors]
   only the error ones, and [Verdict] builds none: its first error ends
   the walk with [Unclean]. Messages are thunks, so a diagnostic the mode
   drops is never formatted. *)
type mode = Verdict | Errors | All

exception Unclean

let op_site i = Printf.sprintf "op %d" i

(* Hotspot threshold: a data field that saturates a generous bound leaves
   the mutator no growth headroom. Tiny bounds (mode bytes, slot hints)
   are saturated by design and stay quiet. *)
let hotspot_min_bound = 8

let no_edge = { Spec.et_id = -1; et_name = "" }

(* [Array.for_all] would allocate its loop's closure on every call. *)
let rec all_empty data i =
  i = Array.length data || (Bytes.length data.(i) = 0 && all_empty data (i + 1))

let walk mode (p : Program.t) : Diag.t list =
  let spec = p.Program.spec in
  let ops = p.Program.ops in
  let diags = ref [] in
  let error ~code opi msg =
    match mode with
    | Verdict -> raise_notrace Unclean
    | Errors | All -> diags := Diag.error ~code ~site:(op_site opi) (msg ()) :: !diags
  in
  let warning ~code opi msg =
    if mode = All then diags := Diag.warning ~code ~site:(op_site opi) (msg ()) :: !diags
  in
  (* Abstract values, by index: what the lattice needs about each one. A
     value starts available when its producer op executes and moves to
     consumed at most once; producer and consume site are the provenance
     chain reported with affine violations and dead-value warnings. *)
  let n_nodes = Spec.node_count spec and c = Spec.counts spec in
  let cap = ref 0 in
  for i = 0 to Array.length ops - 1 do
    let id = ops.(i).Program.node in
    if id >= 0 && id < n_nodes then cap := !cap + c.Spec.n_outputs.(id)
  done;
  let ty = Array.make !cap no_edge in
  let producer = Array.make !cap 0 in
  let consumed_at = Array.make !cap (-1) in
  let borrowed = Bytes.make !cap '\000' in
  let n_values = ref 0 in
  (* Check the slots both sides agree on, so arity errors do not
     suppress independent findings. *)
  let rec slots opi name args i is_consume = function
    | [] -> ()
    | (expected : Spec.edge_ty) :: rest ->
      (if i < Array.length args then
         let idx = args.(i) in
         if idx < 0 || idx >= !n_values then
           error ~code:"dangling-arg" opi (fun () ->
               Printf.sprintf
                 "%s argument %d references value %d, but only values \
                  0..%d exist here"
                 name i idx (!n_values - 1))
         else begin
           let at = consumed_at.(idx) in
           if at >= 0 then
             error ~code:"affine-use-after-consume" opi (fun () ->
                 Printf.sprintf
                   "%s argument %d uses value %d (%s) after it was \
                    consumed: produced at op %d, consumed at op %d"
                   name i idx ty.(idx).Spec.et_name producer.(idx) at);
           if ty.(idx).Spec.et_id <> expected.Spec.et_id then
             error ~code:"type-mismatch" opi (fun () ->
                 Printf.sprintf
                   "%s argument %d has type %s (value %d, produced at op \
                    %d), expected %s"
                   name i ty.(idx).Spec.et_name idx producer.(idx)
                   expected.Spec.et_name);
           (* A consume slot takes the value out of the available
              set — even when its type was wrong, mirroring
              [Program.validate]'s single-pass semantics. *)
           if is_consume then begin
             if at < 0 then consumed_at.(idx) <- opi
           end
           else Bytes.set borrowed idx '\001'
         end);
      slots opi name args (i + 1) is_consume rest
  in
  let rec fields opi name data i = function
    | [] -> ()
    | (dt : Spec.data_ty) :: rest ->
      (if i < Array.length data then
         let len = Bytes.length data.(i) in
         if len > dt.Spec.max_len then
           error ~code:"data-too-long" opi (fun () ->
               Printf.sprintf "%s data field %d (%s) is %d bytes, bound is %d" name i
                 dt.Spec.dt_name len dt.Spec.max_len)
         else if len = dt.Spec.max_len && dt.Spec.max_len >= hotspot_min_bound then
           warning ~code:"data-at-bound" opi (fun () ->
               Printf.sprintf
                 "%s data field %d (%s) saturates its %d-byte bound: \
                  mutations cannot grow it"
                 name i dt.Spec.dt_name dt.Spec.max_len));
      fields opi name data (i + 1) rest
  in
  let rec push opi = function
    | [] -> ()
    | e :: rest ->
      ty.(!n_values) <- e;
      producer.(!n_values) <- opi;
      incr n_values;
      push opi rest
  in
  let snapshot_seen = ref false in
  let n_ops = Array.length ops in
  for opi = 0 to n_ops - 1 do
    let op = ops.(opi) in
    let id = op.Program.node in
    if id < 0 || id >= n_nodes then
      error ~code:"unknown-opcode" opi (fun () ->
          Printf.sprintf "node type %d is not declared by spec %S" id (Spec.name spec))
    else if id = Spec.snapshot_node_id then begin
      if !snapshot_seen then
        error ~code:"multiple-snapshots" opi (fun () ->
            "second snapshot opcode: at most one incremental snapshot per program");
      snapshot_seen := true;
      if Array.length op.Program.args <> 0 || Array.length op.Program.data <> 0 then
        error ~code:"snapshot-carries-payload" opi (fun () ->
            "the snapshot opcode takes no arguments and carries no data");
      (* Degenerate placements: an incremental snapshot of an empty
         prefix restores nothing the root snapshot does not already
         give us; a snapshot with an empty suffix never serves a
         single mutated run (cf. §4.3). *)
      if opi = 0 then
        warning ~code:"leading-snapshot" opi (fun () ->
            "snapshot before any interaction: the incremental snapshot \
             duplicates the root snapshot");
      if opi = n_ops - 1 then
        warning ~code:"trailing-snapshot" opi (fun () ->
            "snapshot after the last interaction: no suffix is ever fuzzed \
             from it")
    end
    else begin
      let nt = Spec.node spec id in
      let name = nt.Spec.nt_name in
      let args = op.Program.args in
      let n_inputs = c.Spec.arity.(id) in
      if Array.length args <> n_inputs then
        error ~code:"bad-arity" opi (fun () ->
            Printf.sprintf "%s expects %d argument(s), got %d" name n_inputs
              (Array.length args));
      slots opi name args 0 false nt.Spec.borrows;
      slots opi name args c.Spec.n_borrows.(id) true nt.Spec.consumes;
      let data = op.Program.data in
      let n_data = c.Spec.n_data.(id) in
      if Array.length data <> n_data then
        error ~code:"bad-data-arity" opi (fun () ->
            Printf.sprintf "%s expects %d data field(s), got %d" name n_data
              (Array.length data));
      fields opi name data 0 nt.Spec.data;
      (* No-op interaction: carries data fields, all empty, and neither
         produces nor consumes values — executing it cannot change the
         target-visible state (an empty packet is never delivered). *)
      if
        n_data > 0
        && all_empty data 0
        && nt.Spec.outputs = [] && nt.Spec.consumes = []
      then
        warning ~code:"noop-interaction" opi (fun () ->
            Printf.sprintf "%s with every data field empty has no effect" name);
      push opi nt.Spec.outputs
    end
  done;
  (* Dead values: produced but never borrowed or consumed. The op that
     produced them still ran for a reason (side effects), but the value
     itself is noise the mutator keeps rebinding to. *)
  if mode = All then
    for idx = 0 to !n_values - 1 do
      if Bytes.get borrowed idx = '\000' && consumed_at.(idx) < 0 then
        warning ~code:"dead-value" producer.(idx) (fun () ->
            Printf.sprintf "value %d (%s) is produced but never borrowed or consumed"
              idx ty.(idx).Spec.et_name)
    done;
  List.rev !diags

let check p = walk All p
let errors p = walk Errors p

let is_clean p =
  match walk Verdict p with _ -> true | exception Unclean -> false
