(* Typed splicing + spec-driven generation over the affine IR. *)

open Nyx_sim
open Nyx_spec

let snap = Spec.snapshot_node_id

(* Non-snapshot node types the mutator can ever assemble the inputs of
   (the Spec_lint constructibility fixpoint, shared with State_graph). *)
let usable_nodes spec =
  let nodes = Spec.nodes spec in
  let constructible, _ = Spec_lint.constructible_nodes nodes in
  List.filter
    (fun (nt : Spec.node_ty) -> nt.Spec.nt_id <> snap && constructible.(nt.Spec.nt_id))
    (Array.to_list nodes)

let generative spec = List.length (usable_nodes spec) > 1

(* Repair the affine environment, then verify offline: only clean
   candidates ever reach the executor. *)
let finish rng (p : Program.t) ops =
  let cand = Program.repair ~rng { p with Program.ops } in
  if Array.length cand.Program.ops = 0 then None
  else if Verifier.is_clean cand then Some cand
  else None

(* ------------------------------------------------------------------ *)
(* Splice: cut at state_path-compatible points.                        *)

let splice rng (ctx : Mutation_engine.ctx) (p : Program.t) =
  if Array.length ctx.mx_corpus = 0 then None
  else begin
    let ops = p.Program.ops in
    let frozen = min ctx.mx_frozen (Array.length ops) in
    let donor = Program.strip_snapshots (Rng.choose rng ctx.mx_corpus) in
    let dops = donor.Program.ops in
    let dlen = Array.length dops in
    if dlen = 0 then None
    else begin
      let sa = Dataflow.state_path p in
      let sb = Dataflow.state_path donor in
      (* Compatible cut pairs (i, j): the abstract state after the kept
         prefix equals the state the donor suffix was built in, so every
         edge type the graft needs has at least one live value for repair
         to bind. The graft must be nonempty. The pairs are counted, then
         the drawn one is found by walking them again in ascending (i, j)
         order: none is stored. *)
      let n_pairs = ref 0 in
      for i = frozen to Array.length ops do
        for j = 0 to dlen - 1 do
          if sa.(i) = sb.(j) then incr n_pairs
        done
      done;
      if !n_pairs = 0 then None
      else begin
        let rec nth i j r =
          if j = dlen then nth (i + 1) 0 r
          else if sa.(i) <> sb.(j) then nth i (j + 1) r
          else if r = 0 then (i, j)
          else nth i (j + 1) (r - 1)
        in
        let i, j = nth frozen 0 (Rng.int rng !n_pairs) in
        (* Prefix [0, i) then donor [j, dlen), the tail trimmed to
           [max_ops] (the frozen prefix always fits: frozen <= original
           length <= max_ops). *)
        let len = min (i + dlen - j) ctx.mx_max_ops in
        let keep = min i len in
        let out = Array.make len dops.(j) in
        Array.blit ops 0 out 0 keep;
        Array.blit dops j out keep (len - keep);
        finish rng p out
      end
    end
  end

let splice_mutator =
  { Mutation_engine.m_name = "splice"; m_base = 1.0; m_fn = splice }

(* ------------------------------------------------------------------ *)
(* Generate: concrete walk over the constructible-opcode transitions.  *)

(* A node the walk can emit, with what enabling it takes: [(ty, n)] in
   [need] asks for at least [n] live values of edge type [ty] — borrows
   may share a value, consumes need distinct ones. *)
type gen_node = {
  g_nt : Spec.node_ty;
  need : (int * int) array;
  out_mask : int;  (* edge types the node outputs *)
}

let gen_node (nt : Spec.node_ty) =
  let ids l = List.map (fun (e : Spec.edge_ty) -> e.Spec.et_id) l in
  let tys = List.sort_uniq compare (ids nt.Spec.borrows @ ids nt.Spec.consumes) in
  let need ty =
    let consumes = List.length (List.filter (( = ) ty) (ids nt.Spec.consumes)) in
    max consumes (if List.mem ty (ids nt.Spec.borrows) then 1 else 0)
  in
  {
    g_nt = nt;
    need = Array.of_list (List.map (fun ty -> (ty, need ty)) tys);
    out_mask = List.fold_left (fun m ty -> m lor (1 lsl ty)) 0 (ids nt.Spec.outputs);
  }

(* The affine environment of a walk: the values produced so far (the
   global value counter arg slots index into), which are still live
   (unconsumed), and how many live values each edge type has. *)
type env = {
  vty : int array;  (* edge type id of each value *)
  alive : Bytes.t;
  live : int array;  (* live values per edge type *)
  mutable n_values : int;
  mutable mask : int;  (* edge types with a live value *)
}

let push env (e : Spec.edge_ty) =
  let ty = e.Spec.et_id in
  env.vty.(env.n_values) <- ty;
  Bytes.set env.alive env.n_values '\001';
  env.n_values <- env.n_values + 1;
  env.live.(ty) <- env.live.(ty) + 1;
  env.mask <- env.mask lor (1 lsl ty)

let kill env v =
  if v >= 0 && v < env.n_values && Bytes.get env.alive v <> '\000' then begin
    Bytes.set env.alive v '\000';
    let ty = env.vty.(v) in
    env.live.(ty) <- env.live.(ty) - 1;
    if env.live.(ty) = 0 then env.mask <- env.mask land lnot (1 lsl ty)
  end

let rec push_all env = function
  | [] -> ()
  | e :: rest ->
    push env e;
    push_all env rest

let rec consume_args env args slot = function
  | [] -> ()
  | _ :: rest ->
    kill env args.(slot);
    consume_args env args (slot + 1) rest

(* Replay the first [frozen] of [ops] (assumed valid) to seed the
   environment with the frozen prefix's live values, mirroring
   Program.validate's accounting; room for [extra] more values. *)
let env_of_prefix spec ops frozen ~extra =
  let c = Spec.counts spec in
  let cap = ref extra in
  for i = 0 to frozen - 1 do
    cap := !cap + c.Spec.n_outputs.(ops.(i).Program.node)
  done;
  let env =
    {
      vty = Array.make !cap 0;
      alive = Bytes.make !cap '\000';
      live = Array.make (Spec.n_edge_types spec) 0;
      n_values = 0;
      mask = 0;
    }
  in
  for i = 0 to frozen - 1 do
    let op = ops.(i) in
    let nt = Spec.node spec op.Program.node in
    consume_args env op.Program.args c.Spec.n_borrows.(nt.Spec.nt_id) nt.Spec.consumes;
    push_all env nt.Spec.outputs
  done;
  env

let enabled env g =
  let k = ref 0 in
  while
    !k < Array.length g.need
    &&
    let ty, n = g.need.(!k) in
    env.live.(ty) >= n
  do
    incr k
  done;
  !k = Array.length g.need

(* [g] is enabled and, unless [missing = 0], outputs an edge type in
   [missing]. *)
let eligible env g missing = (missing = 0 || g.out_mask land missing <> 0) && enabled env g

let count_eligible env usable missing =
  let c = ref 0 in
  for i = 0 to Array.length usable - 1 do
    if eligible env usable.(i) missing then incr c
  done;
  !c

(* The [r]-th eligible node of [usable]: the one [Rng.choose_list] picks
   from the filtered list with draw [r]. *)
let nth_eligible env usable missing r =
  let r = ref r and i = ref 0 in
  while not (eligible env usable.(!i) missing) || !r > 0 do
    if eligible env usable.(!i) missing then decr r;
    incr i
  done;
  usable.(!i).g_nt

(* The [r]-th newest live value of edge type [ty]. *)
let rec nth_newest env ty r v =
  if Bytes.get env.alive v <> '\000' && env.vty.(v) = ty then
    if r = 0 then v else nth_newest env ty (r - 1) (v - 1)
  else nth_newest env ty r (v - 1)

(* A uniformly drawn live value of [ty]: the draw [Rng.choose_list]
   makes over the live values, newest first. A consume slot takes its
   value out of the environment at once, so later slots of the same op
   cannot pick it again; borrows are bound before any consume. *)
let pick rng env ty = nth_newest env ty (Rng.int rng env.live.(ty)) (env.n_values - 1)

let rec bind rng env args slot ~consume = function
  | [] -> ()
  | (e : Spec.edge_ty) :: rest ->
    let v = pick rng env e.Spec.et_id in
    args.(slot) <- v;
    if consume then kill env v;
    bind rng env args (slot + 1) ~consume rest

let rec fill_data rng dict data i = function
  | [] -> ()
  | (dt : Spec.data_ty) :: rest ->
    data.(i) <-
      (if dict <> [] && Rng.chance rng 0.5 then begin
         let tok = Rng.choose_list rng dict in
         if Bytes.length tok > dt.Spec.max_len then Bytes.sub tok 0 dt.Spec.max_len
         else tok
       end
       else Rng.bytes rng (Rng.int rng (min 64 (dt.Spec.max_len + 1))));
    fill_data rng dict data (i + 1) rest

(* Stands in for the unfilled slots of a walk's op buffer. *)
let filler = { Program.node = Spec.snapshot_node_id; args = [||]; data = [||] }

(* Bind one op of type [nt] against the environment and advance it. *)
let emit rng dict spec env (nt : Spec.node_ty) =
  let id = nt.Spec.nt_id in
  let c = Spec.counts spec in
  let args = Array.make c.Spec.arity.(id) 0 in
  bind rng env args 0 ~consume:false nt.Spec.borrows;
  bind rng env args c.Spec.n_borrows.(id) ~consume:true nt.Spec.consumes;
  let data = Array.make c.Spec.n_data.(id) Bytes.empty in
  fill_data rng dict data 0 nt.Spec.data;
  push_all env nt.Spec.outputs;
  { Program.node = id; args; data }

let generate ~usable ~max_outputs ~reachable rng (ctx : Mutation_engine.ctx)
    (p : Program.t) =
  let spec = p.Program.spec in
  let frozen = min ctx.mx_frozen (Array.length p.Program.ops) in
  let room = ctx.mx_max_ops - frozen in
  if room <= 0 then None
  else begin
    (* Half the walks steer toward a random reachable abstract state (a
       state-reaching prefix for later mutation rounds to build on);
       the other half wander freely ([target = 0]: the empty start state
       is never a target). *)
    let target =
      if Array.length reachable > 0 && Rng.bool rng then Rng.choose rng reachable
      else 0
    in
    let len = 1 + Rng.int rng room in
    let env = env_of_prefix spec p.Program.ops frozen ~extra:(len * max_outputs) in
    let out = Array.make (frozen + len) filler in
    Array.blit p.Program.ops 0 out 0 frozen;
    let n = ref frozen in
    (try
       for _ = 1 to len do
         let n_en = count_eligible env usable 0 in
         if n_en = 0 then raise Exit;
         let missing = target land lnot env.mask in
         let n_prod = if missing = 0 then 0 else count_eligible env usable missing in
         let nt =
           if n_prod > 0 && Rng.chance rng 0.75 then
             nth_eligible env usable missing (Rng.int rng n_prod)
           else nth_eligible env usable 0 (Rng.int rng n_en)
         in
         out.(!n) <- emit rng ctx.mx_dict spec env nt;
         incr n
       done
     with Exit -> ());
    if !n = frozen then None
    else finish rng p (if !n = frozen + len then out else Array.sub out 0 !n)
  end

let generate_mutator spec =
  if not (generative spec) then
    invalid_arg
      (Printf.sprintf
         "Typed_mutators.generate_mutator: spec %S is dynamic-degenerate \
          (single constructible opcode); use the havoc fallback"
         (Spec.name spec));
  let usable = Array.of_list (List.map gen_node (usable_nodes spec)) in
  let max_outputs =
    Array.fold_left (fun m g -> max m (List.length g.g_nt.Spec.outputs)) 0 usable
  in
  let graph = State_graph.build spec in
  (* Exclude the empty start state: reaching it requires no prefix. *)
  let reachable =
    Array.of_list (List.filter (fun m -> m <> 0) (State_graph.reachable graph))
  in
  {
    Mutation_engine.m_name = "generate";
    m_base = 0.35;
    m_fn = generate ~usable ~max_outputs ~reachable;
  }

let mutators spec =
  let base = [ Mutation_engine.havoc_mutator; splice_mutator ] in
  if generative spec then base @ [ generate_mutator spec ] else base
