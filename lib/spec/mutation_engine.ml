(* Pluggable mutation engines: a weighted set of named mutators with
   EWMA coverage-credit assignment. See the .mli for the determinism
   contract; the load-bearing detail is that a single-mutator engine
   makes no selection draw, so the default havoc engine replays the
   historical Mutator.mutate draw sequence bit-for-bit. *)

open Nyx_sim

type ctx = {
  mx_frozen : int;
  mx_max_ops : int;
  mx_dict : bytes list;
  mx_corpus : Program.t array;
}

type mutator = {
  m_name : string;
  m_base : float;
  m_fn : Rng.t -> ctx -> Program.t -> Program.t option;
}

type t = {
  e_name : string;
  mutators : mutator array;
  weight : float array;  (* base weight after CLI/config overrides *)
  credit_ : float array;  (* EWMA coverage credit, in [0, 1] *)
  attempts : int array;
  rejected : int array;
  accepts : int array;
  mutable last : int;  (* mutator that produced the last candidate; -1 none *)
  select_w : float array;  (* scratch: this draw's selection weights *)
}

(* Selection weight floor: a mutator whose credit decays to 0 keeps
   [credit_floor * base] of selection mass, so it can recover when the
   campaign enters territory it is good at (no starvation). *)
let credit_floor = 0.1
let ewma_alpha = 0.05

let create ~name ?(weights = []) mutators =
  if mutators = [] then invalid_arg "Mutation_engine.create: no mutators";
  let mutators = Array.of_list mutators in
  let n = Array.length mutators in
  let names = Array.map (fun m -> m.m_name) mutators in
  Array.iteri
    (fun i nm ->
      for j = i + 1 to n - 1 do
        if names.(j) = nm then
          invalid_arg
            (Printf.sprintf "Mutation_engine.create: duplicate mutator %S" nm)
      done)
    names;
  let weight = Array.map (fun m -> m.m_base) mutators in
  let overridden = Hashtbl.create 4 in
  List.iter
    (fun (nm, w) ->
      if Hashtbl.mem overridden nm then
        invalid_arg
          (Printf.sprintf "Mutation_engine.create: duplicate weight for %S" nm);
      Hashtbl.replace overridden nm ();
      if w <= 0.0 || Float.is_nan w then
        invalid_arg
          (Printf.sprintf "Mutation_engine.create: weight for %S must be > 0" nm);
      match Array.find_index (fun n' -> n' = nm) names with
      | Some i -> weight.(i) <- w
      | None ->
        invalid_arg
          (Printf.sprintf "Mutation_engine.create: unknown mutator %S (have: %s)"
             nm
             (String.concat ", " (Array.to_list names))))
    weights;
  {
    e_name = name;
    mutators;
    weight;
    credit_ = Array.make n 0.0;
    attempts = Array.make n 0;
    rejected = Array.make n 0;
    accepts = Array.make n 0;
    last = -1;
    select_w = Array.make n 0.0;
  }

let name t = t.e_name
let mutator_names t = Array.to_list (Array.map (fun m -> m.m_name) t.mutators)

let apply t idx rng ctx p =
  t.attempts.(idx) <- t.attempts.(idx) + 1;
  t.last <- idx;
  t.mutators.(idx).m_fn rng ctx p

let mutate t rng ctx p =
  let n = Array.length t.mutators in
  let idx =
    if n = 1 then 0
    else begin
      for i = 0 to n - 1 do
        t.select_w.(i) <- t.weight.(i) *. (credit_floor +. t.credit_.(i))
      done;
      Rng.weighted_index rng t.select_w
    end
  in
  match apply t idx rng ctx p with
  | Some q -> q
  | None -> (
    t.rejected.(idx) <- t.rejected.(idx) + 1;
    (* Mutator 0 is total by convention; the double fallback to the
       input program is pure belt-and-braces. *)
    match if idx = 0 then None else apply t 0 rng ctx p with
    | Some q -> q
    | None -> p)

let credit t ~novel =
  if t.last >= 0 then begin
    if novel then t.accepts.(t.last) <- t.accepts.(t.last) + 1;
    t.credit_.(t.last) <-
      ((1.0 -. ewma_alpha) *. t.credit_.(t.last))
      +. (if novel then ewma_alpha else 0.0)
  end

(* ------------------------------------------------------------------ *)
(* Counters and checkpointing.                                         *)

type stat = {
  s_name : string;
  s_attempts : int;
  s_rejected : int;
  s_accepts : int;
  s_credit : float;
}

let stats t =
  List.init (Array.length t.mutators) (fun i ->
      {
        s_name = t.mutators.(i).m_name;
        s_attempts = t.attempts.(i);
        s_rejected = t.rejected.(i);
        s_accepts = t.accepts.(i);
        s_credit = t.credit_.(i);
      })

type mstate = {
  ms_name : string;
  ms_attempts : int;
  ms_rejected : int;
  ms_accepts : int;
  ms_credit : int64;
}

type state = mstate list

let state t =
  List.init (Array.length t.mutators) (fun i ->
      {
        ms_name = t.mutators.(i).m_name;
        ms_attempts = t.attempts.(i);
        ms_rejected = t.rejected.(i);
        ms_accepts = t.accepts.(i);
        ms_credit = Int64.bits_of_float t.credit_.(i);
      })

let restore_state t s =
  if List.length s <> Array.length t.mutators then
    invalid_arg "Mutation_engine.restore_state: mutator count mismatch";
  List.iteri
    (fun i ms ->
      if ms.ms_name <> t.mutators.(i).m_name then
        invalid_arg
          (Printf.sprintf
             "Mutation_engine.restore_state: mutator %d is %S, checkpoint says %S"
             i t.mutators.(i).m_name ms.ms_name);
      t.attempts.(i) <- ms.ms_attempts;
      t.rejected.(i) <- ms.ms_rejected;
      t.accepts.(i) <- ms.ms_accepts;
      t.credit_.(i) <- Int64.float_of_bits ms.ms_credit)
    s

(* ------------------------------------------------------------------ *)
(* The byte/havoc engine.                                              *)

let havoc_mutator =
  {
    m_name = "havoc";
    m_base = 1.0;
    m_fn =
      (fun rng ctx p ->
        Some
          (Mutator.mutate rng ~frozen:ctx.mx_frozen ~max_ops:ctx.mx_max_ops
             ~dict:ctx.mx_dict ~corpus:ctx.mx_corpus p));
  }

let havoc ?weights () = create ~name:"havoc" ?weights [ havoc_mutator ]
