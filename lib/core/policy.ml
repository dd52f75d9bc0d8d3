type kind = None_ | Balanced | Aggressive | Dynamic

(* Per-entry adaptive-placement state (kind = Dynamic). Candidate indices
   come from one protocol-state boundary probe per entry; the cost model
   then keeps running estimates of the quantities that decide where the
   incremental snapshot amortizes best. All fields are integers measured
   on the virtual clock, so every decision is deterministic. *)
type dyn = {
  mutable db_cands : int array;
      (* candidate snapshot indices, ascending, interior (1..packets-1);
         [packets-1] alone when the probe found no boundary *)
  mutable db_stale : int array;
      (* parallel to db_cands: consecutive no-news reuse rounds while the
         snapshot sat at that index *)
  mutable db_root_stale : int;
  mutable db_genuine : int; (* boundaries the probe actually found *)
  mutable db_probed : bool;
  mutable db_full_ns : int; (* EWMA of a full (root) execution *)
  mutable db_setup_ns : int; (* last measured prefix-replay + create ns *)
  mutable db_round_ns : int; (* last measured per-suffix-exec ns *)
  mutable db_pages : int; (* dirty pages copied by the last create *)
  mutable db_meas_idx : int; (* index db_setup_ns was measured at; 0 = none *)
  mutable db_cur : int; (* current placement: -1 unset, 0 root, else index *)
  mutable db_cooldown : int; (* reuse rounds before the next move is allowed *)
  mutable db_moves : int;
}

type t = {
  kind : kind;
  rng : Nyx_sim.Rng.t;
  cursor : (int, int) Hashtbl.t; (* aggressive: input id -> snapshot index *)
  dyn : (int, dyn) Hashtbl.t; (* dynamic: input id -> adaptive state *)
  mutable probes : int;
  mutable probe_hashes : int; (* state hashes taken across all probes *)
  mutable last_move : (int * int * int) option; (* input, from, to *)
}

let name = function
  | None_ -> "nyx-net-none"
  | Balanced -> "nyx-net-balanced"
  | Aggressive -> "nyx-net-aggressive"
  | Dynamic -> "nyx-net-dynamic"

let of_name = function
  | "none" | "nyx-net-none" -> Ok None_
  | "balanced" | "nyx-net-balanced" -> Ok Balanced
  | "aggressive" | "nyx-net-aggressive" -> Ok Aggressive
  | "dynamic" | "nyx-net-dynamic" -> Ok Dynamic
  | s -> Error (Printf.sprintf "unknown policy %S (none|balanced|aggressive|dynamic)" s)

let reuse_count = 50

let create kind rng =
  { kind; rng; cursor = Hashtbl.create 64; dyn = Hashtbl.create 64; probes = 0;
    probe_hashes = 0; last_move = None }

let kind t = t.kind
let is_dynamic t = t.kind = Dynamic

let min_packets_for_snapshot = 5

(* ------------------------------------------------------------------ *)
(* Dynamic: probe lifecycle and measurements.                          *)

let fresh_dyn ~full_ns =
  {
    db_cands = [||];
    db_stale = [||];
    db_root_stale = 0;
    db_genuine = 0;
    db_probed = false;
    db_full_ns = max 1 full_ns;
    db_setup_ns = 0;
    db_round_ns = 0;
    db_pages = 0;
    db_meas_idx = 0;
    db_cur = -1;
    db_cooldown = 0;
    db_moves = 0;
  }

let dyn_entry t ~input_id ~full_ns =
  match Hashtbl.find_opt t.dyn input_id with
  | Some d -> d
  | None ->
    let d = fresh_dyn ~full_ns in
    Hashtbl.replace t.dyn input_id d;
    d

let prepare_dynamic t ~input_id ~packets ~full_ns =
  if t.kind <> Dynamic || packets < min_packets_for_snapshot then `Ready
  else
    let d = dyn_entry t ~input_id ~full_ns in
    if d.db_probed then `Ready else `Probe

let set_boundaries ?(hashed = 0) t ~input_id ~packets ~boundaries =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> ()
  | Some d ->
    t.probe_hashes <- t.probe_hashes + hashed;
    let interior = List.filter (fun i -> i >= 1 && i <= packets - 1) boundaries in
    let cands =
      match interior with [] -> [| packets - 1 |] | l -> Array.of_list l
    in
    Array.sort compare cands;
    d.db_cands <- cands;
    d.db_stale <- Array.make (Array.length cands) 0;
    d.db_genuine <- List.length interior;
    d.db_probed <- true;
    t.probes <- t.probes + 1

let observe_full t ~input_id ~ns =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> ()
  | Some d -> d.db_full_ns <- max 1 (((3 * d.db_full_ns) + ns) / 4)

let observe_session t ~input_id ~idx ~setup_ns ~round_ns ~pages =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> ()
  | Some d ->
    d.db_meas_idx <- idx;
    d.db_setup_ns <- max 0 setup_ns;
    d.db_round_ns <- max 1 round_ns;
    d.db_pages <- pages

(* ------------------------------------------------------------------ *)
(* Dynamic: the amortized cost model.                                  *)

(* Staleness penalty per consecutive no-news round: a placement that
   stopped producing coverage gets progressively more expensive, so the
   argmin drifts to fresher candidates — the adaptive analogue of the
   aggressive policy's walk-back, but constrained to state boundaries and
   weighed against each placement's measured cost. Scaled to the entry's
   execution cost so fast and slow targets feel the same pressure. *)
let stale_penalty d = max 1_000 (d.db_full_ns / 2)

let est_root d = d.db_full_ns + (d.db_root_stale * stale_penalty d)

(* Expected virtual ns per execution with the snapshot after [i] packets:
   the amortized setup (prefix replay + snapshot create, paid once per
   [reuse_count] suffix executions) plus one suffix execution, plus the
   placement's staleness penalty. Once a session at [db_meas_idx] has
   been measured, both terms scale from the measurement by packet counts
   — prefix cost grows with i, suffix cost with packets - i. Before any
   measurement the full-execution estimate is prorated the same way,
   which decreases in i: the policy starts at the deepest boundary (the
   aggressive heuristic) and lets measurements correct it. *)
let est_at d ~packets i =
  let stale =
    let rec find j =
      if j >= Array.length d.db_cands then 0
      else if d.db_cands.(j) = i then d.db_stale.(j)
      else find (j + 1)
    in
    find 0
  in
  let base =
    if d.db_meas_idx > 0 then
      let setup = d.db_setup_ns * i / d.db_meas_idx in
      let suffix =
        d.db_round_ns * (packets - i) / max 1 (packets - d.db_meas_idx)
      in
      (setup / reuse_count) + suffix
    else
      let prefix = d.db_full_ns * i / packets in
      let suffix = d.db_full_ns * (packets - i) / packets in
      (prefix / reuse_count) + suffix
  in
  base + (stale * stale_penalty d)

(* Hysteresis: moving re-pays a prefix replay and a snapshot create, so a
   move must promise at least this relative improvement (percent) over the
   current placement's estimate, and after a move the placement is frozen
   for [move_cooldown] reuse rounds. Together these make thrashing
   impossible: a move needs a strictly better estimate by a fixed margin,
   and estimates only change through measurements and staleness. *)
let move_margin_pct = 5
let move_cooldown = 1

let decide_dynamic t ~input_id ~packets =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> `At (packets - 1) (* unreachable: prepare_dynamic ran first *)
  | Some d ->
    let best = ref 0 (* 0 = root *) and best_est = ref (est_root d) in
    Array.iter
      (fun i ->
        if i >= 1 && i <= packets - 1 then begin
          let e = est_at d ~packets i in
          if e < !best_est then begin
            best := i;
            best_est := e
          end
        end)
      d.db_cands;
    let placed =
      if d.db_cur < 0 then begin
        d.db_cur <- !best;
        !best
      end
      else if d.db_cooldown > 0 then begin
        d.db_cooldown <- d.db_cooldown - 1;
        d.db_cur
      end
      else begin
        let cur_est =
          if d.db_cur = 0 then est_root d else est_at d ~packets d.db_cur
        in
        if !best <> d.db_cur && !best_est * 100 < cur_est * (100 - move_margin_pct)
        then begin
          t.last_move <- Some (input_id, d.db_cur, !best);
          d.db_moves <- d.db_moves + 1;
          d.db_cooldown <- move_cooldown;
          d.db_cur <- !best;
          !best
        end
        else d.db_cur
      end
    in
    if placed = 0 then `Root else `At placed

let decide t ~input_id ~packets =
  t.last_move <- None;
  if packets < min_packets_for_snapshot then `Root
  else
    match t.kind with
    | None_ -> `Root
    | Balanced ->
      if Nyx_sim.Rng.chance t.rng 0.04 then `Root
      else if Nyx_sim.Rng.bool t.rng then `At (Nyx_sim.Rng.int_in t.rng 1 (packets - 1))
      else `At (Nyx_sim.Rng.int_in t.rng (packets / 2) (packets - 1))
    | Aggressive ->
      let idx =
        match Hashtbl.find_opt t.cursor input_id with
        | Some i when i >= 1 && i <= packets - 1 -> i
        | _ ->
          Hashtbl.replace t.cursor input_id (packets - 1);
          packets - 1
      in
      `At idx
    | Dynamic -> decide_dynamic t ~input_id ~packets

let last_move t = t.last_move

(* Staleness bookkeeping for the current placement. *)
let dyn_stale_bump d delta =
  if d.db_cur = 0 then d.db_root_stale <- max 0 (d.db_root_stale + delta)
  else
    Array.iteri
      (fun j i -> if i = d.db_cur then d.db_stale.(j) <- max 0 (d.db_stale.(j) + delta))
      d.db_cands

let notify_no_news t ~input_id =
  match t.kind with
  | None_ | Balanced -> ()
  | Aggressive -> (
    match Hashtbl.find_opt t.cursor input_id with
    | None -> ()
    | Some i ->
      (* One packet earlier; wrapping is handled lazily in [decide] when
         the index falls below 1 (it resets to the end). *)
      Hashtbl.replace t.cursor input_id (i - 1))
  | Dynamic -> (
    match Hashtbl.find_opt t.dyn input_id with
    | None -> ()
    | Some d -> dyn_stale_bump d 1)

let notify_news t ~input_id =
  match t.kind with
  | None_ | Balanced | Aggressive -> ()
  | Dynamic -> (
    match Hashtbl.find_opt t.dyn input_id with
    | None -> ()
    | Some d ->
      (* A productive placement sheds its accumulated staleness. *)
      if d.db_cur = 0 then d.db_root_stale <- 0
      else
        Array.iteri
          (fun j i -> if i = d.db_cur then d.db_stale.(j) <- 0)
          d.db_cands)

(* ------------------------------------------------------------------ *)
(* Placement statistics (for Report.campaign_result).                  *)

let placement_stats t =
  if t.kind <> Dynamic then None
  else begin
    let moves = ref 0 and bounds = ref 0 and placements = ref [] in
    Hashtbl.iter
      (fun id d ->
        moves := !moves + d.db_moves;
        bounds := !bounds + d.db_genuine;
        if d.db_cur >= 0 then placements := (id, d.db_cur) :: !placements)
      t.dyn;
    Some
      {
        Report.probes = t.probes;
        probe_hashes = t.probe_hashes;
        probe_hashes_skipped = 0;
        moves = !moves;
        boundary_count = !bounds;
        placements = List.sort compare !placements;
      }
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint support: a policy is its rng state, the aggressive cursor
   table and the dynamic per-entry table, each serialized sorted by input
   id so the rendering is canonical whatever the tables' internal order. *)

type dyn_state = {
  ds_id : int;
  ds_cands : int list;
  ds_stale : int list;
  ds_root_stale : int;
  ds_genuine : int;
  ds_probed : bool;
  ds_full_ns : int;
  ds_setup_ns : int;
  ds_round_ns : int;
  ds_pages : int;
  ds_meas_idx : int;
  ds_cur : int;
  ds_cooldown : int;
  ds_moves : int;
}

type state = {
  st_rng : int64;
  st_cursor : (int * int) list;
  st_dyn : dyn_state list;
  st_probes : int;
  st_probe_hashes : int;
}

let checkpoint_state t =
  {
    st_rng = Nyx_sim.Rng.state t.rng;
    st_cursor =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cursor []);
    st_dyn =
      List.sort compare
        (Hashtbl.fold
           (fun id d acc ->
             {
               ds_id = id;
               ds_cands = Array.to_list d.db_cands;
               ds_stale = Array.to_list d.db_stale;
               ds_root_stale = d.db_root_stale;
               ds_genuine = d.db_genuine;
               ds_probed = d.db_probed;
               ds_full_ns = d.db_full_ns;
               ds_setup_ns = d.db_setup_ns;
               ds_round_ns = d.db_round_ns;
               ds_pages = d.db_pages;
               ds_meas_idx = d.db_meas_idx;
               ds_cur = d.db_cur;
               ds_cooldown = d.db_cooldown;
               ds_moves = d.db_moves;
             }
             :: acc)
           t.dyn []);
    st_probes = t.probes;
    st_probe_hashes = t.probe_hashes;
  }

let restore_state t s =
  Nyx_sim.Rng.set_state t.rng s.st_rng;
  Hashtbl.reset t.cursor;
  List.iter (fun (k, v) -> Hashtbl.replace t.cursor k v) s.st_cursor;
  Hashtbl.reset t.dyn;
  List.iter
    (fun ds ->
      Hashtbl.replace t.dyn ds.ds_id
        {
          db_cands = Array.of_list ds.ds_cands;
          db_stale = Array.of_list ds.ds_stale;
          db_root_stale = ds.ds_root_stale;
          db_genuine = ds.ds_genuine;
          db_probed = ds.ds_probed;
          db_full_ns = ds.ds_full_ns;
          db_setup_ns = ds.ds_setup_ns;
          db_round_ns = ds.ds_round_ns;
          db_pages = ds.ds_pages;
          db_meas_idx = ds.ds_meas_idx;
          db_cur = ds.ds_cur;
          db_cooldown = ds.ds_cooldown;
          db_moves = ds.ds_moves;
        })
    s.st_dyn;
  t.probes <- s.st_probes;
  t.probe_hashes <- s.st_probe_hashes;
  t.last_move <- None
