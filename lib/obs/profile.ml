type phase =
  | Reset
  | Prefix_replay
  | Suffix_exec
  | Snapshot_create
  | Snapshot_place
  | Cov_merge
  | Trim
  | Corpus_sync
  | Mutation
  | Peer
  | Other

let phases =
  [
    Reset;
    Prefix_replay;
    Suffix_exec;
    Snapshot_create;
    Snapshot_place;
    Cov_merge;
    Trim;
    Corpus_sync;
    Mutation;
    Peer;
    Other;
  ]

let num_phases = List.length phases

let index = function
  | Reset -> 0
  | Prefix_replay -> 1
  | Suffix_exec -> 2
  | Snapshot_create -> 3
  | Snapshot_place -> 4
  | Cov_merge -> 5
  | Trim -> 6
  | Corpus_sync -> 7
  | Mutation -> 8
  | Peer -> 9
  | Other -> 10

let phase_name = function
  | Reset -> "reset"
  | Prefix_replay -> "prefix-replay"
  | Suffix_exec -> "suffix-exec"
  | Snapshot_create -> "snapshot-create"
  | Snapshot_place -> "snapshot-place"
  | Cov_merge -> "cov-merge"
  | Trim -> "trim"
  | Corpus_sync -> "corpus-sync"
  | Mutation -> "mutation"
  | Peer -> "peer"
  | Other -> "other"

(* One campaign owns one profile on one domain (no locks): plain
   per-phase accumulators. Nesting and self-time live in [Obs], which
   feeds [add] as each span closes. *)
type t = { counts : int array; virt : int array; wall : float array }

let create () =
  {
    counts = Array.make num_phases 0;
    virt = Array.make num_phases 0;
    wall = Array.make num_phases 0.0;
  }

let add t phase ~virtual_ns ~wall_s =
  let i = index phase in
  t.counts.(i) <- t.counts.(i) + 1;
  t.virt.(i) <- t.virt.(i) + virtual_ns;
  t.wall.(i) <- t.wall.(i) +. wall_s

(* Checkpoint support: the deterministic accumulators only. Wall-clock
   columns are informational and restart from zero on resume. *)

type state = { ps_counts : int array; ps_virt : int array }

let state t = { ps_counts = Array.copy t.counts; ps_virt = Array.copy t.virt }

let restore_state t s =
  if Array.length s.ps_counts <> num_phases || Array.length s.ps_virt <> num_phases
  then invalid_arg "Profile.restore_state: phase arity mismatch";
  Array.blit s.ps_counts 0 t.counts 0 num_phases;
  Array.blit s.ps_virt 0 t.virt 0 num_phases

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type entry = { phase : phase; count : int; virtual_ns : int; wall_s : float }

type snapshot = {
  entries : entry list;
  total_virtual_ns : int;
  total_wall_s : float;
}

let snapshot t ~total_virtual_ns ~total_wall_s =
  let measured_v = Array.fold_left ( + ) 0 t.virt in
  let measured_w = Array.fold_left ( +. ) 0.0 t.wall in
  let entries =
    List.map
      (fun phase ->
        let i = index phase in
        match phase with
        | Other ->
          {
            phase;
            count = t.counts.(i);
            virtual_ns = t.virt.(i) + (total_virtual_ns - measured_v);
            wall_s = t.wall.(i) +. (total_wall_s -. measured_w);
          }
        | _ ->
          { phase; count = t.counts.(i); virtual_ns = t.virt.(i); wall_s = t.wall.(i) })
      phases
  in
  { entries; total_virtual_ns; total_wall_s }

let sum_virtual_ns s = List.fold_left (fun acc e -> acc + e.virtual_ns) 0 s.entries

let share total ns =
  if total = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int total

let pp ppf s =
  Format.fprintf ppf "%-16s %10s %16s %7s %12s@." "phase" "count" "virtual ns" "%"
    "wall s";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-16s %10d %16d %6.1f%% %12.4f@." (phase_name e.phase)
        e.count e.virtual_ns
        (share s.total_virtual_ns e.virtual_ns)
        e.wall_s)
    s.entries;
  Format.fprintf ppf "%-16s %10s %16d %6.1f%% %12.4f@." "total" "" s.total_virtual_ns
    100.0 s.total_wall_s

let to_json s =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n  \"phases\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"phase\": %S, \"count\": %d, \"virtual_ns\": %d, \"share\": %.4f, \
            \"wall_s\": %.6f}"
           (phase_name e.phase) e.count e.virtual_ns
           (share s.total_virtual_ns e.virtual_ns /. 100.0)
           e.wall_s))
    s.entries;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"total_virtual_ns\": %d,\n  \"total_wall_s\": %.6f\n}"
       s.total_virtual_ns s.total_wall_s);
  Buffer.contents b
