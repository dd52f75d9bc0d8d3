type status = Pass | Crash of { kind : string; detail : string } | Hang

type exec_result = { status : status; exec_ns : int; state_code : int }

type crash_report = {
  kind : string;
  detail : string;
  found_ns : int;
  found_exec : int;
  input : bytes;
}

type resilience = {
  faults_injected : int;
  faults_recovered : int;
  faults_aborted : int;
  restarts : int;
  quarantined : bool;
  backoff_ns : int;
}

type peer_stats = {
  peer_actions : int;
  peer_fired : (string * int) list; (* encoder faults fired, per peer site *)
  peer_desyncs : int;
  peer_restarts : int;
  peer_quarantines : int;
  peer_backoff_ns : int;
}

type placement_stats = {
  probes : int;
  probe_hashes : int; (* state hashes taken across all boundary probes *)
  probe_hashes_skipped : int; (* always 0; kept for perfbench/ *)
  moves : int;
  boundary_count : int;
  placements : (int * int) list;
}

type mutator_stat = {
  mut_name : string;
  mut_attempts : int;
  mut_rejected : int;
  mut_accepts : int;
  mut_credit : float;
}

type mutation_stats = { engine : string; mutators : mutator_stat list }

type campaign_result = {
  fuzzer : string;
  target : string;
  run_seed : int;
  timeline : Nyx_sim.Stats.Timeline.t;
  exec_timeline : Nyx_sim.Stats.Timeline.t;
  final_edges : int;
  execs : int;
  virtual_ns : int;
  execs_per_sec : float;
  crashes : crash_report list;
  corpus_size : int;
  solved_ns : int option;
  snapshot_stats : Nyx_snapshot.Engine.stats option;
  wall_s : float;
      (* real wall-clock the campaign took; informational only — every
         other field is a deterministic function of the config. *)
  phase_profile : Nyx_obs.Profile.snapshot option;
      (* per-phase virtual-time cost breakdown; Some only when the
         campaign ran with profiling requested. Virtual fields are
         deterministic; wall fields informational. *)
  resilience : resilience option;
      (* Some only when a fault plan was armed or a fleet supervisor
         restarted this instance; None -> byte-identical to pre-resilience
         results. *)
  placement : placement_stats option;
      (* dynamic snapshot placement counters; Some only for --policy
         dynamic. Fully deterministic (virtual-clock driven). *)
  mutation : mutation_stats option;
      (* per-mutator attempt/accept/coverage-credit counters from the
         mutation engine; Some for every nyx campaign, None for the
         baseline fuzzers. Deterministic. *)
  peer : peer_stats option;
      (* cooperating-peer counters; Some only for --mode peer campaigns.
         Deterministic. *)
}

let crashed r = List.exists (fun c -> c.kind <> "level-solved") r.crashes

let found_kind r kind = List.exists (fun c -> c.kind = kind) r.crashes

let pp_summary ppf r =
  Format.fprintf ppf
    "%s on %s: %d edges, %d execs in %a virtual (%.1f execs/s), %d crash kinds, corpus %d"
    r.fuzzer r.target r.final_edges r.execs Nyx_sim.Clock.pp_duration r.virtual_ns
    r.execs_per_sec (List.length r.crashes) r.corpus_size

let pp_resilience ppf (r : resilience) =
  Format.fprintf ppf
    "faults: %d injected, %d recovered, %d aborted; restarts: %d%s; backoff: %a"
    r.faults_injected r.faults_recovered r.faults_aborted r.restarts
    (if r.quarantined then " (quarantined)" else "")
    Nyx_sim.Clock.pp_duration r.backoff_ns

let pp_peer ppf (p : peer_stats) =
  let fired = List.fold_left (fun acc (_, n) -> acc + n) 0 p.peer_fired in
  Format.fprintf ppf
    "peer: %d actions, %d encoder faults fired%s; desyncs: %d, restarts: %d, \
     quarantines: %d; backoff: %a"
    p.peer_actions fired
    (if fired = 0 then ""
     else
       Printf.sprintf " (%s)"
         (String.concat ", "
            (List.filter_map
               (fun (site, n) ->
                 if n = 0 then None else Some (Printf.sprintf "%s:%d" site n))
               p.peer_fired)))
    p.peer_desyncs p.peer_restarts p.peer_quarantines Nyx_sim.Clock.pp_duration
    p.peer_backoff_ns

(* Deterministic comparison: everything but the informational wall-clock
   fields, which legitimately differ between two same-seed runs (and
   between a straight run and a kill+resume one). *)
let strip_wall r =
  let strip_profile (s : Nyx_obs.Profile.snapshot) =
    {
      s with
      Nyx_obs.Profile.entries =
        List.map (fun e -> { e with Nyx_obs.Profile.wall_s = 0.0 }) s.entries;
      total_wall_s = 0.0;
    }
  in
  { r with wall_s = 0.0; phase_profile = Option.map strip_profile r.phase_profile }

let same_deterministic a b = strip_wall a = strip_wall b
