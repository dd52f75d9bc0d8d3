(* One benchmark run of one workload: closed-loop campaigns for a wall
   budget, the correctness check, and the metrics.

   Inputs come from the workload seed alone: the run cycles through
   [subseeds] campaign seeds derived from it, one complete pass over them
   after another, until the wall budget is spent (at least two passes, so
   every campaign seed runs at least twice and can be checked against its
   first run). Deterministic metrics come from the first pass; wall
   metrics are medians over passes.

   With tracing on, the budget is split three ways: untraced passes (the
   reference, and the denominator of [trace_overhead]), traced passes
   (profiling on, a span around every public call, GC events from the
   runtime's ring), and the layer replay of the final corpus. *)

open Nyx_core

let subseeds = 8
let sub_seed seed i = (seed * 101) + i

type opts = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string option;  (* where the trace file goes; none: not written *)
  tmp : string;  (* scratch for checkpoint files *)
  scale : float;  (* virtual-budget factor; 1.0 except in the tests *)
}

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping.                                            *)

type check = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  refs : Workload.run option array;  (* first untraced run per campaign seed *)
}

let fail ck n fmt =
  Printf.ksprintf
    (fun m ->
      ck.failed <- ck.failed + n;
      ck.notes <- m :: ck.notes;
      Printf.eprintf "perfbench: FAILED: %s\n%!" m)
    fmt

let execs_of (r : Workload.run) =
  List.fold_left (fun n (c : Report.campaign_result) -> n + c.Report.execs) 0 r.results

let no_profile (c : Report.campaign_result) = { c with Report.phase_profile = None }

(* Deterministic equality of two runs, the profile masked so a traced run
   compares equal to an untraced one. *)
let same_run (a : Workload.run) (b : Workload.run) =
  List.length a.results = List.length b.results
  && List.for_all2
       (fun x y -> Report.same_deterministic (no_profile x) (no_profile y))
       a.results b.results
  &&
  match (a.fleet, b.fleet) with
  | None, None -> true
  | Some x, Some y ->
    let mask o = { o with Fleet.results = []; wall_s = 0.0 } in
    mask x = mask y
  | _ -> false

let check_run ck ~sub ~traced (r : Workload.run) =
  let execs = execs_of r in
  ck.attempted <- ck.attempted + execs;
  List.iter
    (fun (c : Report.campaign_result) ->
      (match c.Report.resilience with
      | Some res when res.Report.faults_aborted > 0 ->
        fail ck res.Report.faults_aborted "seed %d: %d aborted faults" c.Report.run_seed
          res.Report.faults_aborted
      | _ -> ());
      match c.Report.phase_profile with
      | Some p when Nyx_obs.Profile.sum_virtual_ns p <> c.Report.virtual_ns ->
        fail ck c.Report.execs "seed %d: profile phases sum to %d ns, campaign ran %d ns"
          c.Report.run_seed (Nyx_obs.Profile.sum_virtual_ns p) c.Report.virtual_ns
      | Some _ -> ()
      | None -> if traced then fail ck c.Report.execs "seed %d: traced run has no profile" c.Report.run_seed)
    r.results;
  (match r.fleet with
  | Some o when o.Fleet.quarantined > 0 || o.Fleet.restarts > 0 ->
    fail ck (max 1 execs) "campaign seed %d: %d instances quarantined, %d restarts" sub
      o.Fleet.quarantined o.Fleet.restarts
  | _ -> ());
  match ck.refs.(sub) with
  | None -> ck.refs.(sub) <- Some r
  | Some first ->
    if not (same_run first r) then
      fail ck execs "campaign seed index %d: %s result differs from the first run" sub
        (if traced then "traced" else "untraced")

(* Run one campaign, counting an exception as a failed run. *)
let guarded ck ~sub f =
  match f () with
  | r -> Some r
  | exception e ->
    let lost = match ck.refs.(sub) with Some r -> execs_of r | None -> 1 in
    ck.attempted <- ck.attempted + lost;
    fail ck lost "campaign seed index %d raised %s" sub (Printexc.to_string e);
    None

(* ------------------------------------------------------------------ *)
(* Passes.                                                             *)

let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs

type timed = {
  sub : int;  (* campaign seed index *)
  run : Workload.run;
  host_s : float;  (* mean of the host-speed probes just before and after *)
}

type pass = { timed : timed list }

let pass_execs p = sumi (fun t -> t.run.Workload.loop_execs) p.timed
let pass_loop_s p = sumf (fun t -> t.run.Workload.loop_s) p.timed

(* A checked run keeps what the metrics read; its coverage timelines,
   the bulk of a result, are dropped so the benchmark's own bookkeeping
   does not grow the heap it measures. *)
let lighten (r : Workload.run) =
  let empty = Nyx_sim.Stats.Timeline.create () in
  let light (c : Report.campaign_result) =
    { c with Report.timeline = empty; exec_timeline = empty }
  in
  {
    r with
    Workload.results = List.map light r.results;
    fleet = Option.map (fun o -> { o with Fleet.results = List.map light o.Fleet.results }) r.fleet;
  }

(* Complete passes until [budget_s] of wall time is spent and at least
   [min_passes] ran. A host-speed probe runs between consecutive
   campaigns, so every campaign is bracketed by two. *)
let passes o ck ~budget_s ~min_passes ~traced ~profile ~capture tr =
  let domains = Workload.domains o.workload ~traced:o.trace in
  let t0 = Clock.now_s () in
  let acc = ref [] in
  while List.length !acc < min_passes || Clock.now_s () -. t0 < budget_s do
    let first = !acc = [] in
    let before = ref (Calibrate.probe ()) in
    let timed =
      List.filter_map
        (fun sub ->
          guarded ck ~sub (fun () ->
              let run =
                Workload.run ~scale:o.scale ~capture:(capture && first && sub = 0)
                  o.workload ~seed:(sub_seed o.seed sub) ~domains ~profile ~tmp:o.tmp tr
              in
              check_run ck ~sub ~traced run;
              let after = Calibrate.probe () in
              let host_s = (!before +. after) /. 2.0 in
              before := after;
              (* Outside all timings. *)
              Heap.fresh ();
              { sub; run = lighten run; host_s }))
        (List.init subseeds Fun.id)
    in
    let p = { timed } in
    Printf.eprintf "perfbench: %s pass %d%s: %d execs in %.3f s\n%!" o.workload.Workload.name
      (List.length !acc + 1) (if traced then " (traced)" else "")
      (pass_execs p) (pass_loop_s p);
    acc := p :: !acc
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* End-to-end metrics.                                                 *)

let runs_of ps = List.concat_map (fun p -> List.map (fun t -> t.run) p.timed) ps
let results_of ps = List.concat_map (fun (r : Workload.run) -> r.results) (runs_of ps)

(* Main-loop executions per wall second. Each campaign seed contributes
   its exec count (the same in every pass) and the median of its loop
   times over the passes. With [host] the loop times are first scaled to
   the probe's reference speed (see Calibrate): the host's own speed
   drift, which moves the probe as much as the campaign, cancels. *)
let scaled t secs = secs *. Calibrate.reference_s /. t.host_s

let eps ~host ps =
  let per_seed sub =
    let ts = List.concat_map (fun p -> List.filter (fun t -> t.sub = sub) p.timed) ps in
    let loop t =
      if host then scaled t t.run.Workload.loop_s else t.run.Workload.loop_s
    in
    match ts with
    | [] -> (0.0, 0.0)
    | t :: _ -> (float_of_int t.run.Workload.loop_execs, Summary.median (List.map loop ts))
  in
  let e, s = List.split (List.init subseeds per_seed) in
  Summary.ratio (Summary.sum e) (Summary.sum s)

let end_to_end ~setups ps =
  let first = match ps with p :: _ -> [ p ] | [] -> [] in
  let results = results_of first in
  let edges (r : Workload.run) =
    match r.fleet with
    | Some { Fleet.union_edges = Some e; _ } -> float_of_int e
    | _ -> sumf (fun (c : Report.campaign_result) -> float_of_int c.Report.final_edges) r.results
  in
  (* Allocation is deterministic per campaign seed once the process is
     warm; the second pass is the first warm one in every run. *)
  let words_per_exec p =
    Summary.ratio (sumf (fun t -> t.run.Workload.minor_words) p.timed) (float_of_int (pass_execs p))
  in
  let v name x = (List.find (fun s -> s.Metric.name = name) Metric.end_to_end, x) in
  [
    v "execs_per_wall_s" (eps ~host:true ps);
    v "setup_s"
      (Summary.median
         (setups @ List.concat_map (fun p -> List.map (fun t -> scaled t t.run.Workload.setup_s) p.timed) ps));
    v "minor_words_per_exec"
      (match ps with _ :: p :: _ | p :: _ -> words_per_exec p | [] -> 0.0);
    (* Each campaign starts on a collected heap, so its own peak is
       measurable. A major heap grows in steps, so one campaign's peak
       sits on one of a few levels; the mean over every campaign smooths
       them (and, in a fleet, the GC's timing). *)
    v "peak_heap_mb"
      (Summary.mean
         (List.map
            (fun (r : Workload.run) -> float_of_int (r.heap_words * (Sys.word_size / 8)) /. 1048576.0)
            (runs_of ps)));
    v "execs_per_virtual_s"
      (Summary.ratio
         (float_of_int (sumi (fun (c : Report.campaign_result) -> c.Report.execs) results))
         (sumf (fun (c : Report.campaign_result) -> float_of_int c.Report.virtual_ns /. 1e9) results));
    v "final_edges" (Summary.mean (List.map edges (runs_of first)));
  ]

(* Figures left out of the result line because they can be 0, and an
   end-to-end metric's bound is a share of its median. *)
let extras ps ck =
  let first = match ps with p :: _ -> [ p ] | [] -> [] in
  let kinds =
    List.sort_uniq compare
      (List.concat_map
         (fun (c : Report.campaign_result) -> List.map (fun k -> k.Report.kind) c.Report.crashes)
         (results_of first))
  in
  [
    ("execs_per_wall_s (unscaled)", eps ~host:false ps, "1/s");
    ("crash_kinds", float_of_int (List.length kinds), "count");
    ("failed_share", Summary.ratio (float_of_int ck.failed) (float_of_int ck.attempted), "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics.                                                  *)

let phase_sum (rs : Report.campaign_result list) ph f =
  sumf
    (fun (c : Report.campaign_result) ->
      match c.Report.phase_profile with
      | None -> 0.0
      | Some s ->
        sumf
          (fun (e : Nyx_obs.Profile.entry) -> if e.Nyx_obs.Profile.phase = ph then f e else 0.0)
          s.Nyx_obs.Profile.entries)
    rs

let phase_wall rs ph = phase_sum rs ph (fun e -> e.Nyx_obs.Profile.wall_s)
let phase_virt rs ph = phase_sum rs ph (fun e -> float_of_int e.Nyx_obs.Profile.virtual_ns)

type traced = {
  untraced : pass list;
  traced_passes : pass list;
  gc_before : Gc_trace.category -> float;  (* at the first traced pass *)
  gc_after : Gc_trace.category -> float;
  wait_s : float;  (* fleet worker wait during the traced passes *)
  spans : Span.t;
  replay : Replay.t option;
}

let per_layer o (t : traced) =
  let runs = runs_of t.traced_passes in
  let n = float_of_int (max 1 (List.length runs)) in
  let per_run x = x /. n in
  let first = match t.traced_passes with p :: _ -> [ p ] | [] -> [] in
  let first_runs = runs_of first in
  let nf = float_of_int (max 1 (List.length first_runs)) in
  let det f = sumf f first_runs /. nf in
  let rs = results_of t.traced_passes in
  let virt = sumf (fun (c : Report.campaign_result) -> float_of_int c.Report.virtual_ns) rs in
  let loop_s = sumf (fun (r : Workload.run) -> r.loop_s) runs in
  let loop_execs = float_of_int (sumi (fun (r : Workload.run) -> r.loop_execs) runs) in
  let instances = Workload.domains o.workload ~traced:true in
  let is_fleet = instances > 1 in
  let sp = t.spans in
  let us xs = List.map (fun d -> d *. 1e6) xs in
  let ms xs = List.map (fun d -> d *. 1e3) xs in
  let p50 = Summary.percentile 50.0 and p99 = Summary.percentile 99.0 in
  let words name = Summary.mean (Span.minor_words sp name) in
  let exec_ops =
    List.concat_map
      (fun op ->
        let name = "Executor." ^ op in
        [
          (Printf.sprintf "executor.%s.calls" op, float_of_int (Span.count sp name));
          (Printf.sprintf "executor.%s.wall_us_p50" op, p50 (us (Span.durations sp name)));
          (Printf.sprintf "executor.%s.wall_us_p99" op, p99 (us (Span.durations sp name)));
          (Printf.sprintf "executor.%s.words_per_call" op, words name);
        ])
      [ "run_suffix"; "run_full"; "start_session" ]
  in
  (* Per-campaign mean over the first traced pass of an optional result
     counter (0 where the result lacks that block). *)
  let det_count get =
    det (fun (r : Workload.run) ->
        sumf (fun c -> match get c with Some x -> float_of_int x | None -> 0.0) r.results)
  in
  let snap f = det_count (fun c -> Option.map f c.Report.snapshot_stats) in
  let placement f = det_count (fun c -> Option.map f c.Report.placement) in
  let mutators =
    List.concat_map
      (fun (c : Report.campaign_result) ->
        match c.Report.mutation with Some m -> m.Report.mutators | None -> [])
      (results_of first)
  in
  let msum f = float_of_int (sumi f mutators) in
  let attempts = msum (fun m -> m.Report.mut_attempts) in
  let peer f = det_count (fun c -> Option.map f c.Report.peer) in
  let res f = det_count (fun c -> Option.map f c.Report.resilience) in
  let first_results = results_of first in
  let first_execs = float_of_int (sumi (fun (c : Report.campaign_result) -> c.Report.execs) first_results) in
  let first_virt =
    sumf (fun (c : Report.campaign_result) -> float_of_int c.Report.virtual_ns) first_results
  in
  let fleets = List.filter_map (fun (r : Workload.run) -> r.fleet) runs in
  let epochs = List.concat_map (fun o -> o.Fleet.sync_epochs) fleets in
  let offered =
    sumi (fun e -> e.Fleet.se_broadcast * (instances - 1)) epochs
  in
  let unattributed =
    sumf
      (fun (r : Workload.run) -> Float.max 0.0 (phase_wall r.results Nyx_obs.Profile.Other -. r.setup_s))
      runs
  in
  let gc cat = t.gc_after cat -. t.gc_before cat in
  let gc_wall = gc Gc_trace.Minor +. gc Gc_trace.Major in
  let replay_novel, replay_cands, pages =
    match t.replay with
    | Some r -> (float_of_int r.Replay.novel, float_of_int r.Replay.candidates, r.Replay.pages)
    | None -> (0.0, 0.0, [])
  in
  let codec name = p50 (ms (Span.durations sp name)) in
  let untraced_eps = eps ~host:true t.untraced in
  let traced_eps = eps ~host:true t.traced_passes in
  let values =
    exec_ops
    @ [
        ("snapshot.root_restores", snap (fun s -> s.Nyx_snapshot.Engine.root_restores));
        ("snapshot.incremental_restores", snap (fun s -> s.Nyx_snapshot.Engine.incremental_restores));
        ("snapshot.incremental_created", snap (fun s -> s.Nyx_snapshot.Engine.incremental_creates));
        ("snapshot.remirrors", snap (fun s -> s.Nyx_snapshot.Engine.remirrors));
        ("snapshot.create.pages_per_call", Summary.mean (List.map float_of_int pages));
        ("snapshot.reset.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Reset));
        ("snapshot.create.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Snapshot_create));
        ("interp.suffix_exec.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Suffix_exec));
        ("interp.prefix_replay.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Prefix_replay));
        ("interp.prefix_replay.virtual_share", Summary.ratio (phase_virt rs Nyx_obs.Profile.Prefix_replay) virt);
        ("mutation_engine.mutate.wall_us_p50", p50 (us (Span.durations sp "Mutation_engine.mutate")));
        ("mutation_engine.mutate.wall_us_p99", p99 (us (Span.durations sp "Mutation_engine.mutate")));
        ("mutation_engine.mutate.words_per_call", words "Mutation_engine.mutate");
        ("mutation_engine.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Mutation));
        ("mutation_engine.accept_ratio", Summary.ratio (msum (fun m -> m.Report.mut_accepts)) attempts);
        ("mutation_engine.reject_ratio", Summary.ratio (msum (fun m -> m.Report.mut_rejected)) attempts);
        ( "mutation_engine.typed_share",
          Summary.ratio
            (msum (fun m -> if m.Report.mut_name = "havoc" then 0 else m.Report.mut_attempts))
            attempts );
        ("policy.probes", placement (fun p -> p.Report.probes));
        ("policy.probe_hashes", placement (fun p -> p.Report.probe_hashes));
        ("policy.probe_hashes_skipped", placement (fun p -> p.Report.probe_hashes_skipped));
        ("policy.moves", placement (fun p -> p.Report.moves));
        ("policy.boundaries", placement (fun p -> p.Report.boundary_count));
        ("policy.place.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Snapshot_place));
        ("policy.place.virtual_share", Summary.ratio (phase_virt rs Nyx_obs.Profile.Snapshot_place) virt);
        ("policy.state_boundaries.wall_us_p50", p50 (us (Span.durations sp "Executor.state_boundaries")));
        ("coverage.merge.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Cov_merge));
        ("coverage.novel_ratio", Summary.ratio replay_novel replay_cands);
        ( "corpus.size",
          Summary.mean (List.map (fun (c : Report.campaign_result) -> float_of_int c.Report.corpus_size) first_results) );
        ("corpus.schedule.wall_us_p50", p50 (us (Span.durations sp "Corpus.schedule")));
        ("corpus.add.wall_us_p50", p50 (us (Span.durations sp "Corpus.add")));
        ("campaign.step.wall_ms_p50", p50 (ms (Span.durations sp "Campaign.step")));
        ("campaign.step.wall_ms_p99", p99 (ms (Span.durations sp "Campaign.step")));
        ("campaign.unattributed.wall_s", per_run unattributed);
        ("fleet.epochs", per_run (float_of_int (List.length epochs)));
        ("fleet.sync.wall_s", if is_fleet then per_run (phase_wall rs Nyx_obs.Profile.Corpus_sync) else 0.0);
        ( "fleet.sync.virtual_share",
          if is_fleet then Summary.ratio (phase_virt rs Nyx_obs.Profile.Corpus_sync) virt else 0.0 );
        ( "fleet.import_ratio",
          Summary.ratio (float_of_int (sumi (fun e -> e.Fleet.se_imports) epochs)) (float_of_int offered) );
        ( "fleet.domain_busy_share",
          if is_fleet then 1.0 -. Summary.ratio t.wait_s (loop_s *. float_of_int instances) else 0.0 );
        ("fleet.barrier_wait_s", if is_fleet then per_run t.wait_s else 0.0);
        ( "fleet.instance_execs_per_wall_s",
          if is_fleet then Summary.ratio loop_execs loop_s /. float_of_int instances else 0.0 );
        ( "fleet.modeled_speedup",
          Summary.mean
            (List.map
               (fun o -> Summary.ratio (float_of_int o.Fleet.work_ns) (float_of_int o.Fleet.makespan_ns))
               fleets) );
        ("checkpoint.writes", per_run (float_of_int (sumi (fun (r : Workload.run) -> r.ck_writes) runs)));
        ( "checkpoint.bytes",
          Summary.ratio
            (float_of_int (sumi (fun (r : Workload.run) -> r.ck_bytes) runs))
            (float_of_int (sumi (fun (r : Workload.run) -> r.ck_writes) runs)) );
        ("checkpoint.encode.wall_ms_p50", codec "Checkpoint.encode");
        ("checkpoint.decode.wall_ms_p50", codec "Checkpoint.decode");
        ("checkpoint.save.wall_ms_p50", codec "Checkpoint.save");
        ("checkpoint.resume.wall_ms", codec "Campaign.resume_inst");
        ("peer.actions", peer (fun p -> p.Report.peer_actions));
        ( "peer.desync_ratio",
          Summary.ratio (peer (fun p -> p.Report.peer_desyncs)) (peer (fun p -> p.Report.peer_actions)) );
        ("peer.restarts", peer (fun p -> p.Report.peer_restarts));
        ("peer.quarantines", peer (fun p -> p.Report.peer_quarantines));
        ("peer.wall_s", per_run (phase_wall rs Nyx_obs.Profile.Peer));
        ( "peer.backoff_virtual_share",
          Summary.ratio (peer (fun p -> p.Report.peer_backoff_ns) *. nf) first_virt );
        ("resilience.injected", res (fun x -> x.Report.faults_injected));
        ("resilience.recovered", res (fun x -> x.Report.faults_recovered));
        ("resilience.aborted", res (fun x -> x.Report.faults_aborted));
        ( "resilience.recovery_per_exec",
          Summary.ratio (res (fun x -> x.Report.faults_recovered) *. nf) first_execs );
        ("gc.minor_collections", per_run (float_of_int (sumi (fun (r : Workload.run) -> r.minor_collections) runs)));
        ("gc.major_collections", per_run (float_of_int (sumi (fun (r : Workload.run) -> r.major_collections) runs)));
        ( "gc.promoted_words_per_exec",
          Summary.ratio (sumf (fun (r : Workload.run) -> r.promoted_words) runs) loop_execs );
        ("gc.minor.wall_s", per_run (gc Gc_trace.Minor));
        ("gc.major.wall_s", per_run (gc Gc_trace.Major));
        ("gc.wall_share", Summary.ratio gc_wall (loop_s *. float_of_int instances));
        ("trace_overhead", Summary.ratio untraced_eps traced_eps);
        ("trace.unattributed_share", Summary.ratio unattributed (loop_s *. float_of_int instances));
      ]
  in
  List.map
    (fun s ->
      match List.assoc_opt s.Metric.name values with
      | Some v -> (s, v)
      | None -> failwith ("perfbench: no value for " ^ s.Metric.name))
    Metric.per_layer

(* ------------------------------------------------------------------ *)
(* Provenance: where a number came from.                              *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    (match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> Some (String.trim l)
    | _ -> None)
  | exception Unix.Unix_error _ -> None

(* Digest of the library sources, so a run in a checkout without git
   history still names the code it measured. *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then walk p
             else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  match walk "lib" with
  | [] -> "unknown"
  | files -> Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun f -> f ^ Digest.file f) files)))

let provenance o =
  [
    ("workload", o.workload.Workload.name);
    ("seed", string_of_int o.seed);
    ("traced", string_of_bool o.trace);
    ("commit", Option.value (command_line "git rev-parse HEAD") ~default:"unknown");
    ("source_digest", source_digest ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("ocamlrunparam", Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"");
    ("seconds", Printf.sprintf "%g" o.seconds);
  ]

let json_object kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) kvs) ^ "}"

(* ------------------------------------------------------------------ *)
(* The two modes.                                                      *)

type report = {
  outcome : Metric.outcome;
  extra : (string * float * string) list;
  self_times : (string * float) list;  (* traced only: self seconds per span name *)
  notes : string list;
}

let new_check () = { attempted = 0; failed = 0; notes = []; refs = Array.make subseeds None }

let finish ck values extra self_times =
  {
    outcome =
      { Metric.correct = ck.failed = 0; attempted = max 1 ck.attempted; failed = ck.failed; values };
    extra;
    self_times;
    notes = List.rev ck.notes;
  }

(* Set-up is a few milliseconds, so one run samples it many times over
   and reports the median. *)
let setup_samples = 30

let run_untraced o =
  let ck = new_check () in
  let ps =
    passes o ck ~budget_s:o.seconds ~min_passes:2 ~traced:false ~profile:false ~capture:false
      Workload.untraced
  in
  (* In reference-host seconds like the passes: the batch is bracketed
     by two probes. *)
  let setups =
    let before = Calibrate.probe () in
    let xs =
      List.init setup_samples (fun i ->
          Heap.fresh ();
          Workload.setup_sample ~scale:o.scale o.workload ~seed:(sub_seed o.seed (i mod subseeds)))
    in
    let host_s = (before +. Calibrate.probe ()) /. 2.0 in
    List.map (fun s -> s *. Calibrate.reference_s /. host_s) xs
  in
  finish ck (end_to_end ~setups ps) (extras ps ck) []

(* Round-trip, save, load and resume the captured checkpoint a few times
   for the codec latencies; a round trip that changes it is a failure. *)
let codec_spans o ck (sp : Span.t) (c : Checkpoint.t) =
  let path = Filename.concat o.tmp "campaign.ckpt" in
  for _ = 1 to 5 do
    let b = Span.record sp "Checkpoint.encode" (fun () -> Checkpoint.encode c) in
    let d = Span.record sp "Checkpoint.decode" (fun () -> Checkpoint.decode b) in
    if d <> c then fail ck 1 "checkpoint decode(encode c) differs from c";
    (match Span.record sp "Checkpoint.save" (fun () -> Checkpoint.save path c) with
    | Ok () -> ()
    | Error m -> fail ck 1 "Checkpoint.save: %s" m);
    (match Span.record sp "Checkpoint.load" (fun () -> Checkpoint.load path) with
    | Ok l -> if l <> c then fail ck 1 "checkpoint load(save c) differs from c"
    | Error m -> fail ck 1 "Checkpoint.load: %s" m);
    ignore
      (Span.record sp "Campaign.resume_inst" (fun () ->
           Campaign.resume_inst c (Workload.entry o.workload)))
  done

let run_traced o =
  let ck = new_check () in
  let untraced =
    passes o ck ~budget_s:(0.35 *. o.seconds) ~min_passes:1 ~traced:false ~profile:false
      ~capture:false Workload.untraced
  in
  let spans = Span.create () in
  let gc = Gc_trace.create () in
  let tr =
    {
      Workload.span = (fun ?exec name f -> Span.record spans ?exec name f);
      poll = (fun () -> Gc_trace.poll gc);
    }
  in
  Gc_trace.poll gc;
  let gc_before = Gc_trace.totals gc and wait0 = Gc_trace.worker_wait_s gc in
  let traced_passes =
    passes o ck ~budget_s:(0.35 *. o.seconds) ~min_passes:1 ~traced:true ~profile:true
      ~capture:true tr
  in
  Gc_trace.stop gc;
  let gc_after = Gc_trace.totals gc and wait_s = Gc_trace.worker_wait_s gc -. wait0 in
  (* The replay's corpus: the traced capture, or for a fleet (whose
     instances cannot be captured from outside [Fleet.run]) a standalone
     campaign with instance 0's configuration. *)
  let capture =
    match List.find_map (fun (r : Workload.run) -> r.ckpt) (runs_of traced_passes) with
    | Some c -> Some c
    | None -> (
      match
        Workload.run_single ~scale:o.scale ~capture:true o.workload ~seed:(sub_seed o.seed 0)
          ~profile:false Workload.untraced
      with
      | r -> r.ckpt
      | exception e ->
        fail ck 1 "replay source campaign raised %s" (Printexc.to_string e);
        None)
  in
  let replay =
    Option.map
      (fun c ->
        codec_spans o ck spans c;
        Replay.run o.workload c ~seed:o.seed ~budget_s:(0.2 *. o.seconds)
          ~min_rounds:(max 4 (int_of_float (40.0 *. o.scale))) spans)
      capture
  in
  let t =
    { untraced; traced_passes; gc_before; gc_after; wait_s; spans; replay }
  in
  (match o.out_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (o.workload.Workload.name ^ ".trace.jsonl") in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc (json_object (("record", "provenance") :: provenance o) ^ "\n");
        Span.write_jsonl spans oc;
        Gc_trace.write_jsonl gc oc);
    Printf.eprintf "perfbench: trace written to %s (%d spans, %d GC events lost)\n%!" path
      spans.Span.len (Gc_trace.lost gc));
  let self =
    Span.self_by_name spans
    @ [
        ("gc-minor (all domains)", gc_after Gc_trace.Minor -. gc_before Gc_trace.Minor);
        ("gc-major (all domains)", gc_after Gc_trace.Major -. gc_before Gc_trace.Major);
      ]
  in
  finish ck (per_layer o t) (extras traced_passes ck) self

let run o = if o.trace then run_traced o else run_untraced o

let print o r =
  Printf.printf "perfbench %s seed=%d trace=%d\n" o.workload.Workload.name o.seed
    (if o.trace then 1 else 0);
  Printf.printf "provenance %s\n" (json_object (provenance o));
  Format.printf "%s metrics:@." (if o.trace then "per-layer" else "end-to-end");
  Metric.pp_table Format.std_formatter r.outcome.Metric.values;
  List.iter (fun (n, v, u) -> Format.printf "  %-40s %16.6g %s@." n v u) r.extra;
  if r.self_times <> [] then begin
    Format.printf "self time per span (s):@.";
    List.iter (fun (n, s) -> Format.printf "  %-40s %12.6f@." n s) r.self_times
  end;
  Format.printf "correctness: %s@."
    (if r.notes = [] then "ok" else String.concat "; " r.notes);
  Format.print_flush ();
  print_endline (Metric.result_line r.outcome)
