(* The benchmark's metric catalogue and its output line.

   [end_to_end] and [per_layer] are the single source of the names and
   units printed; BENCHMARK.json must list the same metrics (the
   benchmark's tests compare them). *)

type better = Higher | Lower
type spec = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* What a user of the fuzzer sees, measured with tracing off. *)
let end_to_end =
  [
    m "execs_per_wall_s" "1/s" Higher;
    m "setup_s" "s" Lower;
    m "minor_words_per_exec" "words" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "execs_per_virtual_s" "1/s" Higher;
    m "final_edges" "count" Higher;
  ]

(* One layer each, measured by the traced run from outside the layer. *)
let per_layer =
  let exec op =
    [
      m (Printf.sprintf "executor.%s.calls" op) "count" Higher;
      m (Printf.sprintf "executor.%s.wall_us_p50" op) "us" Lower;
      m (Printf.sprintf "executor.%s.wall_us_p99" op) "us" Lower;
      m (Printf.sprintf "executor.%s.words_per_call" op) "words" Lower;
    ]
  in
  List.concat
    [
      exec "run_suffix";
      exec "run_full";
      exec "start_session";
      [
        m "snapshot.root_restores" "count" Lower;
        m "snapshot.incremental_restores" "count" Higher;
        m "snapshot.incremental_created" "count" Lower;
        m "snapshot.remirrors" "count" Lower;
        m "snapshot.create.pages_per_call" "pages" Lower;
        m "snapshot.reset.wall_s" "s" Lower;
        m "snapshot.create.wall_s" "s" Lower;
        m "interp.suffix_exec.wall_s" "s" Lower;
        m "interp.prefix_replay.wall_s" "s" Lower;
        m "interp.prefix_replay.virtual_share" "ratio" Lower;
        m "mutation_engine.mutate.wall_us_p50" "us" Lower;
        m "mutation_engine.mutate.wall_us_p99" "us" Lower;
        m "mutation_engine.mutate.words_per_call" "words" Lower;
        m "mutation_engine.wall_s" "s" Lower;
        m "mutation_engine.accept_ratio" "ratio" Higher;
        m "mutation_engine.reject_ratio" "ratio" Lower;
        m "mutation_engine.typed_share" "ratio" Higher;
        m "policy.probes" "count" Lower;
        m "policy.probe_hashes" "count" Lower;
        m "policy.probe_hashes_skipped" "count" Higher;
        m "policy.moves" "count" Lower;
        m "policy.boundaries" "count" Higher;
        m "policy.place.wall_s" "s" Lower;
        m "policy.place.virtual_share" "ratio" Lower;
        m "policy.state_boundaries.wall_us_p50" "us" Lower;
        m "coverage.merge.wall_s" "s" Lower;
        m "coverage.novel_ratio" "ratio" Higher;
        m "corpus.size" "count" Higher;
        m "corpus.schedule.wall_us_p50" "us" Lower;
        m "corpus.add.wall_us_p50" "us" Lower;
        m "campaign.step.wall_ms_p50" "ms" Lower;
        m "campaign.step.wall_ms_p99" "ms" Lower;
        m "campaign.unattributed.wall_s" "s" Lower;
        m "fleet.epochs" "count" Higher;
        m "fleet.sync.wall_s" "s" Lower;
        m "fleet.sync.virtual_share" "ratio" Lower;
        m "fleet.import_ratio" "ratio" Higher;
        m "fleet.domain_busy_share" "ratio" Higher;
        m "fleet.barrier_wait_s" "s" Lower;
        m "fleet.instance_execs_per_wall_s" "1/s" Higher;
        m "fleet.modeled_speedup" "ratio" Higher;
        m "checkpoint.writes" "count" Lower;
        m "checkpoint.bytes" "bytes" Lower;
        m "checkpoint.encode.wall_ms_p50" "ms" Lower;
        m "checkpoint.decode.wall_ms_p50" "ms" Lower;
        m "checkpoint.save.wall_ms_p50" "ms" Lower;
        m "checkpoint.resume.wall_ms" "ms" Lower;
        m "peer.actions" "count" Higher;
        m "peer.desync_ratio" "ratio" Lower;
        m "peer.restarts" "count" Lower;
        m "peer.quarantines" "count" Lower;
        m "peer.wall_s" "s" Lower;
        m "peer.backoff_virtual_share" "ratio" Lower;
        m "resilience.injected" "count" Higher;
        m "resilience.recovered" "count" Higher;
        m "resilience.aborted" "count" Lower;
        m "resilience.recovery_per_exec" "ratio" Lower;
        m "gc.minor_collections" "count" Lower;
        m "gc.major_collections" "count" Lower;
        m "gc.promoted_words_per_exec" "words" Lower;
        m "gc.minor.wall_s" "s" Lower;
        m "gc.major.wall_s" "s" Lower;
        m "gc.wall_share" "ratio" Lower;
        m "trace_overhead" "ratio" Lower;
        m "trace.unattributed_share" "ratio" Lower;
      ];
    ]

let better_name = function Higher -> "higher" | Lower -> "lower"

(* A finite JSON number with every digit the float carries. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (spec * float) list;
}

(* The machine-readable last line of stdout. *)
let result_line o =
  let metrics =
    List.map
      (fun (s, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (json_number v)
          s.unit_)
      o.values
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " metrics)

(* Human-readable table for the lines before the result. *)
let pp_table ppf values =
  List.iter
    (fun (s, v) ->
      Format.fprintf ppf "  %-40s %16.6g %-6s (%s is better)@." s.name v s.unit_
        (better_name s.better))
    values
