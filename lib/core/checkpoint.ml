(* Crash-safe campaign checkpoints.

   A checkpoint captures the deterministic state a campaign needs to
   continue exactly where it left off: configuration, virtual clock, RNG
   states, corpus, cumulative coverage, crash log, snapshot-engine shape
   and (when armed) the fault plan. Guest memory, disk overlays and
   device state are deliberately absent — they are reconstructed by
   re-booting the target (deterministic) plus the engine's observable
   state (see Engine.persisted); page contents are always overwritten
   before the resumed run can read them.

   Format v2: the "NYXCKP2" magic, the body declared by [codec] below
   (flat big-endian, int64 for every integer and length), and a CRC-32
   of the body (Codec.frame). The body layout is v1's unchanged; v1 files
   (no CRC) are rejected by their magic. Files are written via Atomic_io
   (tmp + rename), so a crash mid-write never corrupts the previous
   checkpoint. *)

let magic = "NYXCKP2"

type corpus_entry = {
  ce_program : bytes;  (* Program.serialize *)
  ce_exec_ns : int;
  ce_discovered_ns : int;
  ce_state_code : int;
}

type crash = {
  cr_kind : string;
  cr_detail : string;
  cr_found_ns : int;
  cr_found_exec : int;
  cr_input : bytes;
}

type t = {
  (* configuration (the resumed run validates/reuses it) *)
  c_policy : string;
  c_budget_ns : int;
  c_max_execs : int;
  c_seed : int;
  c_asan : bool;
  c_stop_on_solve : bool;
  c_trim : bool;
  c_sample_interval_ns : int;
  c_target : string;
  (* progress *)
  c_clock_ns : int;
  c_execs : int;
  c_last_sample : int;
  c_solved_ns : int option;
  (* randomness *)
  c_sched_rng : int64;
  c_mut_rng : int64;
  c_policy_state : Policy.state;
  (* discovered state *)
  c_corpus : corpus_entry list;  (* oldest first: ids re-assign in order *)
  c_virgin : bytes;  (* cumulative coverage map *)
  c_timeline : (int * int64) list;  (* oldest first; values as float bits *)
  c_crashes : crash list;  (* newest first, as the campaign stores them *)
  c_engine : Nyx_snapshot.Engine.persisted;
  (* derived-at-setup state that must not be re-derived from seeds *)
  c_dict : bytes list;
  c_max_ops : int;
  (* mutation engine *)
  c_exec_timeline : (int * int64) list;  (* oldest first; values as float bits *)
  c_mut_engine : string;  (* Engines.name form *)
  c_mut_weights : (string * int64) list;  (* weight overrides; float bits *)
  c_mut_state : Nyx_spec.Mutation_engine.state;
  (* resilience *)
  c_faults : (string * Nyx_resilience.Plan.state) option;
  c_profile : Nyx_obs.Profile.state option;
  (* cooperating peer (--mode peer); None for bytecode campaigns *)
  c_peer : Nyx_peer.Peer_driver.state option;
}

(* ------------------------------------------------------------------ *)
(* The format: one declaration per type drives encode and decode.      *)

open Codec

let corpus_entry =
  record (fun ce_program ce_exec_ns ce_discovered_ns ce_state_code ->
      { ce_program; ce_exec_ns; ce_discovered_ns; ce_state_code })
  @@ field (fun e -> e.ce_program) bytes
  @@ field (fun e -> e.ce_exec_ns) int
  @@ field (fun e -> e.ce_discovered_ns) int
  @@ field (fun e -> e.ce_state_code) int
  @@ fields_end

let crash =
  record (fun cr_kind cr_detail cr_found_ns cr_found_exec cr_input ->
      { cr_kind; cr_detail; cr_found_ns; cr_found_exec; cr_input })
  @@ field (fun c -> c.cr_kind) string
  @@ field (fun c -> c.cr_detail) string
  @@ field (fun c -> c.cr_found_ns) int
  @@ field (fun c -> c.cr_found_exec) int
  @@ field (fun c -> c.cr_input) bytes
  @@ fields_end

(* A resume replays each timeline through [Timeline.record], which raises
   on a point earlier than the one before it. Times are virtual ns or exec
   counts, so they start at 0 and never go back; reject any other file
   here, before a campaign is built from it. *)
let timeline =
  let checked samples =
    ignore
      (List.fold_left
         (fun last (t, _) ->
           if t < last then
             raise (Corrupt (Printf.sprintf "timeline goes back from %d to %d" last t));
           t)
         0 samples);
    samples
  in
  conv Fun.id checked (list (pair int i64))

let dyn_state =
  let open Policy in
  record
    (fun ds_id ds_cands ds_stale ds_root_stale ds_genuine ds_probed ds_full_ns
         ds_setup_ns ds_round_ns ds_pages ds_meas_idx ds_cur ds_cooldown ds_moves ->
      { ds_id; ds_cands; ds_stale; ds_root_stale; ds_genuine; ds_probed; ds_full_ns;
        ds_setup_ns; ds_round_ns; ds_pages; ds_meas_idx; ds_cur; ds_cooldown; ds_moves })
  @@ field (fun d -> d.ds_id) int
  @@ field (fun d -> d.ds_cands) (list int)
  @@ field (fun d -> d.ds_stale) (list int)
  @@ field (fun d -> d.ds_root_stale) int
  @@ field (fun d -> d.ds_genuine) int
  @@ field (fun d -> d.ds_probed) bool
  @@ field (fun d -> d.ds_full_ns) int
  @@ field (fun d -> d.ds_setup_ns) int
  @@ field (fun d -> d.ds_round_ns) int
  @@ field (fun d -> d.ds_pages) int
  @@ field (fun d -> d.ds_meas_idx) int
  @@ field (fun d -> d.ds_cur) int
  @@ field (fun d -> d.ds_cooldown) int
  @@ field (fun d -> d.ds_moves) int
  @@ fields_end

(* The last int slot is unused; files from before the boundary prior was
   removed hold its skipped-hash count there. It is written as 0 and read
   and dropped, so the body layout and those files stay valid. *)
let policy_state =
  let open Policy in
  record (fun st_rng st_cursor st_dyn st_probes st_probe_hashes _probe_skipped ->
      { st_rng; st_cursor; st_dyn; st_probes; st_probe_hashes })
  @@ field (fun s -> s.st_rng) i64
  @@ field (fun s -> s.st_cursor) (list (pair int int))
  @@ field (fun s -> s.st_dyn) (list dyn_state)
  @@ field (fun s -> s.st_probes) int
  @@ field (fun s -> s.st_probe_hashes) int
  @@ field (fun _ -> 0) int
  @@ fields_end

let engine =
  let open Nyx_snapshot.Engine in
  let stats =
    record
      (fun root_restores incremental_creates incremental_restores pages_restored
           remirrors ->
        { root_restores; incremental_creates; incremental_restores; pages_restored;
          remirrors })
    @@ field (fun s -> s.root_restores) int
    @@ field (fun s -> s.incremental_creates) int
    @@ field (fun s -> s.incremental_restores) int
    @@ field (fun s -> s.pages_restored) int
    @@ field (fun s -> s.remirrors) int
    @@ fields_end
  in
  let fields =
    record (fun p_mirror p_creates_since_remirror p_stats p_dirty ->
        { p_mirror; p_creates_since_remirror; p_stats; p_dirty })
    @@ field (fun p -> p.p_mirror) (list int)
    @@ field (fun p -> p.p_creates_since_remirror) int
    @@ field (fun p -> p.p_stats) stats
    @@ field (fun p -> p.p_dirty) (list int)
    @@ fields_end
  in
  (* Campaigns run on the default fuzzing VM; pfns it cannot hold would
     fail or index out of bounds when the resumed engine applies them. *)
  let checked p =
    match check_persisted ~num_pages:Nyx_vm.Vm.fuzz_config.Nyx_vm.Vm.mem_pages p with
    | Ok () -> p
    | Error m -> raise (Corrupt ("engine: " ^ m))
  in
  conv Fun.id checked fields

let plan_state =
  let open Nyx_resilience.Plan in
  record (fun st_rng st_seq st_injected st_recovered ->
      { st_rng; st_seq; st_injected; st_recovered })
  @@ field (fun s -> s.st_rng) i64
  @@ field (fun s -> s.st_seq) int
  @@ field (fun s -> s.st_injected) (array int)
  @@ field (fun s -> s.st_recovered) (array int)
  @@ fields_end

let profile_state =
  let open Nyx_obs.Profile in
  record (fun ps_counts ps_virt -> { ps_counts; ps_virt })
  @@ field (fun s -> s.ps_counts) (array int)
  @@ field (fun s -> s.ps_virt) (array int)
  @@ fields_end

let peer_state =
  let open Nyx_peer.Peer_driver in
  record
    (fun pd_actions pd_fired pd_desyncs pd_restarts pd_quarantines pd_backoff_ns ->
      { pd_actions; pd_fired; pd_desyncs; pd_restarts; pd_quarantines; pd_backoff_ns })
  @@ field (fun s -> s.pd_actions) int
  @@ field (fun s -> s.pd_fired) (array int)
  @@ field (fun s -> s.pd_desyncs) int
  @@ field (fun s -> s.pd_restarts) int
  @@ field (fun s -> s.pd_quarantines) int
  @@ field (fun s -> s.pd_backoff_ns) int
  @@ fields_end

let mut_state =
  let open Nyx_spec.Mutation_engine in
  record (fun ms_name ms_attempts ms_rejected ms_accepts ms_credit ->
      { ms_name; ms_attempts; ms_rejected; ms_accepts; ms_credit })
  @@ field (fun m -> m.ms_name) string
  @@ field (fun m -> m.ms_attempts) int
  @@ field (fun m -> m.ms_rejected) int
  @@ field (fun m -> m.ms_accepts) int
  @@ field (fun m -> m.ms_credit) i64
  @@ fields_end

let codec =
  record
    (fun c_policy c_budget_ns c_max_execs c_seed c_asan c_stop_on_solve c_trim
         c_sample_interval_ns c_target c_clock_ns c_execs c_last_sample c_solved_ns
         c_sched_rng c_mut_rng c_policy_state c_corpus c_virgin c_timeline c_crashes
         c_engine c_dict c_max_ops c_exec_timeline c_mut_engine c_mut_weights
         c_mut_state c_faults c_profile c_peer ->
      { c_policy; c_budget_ns; c_max_execs; c_seed; c_asan; c_stop_on_solve; c_trim;
        c_sample_interval_ns; c_target; c_clock_ns; c_execs; c_last_sample;
        c_solved_ns; c_sched_rng; c_mut_rng; c_policy_state; c_corpus; c_virgin;
        c_timeline; c_crashes; c_engine; c_dict; c_max_ops; c_exec_timeline;
        c_mut_engine; c_mut_weights; c_mut_state; c_faults; c_profile; c_peer })
  @@ field (fun t -> t.c_policy) string
  @@ field (fun t -> t.c_budget_ns) int
  @@ field (fun t -> t.c_max_execs) int
  @@ field (fun t -> t.c_seed) int
  @@ field (fun t -> t.c_asan) bool
  @@ field (fun t -> t.c_stop_on_solve) bool
  @@ field (fun t -> t.c_trim) bool
  @@ field (fun t -> t.c_sample_interval_ns) int
  @@ field (fun t -> t.c_target) string
  @@ field (fun t -> t.c_clock_ns) int
  @@ field (fun t -> t.c_execs) int
  @@ field (fun t -> t.c_last_sample) int
  @@ field (fun t -> t.c_solved_ns) (option int)
  @@ field (fun t -> t.c_sched_rng) i64
  @@ field (fun t -> t.c_mut_rng) i64
  @@ field (fun t -> t.c_policy_state) policy_state
  @@ field (fun t -> t.c_corpus) (list corpus_entry)
  @@ field (fun t -> t.c_virgin) bytes
  @@ field (fun t -> t.c_timeline) timeline
  @@ field (fun t -> t.c_crashes) (list crash)
  @@ field (fun t -> t.c_engine) engine
  @@ field (fun t -> t.c_dict) (list bytes)
  @@ field (fun t -> t.c_max_ops) int
  @@ field (fun t -> t.c_exec_timeline) timeline
  @@ field (fun t -> t.c_mut_engine) string
  @@ field (fun t -> t.c_mut_weights) (list (pair string i64))
  @@ field (fun t -> t.c_mut_state) (list mut_state)
  @@ field (fun t -> t.c_faults) (option (pair string plan_state))
  @@ field (fun t -> t.c_profile) (option profile_state)
  @@ field (fun t -> t.c_peer) (option peer_state)
  @@ fields_end

exception Corrupt = Codec.Corrupt

let encode t = frame ~magic codec t
let decode data = unframe ~magic codec data

(* ------------------------------------------------------------------ *)
(* Files.                                                              *)

let save path t = Nyx_resilience.Atomic_io.write_file path (encode t)

let load path =
  match Nyx_resilience.Atomic_io.read_file path with
  | Error _ as e -> e
  | Ok data -> (
    match decode data with
    | t -> Ok t
    | exception Corrupt m -> Error (Printf.sprintf "%s: %s" path m))

let write_periodic ~event ~path ~vns ~ordinal ~detail:(key, value) ~on_write data =
  match Nyx_resilience.Atomic_io.write_file path data with
  | Ok () ->
    let ordinal = ordinal + 1 in
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.instant ~vns event
        [ ("ordinal", Nyx_obs.Trace.Int ordinal); (key, Nyx_obs.Trace.Int value) ];
    Option.iter (fun f -> f ordinal) on_write;
    ordinal
  | Error m ->
    (* Checkpointing is a safety net, not a dependency: keep fuzzing. *)
    Printf.eprintf "nyx: %s write failed (%s); continuing\n%!" event m;
    ordinal
