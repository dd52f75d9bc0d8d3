(* §5.3 parallel fleets: N instances share an immutable root snapshot and
   differ only in their RNG seed. Each instance owns its virtual clock,
   VM and corpus, so instances fan out across domains (Nyx_parallel.Pool);
   results are merged in submission order, making the outcome identical
   whatever NYX_DOMAINS says.

   Two modes:

   - Independent (sync off, the historical default): instances never
     communicate. The supervisor (ISSUE: nyx_resilience) restarts an
     instance that dies with an exception after a capped exponential
     virtual-time backoff, up to [max_restarts] retries, then quarantines
     it and reports partial results.

   - Shared-corpus (ISSUE: corpus-sync epochs): instances run their own
     campaigns but pause at periodic virtual-clock barriers (every
     [sync_ns]); at each barrier, in instance-index order, the
     coordinator drains the programs that grew each instance's corpus,
     judges them against a fleet-wide virgin map via the O(touched)
     saved-journal merge, and rebroadcasts the fleet-novel ones to every
     other live instance. All cross-instance communication happens at
     barriers on the coordinator, so the fleet is bit-reproducible at any
     NYX_DOMAINS and any Pool batch size. *)

module Coverage = Nyx_targets.Coverage
module Pool = Nyx_parallel.Pool

type sync_epoch = {
  se_epoch : int;
  se_at_ns : int;
  se_exports : int;
  se_broadcast : int;
  se_imports : int;
  se_union_edges : int;
  se_total_execs : int;
}

type outcome = {
  instances : int;
  first_solve_ns : int option;
  solves : int;
  total_execs : int;
  restarts : int;
  quarantined : int;
  results : Report.campaign_result list;
  wall_s : float; (* real wall-clock for the whole fleet *)
  domains : int;
  union_edges : int option;
  sync_epochs : sync_epoch list;
  work_ns : int;
  makespan_ns : int;
}

(* Mirror of Pool.resolve: the worker count the pool will actually use,
   needed up front for the makespan model and the outcome report. *)
let resolved_domains = function
  | Some d when d >= 1 -> min d Pool.max_domains
  | Some _ -> 1
  | None -> Pool.default_domains ()

(* Simulated fleet makespan: greedy list-scheduling of per-instance
   virtual-time segments onto [workers] identical workers (longest-
   processing-time order is NOT used — segments arrive in instance order,
   matching what a real dispatcher sees). With one worker this is the
   serial sum; the deterministic speedup the bench gates on is
   work_ns / makespan_ns, which honestly degrades under imbalance
   (stragglers, early finishers, tiny epochs). *)
let parallel_span ~workers segs =
  if workers <= 1 then List.fold_left ( + ) 0 segs
  else begin
    let load = Array.make workers 0 in
    List.iter
      (fun s ->
        let m = ref 0 in
        for w = 1 to workers - 1 do
          if load.(w) < load.(!m) then m := w
        done;
        load.(!m) <- load.(!m) + s)
      segs;
    Array.fold_left max 0 load
  end

(* The outcome over the surviving instances' results; the mode-specific
   fields come from the caller. *)
let outcome ~instances ~workers ~restarts ~quarantined ~union_edges ~sync_epochs
    ~work_ns ~makespan_ns t0 results =
  let solve_times = List.filter_map (fun r -> r.Report.solved_ns) results in
  {
    instances;
    first_solve_ns =
      (match solve_times with
      | [] -> None
      | ts -> Some (List.fold_left min max_int ts));
    solves = List.length solve_times;
    total_execs = List.fold_left (fun acc r -> acc + r.Report.execs) 0 results;
    restarts;
    quarantined;
    results;
    wall_s = Nyx_parallel.Wall.now_s () -. t0;
    domains = workers;
    union_edges;
    sync_epochs;
    work_ns;
    makespan_ns;
  }

let exn_brief exn =
  match Printexc.to_string exn with
  | s when String.length s > 200 -> String.sub s 0 200 ^ "..."
  | s -> s

let derived_configs ~instances ~config =
  List.init instances (fun i ->
      (i, { config with Campaign.seed = config.Campaign.seed + (1000 * i) }))

(* The fleet span is written once, as the fleet ends, so a run that
   raises leaves nothing open. A fleet has no clock of its own: it spans
   virtual time 0 to its furthest instance's clock. *)
let trace_fleet ~instances ~sync_ns entry ~wall0 outcome =
  if Nyx_obs.Trace.on () then begin
    Nyx_obs.Trace.complete "fleet" ~vns:0
      ~dur:(List.fold_left (fun m r -> max m r.Report.virtual_ns) 0 outcome.results)
      ~depth:0 ~wall:wall0
      [
        ( "target",
          Nyx_obs.Trace.Str
            entry.Nyx_targets.Registry.target.Nyx_targets.Target.info
              .Nyx_targets.Target.name );
        ("instances", Nyx_obs.Trace.Int instances);
        ("sync_ns", Nyx_obs.Trace.Int (Option.value ~default:0 sync_ns));
        ("solves", Nyx_obs.Trace.Int outcome.solves);
        ("total_execs", Nyx_obs.Trace.Int outcome.total_execs);
        ( "first_solve_ns",
          Nyx_obs.Trace.Int (Option.value ~default:(-1) outcome.first_solve_ns) );
        ("restarts", Nyx_obs.Trace.Int outcome.restarts);
        ("quarantined", Nyx_obs.Trace.Int outcome.quarantined);
      ];
    Nyx_obs.Trace.flush ()
  end;
  outcome

(* ------------------------------------------------------------------ *)
(* Independent mode (sync off): the historical supervised fleet.       *)

let backoff_base_ns = 1_000_000_000
let backoff_cap_ns = 60_000_000_000

(* Run one instance under supervision. Never raises: the pool's
   cancel-on-first-error contract must not see instance failures.
   Returns (survivor result if any, restarts used, total backoff_ns). *)
let supervise ~max_restarts ~run_one idx cfg =
  let rec go attempt backoff_ns =
    match run_one cfg with
    | result -> (Some result, attempt, backoff_ns)
    | exception exn ->
      if attempt >= max_restarts then begin
        Printf.eprintf
          "nyx: fleet instance %d (seed %d) failed (%s); quarantined after %d \
           restarts\n\
           %!"
          idx cfg.Campaign.seed (exn_brief exn) attempt;
        (None, attempt, backoff_ns)
      end
      else begin
        let d =
          Nyx_resilience.Backoff.delay_ns ~base_ns:backoff_base_ns ~cap_ns:backoff_cap_ns
            ~attempt
        in
        Printf.eprintf
          "nyx: fleet instance %d (seed %d) failed (%s); restarting (attempt \
           %d/%d) after %d ns backoff\n\
           %!"
          idx cfg.Campaign.seed (exn_brief exn) (attempt + 1) max_restarts d;
        go (attempt + 1) (backoff_ns + d)
      end
  in
  go 0 0

(* Fold the supervisor's bookkeeping into the survivor's resilience
   block, so per-instance reports carry their own restart history. *)
let amend_result (r : Report.campaign_result) ~restarts ~backoff_ns =
  if restarts = 0 then r
  else
    let base =
      match r.Report.resilience with
      | Some b -> b
      | None ->
        {
          Report.faults_injected = 0;
          faults_recovered = 0;
          faults_aborted = 0;
          restarts = 0;
          quarantined = false;
          backoff_ns = 0;
        }
    in
    { r with Report.resilience = Some { base with Report.restarts; backoff_ns } }

let run_independent ~instances ~workers ~max_restarts ~run_instance ~peer
    ~peer_faults ~profile ~config entry t0 =
  let run_one =
    match run_instance with
    | Some f -> f
    | None -> fun cfg -> Campaign.run ?peer ?peer_faults ~profile cfg entry
  in
  let raw =
    Pool.map_list ~domains:workers
      (fun (i, cfg) -> supervise ~max_restarts ~run_one i cfg)
      (derived_configs ~instances ~config)
  in
  let restarts = List.fold_left (fun acc (_, r, _) -> acc + r) 0 raw in
  let quarantined =
    List.fold_left
      (fun acc (res, _, _) -> if res = None then acc + 1 else acc)
      0 raw
  in
  let results =
    List.filter_map
      (fun (res, restarts, backoff_ns) ->
        Option.map (amend_result ~restarts ~backoff_ns) res)
      raw
  in
  let segs = List.map (fun r -> r.Report.virtual_ns) results in
  outcome ~instances ~workers ~restarts ~quarantined ~union_edges:None
    ~sync_epochs:[] ~work_ns:(List.fold_left ( + ) 0 segs)
    ~makespan_ns:(parallel_span ~workers segs) t0 results

(* ------------------------------------------------------------------ *)
(* Shared-corpus mode: sync epochs on the virtual clock.               *)

type checkpoint_cfg = {
  fc_path : string;
  fc_every : int;  (* epochs between checkpoint writes *)
  fc_on_write : (int -> unit) option;
}

let checkpointing ?on_write ~path ~every_epochs () =
  if every_epochs <= 0 then
    invalid_arg "Fleet.checkpointing: every_epochs must be positive";
  { fc_path = path; fc_every = every_epochs; fc_on_write = on_write }

(* A slot holds what boots its instance (['i]: a config, or a checkpoint
   on resume) until the boot fan-out swaps in the live instance; [inst]
   is [None] once the slot is quarantined. *)
type 'i slot = {
  idx : int;
  mutable inst : 'i option;
  mutable prev_ns : int; (* clock at the last segment accounting *)
}

type 'i sync_state = {
  slots : 'i slot array;
  union : Coverage.Cumulative.t;
  sync_ns : int;
  sync_import : bool;
  mutable epoch : int;
  mutable rows : sync_epoch list; (* newest first *)
  mutable work_ns : int;
  mutable makespan_ns : int;
  mutable ck_ordinal : int;
}

(* Fleet checkpoint format: a synced fleet at a barrier, each live slot
   carrying its campaign checkpoint body, framed as "NYXFLT2" + CRC-32. *)

let fleet_magic = "NYXFLT2"

let fleet_codec : Checkpoint.t sync_state Codec.codec =
  let open Codec in
  let row =
    record
      (fun se_epoch se_at_ns se_exports se_broadcast se_imports se_union_edges
           se_total_execs ->
        { se_epoch; se_at_ns; se_exports; se_broadcast; se_imports; se_union_edges;
          se_total_execs })
    @@ field (fun r -> r.se_epoch) int
    @@ field (fun r -> r.se_at_ns) int
    @@ field (fun r -> r.se_exports) int
    @@ field (fun r -> r.se_broadcast) int
    @@ field (fun r -> r.se_imports) int
    @@ field (fun r -> r.se_union_edges) int
    @@ field (fun r -> r.se_total_execs) int
    @@ fields_end
  in
  let slot =
    record (fun idx inst prev_ns -> { idx; inst; prev_ns })
    @@ field (fun s -> s.idx) int
    @@ field (fun s -> s.inst) (option Checkpoint.codec)
    @@ field (fun s -> s.prev_ns) int
    @@ fields_end
  in
  let union =
    conv Coverage.Cumulative.state_bytes
      (fun b ->
        let u = Coverage.Cumulative.create () in
        Coverage.Cumulative.load_state u b;
        u)
      bytes
  in
  record (fun slots union sync_ns sync_import epoch rows work_ns makespan_ns ck_ordinal ->
      { slots; union; sync_ns; sync_import; epoch; rows; work_ns; makespan_ns; ck_ordinal })
  @@ field (fun st -> st.slots) (array slot)
  @@ field (fun st -> st.union) union
  @@ field (fun st -> st.sync_ns) int
  @@ field (fun st -> st.sync_import) bool
  @@ field (fun st -> st.epoch) int
  @@ field (fun st -> st.rows) (list row)
  @@ field (fun st -> st.work_ns) int
  @@ field (fun st -> st.makespan_ns) int
  @@ field (fun st -> st.ck_ordinal) int
  @@ fields_end

let write_fleet_checkpoint st ck =
  let image =
    {
      st with
      slots =
        Array.map
          (fun s -> { s with inst = Option.map Campaign.checkpoint_now s.inst })
          st.slots;
    }
  in
  st.ck_ordinal <-
    Checkpoint.write_periodic ~event:"fleet-checkpoint" ~path:ck.fc_path
      ~vns:(st.epoch * st.sync_ns) ~ordinal:st.ck_ordinal
      ~detail:("epoch", st.epoch) ~on_write:ck.fc_on_write
      (Codec.frame ~magic:fleet_magic fleet_codec image)

let slot_unfinished s =
  match s.inst with Some i -> not (Campaign.finished i) | None -> false

let any_unfinished st = Array.exists slot_unfinished st.slots

(* One sync barrier, sequentially on the coordinator in instance-index
   order: drain exports, judge them against the fleet union map, charge
   the exporters, rebroadcast fleet-novel programs to the other live
   instances. Returns the epoch's row. *)
let barrier st ~until =
  let n_exports = ref 0 in
  let n_imports = ref 0 in
  let broadcast = ref [] in
  Array.iter
    (fun s ->
      match s.inst with
      | None -> ()
      | Some i -> (
        match Campaign.drain_exports i with
        | [] -> ()
        | es ->
          let progs = ref 0 and cells = ref 0 in
          List.iter
            (fun (e : Campaign.export) ->
              incr progs;
              cells := !cells + e.Campaign.ex_cells;
              incr n_exports;
              if Coverage.Cumulative.merge_saved st.union e.Campaign.ex_cov
              then broadcast := (s.idx, e) :: !broadcast)
            es;
          (* The exporter pays for the fleet-map novelty judging of its
             own candidates; in observer mode (sync_import = false) the
             union merge is pure bookkeeping and charges nothing, so the
             observed fleet behaves exactly like a stepped independent
             one. *)
          if st.sync_import && not (Campaign.finished i) then
            Campaign.sync_charge i ~programs:!progs ~cells:!cells))
    st.slots;
  let broadcast = List.rev !broadcast in
  if st.sync_import then
    Array.iter
      (fun s ->
        match s.inst with
        | Some i when not (Campaign.finished i) ->
          List.iter
            (fun (j, e) ->
              if j <> s.idx && Campaign.import i e then incr n_imports)
            broadcast
        | _ -> ())
      st.slots;
  {
    se_epoch = st.epoch;
    se_at_ns = until;
    se_exports = !n_exports;
    se_broadcast = List.length broadcast;
    se_imports = !n_imports;
    se_union_edges = Coverage.Cumulative.edge_count st.union;
    se_total_execs =
      Array.fold_left
        (fun t s ->
          match s.inst with Some i -> t + Campaign.execs i | None -> t)
        0 st.slots;
  }

(* Polymorphic fan-out over the fleet's persistent pool (used at several
   element types: boots, steps), hence the polymorphic record field. *)
type mapper = { fmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

(* The epoch loop shared by [run ~sync_ns] and [resume]. [fleet_map]
   fans the step tasks out (persistent pool or sequential). *)
let drive st ~fleet_map ~workers ~checkpoint =
  while any_unfinished st do
    st.epoch <- st.epoch + 1;
    let until = st.epoch * st.sync_ns in
    let stepping =
      Array.of_list
        (List.filter
           (fun s ->
             match s.inst with
             | Some i -> not (Campaign.finished i) && Campaign.clock_ns i < until
             | None -> false)
           (Array.to_list st.slots))
    in
    (* Steps never raise into the pool: a dying instance is quarantined
       at the barrier (deterministic failures would only recur on
       restart, so sync mode skips the supervisor's retry loop). *)
    let errors =
      fleet_map.fmap
        (fun s ->
          match s.inst with
          | Some i -> ( try Campaign.step i ~until_ns:until; None with e -> Some e)
          | None -> None)
        stepping
    in
    Array.iteri
      (fun k err ->
        match err with
        | Some exn ->
          let s = stepping.(k) in
          Printf.eprintf
            "nyx: fleet instance %d failed (%s); quarantined at sync epoch %d\n%!"
            s.idx (exn_brief exn) st.epoch;
          s.inst <- None
        | None -> ())
      errors;
    (* Segment accounting: everything each live instance's clock advanced
       since the previous barrier (step work plus the import/judge costs
       charged at that barrier) is one schedulable segment. *)
    let segs =
      Array.to_list st.slots
      |> List.filter_map (fun s ->
             match s.inst with
             | Some i ->
               let c = Campaign.clock_ns i in
               let d = c - s.prev_ns in
               s.prev_ns <- c;
               Some d
             | None -> None)
    in
    st.work_ns <- st.work_ns + List.fold_left ( + ) 0 segs;
    st.makespan_ns <- st.makespan_ns + parallel_span ~workers segs;
    let wall0 = Nyx_parallel.Wall.now_s () in
    let row = barrier st ~until in
    st.rows <- row :: st.rows;
    (* The barrier takes no fleet virtual time: the epoch is a zero-length
       span at [until]. *)
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.complete "sync-epoch" ~vns:until ~dur:0 ~depth:0 ~wall:wall0
        [
          ("epoch", Nyx_obs.Trace.Int st.epoch);
          ("stepped", Nyx_obs.Trace.Int (Array.length stepping));
          ("exports", Nyx_obs.Trace.Int row.se_exports);
          ("broadcast", Nyx_obs.Trace.Int row.se_broadcast);
          ("imports", Nyx_obs.Trace.Int row.se_imports);
          ("union_edges", Nyx_obs.Trace.Int row.se_union_edges);
        ];
    match checkpoint with
    | Some ck when st.epoch mod ck.fc_every = 0 && any_unfinished st ->
      write_fleet_checkpoint st ck
    | _ -> ()
  done;
  (* Final drain: when every instance finished before the first barrier
     (tiny budgets), exports discovered during seeding still reach the
     union map. In the normal flow the last barrier already drained
     everything and this is a no-op. *)
  Array.iter
    (fun s ->
      match s.inst with
      | Some i ->
        List.iter
          (fun (e : Campaign.export) ->
            ignore (Coverage.Cumulative.merge_saved st.union e.Campaign.ex_cov))
          (Campaign.drain_exports i)
      | None -> ())
    st.slots

let finalize_sync st ~instances ~workers t0 =
  let quarantined =
    Array.fold_left (fun n s -> if s.inst = None then n + 1 else n) 0 st.slots
  in
  outcome ~instances ~workers ~restarts:0 ~quarantined
    ~union_edges:(Some (Coverage.Cumulative.edge_count st.union))
    ~sync_epochs:(List.rev st.rows) ~work_ns:st.work_ns
    ~makespan_ns:st.makespan_ns t0
    (Array.to_list st.slots |> List.filter_map (fun s -> Option.map Campaign.finalize s.inst))

(* Persistent pool for the whole synced run: worker domains are spawned
   once and reused across every epoch (batched submission amortizes the
   wake-ups within an epoch). *)
let with_fleet_pool ~workers ~instances ~batch f =
  if workers > 1 && instances > 1 then
    Pool.with_pool ~domains:(min workers instances) (fun pool ->
        f { fmap = (fun g arr -> Pool.map_pool pool ~batch g arr) })
  else f { fmap = (fun g arr -> Array.map g arr) }

(* The synced fleet, fresh or resumed: boot every slot in parallel (pure
   per slot, so the fan-out cannot perturb determinism; a failing boot
   quarantines the slot), then drive the epochs to the end. The two
   callers differ only in what a slot holds and how [boot] starts it. *)
let run_synced ~workers ~batch ~checkpoint ~boot (st : _ sync_state) entry t0 =
  let instances = Array.length st.slots in
  let batch =
    match batch with
    | Some b when b >= 1 -> b
    | Some _ | None -> max 1 (instances / max 1 workers)
  in
  let live =
    with_fleet_pool ~workers ~instances ~batch (fun fleet_map ->
        let boots =
          fleet_map.fmap
            (fun s ->
              match s.inst with
              | None -> None
              | Some x -> (
                try Some (boot x)
                with exn ->
                  Printf.eprintf
                    "nyx: fleet instance %d boot failed (%s); quarantined\n%!"
                    s.idx (exn_brief exn);
                  None))
            st.slots
        in
        let live =
          { st with slots = Array.map2 (fun s inst -> { s with inst }) st.slots boots }
        in
        drive live ~fleet_map ~workers ~checkpoint;
        live)
  in
  finalize_sync live ~instances ~workers t0
  |> trace_fleet ~instances ~sync_ns:(Some st.sync_ns) entry ~wall0:t0

(* ------------------------------------------------------------------ *)

let run ?(instances = 52) ?domains ?(max_restarts = 3) ?run_instance ?peer
    ?peer_faults ?(profile = false) ?sync_ns ?(sync_import = true) ?batch
    ?checkpoint ~config entry =
  let t0 = Nyx_parallel.Wall.now_s () in
  let workers = resolved_domains domains in
  match sync_ns with
  | None ->
    if checkpoint <> None then
      invalid_arg "Fleet.run: ~checkpoint requires ~sync_ns";
    run_independent ~instances ~workers ~max_restarts ~run_instance ~peer ~peer_faults
      ~profile ~config entry t0
    |> trace_fleet ~instances ~sync_ns entry ~wall0:t0
  | Some s when s <= 0 -> invalid_arg "Fleet.run: sync_ns must be positive"
  | Some sync_ns ->
    if run_instance <> None then
      invalid_arg "Fleet.run: ~run_instance is independent-mode only";
    let st =
      {
        slots =
          Array.of_list
            (List.map
               (fun (idx, cfg) -> { idx; inst = Some cfg; prev_ns = 0 })
               (derived_configs ~instances ~config));
        union = Coverage.Cumulative.create ();
        sync_ns;
        sync_import;
        epoch = 0;
        rows = [];
        work_ns = 0;
        makespan_ns = 0;
        ck_ordinal = 0;
      }
    in
    run_synced ~workers ~batch ~checkpoint st entry t0 ~boot:(fun cfg ->
        Campaign.start ?peer ?peer_faults ~profile ~collect_exports:true cfg entry)

let resume ?domains ?batch ?(profile = false) ?checkpoint ~path entry =
  let t0 = Nyx_parallel.Wall.now_s () in
  let st =
    match Nyx_resilience.Atomic_io.read_file path with
    | Error m -> invalid_arg ("Fleet.resume: " ^ m)
    | Ok buf -> (
      try Codec.unframe ~magic:fleet_magic fleet_codec buf
      with Codec.Corrupt m ->
        invalid_arg (Printf.sprintf "Fleet.resume: %s: %s" path m))
  in
  run_synced ~workers:(resolved_domains domains) ~batch ~checkpoint st entry t0
    ~boot:(fun ckpt -> Campaign.resume_inst ~profile ~collect_exports:true ckpt entry)
