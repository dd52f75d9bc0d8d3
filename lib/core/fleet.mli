(** Parallel fuzzing simulation (§5.3's 52-core experiments), supervised,
    with optional shared-corpus sync epochs.

    The paper parallelizes Nyx-Net across physical cores with shared root
    snapshots; wall-clock time-to-result is then the minimum over the
    instances. We simulate a fleet by running [instances] campaigns with
    distinct seeds derived from [config.seed].

    Instances fan out across OCaml 5 domains via {!Nyx_parallel.Pool}
    (NYX_DOMAINS, or [?domains]). Each instance owns its clock, VM and
    RNG; all cross-instance communication happens at deterministic
    virtual-clock barriers in instance-index order on the coordinator, so
    the outcome is identical whatever the domain count or batch size.

    {2 Shared-corpus sync ([?sync_ns])}

    With [sync_ns] set, instances pause every [sync_ns] virtual
    nanoseconds at a sync barrier (driven by {!Campaign.step}). At each
    barrier the coordinator, in instance-index order:

    + drains each instance's coverage-novel exports (programs that grew
      its corpus, with the discovering execution's saved coverage map);
    + judges each export against a fleet-wide virgin map via the
      O(touched) saved-journal merge ({!Nyx_targets.Coverage.Cumulative.merge_saved})
      — no re-execution, no global lock on any hot path;
    + charges the exporter the judging cost and rebroadcasts fleet-novel
      programs to every other live instance, which adopts the ones novel
      against its own map ({!Campaign.import}), paying deterministic
      virtual time under the [Corpus_sync] profile phase.

    Sync epochs deduplicate the fleet's search: a program one instance
    discovered stops being re-discovered from scratch by the others,
    which is how AFL-style secondary instances share a corpus.

    [sync_import:false] is observer mode: the same epoch schedule and
    union-map bookkeeping, but no imports and no sync charges — the
    controlled "independent instances under identical stepping" baseline
    the dedup experiment in the bench compares against.

    {2 Determinism and makespan}

    Results are a pure function of (config, instances, sync schedule):
    [domains], [batch] and wall-clock never affect them. The outcome also
    reports a deterministic scaling model: [work_ns] (total virtual time
    across instances) and [makespan_ns], the simulated completion time of
    the per-epoch instance segments greedily list-scheduled onto
    [domains] workers with a barrier between epochs. [work_ns /
    makespan_ns] is the fleet speedup the bench gates on — it degrades
    honestly under imbalance (stragglers, early finishers, tiny epochs)
    and is reproducible on any host.

    {2 Supervision}

    Sync off: a campaign that dies with an exception is restarted with
    the same config after a capped exponential virtual-time backoff (base
    1 s, cap 60 s), up to [max_restarts] retries, then quarantined; the
    fleet returns partial results from the survivors (see PR 5).

    Sync on: failures are deterministic, so a dying instance is
    quarantined at the next barrier without retries; the fleet continues
    with the survivors. *)

type sync_epoch = {
  se_epoch : int;  (** 1-based epoch ordinal *)
  se_at_ns : int;  (** barrier virtual time ([epoch * sync_ns]) *)
  se_exports : int;  (** programs drained across instances *)
  se_broadcast : int;  (** fleet-novel exports rebroadcast to peers *)
  se_imports : int;  (** adoptions by peers (novel against their maps) *)
  se_union_edges : int;  (** fleet union map edges after the barrier *)
  se_total_execs : int;  (** summed execs of live instances *)
}

type outcome = {
  instances : int;
  first_solve_ns : int option;
      (** earliest virtual solve time across surviving instances *)
  solves : int;  (** how many instances solved within their budget *)
  total_execs : int;  (** summed over survivors *)
  restarts : int;  (** supervisor restarts (independent mode only) *)
  quarantined : int;
      (** instances that died; [results] omits them, so
          [List.length results = instances - quarantined] *)
  results : Report.campaign_result list;
      (** per-survivor results in instance order *)
  wall_s : float;
      (** real wall-clock for the whole fleet; informational only *)
  domains : int;  (** resolved worker count the fleet ran on *)
  union_edges : int option;
      (** fleet union coverage (sync modes only; [None] when sync off) *)
  sync_epochs : sync_epoch list;  (** oldest first; [[]] when sync off *)
  work_ns : int;  (** total virtual work across instances *)
  makespan_ns : int;
      (** simulated fleet completion time on [domains] workers (equals
          [work_ns] at [domains = 1]); deterministic *)
}

(** {2 Fleet checkpoints (sync mode)} *)

type checkpoint_cfg
(** Every [every_epochs] sync barriers the fleet atomically writes its
    whole state (per-instance campaign checkpoints, the union map, epoch
    accounting) to [path]; {!resume} continues a killed fleet to an
    outcome bit-identical to the uninterrupted run's (modulo wall-clock
    fields). *)

val checkpointing :
  ?on_write:(int -> unit) -> path:string -> every_epochs:int -> unit ->
  checkpoint_cfg
(** [on_write ordinal] runs after the [ordinal]-th (1-based) durable
    write — the kill-and-resume test hook.
    @raise Invalid_argument if [every_epochs <= 0]. *)

val run :
  ?instances:int ->
  ?domains:int ->
  ?max_restarts:int ->
  ?run_instance:(Campaign.config -> Report.campaign_result) ->
  ?peer:Nyx_peer.Peer_script.t ->
  ?peer_faults:Nyx_resilience.Plan.spec ->
  ?profile:bool ->
  ?sync_ns:int ->
  ?sync_import:bool ->
  ?batch:int ->
  ?checkpoint:checkpoint_cfg ->
  config:Campaign.config ->
  Nyx_targets.Registry.entry ->
  outcome
(** [instances] defaults to 52, the paper's core count. [domains]
    overrides NYX_DOMAINS; [1] runs sequentially on the calling domain.

    [peer] / [peer_faults] run every instance in peer mode (see
    {!Campaign.run}); both modes and {!resume} preserve the fleet's
    bit-reproducibility at any [domains] (peer session state snapshots
    with the executor, and each instance's peer counters ride in its
    campaign checkpoint).

    [sync_ns] arms shared-corpus sync epochs every that many virtual
    nanoseconds (must be positive); [sync_import] (default true) set to
    false gives observer mode. [batch] is the {!Nyx_parallel.Pool} chunk
    size per epoch fan-out (default [instances / domains], at least 1) —
    a pure performance knob that never affects results. [checkpoint]
    requires [sync_ns]. [profile] attaches per-instance phase profiles
    (observational; the [corpus-sync] phase shows what fraction of fleet
    virtual time sync costs).

    [max_restarts] (default 3) and [run_instance] apply to independent
    mode only ([run_instance] replaces [Campaign.run cfg entry] as the
    per-instance body — the supervisor test seam; it must be safe to call
    concurrently from multiple domains).
    @raise Invalid_argument on conflicting options. *)

val resume :
  ?domains:int ->
  ?batch:int ->
  ?profile:bool ->
  ?checkpoint:checkpoint_cfg ->
  path:string ->
  Nyx_targets.Registry.entry ->
  outcome
(** Continue a synced fleet from a checkpoint file written by a
    [run ~sync_ns ~checkpoint] that was killed. Surviving instances are
    re-booted deterministically ({!Campaign.resume_inst}) and the epoch
    loop continues; the outcome is bit-identical to the uninterrupted
    run's modulo wall-clock fields, at any [domains]/[batch].
    The file is ["NYXFLT2"]: the fleet's sync state with one embedded
    {!Checkpoint.codec} body per live instance, and a CRC-32 trailer.
    An instance that fails to re-boot (for example because the
    checkpoint's target does not match [entry]) is quarantined, as a
    failing boot is in {!run}.
    @raise Invalid_argument on unreadable or corrupt checkpoints (any
    flipped byte or truncation) and on v1 (["NYXFLT1"]) files. *)
