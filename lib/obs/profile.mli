(** Per-phase cost profile of a fuzzing campaign (the paper's Table 3 /
    Figure 6 breakdown, applied to ourselves).

    A profile accumulates, per phase, how much {e virtual} time the
    campaign spent and how often the phase ran, plus the real wall-clock
    self-time as an informational column. The spans themselves are
    {!Obs.span}s: each records its self-time (its clock extent minus that
    of spans opened inside it), so phase totals never double-count and —
    together with the [Other] remainder computed by {!snapshot} — always
    sum to exactly the campaign's [virtual_ns]. The same spans are the
    trace's close events, so folding a trace's self-times by phase gives
    back this profile.

    Phases map to the paper's reset-cost analysis (Table 3) as follows:
    [Reset] is snapshot-restore work (root and incremental), the paper's
    "reset" column; [Prefix_replay] is executing the message prefix up to
    the snapshot opcode (charged once per session); [Suffix_exec] is test
    execution proper (both whole-program runs from the root and suffix
    runs against an incremental snapshot); [Snapshot_create] is
    incremental-snapshot creation (Figure 6's create cost); [Snapshot_place] is the
    dynamic placement policy's own work — protocol-state boundary probes
    and cost-model decisions (zero for the static policies); [Cov_merge]
    and [Trim] are fuzzer bookkeeping with no paper analogue (virtually
    free and trim-only respectively); [Corpus_sync] is fleet sync-epoch
    work (judging and importing peer-exported programs — what fraction of
    fleet virtual time corpus sharing costs); [Mutation] is the mutation
    engine's candidate construction (splice/generate walks and offline
    verification — virtually free like the real system's mutation CPU,
    so the count and wall columns carry the signal); [Peer] is the
    cooperating peer driver's work in [--mode peer] campaigns — scripted
    encoding, fault application and supervised desync recovery (zero for
    bytecode campaigns); [Other] is everything unattributed (target boot,
    root-snapshot creation).

    Accumulation is purely observational — {!Obs} reads the clocks, never
    advances them — so a profiled campaign produces bit-identical results
    to an unprofiled one. A profile is owned by a single campaign (one
    domain at a time) — it holds no locks. *)

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

val phase_name : phase -> string
(** Lowercase hyphenated name, e.g. ["prefix-replay"]. *)

type t

val create : unit -> t

val add : t -> phase -> virtual_ns:int -> wall_s:float -> unit
(** Count one closed span of [phase] and add its self-times. {!Obs.span}
    is the only caller: it owns nesting, self-time and the override. *)

(** {2 Checkpoint support} *)

type state = {
  ps_counts : int array;  (** span counts per phase, declaration order *)
  ps_virt : int array;  (** virtual self-time per phase *)
}

val state : t -> state
(** The deterministic accumulators (counts and virtual self-times).
    Wall-clock columns are informational and excluded. *)

val restore_state : t -> state -> unit
(** Overwrite the deterministic accumulators; wall-clock columns restart
    from zero (a resumed campaign reports only post-resume wall time). *)

(** {2 Snapshots} *)

type entry = {
  phase : phase;
  count : int;  (** spans recorded *)
  virtual_ns : int;  (** virtual self-time *)
  wall_s : float;  (** wall-clock self-time; informational only *)
}

type snapshot = {
  entries : entry list;  (** one per phase, fixed declaration order *)
  total_virtual_ns : int;
  total_wall_s : float;
}

val snapshot : t -> total_virtual_ns:int -> total_wall_s:float -> snapshot
(** Freeze the accumulated profile. [Other] receives the remainder
    [total_virtual_ns - sum(measured)], so the snapshot's virtual times
    sum to [total_virtual_ns] exactly. *)

val sum_virtual_ns : snapshot -> int
(** Sum of the entries' [virtual_ns] — equals [total_virtual_ns] by
    construction; exposed so tests can assert the identity. *)

val pp : Format.formatter -> snapshot -> unit
(** Pretty table: phase, count, virtual ns, share of total, wall s. *)

val to_json : snapshot -> string
(** The snapshot as a JSON object (phases array + totals). *)
