(** Crash-safe campaign checkpoints.

    A checkpoint captures the deterministic state a campaign needs to
    continue exactly where it left off; {!Campaign.resume} rebuilds the
    rest (guest memory, disk, devices) by re-booting the target, which is
    deterministic. The contract, enforced by the qcheck property in
    [test_resilience]: killing a campaign at {e any} checkpoint and
    resuming produces a bit-identical final {!Report.campaign_result}
    (modulo the informational wall-clock fields —
    {!Report.same_deterministic}).

    Files are {!Codec.frame}d: the magic ["NYXCKP2"], the body declared by
    {!codec} (flat big-endian int64 framing throughout) and a CRC-32 of
    the body, so any flipped byte or truncation is rejected on load. The
    body layout is v1's; v1 (["NYXCKP1"], no CRC) files are rejected with
    an error naming their format. Files are written atomically (tmp +
    rename via {!Nyx_resilience.Atomic_io}) so a crash mid-write never
    corrupts the previous checkpoint. *)

type corpus_entry = {
  ce_program : bytes;  (** {!Nyx_spec.Program.serialize} form *)
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
  c_policy : string;  (** {!Policy.name} form *)
  c_budget_ns : int;
  c_max_execs : int;
  c_seed : int;
  c_asan : bool;
  c_stop_on_solve : bool;
  c_trim : bool;
  c_sample_interval_ns : int;
  c_target : string;
  c_clock_ns : int;
  c_execs : int;
  c_last_sample : int;
  c_solved_ns : int option;
  c_sched_rng : int64;
  c_mut_rng : int64;
  c_policy_state : Policy.state;
  c_corpus : corpus_entry list;  (** oldest first: ids re-assign in order *)
  c_virgin : bytes;  (** cumulative coverage map *)
  c_timeline : (int * int64) list;  (** oldest first; values as float bits *)
  c_crashes : crash list;  (** newest first, as the campaign stores them *)
  c_engine : Nyx_snapshot.Engine.persisted;
  c_dict : bytes list;
  c_max_ops : int;
  c_exec_timeline : (int * int64) list;
      (** execs-keyed coverage timeline, oldest first; values float bits *)
  c_mut_engine : string;  (** {!Engines.name} form *)
  c_mut_weights : (string * int64) list;
      (** per-mutator base-weight overrides; weights as float bits *)
  c_mut_state : Nyx_spec.Mutation_engine.state;
      (** per-mutator counters and EWMA credit, engine order *)
  c_faults : (string * Nyx_resilience.Plan.state) option;
      (** canonical fault spec + plan state, when a plan was armed *)
  c_profile : Nyx_obs.Profile.state option;
  c_peer : Nyx_peer.Peer_driver.state option;
      (** cooperating-peer counters, for [--mode peer] campaigns *)
}

val codec : t Codec.codec
(** The body format, also embedded per instance in fleet checkpoints. *)

val encode : t -> bytes
val decode : bytes -> t
(** @raise Corrupt on malformed input. *)

exception Corrupt of string
(** Equal to {!Codec.Corrupt}. *)

val save : string -> t -> (unit, string) result
(** Atomic write (tmp + rename). *)

val load : string -> (t, string) result

val write_periodic :
  event:string ->
  path:string ->
  vns:int ->
  ordinal:int ->
  detail:string * int ->
  on_write:(int -> unit) option ->
  bytes ->
  int
(** One periodic checkpoint write, shared by campaigns and fleets: write
    the bytes atomically; on success emit trace instant [event] at [vns]
    (new ordinal and [detail]) and call [on_write], returning
    [ordinal + 1]. A failed write is logged and returns [ordinal]:
    checkpointing never stops a campaign. *)
