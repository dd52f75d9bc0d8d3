(** Target execution context: what "compiled" guest code sees.

    Bundles the guest heap (all mutable state), the emulated network stack,
    the coverage map and the virtual clock, plus sanitizer configuration.
    Instrumentation callbacks ({!hit}, {!branch}) are this reproduction's
    analogue of AFL compile-time instrumentation: each {!site} is named by
    a string whose hashes, taken once, index the coverage map. *)

type t = {
  heap : Nyx_vm.Guest_heap.t;
  net : Nyx_netemu.Net.t;
  disk : Nyx_vm.Disk.t;
      (** the emulated block device — state written here survives an
          AFLNet-style restart (cleanup scripts are imperfect) but is
          rolled back by whole-VM snapshots *)
  cov : Coverage.t;
  clock : Nyx_sim.Clock.t;
  asan : bool;  (** bounds-checked heap accesses crash loudly *)
  layout_cookie : int;
      (** Per-campaign randomness standing in for the initial memory
          layout: silent-corruption bugs only crash for unlucky layouts
          (Table 1's dcmtk footnote). *)
  mutable state_code : int;
      (** Protocol state annotation (e.g. last response code) — what
          AFLNet's state-aware scheduling observes. *)
}

exception Crash of { kind : string; detail : string }
(** A detectable memory-safety violation or fatal fault in the target. *)

val create :
  ?asan:bool ->
  ?layout_cookie:int ->
  heap:Nyx_vm.Guest_heap.t ->
  net:Nyx_netemu.Net.t ->
  disk:Nyx_vm.Disk.t ->
  Nyx_sim.Clock.t ->
  t

val of_vm :
  ?asan:bool -> ?layout_cookie:int -> net:Nyx_netemu.Net.t -> Nyx_vm.Vm.t -> t
(** Convenience: heap, disk and clock taken from the VM. *)

type site
(** An instrumented code location: the coverage ids of a plain hit and of
    both directions of a branch, hashed once from the site's name when
    the value is built. Targets bind their sites at module load, so
    recording an edge neither builds a string nor hashes one. *)

val site : string -> site
(** [site name]: [name] (conventionally ["target/label"]) is hashed with
    [Hashtbl.hash] for {!hit}, and [name ^ ":T"] / [name ^ ":F"] for the
    two directions of {!branch}. *)

val hit : t -> site -> unit
(** Record an edge at the site, charging {!Nyx_sim.Cost.edge}. *)

val hit_id : t -> int -> unit
(** Like {!hit} with a computed integer site id — for instrumentation
    whose site is derived from runtime values (the Mario position
    feedback). *)

val branch : t -> site -> bool -> bool
(** [branch t site cond] records the taken direction as an edge and
    returns [cond] — instrument-and-test in one expression. *)

val crash : t -> kind:string -> string -> 'a
(** Raise {!Crash}. *)

val work : t -> int -> unit
(** Charge [ns] of plain computation to the clock. *)

val set_state : t -> int -> unit

val state_signature : t -> int
(** Deterministic non-negative mix of the current [state_code] — the
    explicit protocol-state annotation's contribution to
    {!Target.state_hash}. *)
