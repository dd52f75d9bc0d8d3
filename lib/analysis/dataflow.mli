(** Typestate analysis over programs: the per-program side of
    {!State_graph}.

    Computes each program's abstract protocol state path, a sound
    per-op classification of which ops can change the observable
    protocol state (the thing the dynamic boundary probe hashes), and
    from it the {e statically feasible} snapshot-boundary indices that
    lint's snapshot diagnostics use and the statecheck conformance gate
    checks the dynamic probe against.

    Soundness invariant: an op is classified inert only when the
    standard op handlers provably cannot touch hashed state — a TCP
    [packet] with an empty payload on an already-drained connection
    ([Net.send_peer] drops zero-length sends, so no target code runs).
    Custom handlers are outside the model. *)

val affecting : ?udp:bool -> Nyx_spec.Program.t -> bool array
(** Per-op classification over the snapshot-stripped program; [true]
    means the op may change the hashed protocol state. [udp] marks the
    target's transport: empty datagrams are still delivered, so every
    UDP packet is affecting. *)

val feasible_boundaries : ?udp:bool -> Nyx_spec.Program.t -> int list
(** Sorted interior boundary indices [b] (in [1 .. packets-1]) at which
    the dynamic probe can possibly observe a state change: op [b-1] is
    affecting. Over-approximates the dynamically observed boundaries. *)

val state_path : Nyx_spec.Program.t -> int array
(** Edge-type bitmask of live values after each op of the original
    program ([length = ops + 1], index 0 = initial state). Defined on
    any program: unknown and snapshot ops leave the mask as it is; every
    other op first kills each live value named by an argument slot at or
    after its first consume slot (whatever the value's type, and extra
    slots past the arity included), then makes its outputs live. One
    linear pass: it keeps a live count per edge type, and the mask
    changes only when a count crosses zero. *)

val check : ?udp:bool -> Nyx_spec.Program.t -> Diag.t list
(** Diagnostics: [state-unreachable-op] (error — an input edge type no
    preceding op can produce), [redundant-prefix] (warning — a run of
    statically inert ops; no boundary can exist inside it),
    [snapshot-past-last-transition] (warning — the snapshot sits past
    the last feasible boundary). *)
