(** Program verifier: eBPF-verifier-style abstract interpretation of a
    bytecode program over an available/consumed value lattice.

    Where {!Nyx_spec.Program.validate} stops at the first structural
    problem, this pass walks the whole program, tracks every value's
    provenance (producer op, borrow sites, consume site) and reports all
    findings with precise op indices.

    Error diagnostics (any one means [Program.validate] also fails):
    [unknown-opcode], [bad-arity], [dangling-arg], [type-mismatch],
    [affine-use-after-consume] (with the produced-at / consumed-at
    provenance chain), [multiple-snapshots], [snapshot-carries-payload],
    [bad-data-arity], [data-too-long].

    Warning diagnostics (legal but wasteful, invisible to [validate]):
    [dead-value] (produced, never borrowed/consumed), [noop-interaction]
    (all data fields empty, no outputs/consumes), [leading-snapshot] /
    [trailing-snapshot] (degenerate incremental-snapshot placement,
    cf. §4.3), [data-at-bound] (a field saturating its [max_len] leaves
    mutations no growth headroom).

    One walk serves {!check}, {!errors} and {!is_clean}; it differs only
    in which diagnostics it builds. A message is formatted only when the
    caller keeps that diagnostic, and {!is_clean} builds none: it stops
    at the first error. *)

val check : Nyx_spec.Program.t -> Diag.t list
(** All diagnostics, in op order (dead-value warnings last). *)

val errors : Nyx_spec.Program.t -> Diag.t list
(** Error-severity findings only: [List.filter Diag.is_error (check p)],
    without formatting the warnings. Empty iff [validate] would accept
    the program (modulo the first-error-only difference). *)

val is_clean : Nyx_spec.Program.t -> bool
(** Always equals [errors p = []] (qcheck-pinned on ill-formed programs
    and on [Program.repair] output). Allocates no diagnostic: the walk
    ends at the first error, and warnings are skipped unformatted. This
    is the check every typed mutation candidate passes before it runs. *)

val hotspot_min_bound : int
(** Smallest [max_len] the [data-at-bound] hotspot warning applies to. *)
