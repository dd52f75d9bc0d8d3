(** AFL-style edge-coverage bitmap (§4.5 compile-time coverage).

    Targets are "compiled" with instrumentation callbacks at branch sites;
    each callback hashes the site id with the previous location into a
    64 KiB map, exactly like AFL's shared-memory bitmap that Nyx-Net
    redirects into QEMU's shared memory.

    The map carries a hit-site {e journal} — the coverage-layer analogue
    of the paper's dirty stack (§"fast reload"): every cell touched this
    execution is recorded once, so [reset], [save], [restore], [matches]
    and [Cumulative.merge] are O(touched cells), never O(map). *)

val map_size : int
(** 65536. *)

type t

val create : unit -> t

val reset : t -> unit
(** Clear per-execution state (map and previous-location register).
    O(touched cells): only journaled cells are cleared. *)

val hit : t -> int -> unit
(** [hit t site] records an edge from the previous site to [site]
    (saturating 8-bit hit counts). *)

val edge_count : t -> int
(** Distinct map cells hit this execution. O(1): the journal length. *)

val iter_hits : t -> (int -> int -> unit) -> unit
(** [iter_hits t f] calls [f index bucketed_count] for each hit cell,
    with AFL's logarithmic hit-count bucketing applied.  Reporting-only:
    O(map) full scan in cell-index order; hot paths walk the journal. *)

val signature : t -> (int * int) array
(** Sorted [(cell, raw_count)] view of the nonzero cells — a canonical
    O(touched log touched) fingerprint of the map, independent of the
    order cells were hit in. Two maps are byte-identical iff their
    signatures and previous-location registers agree. *)

type checkpoint

val save : t -> checkpoint
(** Capture the per-execution map state — used when an incremental
    snapshot is taken so suffix executions replay the prefix coverage.
    O(touched cells): only live cells are stored. *)

val checkpoint_cells : checkpoint -> int
(** Number of saved hit cells — the size driver of every O(touched)
    operation on the checkpoint (restore, matches, fleet sync merges). *)

val restore : t -> checkpoint -> unit
(** O(currently touched + saved cells). *)

val matches : t -> checkpoint -> bool
(** [matches t cp] is [true] iff the current map state (cells, counts,
    and previous-location register) is exactly the checkpointed one —
    equivalent to structurally comparing two full-map copies, in
    O(touched cells) and without allocating. *)

(** Cumulative "virgin" map across a campaign. *)
module Cumulative : sig
  type cov := t
  type t

  val create : unit -> t

  val merge : t -> cov -> bool
  (** Fold one execution's map in; [true] if it contributed any new
      coverage (new cell or new hit-count bucket).  Walks the
      execution's journal directly: O(touched cells), closure-free. *)

  val merge_saved : t -> checkpoint -> bool
(** Fold a saved coverage checkpoint in (raw counts bucketed on the
      way): same verdict and resulting state as [merge] applied to the
      map the checkpoint was taken from, in O(saved cells). The fleet
      corpus-sync path uses this to judge exported programs against the
      shared virgin map without re-executing them. *)

  val edge_count : t -> int
  (** Distinct cells ever hit — the "branch coverage" metric of
      Table 2. O(1): maintained incrementally by merges. *)

  val edge_count_slow : t -> int
  (** O(map) full scan: what {!load_state} recomputes the count with. *)

  val state_bytes : t -> bytes
  (** Copy of the virgin map — the complete cumulative state, for
      campaign checkpoints. *)

  val load_state : t -> bytes -> unit
  (** Overwrite the virgin map and recompute the edge count.
      @raise Invalid_argument if the buffer is not [map_size] bytes. *)
end
