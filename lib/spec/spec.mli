(** Affine-typed opcode specifications (§2.2 "Nyx's Affine Typed Bytecode").

    A spec declares the interactions possible with a target: each {e node
    type} (opcode) may {e borrow} previously produced values, {e consume}
    them (affine use — at most once), produce {e outputs}, and carry raw
    {e data} fields. The fuzzer derives a bytecode format, an interpreter
    and mutators from the spec.

    Node type id 0 is always the reserved [snapshot] opcode the fuzzer
    injects to request an incremental snapshot (§4.3); it takes no
    arguments and carries no data. *)

type edge_ty = { et_id : int; et_name : string }
(** A value type flowing between opcodes (e.g. a connection handle). *)

type data_ty = { dt_id : int; dt_name : string; max_len : int }
(** A raw data field (e.g. packet payload). *)

type node_ty = {
  nt_id : int;
  nt_name : string;
  borrows : edge_ty list;
  consumes : edge_ty list;
  outputs : edge_ty list;
  data : data_ty list;
}

type t

val snapshot_node_id : int
(** Always 0. *)

(** {1 Declaring a spec} *)

type builder

val start : string -> builder
val edge_type : builder -> string -> edge_ty
val data_type : builder -> ?max_len:int -> string -> data_ty
(** [max_len] defaults to 4096. *)

val node_type :
  builder ->
  ?borrows:edge_ty list ->
  ?consumes:edge_ty list ->
  ?outputs:edge_ty list ->
  ?data:data_ty list ->
  string ->
  node_ty

val finalize : builder -> t

(** {1 Queries} *)

val name : t -> string
val node : t -> int -> node_ty
(** @raise Invalid_argument on unknown id. *)

val node_by_name : t -> string -> node_ty
(** @raise Not_found. *)

val nodes : t -> node_ty array
(** All node types, including the snapshot opcode at index 0. *)

val snapshot_node : t -> node_ty

(** {1 Per-node counts} *)

type counts = private {
  n_borrows : int array;
  arity : int array;  (** argument slots: borrows, then consumes *)
  n_outputs : int array;
  n_data : int array;
}
(** Each node's list lengths, indexed by node id: a table {!finalize}
    builds once, so hot loops read an int instead of walking a list.
    Node ids are the table's indices ([(node t id).nt_id = id]).
    Callers only read it. *)

val node_count : t -> int
(** Node types including the snapshot opcode: the declared ids are
    [0 .. node_count t - 1]. *)

val counts : t -> counts

val n_edge_types : t -> int
(** One more than the largest edge type id any node mentions (at least
    the number declared with {!edge_type}): edge ids index arrays of
    this length. *)
