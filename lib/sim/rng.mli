(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in campaigns flows through a single [Rng.t] so that any
    run is reproducible from its seed. The generator is splittable: derived
    streams do not perturb the parent stream, which keeps components
    (mutator, scheduler, policy) independent of each other's draw counts. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)

val state : t -> int64
(** The full internal splitmix64 state — everything a generator is.
    Saved by campaign checkpoints so a resumed run replays the exact
    draw sequence. *)

val set_state : t -> int64 -> unit
(** Overwrite the internal state with one captured by {!state}. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float -> float
(** Uniform in [\[0, x)]. *)

val byte : t -> char

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniform random bytes. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val weighted : t -> ('a * float) list -> 'a
(** Pick proportionally to the (positive) weights. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] is the index [weighted t] picks from the list
    [(0, w.(0)); (1, w.(1)); …], with the same single draw, without
    building the list. *)
