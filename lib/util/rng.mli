(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of ivdb (scheduler interleaving, workload
    generation, crash injection) draws from an explicit [Rng.t] so that a
    seed fully determines an execution. *)

type t

val create : int -> t
(** [create seed] returns a generator; equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)
