(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of ivdb (scheduler interleaving, workload
    generation, crash injection) draws from an explicit [Rng.t] so that a
    seed fully determines an execution. *)

type t

val create : int -> t
(** [create seed] returns a generator; equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** Derive an independent generator (advances [t]). *)
