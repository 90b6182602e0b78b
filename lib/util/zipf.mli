(** Zipf-distributed integer generator.

    Used by workloads to model skewed access to view groups: a high [theta]
    concentrates updates on a few hot groups, which is the contention regime
    that motivates escrow locking. *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] draws values in [\[0, n)] with P(k) ∝ 1/(k+1)^theta.
    [theta = 0.] is uniform. Requires [n > 0] and [theta >= 0.]. *)

val draw : t -> Rng.t -> int
