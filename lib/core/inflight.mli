(** Registry of in-flight (uncommitted) escrow deltas.

    The escrow literature's second dividend: because every uncommitted
    change to an aggregate row is a known additive delta, a reader that
    does not want to block behind [E] locks can still obtain {e bounds} —
    the interval of values the aggregate can take across every
    commit/abort outcome of the in-flight transactions. The registry
    records each escrow update as it is applied and retires a
    transaction's deltas when it finishes (either way — commit keeps the
    stored value, abort's compensation restores it; in both cases the
    entry stops being "in flight"). *)

type t

val create : unit -> t

val record : t -> txn:int -> vid:int -> key:string -> Aggregate.delta -> unit
val drop_txn : t -> txn:int -> unit

val pending : t -> vid:int -> key:string -> Aggregate.delta list
(** Deltas of still-active transactions on this group. *)

val keys_of_txn : t -> txn:int -> (int * string) list
(** Distinct (view id, key) pairs the transaction has escrow deltas on —
    the MVCC commit hook pushes a committed version per pair. *)

val bounds :
  View_def.t ->
  Ivdb_relation.Row.t ->
  Aggregate.delta list ->
  Ivdb_relation.Row.t * Ivdb_relation.Row.t
(** [bounds def stored pending] is the (low, high) pair of aggregate rows:
    the stored row already includes every pending delta, so each cell's
    interval is [stored - Σ max(d,0), stored - Σ min(d,0)] — the extremes
    over all subsets of pending transactions aborting. Only valid for
    escrow-compatible (additive) views. *)
