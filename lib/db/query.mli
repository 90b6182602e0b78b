(** Reading tables and indexed views, plus the on-demand aggregation
    baseline that indexed views exist to beat. *)

type locking =
  | Serializable
      (** views: key-range locks (RangeS_S per key + end of range); tables:
          IS + S row locks *)
  | Dirty  (** no locks at all (internal tooling, statistics) *)

val table_scan :
  Database.t ->
  Ivdb_txn.Txn.t option ->
  Database.table ->
  ?where:Ivdb_relation.Expr.t ->
  locking ->
  Ivdb_relation.Row.t Seq.t

(** {1 Indexed views}

    View rows are returned as (group values, aggregate row); the aggregate
    row is [COUNT( * ) :: aggs] in definition order. Zero-count groups are
    logically absent and never returned. *)

val view_lookup :
  Database.t ->
  Ivdb_txn.Txn.t option ->
  Database.view ->
  Ivdb_relation.Value.t array ->
  Ivdb_relation.Row.t option
(** Point lookup by group values. Blocks behind in-flight escrow updates of
    the group (transactional callers). *)

val view_scan :
  Database.t ->
  Ivdb_txn.Txn.t option ->
  Database.view ->
  locking ->
  (Ivdb_relation.Row.t * Ivdb_relation.Row.t) Seq.t
(** Full ascending scan. Under [Serializable] the scan is phantom-protected:
    RangeS_S on every key (zero-count ghosts included) and on the index
    EOF. *)

val view_scan_range :
  Database.t ->
  Ivdb_txn.Txn.t option ->
  Database.view ->
  lo:Ivdb_relation.Value.t array ->
  hi:Ivdb_relation.Value.t array ->
  locking ->
  (Ivdb_relation.Row.t * Ivdb_relation.Row.t) Seq.t
(** Groups with [lo <= group < hi]. Under [Serializable] the range — and
    only the range — is phantom-protected: RangeS_S on every key inside
    plus the first key at-or-past [hi] (or EOF), so concurrent group
    creation inside the range blocks while creation outside proceeds. *)

val view_count : Database.t -> Database.view -> int
(** Unlocked count of visible (non-zero) groups. *)

val on_demand_aggregate :
  Database.t ->
  Ivdb_txn.Txn.t option ->
  Ivdb_core.View_def.t ->
  (Ivdb_relation.Row.t * Ivdb_relation.Row.t) list
(** Compute what an indexed view with this definition would contain by
    scanning the base tables — the no-view baseline of experiment E1.
    Results sorted by group key; zero-count groups omitted. Use
    {!Database.view_def} to aggregate "as if" an existing view. *)

val refresh : Database.t -> Ivdb_txn.Txn.t -> Database.view -> int
(** Drain a deferred view's delta queue into the view (exclusive protocol),
    under the caller's transaction. Returns deltas applied. Raises
    [Invalid_argument] for non-deferred views. *)

val staleness : Database.t -> Database.view -> int
(** Pending deltas of a deferred view (0 for immediate views). *)

val view_lookup_bounds :
  Database.t ->
  Database.view ->
  Ivdb_relation.Value.t array ->
  (Ivdb_relation.Row.t * Ivdb_relation.Row.t) option
(** Non-blocking escrow bounds read: the (low, high) interval the group's
    aggregate row can take across every commit/abort outcome of the
    in-flight escrow transactions — no locks, no waiting behind [E]
    holders. With no writers in flight the interval is a point. [None]
    when the group row does not physically exist; a zero-count row is
    returned as-is (its count bounds tell the caller whether the group may
    exist). Only meaningful for escrow-compatible views. *)
