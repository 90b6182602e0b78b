(** Built-in [sys.*] virtual tables: read-only, eagerly-materialized
    projections of live engine state (transactions, locks and waits,
    per-view maintenance counters, buffer pool, WAL, metrics registry).

    Every provider is a pure read with snapshot-at-a-tick semantics: rows
    are built in one step of the cooperative scheduler, no locks are
    taken, and no maintenance (e.g. deferred-view refresh) is triggered. *)

val names : string list
(** Every built-in table name, sorted — for error messages. *)

val server_sessions_header : string list
(** Column names of [sys.server_sessions]; the built-in resolution returns
    this schema with zero rows (a local session has no server), and the
    serving layer overrides the table per session via
    {!Sql.add_sys_provider}. *)

val slow_queries_header : string list
(** Likewise for [sys.slow_queries]. *)

val replication_header : string list
(** Column names of [sys.replication]. A standalone database is not
    replicating, so the built-in resolution returns zero rows; the
    serving layer (primary: one row per known replica slot) and the
    replica driver (follower: one row for its upstream link) override
    the table per session. *)

val gtxns_header : string list
(** Column names of [sys.gtxns] — live and recently-finished global
    transactions. A plain engine resolves to zero rows; the shard
    coordinator answers it from its 2PC state (phase, participant set,
    per-shard votes, ticks in the current phase, undelivered
    decisions). *)

val coord_shards_header : string list
(** Column names of [sys.coord_shards] — per-shard health as seen from
    the coordinator (last contact tick, prepare/decide traffic,
    outstanding decisions, reconnects). Zero rows on a plain engine. *)

val cluster_metrics_header : string list
(** Column names of [sys.cluster_metrics] — every shard's [sys.metrics]
    rows tagged with the reporting node ("coord", "shard0", …). Zero
    rows on a plain engine; the coordinator fans the query out. *)

val builtin :
  Ivdb.Database.t ->
  self_txn:int option ->
  string ->
  (string list * Ivdb_relation.Row.t list) option
(** [builtin db ~self_txn name] resolves a built-in table to its header
    and rows, or [None] for unknown names. [self_txn] is the calling
    session's open transaction id, surfaced as the [self] column of
    [sys.transactions]. *)
