(** The sharding coordinator: hash-partitioned base tables over N engine
    instances with two-phase commit for cross-shard transactions.

    Base rows are partitioned by the hash of their first column (the
    table's "primary key"). The partition map is a pure function, so any
    party can compute an owner without a directory service. Every shard
    maintains every view over its own rows with the single-engine
    protocol; a view read fans out and the coordinator combines the
    shards' partial rows by group key. A join view must join both
    tables' partition columns, so that every joining pair of rows lives
    on one shard. Shards are reached through
    {!Ivdb_client.Client} over any transport — deterministic loopback
    fibers in one scheduler run, or TCP to [ivdb_server --shard i/N]
    processes.

    A coordinator serves any number of sessions ({!t}). Each session has
    its own connection to every shard and its own distributed
    transaction; the decision log, global transaction tables, routing
    metadata, shard health and metrics belong to the coordinator and are
    shared. {!server} puts one session behind each wire connection.

    A session's transaction opens an ordinary server-side transaction
    on each shard a statement lands on; those shards are its
    participants. At [COMMIT] a transaction with one participant commits
    locally (no 2PC); one with several runs presumed-abort two-phase
    commit: Prepare to every participant, the commit decision forced,
    Decide fanned out to the participants that prepared. A participant
    whose part logged nothing votes read-only: it commits on the spot,
    releases its locks and gets no Decide, and a transaction every
    participant only read forces nothing. An abort logs nothing.
    {!recover} asks every shard which of this coordinator's transactions
    it holds in doubt and delivers commit for each one with a logged
    decision, abort for the rest (presumed abort);
    participants answer a re-sent Decide from their in-doubt table or by
    the presumed-abort rule, keeping no memory of decided gtxns, which
    makes Decide reconnect-and-resend retries safe. That needs global
    transaction ids unique across coordinators — give each its own
    [name] — and across restarts: ids are reserved in blocks of 1,024,
    one forced record per block, and a restart resumes above the last
    block. A Prepare is never retried — the disconnect rolled that
    session's transaction back, so a dead line is a No vote and the
    transaction aborts everywhere. For the same
    reason a statement that loses a shard's part of the transaction (a
    dead line, or the shard rolling back a deadlock victim) makes the
    transaction abort-only: every later statement but [ROLLBACK] is
    refused, and [COMMIT] aborts.
    Undeliverable decisions are re-delivered before the next commit. *)

exception Coord_error of string
(** Statement-level failure: routing restriction, a shard voting no (the
    global transaction was aborted), malformed replies. The coordinator
    session survives it. *)

(** {1 Partition maps} *)

val route_value : shards:int -> Ivdb_relation.Value.t -> int
(** Owner shard of a base row, from its first-column value (FNV-1a of
    its text, mod [shards]). *)

val configure_shard : Ivdb.Database.t -> shard:int -> shards:int -> unit
(** Make an engine shard [shard] of [shards] ({!Ivdb.Database.set_shard}). *)

(** {1 Coordinator sessions} *)

type t
(** One session on a coordinator. *)

val create :
  ?name:string ->
  ?wal:Ivdb_wal.Wal.t ->
  ?metrics:Ivdb_util.Metrics.t ->
  ?trace:Ivdb_util.Trace.t ->
  Ivdb_transport.Transport.dialer array ->
  t
(** A session on a fresh coordinator. The session connects one client
    per shard (the array index is the shard id — it must match each
    engine's {!configure_shard} slot). [name] prefixes
    global transaction ids ([name:n]). [wal] is the coordinator's
    decision log; pass the previous incarnation's log (round-tripped
    through {!Ivdb_wal.Wal.crash}) to restart after a crash — the gtxn
    counter (above the last reserved block) and the routing metadata
    (partition columns and each view's group-key width, logged as DDL
    records) are rebuilt by scanning it. A coordinator over an existing
    log sends no decision until {!recover} resolves the in-doubt ones. [metrics] is the coordinator's registry (fresh by
    default): the typed per-phase 2PC counters and histograms live
    there, and — when no [wal] is passed — so do the decision log's
    own append/force counters instead of a private throwaway registry.
    [trace] receives the coordinator-side trace events
    ([coord.route] / [coord.fast_path] / [coord.prepare] /
    [coord.vote] / [coord.decision] / [coord.decide]); defaults to a
    fresh disabled trace wired to the deterministic scheduler's clock
    and fiber id, so an enabled stream is byte-identical per seed. *)

val server :
  ?config:Ivdb_server.Server.config ->
  t ->
  Ivdb_transport.Transport.listener ->
  Ivdb_server.Server.t
(** Serve [t]'s coordinator over the wire: every connection gets its own
    session, closed — its open transaction rolled back — when the
    connection ends. Metrics and [net.*] trace events go to the
    coordinator's registry and trace, and a [Metrics_req] returns the
    coordinator registry. Routing errors answer [E_sql], parse errors
    [E_parse], a shard's own [Err] keeps its code, and a dead shard line
    answers [E_sql "shard unreachable: …"]; [txn_open] is the session's
    transaction state. Engine-only frames ([Prepare], [Decide],
    replication and admin) are refused as unexpected. *)

val session : t -> t
(** Another session on [t]'s coordinator, with its own shard connections
    and transaction; the decision log, gtxn counter, routing metadata and
    {!stats} are shared. *)

val exec : t -> string -> Ivdb_sql.Sql.result
(** Route one SQL statement: DDL broadcasts (recording partition
    columns; a join view that does not join both partition columns is
    refused), INSERT splits its rows by partition, DML/SELECT with a
    top-level [pk = literal] conjunct pins to the owner, other DML and
    plain SELECTs fan out (rows concatenated, ORDER BY/LIMIT re-applied).
    A SELECT over a view reads [SELECT * FROM <view>] on every shard,
    combines the partial rows by group key
    ({!Ivdb_sql.Sql.combine_view_rows}), then applies the statement's
    WHERE, ORDER BY and LIMIT. The fan-out is not a cross-shard
    snapshot; inside a transaction it S-locks every group on every
    shard. [BEGIN]/[COMMIT]/[ROLLBACK] drive the distributed
    transaction; a write outside a transaction autocommits through the
    same machinery, so a write that spans shards is atomic. Raises
    {!Coord_error} (and {!Ivdb_client.Client} exceptions for dead
    shards).

    Coordinator-resident catalogs are answered locally, with full
    [sys.*] query semantics (WHERE / projection / ORDER BY / LIMIT):
    - [sys.gtxns] — live global transactions (undecided, or owing some
      shard its decision), then the most recent finished ones: phase
      ([preparing] / [deciding] / [committed] / [aborted]), participant
      set, per-shard votes ([yes] / [read-only] / [no] / [dead]), ticks
      in the current
      phase, undelivered-decision count;
    - [sys.coord_shards] — per-shard health: address, last-contact tick,
      prepare/decide traffic, outstanding decisions, reconnects;
    - [sys.cluster_metrics] — the coordinator registry's counters tagged
      [coord] plus every reachable shard's [sys.metrics] rows tagged
      [shard<i>] (unreachable shards are skipped, not errors).

    Every routed statement is stamped with a coordinator-assigned
    correlation id carried on the Exec, Prepare and Decide frames it
    causes (and on its own [coord.*] trace events), so shard-side trace
    events and [sys.slow_queries] rows join back to the coordinator
    statement. *)

val metrics : t -> Ivdb_util.Metrics.t
(** The coordinator's metrics registry (2PC phase histograms
    [coord.prepare.ticks] / [coord.decision_force.ticks] /
    [coord.decide.ticks], vote counters ([coord.votes.read_only]
    included) and abort-cause counters, fast-path vs
    2PC commits, in-doubt gauge, re-delivery attempts — plus the
    decision log's counters when the WAL was created here). Feed it to
    {!Ivdb_util.Metrics.to_prometheus} or serve it with
    [Ivdb_server.Metrics_http]. *)

val trace : t -> Ivdb_util.Trace.t
(** The coordinator's trace (enable + attach sinks to observe the 2PC
    event stream). *)

val recover : t -> int
(** Ask every shard ([sys.indoubt]) which of this coordinator's global
    transactions it holds in doubt, and deliver commit to each one whose
    commit decision is in the WAL, abort to the others (presumed abort).
    A transaction this coordinator still has undecided is a round in
    flight and is left to it. A shard that cannot be reached is asked
    again before the next commit. Writes nothing to the log. Returns the
    number of transactions resolved: 0 after a clean restart.
    Idempotent — a participant applies a Decide only to a gtxn it holds
    in doubt and acknowledges any other by the presumed-abort rule. *)

val in_transaction : t -> bool

val shard_count : t -> int

val wal : t -> Ivdb_wal.Wal.t
(** The coordinator's decision log (for crash simulation:
    [Wal.crash (Coord.wal c) metrics] is the log a restarted coordinator
    sees). *)

type stats = {
  single_shard_commits : int;  (** commits that skipped 2PC *)
  cross_shard_commits : int;
  aborts : int;
  prepares_sent : int;  (** yes and read-only votes received *)
  decides_sent : int;  (** Decides a shard acknowledged *)
}

val stats : t -> stats
(** The coordinator's totals, over all its sessions. *)

val close : t -> unit
(** Close this session's shard connections. *)

(** {1 Deterministic crash injection}

    Every 2PC protocol action — the force of a gid block (the first
    commit of each 1,024), each Prepare send, the commit-decision force,
    each Decide send (from a commit, an abort or {!recover}) — bumps a
    counter. An abort and an all-read-only commit have no decision force,
    and a read-only participant gets no Decide. Arming
    {!set_crash_at_action} [n] makes the [n]-th action raise
    {!Ivdb_storage.Fault.Crash_point} instead of happening, so a sweep
    over [n] crashes the coordinator at every message boundary of a
    workload. *)

val set_crash_at_action : t -> int option -> unit

val actions : t -> int
(** Actions performed so far (run once unarmed to size a sweep). *)

(** {1 Loopback cluster} *)

val loopback_cluster :
  config:Ivdb_server.Server.config ->
  Ivdb.Database.t array ->
  (Ivdb_transport.Transport.dialer array -> 'a) ->
  'a
(** [loopback_cluster ~config dbs f], inside a scheduler run: make
    [dbs.(i)] shard [i] of [Array.length dbs] ({!configure_shard}), serve
    each engine with [config] over its own deterministic loopback
    transport, run [f] on the dialers (indexed by shard), then drain
    every server. An exception escaping [f] skips the drain, as a
    machine dying mid-run would. *)
