(** The ivdb network server: one session fiber per connection on the
    cooperative scheduler.

    A session is whatever answers one connection's statements: an
    {!Ivdb_sql.Sql.session} on a local engine ({!create}), or any
    {!session} a factory opens at handshake ({!create_sessions}) — the
    shard coordinator serves its per-connection sessions this way.
    Everything below the statement (handshake, admission, drain,
    metrics, trace, slow-query log) is shared. A session's [close] runs
    when its connection ends for any reason and rolls back the
    transaction it left open, releasing its locks.

    [serve] spawns an accept fiber that blocks in the listener's
    [accept] and spawns a session fiber per admitted connection; an idle
    server has no runnable fiber and costs the scheduler no steps.
    Admission control is a hard in-flight cap: a connection arriving
    above [max_inflight] is shed with a {!Ivdb_wire.Wire.Busy} frame and
    closed before any SQL runs.
    [drain] stops the listener and lets open sessions finish: a session
    holding an open transaction may still run statements through its
    [COMMIT]/[ROLLBACK]; one without gets [Err E_draining] + [Bye] on its
    next request. Once every session exits the scheduler run completes —
    a clean drain leaks no fibers.

    Per-request instrumentation lands in the server's {!Ivdb_util.Metrics}
    ([server.accepted], [server.shed], [server.requests],
    [server.sessions_closed], [server.slow_queries], [server.inflight] and
    [server.request.ticks] histograms) and {!Ivdb_util.Trace} ([net.accept],
    [net.shed], [net.request], [net.response], [net.slow_query],
    [net.close]). The client-assigned correlation id ([rid]) of each [Exec]
    frame is echoed into the request, response and slow-query events, so a
    statement can be joined across client logs, server trace, and
    [sys.slow_queries].

    Every engine session's SQL state is given live [sys.server_sessions],
    [sys.slow_queries] and [sys.replication] providers (via
    {!Ivdb_sql.Sql.add_sys_provider}), so introspection queries over the
    wire see the whole registry. A [Metrics_req] frame is answered with a
    [Msg] carrying the Prometheus text exposition of the server's
    registry.

    The 2PC participant frames ([Prepare], [Decide]) and the replication
    and admin frames below are engine-only: a {!create_sessions} server
    answers them [Err E_protocol "unexpected frame"] and ends the
    connection.

    {b Replication.} A session that sends [ReplSubscribe] leaves
    request/response mode permanently: the server streams the stable WAL
    tail to it in [ReplRecords] batches (at most 128 records each) under
    stop-and-wait flow control — one batch in flight, the next sent only
    after the replica's [ReplAck]. Subscribing registers a durable
    {e slot} under the replica's name; the slot's acknowledged horizon
    pins the WAL retain floor ({!Ivdb_wal.Wal.set_retain_floor}) so
    checkpoint truncation never discards records a known replica — even
    a disconnected one — has yet to apply. A subscribe below
    [first_lsn] (no slot pinned the log, e.g. a brand-new replica
    joining after heavy truncation with no prior slot) is refused with
    [Err E_repl]: that replica must be re-seeded. Shipping cost lands in
    [server.repl.batches] / [server.repl.records].

    The replica applies each batch as it arrives and hides the primary's
    open transactions through its own [Mvcc]; its [ReplAck] is treated
    purely as slot/retention progress. Two admin frames complete the
    failover story: [Promote] (follower server only — stops the attached
    driver, calls {!Ivdb.Database.promote}, answers [Msg]) and
    [DropSlot] (forget a detached slot so it stops pinning WAL
    retention; refused with [Err E_repl] for an unknown or
    still-connected slot). *)

val repl_batch_limit : int
(** Records shipped per [ReplRecords] batch at most: 128. *)

type config = {
  max_inflight : int;  (** sessions served concurrently (default 32) *)
  busy_retry_ticks : int;
      (** backoff hint carried in the [Busy] shed frame (default 100) *)
  name : string;  (** server identity sent in [Welcome] (default "ivdb") *)
  slow_query_ticks : int option;
      (** statements taking at least this many simulated ticks are recorded
          in [sys.slow_queries] and emit a [net.slow_query] trace event
          (default [None]: disabled) *)
}

val default_config : config

type t

val create :
  ?config:config -> Ivdb.Database.t -> Ivdb_transport.Transport.listener -> t
(** Serve engine sessions on [db]; metrics and trace events go to the
    database's registry and trace. *)

type session = {
  exec : seq:int -> string -> Ivdb_wire.Wire.frame;
      (** run one statement, answer with its response frame *)
  in_txn : unit -> bool;
      (** an open transaction — keeps the session serving through a drain *)
  close : unit -> unit;  (** release the session, rolling back an open transaction *)
}

val create_sessions :
  ?config:config ->
  metrics:Ivdb_util.Metrics.t ->
  trace:Ivdb_util.Trace.t ->
  (unit -> session) ->
  Ivdb_transport.Transport.listener ->
  t
(** Serve sessions opened by the factory, one per handshake. A factory
    that raises refuses that connection with an [Err]. *)

val serve : t -> unit
(** Spawn the accept fiber. Must be called inside a scheduler run; the
    fiber blocks until a connection arrives and exits once the listener
    is stopped (see {!drain}). A run that never drains its servers ends
    in {!Ivdb_sched.Sched.Stuck} once nothing else can run. *)

val drain : t -> unit
(** Stop accepting, begin refusing new transactions. Idempotent. *)

val inflight : t -> int
(** Sessions currently admitted and not yet closed. *)

val attach_replica : t -> Replica.t -> unit
(** On a follower's server: register the local replication driver. While
    the database is still a follower, [sys.replication] serves the
    driver's one follower row; after promotion it switches to the
    primary-shaped slot rows — the role transition is visible in the
    catalog. Attaching also lets the [Promote] wire frame stop the driver
    before calling {!Ivdb.Database.promote}. *)
