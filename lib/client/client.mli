(** Blocking ivdb client: connect / exec / close over any
    {!Ivdb_transport.Transport.dialer}.

    The client is transport-agnostic: [connect dialer] takes a named
    connection factory ({!Ivdb_transport.Transport.dialer}), so the same
    code drives the deterministic loopback (from inside a scheduler run)
    and real TCP (from a standalone process such as the REPL).
    "Blocking" follows the transport's discipline — fiber-suspending
    under the scheduler, thread-blocking outside.

    Connection failures ({!Ivdb_transport.Transport.Refused}, a [Busy] shed
    frame) are retried with doubling, capped backoff up to [attempts]
    times. A connection that dies mid-use is re-dialed automatically on
    the failing {!exec}, which then raises {!Disconnected} so the caller
    knows any open transaction was lost; the next [exec] uses the fresh
    connection. *)

exception Server_busy of { retry_ticks : int }
(** Admission control shed the connection and reconnection attempts ran
    out. *)

exception
  Server_error of {
    code : Ivdb_wire.Wire.error_code;
    text : string;
    txn_open : bool;
  }
(** The server answered [Err]. [txn_open] tells whether the session's
    open transaction survived (e.g. a SQL error keeps it, a deadlock
    rollback does not). *)

exception Disconnected of string
(** The connection died (EOF, corrupt stream, server [Bye]). If a
    reconnect succeeded, the next {!exec} works — on a fresh session. *)

type t

val connect :
  ?client:string -> ?attempts:int -> Ivdb_transport.Transport.dialer -> t
(** Dial and handshake. [client] is the identity sent in [Hello]
    (default ["ivdb-client"]); [attempts] bounds dial/handshake retries
    (default 8). Raises {!Server_busy}, {!Disconnected}, or
    {!Server_error} when the handshake itself is refused. *)

val peer_addr : t -> string
(** The dialer's [addr] — the peer this client targets. *)

val session_id : t -> int
(** Server-assigned session id from the latest [Welcome]. *)

val server_name : t -> string
val reconnects : t -> int
(** Successful re-dials performed since [connect]. *)

val exec : ?rid:int -> t -> string -> Ivdb_sql.Sql.result
(** Ship one statement, wait for its response frame. Raises
    {!Server_error} on [Err], {!Server_busy} on [Busy],
    {!Disconnected} on a dead connection (after attempting reconnect).
    Every statement carries a correlation id
    ([session * 65536 + (seq land 0xffff)] by default) echoed into the
    server's trace events and slow-query log. [?rid]
    overrides it — the shard coordinator stamps its own per-statement id
    on fanned-out statements so every shard-side record of one
    distributed statement shares a single correlation id. *)

val prepare_2pc :
  ?rid:int -> t -> gtxn:string -> [ `Prepared | `Read_only ]
(** 2PC phase 1: ask the server to prepare its session's open transaction
    under global id [gtxn]; returning is a yes vote. [`Read_only]: the
    transaction logged nothing there, so the shard committed it and
    released its locks, and it needs no decision. A resend for a gtxn
    the shard already holds in doubt is answered [`Prepared] from its
    in-doubt table, not re-executed. Raises {!Server_error} on a no vote
    (the participant rolled back, or its session had no open
    transaction) and {!Disconnected} on a dead connection. There is no
    transparent retry: the server rolls a dead session's transaction
    back, so a resend on a fresh session finds nothing to prepare. *)

val decide_2pc : ?rid:int -> t -> gtxn:string -> committed:bool -> unit
(** 2PC phase 2: deliver the coordinator's logged decision. Idempotent on
    the server (retransmits re-ack; unknown abort is presumed-abort).
    [?rid] (default 0) correlates the participant's [Twopc_decide] trace
    event back to the coordinator statement. *)

val metrics : t -> string
(** Fetch the server's metrics registry as Prometheus text exposition
    (a [Metrics_req] frame answered with [Msg]). *)

val promote : t -> string
(** Admin: ask a follower server to promote itself to primary (a
    [Promote] frame). Returns the server's [Msg] text describing the
    promotion (losers rolled back, undo records).
    Raises {!Server_error} with [E_repl] if the server is not a
    follower. *)

val drop_slot : t -> string -> string
(** Admin: [drop_slot t name] asks the server to forget the detached
    replication slot [name] so its acked horizon stops pinning WAL
    retention (a [DropSlot] frame). Raises {!Server_error} with [E_repl]
    if the slot is unknown or still has a live subscription. *)

val repoint : t -> Ivdb_transport.Transport.dialer -> unit
(** Failover: drop the current connection and re-establish against a
    different server — typically a promoted primary. Any server-side
    transaction was already lost with the old server; a fresh session is
    negotiated. Raises like {!connect} if the new server is
    unreachable. *)

val close : t -> unit
(** Send [Bye] and close; idempotent. *)
