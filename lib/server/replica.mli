(** Follower-side replication driver.

    Connects a follower database ({!Ivdb.Database.create_follower}) to a
    primary's server over the wire protocol: dial, [Hello]/[Welcome],
    [ReplSubscribe] from the follower's durable horizon
    ([replicated_lsn + 1]), then a pump loop — receive [ReplRecords],
    decode ({!Ivdb_wal.Wal.decode_frames}), apply
    ({!Ivdb.Database.apply_replicated}), answer [ReplAck].

    Any stream break (EOF, corrupt frame, torn batch, protocol
    violation) drops the connection and redials with exponential
    backoff (reset to 1 after any session that delivered a batch),
    resubscribing from whatever was durably applied — so no record is
    lost or applied twice. An [Err] frame from the primary (refused
    subscribe, draining) stops the driver for good.

    Progress lands in the follower's metrics: [replica.batches],
    [replica.records], [replica.reconnects] (alongside the engine's
    [repl.applied_records]). *)

type t

type status = Connecting | Streaming | Stopped

val create : ?name:string -> Ivdb.Database.t -> Ivdb_transport.Transport.dialer -> t
(** [create ?name db dialer] — [db] must be a follower
    ([Invalid_argument] otherwise). [name] (default ["replica"])
    identifies this replica's durable slot on the primary: keep it
    stable across restarts so the slot — and the WAL retention it pins —
    is reused rather than duplicated. *)

val spawn : t -> unit
(** Spawn the driver fiber. Must be called inside a scheduler run; the
    fiber exits only via {!stop} or a fatal [Err] from the primary. *)

val stop : t -> unit
(** Request shutdown and close the live connection, waking the fiber if
    it is blocked in a read. Idempotent. *)

val status : t -> status

val repoint : t -> Ivdb_transport.Transport.dialer -> unit
(** Failover: aim the driver at a different primary (one promoted from a
    fellow follower of the old one). Swaps the dialer, resets the redial
    backoff, and drops the live session so the loop reconnects and
    resubscribes from this follower's applied horizon — which the
    promoted primary retains, since its promotion checkpoint does not
    truncate. Only meaningful on a driver that has not stopped. *)

val batches : t -> int
val reconnects : t -> int

val replication_rows :
  t -> unit -> string list * Ivdb_relation.Value.t array list
(** The driver's live one-row [sys.replication] content (role
    [follower], peer, state, horizons, lag). {!Server.attach_replica}
    serves this while the database is still a follower. *)
