(** The ivdb client/server wire protocol: a versioned, length-prefixed
    binary frame codec.

    Every frame on the wire is [u32 length | u32 checksum | payload]
    (big-endian, like the WAL's {!Ivdb_wal.Log_record} framing); the
    checksum is FNV-1a over the payload bytes, so a torn or corrupted
    frame is detected before it is interpreted. The incremental decoder
    {!decode_frame} never yields a frame from a partial or damaged
    buffer — a property the truncation-sweep tests enforce at byte
    granularity.

    The protocol is a strict request/response alternation after a
    handshake:
    {v
      client                         server
      Hello {version; client; resume} ->
                                     <- Welcome {version; server; session}
                                        (or Err, or Busy on load shed)
      Exec {seq; sql}                ->
                                     <- Rows | Affected | Msg | Err  (same seq)
      ...
      Bye                            ->   (connection closes)
    v}

    An open transaction is per-connection state on the server (the
    [BEGIN]/[COMMIT] of the SQL dialect); [Hello.resume] optionally names
    a previous session id so a reconnecting client can ask for its
    transactional continuation — a server that no longer holds that
    session simply hands out a fresh one. *)

val version : int
(** Current protocol version, negotiated in the handshake. *)

type error_code =
  | E_sql  (** {!Ivdb_sql.Sql.Sql_error}: semantic error, txn kept open *)
  | E_parse  (** lexer/parser rejection *)
  | E_constraint  (** uniqueness violation *)
  | E_deadlock  (** deadlock victim; an open transaction was rolled back *)
  | E_draining  (** server is draining: no new transactions *)
  | E_protocol  (** handshake/framing violation; connection closes *)
  | E_read_only  (** the engine is a replication follower; writes rejected *)
  | E_repl
      (** replication request the primary cannot serve (e.g. subscribe
          below its retained log) *)

type frame =
  | Hello of { version : int; client : string; resume : int option }
  | Welcome of { version : int; server : string; session : int }
  | Exec of { seq : int; rid : int; sql : string }
      (** [rid] is an opaque client-assigned correlation id (u32) echoed
          into server trace events and the slow-query log, so a server-side
          record can be joined back to the client call that caused it *)
  | Rows of {
      seq : int;
      header : string list;
      rows : Ivdb_relation.Row.t list;
    }
  | Affected of { seq : int; n : int }
  | Msg of { seq : int; text : string }
  | Err of { seq : int; code : error_code; text : string; txn_open : bool }
      (** [txn_open] tells the client whether its server-side transaction
          survived the error (true for SQL errors, false after a
          deadlock rollback) *)
  | Busy of { retry_ticks : int }
      (** load shed: admission control refused the connection or request;
          retry after a backoff *)
  | Metrics_req of { seq : int }
      (** ask the server for a Prometheus text rendering of its metrics
          registry; answered with a [Msg] carrying the exposition body *)
  | ReplSubscribe of { from : Ivdb_wal.Log_record.lsn; replica : string }
      (** switch this session into a replication stream: the follower
          named [replica] wants stable WAL records starting at [from]
          (its next unapplied LSN; 1 for an empty follower). The session
          leaves request/response mode — the primary answers with a
          [ReplRecords] per available batch, each acknowledged by a
          [ReplAck], until either side closes. Subscribing below the
          primary's retained log gets [Err E_repl]. *)
  | ReplRecords of {
      first : Ivdb_wal.Log_record.lsn;  (** LSN of the first record *)
      upto : Ivdb_wal.Log_record.lsn;  (** LSN of the last record *)
      flushed : Ivdb_wal.Log_record.lsn;
          (** primary's stable horizon when the batch was cut — lets the
              follower compute its lag without another round trip *)
      payload : string;
          (** records [first..upto] as {!Ivdb_wal.Wal.serialize_range}
              framed bytes: each [u32 len | u32 fnv1a32 | record], the
              same length+checksum framing the WAL itself persists, so
              the follower validates with {!Ivdb_wal.Wal.decode_frames} *)
    }
  | ReplAck of { upto : Ivdb_wal.Log_record.lsn }
      (** follower → primary: everything up to [upto] is ingested and
          applied. The primary treats the ack as slot/retention progress
          only — it never rewinds its ship position, which is
          renegotiated at subscribe time. *)
  | Promote of { seq : int }
      (** admin request: promote a follower to primary — stop ingesting,
          roll back the replayed in-flight suffix, open writes. Answered
          with a [Msg] describing the promotion, or [Err E_repl] if the
          server is not a follower. *)
  | DropSlot of { seq : int; name : string }
      (** admin request: forget a detached replication slot so its acked
          horizon stops pinning the WAL retention floor. Answered with a
          [Msg], or [Err E_repl] if the slot is unknown or still
          connected. *)
  | Prepare of { seq : int; rid : int; gtxn : string }
      (** 2PC phase 1, coordinator → participant: force-prepare the
          session's open transaction under global id [gtxn]. [rid] is the
          coordinator's correlation id for the commit statement driving
          this round, echoed into the participant's [Twopc_prepare] trace
          event so shard-side activity joins the coordinator's stream.
          Answered with [Prepared] (a vote) or [Err] (vote no — the
          transaction was rolled back, or the session had none open).
          Re-sending a [Prepare] for a gtxn the shard holds in doubt is
          answered [Prepared] from its in-doubt table, never re-executed. *)
  | Prepared of { seq : int; gtxn : string; read_only : bool }
      (** A yes vote. [read_only]: the transaction logged nothing on this
          shard, so the shard committed it on the spot, without a force,
          and released its locks; it is not in doubt and expects no
          [Decide]. Otherwise the transaction is forced prepared and
          waits, locks held, for the decision. *)
  | Decide of { seq : int; rid : int; gtxn : string; committed : bool }
      (** 2PC phase 2: the coordinator's logged decision. Idempotent —
          the shard keeps no memory of decided gtxns, so a gtxn not in
          doubt is answered by rule: a commit just re-acks (the shard
          already committed it), and [committed = false] is
          presumed-abort. [rid] correlates like [Prepare.rid] (0 on
          recovery re-delivery). *)
  | Decided of { seq : int; gtxn : string; committed : bool }
  | Bye

val frame_name : frame -> string
(** Stable dotted identifier (["hello"], ["rows"], …) for metrics and
    trace labels. *)

val error_code_name : error_code -> string

(** {1 Payload codec} *)

(** {1 Framing} *)

val to_framed : frame -> string
(** [u32 length | u32 checksum | payload]. *)

type decode_result =
  | Frame of frame * int
      (** a complete, checksum-valid frame and the offset just past it *)
  | Partial  (** not enough bytes yet: read more and retry *)
  | Corrupt of string  (** framing violation; the connection is unusable *)

val decode_framed : string -> pos:int -> decode_result
(** Try to decode one framed frame starting at [pos]. Never raises; never
    returns [Frame] unless length, checksum and payload all verify. *)
