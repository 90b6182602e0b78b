module Sched = Ivdb_sched.Sched
module Wire = Ivdb_wire.Wire
module Transport = Ivdb_transport.Transport
module Sql = Ivdb_sql.Sql
module Sys_tables = Ivdb_sql.Sys_tables
module Database = Ivdb.Database
module Wal = Ivdb_wal.Wal
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module Value = Ivdb_relation.Value

type config = {
  max_inflight : int;
  busy_retry_ticks : int;
  name : string;
  slow_query_ticks : int option;
}

let default_config =
  {
    max_inflight = 32;
    busy_retry_ticks = 100;
    name = "ivdb";
    slow_query_ticks = None;
  }

type session = {
  exec : seq:int -> string -> Wire.frame;
  in_txn : unit -> bool;
  close : unit -> unit;
}

(* Where sessions come from: a local engine, whose sessions also answer
   the engine-only frames (2PC participant, replication, promotion), or
   any session factory — a shard coordinator, say. *)
type backend = Engine of Database.t | Sessions of (unit -> session)

(* One row of sys.server_sessions: live per-connection accounting. *)
type sess = {
  se_id : int;
  se_conn : int;
  mutable se_state : string; (* "idle" | "exec" *)
  mutable se_statements : int;
  mutable se_last_rid : int;
  se_session : session;
  se_engine : (Database.t * Sql.session) option;
}

(* One row of sys.slow_queries. *)
type slow = {
  sq_rid : int;
  sq_session : int;
  sq_seq : int;
  sq_ticks : int;
  sq_tick : int; (* completion tick *)
  sq_sql : string;
}

let slow_cap = 128

(* One replication slot: the durable record of how far a named replica
   has applied our log. The slot outlives its connection — a detached
   replica still pins the WAL retain floor at its acked horizon, so the
   records it has yet to ship survive checkpoint truncation until it
   resubscribes. *)
type replica_state = {
  rp_name : string;
  mutable rp_connected : bool;
  mutable rp_acked : int; (* highest LSN the replica has applied *)
  mutable rp_tick : int; (* tick of the last subscribe or ack *)
}

(* Records shipped per ReplRecords frame. Small enough that a slow
   replica never holds a multi-megabyte payload in flight; large enough
   to amortize framing over a busy primary's append rate. *)
let repl_batch_limit = 128

type t = {
  backend : backend;
  metrics : Metrics.t;
  trace : Trace.t;
  listener : Transport.listener;
  config : config;
  mutable inflight : int;
  mutable next_session : int;
  sessions : (int, sess) Hashtbl.t;
  slow : slow Queue.t; (* bounded ring, oldest first *)
  replicas : (string, replica_state) Hashtbl.t; (* slots by replica name *)
  mutable attached : Replica.t option;
      (* on a follower's server: the local replication driver, so
         sys.replication shows the follower row before promotion and the
         Promote frame can stop the driver first *)
  (* metric handles resolved once at create *)
  m_accepted : Metrics.counter;
  m_shed : Metrics.counter;
  m_requests : Metrics.counter;
  m_closed : Metrics.counter;
  m_slow : Metrics.counter;
  m_repl_batches : Metrics.counter;
  m_repl_records : Metrics.counter;
  h_inflight : Metrics.hist;
  h_latency : Metrics.hist;
}

let make ?(config = default_config) ~metrics:m ~trace backend listener =
  {
    backend;
    metrics = m;
    trace;
    listener;
    config;
    inflight = 0;
    next_session = 1;
    sessions = Hashtbl.create 16;
    slow = Queue.create ();
    replicas = Hashtbl.create 4;
    attached = None;
    m_accepted = Metrics.counter m "server.accepted";
    m_shed = Metrics.counter m "server.shed";
    m_requests = Metrics.counter m "server.requests";
    m_closed = Metrics.counter m "server.sessions_closed";
    m_slow = Metrics.counter m "server.slow_queries";
    m_repl_batches = Metrics.counter m "server.repl.batches";
    m_repl_records = Metrics.counter m "server.repl.records";
    h_inflight = Metrics.hist m "server.inflight";
    h_latency = Metrics.hist m "server.request.ticks";
  }

let create ?config db listener =
  make ?config ~metrics:(Database.metrics db) ~trace:(Database.trace db)
    (Engine db) listener

let create_sessions ?config ~metrics ~trace open_session listener =
  make ?config ~metrics ~trace (Sessions open_session) listener

let drain t = t.listener.stop ()
let draining t = t.listener.stopped ()
let inflight t = t.inflight

let slow_queries t = List.of_seq (Queue.to_seq t.slow)

let note_slow t entry =
  Metrics.inc t.m_slow;
  Queue.push entry t.slow;
  if Queue.length t.slow > slow_cap then ignore (Queue.pop t.slow)

let trace_emit t ev = if Trace.enabled t.trace then Trace.emit t.trace ev

(* Live providers for the serving-layer sys.* tables, registered on every
   session's SQL state at handshake so SELECT over the wire (or a local
   admin session pointed at the same server) sees the whole registry. *)

let sessions_rows t () =
  let rows =
    Hashtbl.fold
      (fun _ se acc ->
        [|
          Value.Int se.se_id;
          Value.Int se.se_conn;
          Value.Str se.se_state;
          Value.Bool (se.se_session.in_txn ());
          Value.Int se.se_statements;
          Value.Int se.se_last_rid;
        |]
        :: acc)
      t.sessions []
    |> List.sort compare
  in
  (Sys_tables.server_sessions_header, rows)

let slow_rows t () =
  let rows =
    List.map
      (fun sq ->
        [|
          Value.Int sq.sq_rid;
          Value.Int sq.sq_session;
          Value.Int sq.sq_seq;
          Value.Int sq.sq_ticks;
          Value.Int sq.sq_tick;
          Value.Str sq.sq_sql;
        |])
      (slow_queries t)
  in
  (Sys_tables.slow_queries_header, rows)

let replication_rows t db () =
  match t.attached with
  | Some r when Database.is_follower db ->
      (* still a follower: show the driver's row; after promote the slot
         rows below take over, making the role transition visible in
         sys.replication *)
      Replica.replication_rows r ()
  | _ ->
      let wal = Database.wal db in
      let flushed = Wal.flushed_lsn wal in
      let rows =
        Hashtbl.fold
          (fun _ rp acc ->
            [|
              Value.Str "primary";
              Value.Str rp.rp_name;
              Value.Str (if rp.rp_connected then "streaming" else "detached");
              Value.Int rp.rp_acked;
              Value.Int flushed;
              Value.Int (flushed - rp.rp_acked);
              Value.Int rp.rp_tick;
            |]
            :: acc)
          t.replicas []
        |> List.sort compare
      in
      (Sys_tables.replication_header, rows)

let register_sys t session =
  Sql.add_sys_provider session "sys.server_sessions" (sessions_rows t);
  Sql.add_sys_provider session "sys.slow_queries" (slow_rows t);
  match t.backend with
  | Engine db -> Sql.add_sys_provider session "sys.replication" (replication_rows t db)
  | Sessions _ -> ()

let attach_replica t r = t.attached <- Some r

(* The WAL must retain every record some slot has yet to acknowledge:
   the floor is the minimum unacked LSN across all slots, detached ones
   included. With no slots the floor lifts and checkpoints truncate
   freely again. *)
let update_retain_floor t db =
  let floor =
    Hashtbl.fold
      (fun _ rp acc ->
        match acc with
        | None -> Some (rp.rp_acked + 1)
        | Some f -> Some (min f (rp.rp_acked + 1)))
      t.replicas None
  in
  Wal.set_retain_floor (Database.wal db) floor

let err ?(seq = 0) ?(txn_open = false) code text =
  Wire.Err { seq; code; text; txn_open }

(* Map one statement's execution to its response frame. Exceptions here
   are user errors: the connection survives them all. A deadlock victim
   has already lost its transaction inside the engine, so the session's
   continuation is discarded via ROLLBACK before answering. *)
let exec_frame session ~seq sql =
  let err code text = err ~seq ~txn_open:(Sql.in_transaction session) code text in
  match Sql.exec session sql with
  | Sql.Rows { header; rows } -> Wire.Rows { seq; header; rows }
  | Sql.Affected n -> Wire.Affected { seq; n }
  | Sql.Message text -> Wire.Msg { seq; text }
  | exception Sql.Sql_error text -> err E_sql text
  | exception (Ivdb_sql.Sql_parser.Parse_error text | Ivdb_sql.Sql_lexer.Lex_error text) ->
      err E_parse text
  | exception Database.Constraint_violation text -> err E_constraint text
  | exception Ivdb_txn.Txn.Conflict { reason; _ } ->
      if Sql.in_transaction session then ignore (Sql.exec session "ROLLBACK");
      err E_deadlock reason
  | exception Database.Read_only_replica ->
      err E_read_only "read-only replica: writes are not accepted"

let engine_session t db =
  let sql = Sql.session db in
  register_sys t sql;
  let in_txn () = Sql.in_transaction sql in
  ( {
      exec = exec_frame sql;
      in_txn;
      close = (fun () -> if in_txn () then ignore (Sql.exec sql "ROLLBACK"));
    },
    Some (db, sql) )

(* After ReplSubscribe the connection leaves request/response mode for
   good: the server pushes ReplRecords batches and blocks for a ReplAck
   after each one (stop-and-wait flow control), yielding while caught
   up. Returning closes the session; the slot — and with it the retain
   floor — survives for the replica's next connection. *)
let repl_stream t db io ~from ~replica =
  let wal = Database.wal db in
  if from < Wal.first_lsn wal || from > Wal.flushed_lsn wal + 1 then begin
    Transport.Frame_io.send io
      (err E_repl
         (Printf.sprintf "cannot stream from LSN %d: retained log spans [%d, %d]"
            from (Wal.first_lsn wal) (Wal.flushed_lsn wal)));
    Transport.Frame_io.send io Wire.Bye
  end
  else begin
    let rp =
      match Hashtbl.find_opt t.replicas replica with
      | Some rp -> rp
      | None ->
          let rp =
            {
              rp_name = replica;
              rp_connected = false;
              rp_acked = from - 1;
              rp_tick = Sched.now ();
            }
          in
          Hashtbl.replace t.replicas replica rp;
          rp
    in
    (* the replica is authoritative about what it has durably applied *)
    rp.rp_connected <- true;
    rp.rp_acked <- from - 1;
    rp.rp_tick <- Sched.now ();
    update_retain_floor t db;
    (* the ship position is per-connection, not per-slot: a stale pump
       fiber on a dead connection must not advance the position a fresh
       subscription streams from *)
    let sent = ref (from - 1) in
    trace_emit t
      (Trace.Net_request
         {
           conn = (Transport.Frame_io.conn io).Transport.id;
           seq = 0;
           rid = 0;
           bytes = String.length replica;
         });
    let rec pump () =
      if draining t then Transport.Frame_io.send io Wire.Bye
      else begin
        let flushed = Wal.flushed_lsn wal in
        if flushed > !sent then begin
          let first = !sent + 1 in
          let upto = min flushed (!sent + repl_batch_limit) in
          let payload = Wal.serialize_range wal ~from:first ~upto in
          Transport.Frame_io.send io
            (Wire.ReplRecords { first; upto; flushed; payload });
          sent := upto;
          Metrics.inc t.m_repl_batches;
          Metrics.inc_by t.m_repl_records (upto - first + 1);
          match Transport.Frame_io.recv io with
          | Some (Wire.ReplAck { upto = acked }) ->
              (* the ack is slot/retention progress only, so the ship
                 position keeps advancing; a replica that dropped records
                 closes the connection, and the resubscribe renegotiates
                 the position *)
              rp.rp_acked <- max rp.rp_acked acked;
              rp.rp_tick <- Sched.now ();
              update_retain_floor t db;
              pump ()
          | Some Wire.Bye | None -> ()
          | Some _ -> Transport.Frame_io.send io (err E_protocol "expected ReplAck")
          | exception Transport.Corrupt _ -> ()
        end
        else begin
          Sched.yield ();
          pump ()
        end
      end
    in
    (try pump () with Transport.Corrupt _ -> ());
    rp.rp_connected <- false
  end

(* Closing rolls back whatever transaction the session left open, so a
   client that disconnects mid-transaction releases its locks. *)
let close_session t se conn =
  se.se_session.close ();
  t.inflight <- t.inflight - 1;
  Hashtbl.remove t.sessions se.se_id;
  Metrics.inc t.m_closed;
  trace_emit t (Trace.Net_close { conn = conn.Transport.id });
  conn.Transport.close ()

(* Request/response loop after a successful handshake. Returns on Bye,
   EOF, protocol violation, or drain-with-no-open-txn. *)
let rec session_loop t io se =
  let conn = Transport.Frame_io.conn io in
  match Transport.Frame_io.recv io with
  | None | Some Wire.Bye | (exception Transport.Corrupt _) -> ()
  | Some (Wire.Metrics_req { seq }) ->
      Metrics.inc t.m_requests;
      Transport.Frame_io.send io
        (Wire.Msg { seq; text = Metrics.to_prometheus t.metrics });
      session_loop t io se
  | Some (Wire.Exec { seq; rid; sql }) ->
      if draining t && not (se.se_session.in_txn ()) then begin
        Transport.Frame_io.send io (err ~seq E_draining "server is draining");
        Transport.Frame_io.send io Wire.Bye
      end
      else begin
        Metrics.inc t.m_requests;
        se.se_state <- "exec";
        se.se_statements <- se.se_statements + 1;
        se.se_last_rid <- rid;
        trace_emit t
          (Trace.Net_request
             { conn = conn.id; seq; rid; bytes = String.length sql });
        let t0 = Sched.now () in
        let reply = se.se_session.exec ~seq sql in
        let ticks = Sched.now () - t0 in
        Metrics.record t.h_latency ticks;
        (match t.config.slow_query_ticks with
        | Some threshold when ticks >= threshold ->
            note_slow t
              {
                sq_rid = rid;
                sq_session = se.se_id;
                sq_seq = seq;
                sq_ticks = ticks;
                sq_tick = Sched.now ();
                sq_sql = sql;
              };
            trace_emit t
              (Trace.Slow_query { conn = conn.id; seq; rid; ticks; sql })
        | _ -> ());
        se.se_state <- "idle";
        Transport.Frame_io.send io reply;
        trace_emit t
          (Trace.Net_response
             { conn = conn.id; seq; rid; frame = Wire.frame_name reply; ticks });
        session_loop t io se
      end
  | Some frame -> engine_frame t io se frame

(* Frames only an engine answers. Any other session — and any
   server-to-client frame from a client — is a protocol violation. *)
and engine_frame t io se frame =
  let conn = Transport.Frame_io.conn io in
  match (frame, se.se_engine) with
  | Wire.ReplSubscribe { from; replica }, Some (db, _) ->
      Metrics.inc t.m_requests;
      se.se_state <- "repl";
      repl_stream t db io ~from ~replica
  | Wire.Promote { seq }, Some (db, _) ->
      Metrics.inc t.m_requests;
      let reply =
        if not (Database.is_follower db) then
          err ~seq E_repl "not a follower: nothing to promote"
        else begin
          (* promotion needs the engine quiescent: stop the replication
             driver and wait for its fiber to unwind before touching the
             transaction table *)
          (match t.attached with
          | Some r ->
              Replica.stop r;
              let rec wait () =
                if Replica.status r <> Replica.Stopped then begin
                  Sched.yield ();
                  wait ()
                end
              in
              wait ()
          | None -> ());
          match Database.promote db with
          | p ->
              Wire.Msg
                {
                  seq;
                  text =
                    Printf.sprintf
                      "promoted to primary: %d in-flight transaction(s) \
                       rolled back (%d undo record(s))"
                      p.Database.losers_undone p.Database.undo_records;
                }
          | exception e -> err ~seq E_repl (Printexc.to_string e)
        end
      in
      Transport.Frame_io.send io reply;
      session_loop t io se
  | Wire.DropSlot { seq; name }, Some (db, _) ->
      Metrics.inc t.m_requests;
      let reply =
        match Hashtbl.find_opt t.replicas name with
        | None -> err ~seq E_repl (Printf.sprintf "no replication slot %S" name)
        | Some rp when rp.rp_connected ->
            err ~seq E_repl
              (Printf.sprintf "slot %S has a live subscription; stop the replica first"
                 name)
        | Some _ ->
            Hashtbl.remove t.replicas name;
            (* the dropped slot may have been the retention floor: recompute
               so the next checkpoint truncates again *)
            update_retain_floor t db;
            Wire.Msg { seq; text = Printf.sprintf "dropped replication slot %S" name }
      in
      Transport.Frame_io.send io reply;
      session_loop t io se
  | Wire.Prepare { seq; rid; gtxn }, Some (db, session) ->
      Metrics.inc t.m_requests;
      let reply =
        (* idempotence first: a resend for a gtxn already in doubt is
           answered from the in-doubt table, never re-executed *)
        match Database.gtxn_status db gtxn with
        | `Prepared -> Wire.Prepared { seq; gtxn; read_only = false }
        | `Unknown -> (
            (* a No vote rolls the participant back *)
            let no code text =
              if Sql.in_transaction session then
                ignore (Sql.exec session "ROLLBACK");
              err ~seq code text
            in
            try
              let read_only = Sql.prepare_2pc session ~gtxn = `Read_only in
              Wire.Prepared { seq; gtxn; read_only }
            with
            | Sql.Sql_error text | Invalid_argument text -> no E_sql text
            | Ivdb_txn.Txn.Conflict { reason; _ } -> no E_deadlock reason
            | Database.Read_only_replica ->
                err ~seq E_read_only "read-only replica: cannot prepare")
      in
      (* gtxn-correlated participant event: the coordinator's rid joins
         this to its Coord_prepare on the other side of the wire *)
      (let outcome =
         match reply with
         | Wire.Prepared { read_only = true; _ } -> "read-only"
         | Wire.Prepared _ -> "prepared"
         | _ -> "no"
       in
       trace_emit t (Trace.Twopc_prepare { conn = conn.id; gtxn; rid; outcome }));
      Transport.Frame_io.send io reply;
      session_loop t io se
  | Wire.Decide { seq; rid; gtxn; committed }, Some (db, _) ->
      Metrics.inc t.m_requests;
      let reply =
        match Database.decide_2pc db ~gtxn ~committed with
        | (`Applied | `Duplicate | `Presumed_abort) as o ->
            let outcome =
              match o with
              | `Applied -> "applied"
              | `Duplicate -> "duplicate"
              | `Presumed_abort -> "presumed_abort"
            in
            trace_emit t
              (Trace.Twopc_decide { conn = conn.id; gtxn; rid; committed; outcome });
            Wire.Decided { seq; gtxn; committed }
        | exception Invalid_argument text -> err ~seq E_protocol text
      in
      Transport.Frame_io.send io reply;
      session_loop t io se
  | _ ->
      Transport.Frame_io.send io
        (err ~txn_open:(se.se_session.in_txn ()) E_protocol "unexpected frame")

let handshake t io =
  let conn = Transport.Frame_io.conn io in
  match Transport.Frame_io.recv io with
  | Some (Wire.Hello { version; _ }) when version = Wire.version ->
      if draining t then begin
        Transport.Frame_io.send io (err E_draining "server is draining");
        Transport.Frame_io.send io Wire.Bye;
        None
      end
      else begin
        let opened =
          match t.backend with
          | Engine db -> engine_session t db
          | Sessions open_session -> (open_session (), None)
        in
        match opened with
        | exception e ->
            (* a factory that cannot serve — e.g. a coordinator whose
               shard is unreachable — refuses the connection *)
            Transport.Frame_io.send io
              (err E_sql ("cannot open a session: " ^ Printexc.to_string e));
            None
        | s, se_engine ->
            (* resume is honoured as protocol only: disconnect rolled the
               old transaction back, so a fresh session id is always
               returned *)
            let session = t.next_session in
            t.next_session <- session + 1;
            Transport.Frame_io.send io
              (Wire.Welcome
                 { version = Wire.version; server = t.config.name; session });
            let se =
              {
                se_id = session;
                se_conn = conn.Transport.id;
                se_state = "idle";
                se_statements = 0;
                se_last_rid = 0;
                se_session = s;
                se_engine;
              }
            in
            Hashtbl.replace t.sessions session se;
            Some se
      end
  | Some (Wire.Hello { version; _ }) ->
      Transport.Frame_io.send io
        (err E_protocol (Printf.sprintf "unsupported protocol version %d" version));
      None
  | None -> None
  | Some _ | (exception Transport.Corrupt _) ->
      Transport.Frame_io.send io (err E_protocol "expected Hello");
      None

let session_fiber t conn =
  let io = Transport.Frame_io.create conn in
  match handshake t io with
  | Some se ->
      (try session_loop t io se
       with Transport.Corrupt _ -> ());
      close_session t se conn
  | None | (exception Transport.Corrupt _) ->
      t.inflight <- t.inflight - 1;
      Metrics.inc t.m_closed;
      trace_emit t (Trace.Net_close { conn = conn.Transport.id });
      conn.Transport.close ()

let admit t conn =
  if t.inflight >= t.config.max_inflight then begin
    Metrics.inc t.m_shed;
    trace_emit t (Trace.Net_shed { conn = conn.Transport.id });
    let io = Transport.Frame_io.create conn in
    Transport.Frame_io.send io
      (Wire.Busy { retry_ticks = t.config.busy_retry_ticks });
    conn.Transport.close ()
  end
  else begin
    t.inflight <- t.inflight + 1;
    Metrics.inc t.m_accepted;
    Metrics.record t.h_inflight t.inflight;
    trace_emit t (Trace.Net_accept { conn = conn.Transport.id });
    ignore (Sched.spawn (fun () -> session_fiber t conn))
  end

let serve t =
  ignore
    (Sched.spawn (fun () ->
         let rec loop () =
           match t.listener.accept () with
           | Some conn ->
               admit t conn;
               loop ()
           | None -> ()
         in
         loop ()))
