(* Follower-side replication driver: dials the primary, subscribes from
   the follower's applied horizon, and pumps ReplRecords batches into
   Database.apply_replicated, acking each one at the applied horizon.

   Failure handling is uniform: anything that breaks the stream — EOF,
   corrupt frame, a torn batch (decode_frames returned a short dense
   prefix), a protocol violation — drops the connection and redials,
   resubscribing from whatever the follower has durably applied. The
   primary re-ships from the subscribe position, so the stream always
   restarts exactly where the follower left off. An Err frame from the
   primary is fatal (refused subscribe, draining): the driver stops
   rather than spin against a server that said no. *)

module Sched = Ivdb_sched.Sched
module Wire = Ivdb_wire.Wire
module Transport = Ivdb_transport.Transport
module Wal = Ivdb_wal.Wal
module Database = Ivdb.Database
module Metrics = Ivdb_util.Metrics
module Value = Ivdb_relation.Value
module Sql = Ivdb_sql.Sql
module Sys_tables = Ivdb_sql.Sys_tables

type status = Connecting | Streaming | Stopped

type t = {
  db : Database.t;
  mutable dialer : Transport.dialer; (* swapped by repoint on failover *)
  name : string;
  mutable status : status;
  mutable stop_requested : bool;
  mutable conn : Transport.conn option; (* live connection, closed by stop *)
  mutable primary_flushed : int; (* primary's last advertised stable horizon *)
  mutable batches : int;
  mutable reconnects : int;
  mutable tick : int; (* tick of the last applied batch *)
  mutable delivered : bool; (* current session delivered >= 1 batch *)
  mutable backoff : int; (* ticks to wait before the next redial *)
  m_batches : Metrics.counter;
  m_records : Metrics.counter;
  m_reconnects : Metrics.counter;
}

let create ?(name = "replica") db dialer =
  if not (Database.is_follower db) then
    invalid_arg "Replica.create: database is not a follower";
  let m = Database.metrics db in
  {
    db;
    dialer;
    name;
    status = Connecting;
    stop_requested = false;
    conn = None;
    primary_flushed = Database.replicated_lsn db;
    batches = 0;
    reconnects = 0;
    tick = 0;
    delivered = false;
    backoff = 1;
    m_batches = Metrics.counter m "replica.batches";
    m_records = Metrics.counter m "replica.records";
    m_reconnects = Metrics.counter m "replica.reconnects";
  }

let status t = t.status
let batches t = t.batches
let reconnects t = t.reconnects

let lag t = max 0 (t.primary_flushed - Database.replicated_lsn t.db)

let stop t =
  t.stop_requested <- true;
  (* wake a fiber blocked in recv: close turns the pending read into EOF *)
  match t.conn with Some c -> c.Transport.close () | None -> ()

let repoint t dialer =
  t.dialer <- dialer;
  t.backoff <- 1;
  (* drop the live session (if any): the redial loop picks up the new
     dialer and resubscribes from the applied horizon *)
  match t.conn with Some c -> c.Transport.close () | None -> ()

(* Apply one ReplRecords batch; [false] ends the session. A batch that
   does not start right after the applied horizon is refused whole.
   decode_frames never raises: a torn or corrupt payload tail yields a
   short dense prefix, which is still safe to apply — the follower simply
   acks less than [upto] and the caller drops the connection to force a
   clean restart. *)
let apply_batch t ~first ~upto ~flushed payload =
  if first <> Database.replicated_lsn t.db + 1 then false
  else begin
    let records = Wal.decode_frames ~first_lsn:first payload in
    (match records with [] -> () | _ -> Database.apply_replicated t.db records);
    t.primary_flushed <- max t.primary_flushed flushed;
    let n = List.length records in
    Metrics.inc t.m_batches;
    Metrics.inc_by t.m_records n;
    t.batches <- t.batches + 1;
    t.delivered <- true;
    t.tick <- Sched.now ();
    first + n - 1 >= upto
  end

(* One connection's lifetime: dial, handshake, subscribe, pump until the
   stream breaks or [stop] is requested. *)
let session t =
  let conn = t.dialer.Transport.dial () in
  t.conn <- Some conn;
  let io = Transport.Frame_io.create conn in
  Fun.protect
    ~finally:(fun () ->
      t.conn <- None;
      conn.Transport.close ())
    (fun () ->
      Transport.Frame_io.send io
        (Wire.Hello { version = Wire.version; client = t.name; resume = None });
      match Transport.Frame_io.recv io with
      | Some (Wire.Welcome _) ->
          Transport.Frame_io.send io
            (Wire.ReplSubscribe
               { from = Database.replicated_lsn t.db + 1; replica = t.name });
          t.status <- Streaming;
          let rec pump () =
            if not t.stop_requested then
              match Transport.Frame_io.recv io with
              | Some (Wire.ReplRecords { first; upto; flushed; payload }) -> (
                  if apply_batch t ~first ~upto ~flushed payload then begin
                    Transport.Frame_io.send io
                      (Wire.ReplAck { upto = Database.replicated_lsn t.db });
                    pump ()
                  end)
              | Some (Wire.Err _) -> t.stop_requested <- true
              | Some _ | None -> ()
          in
          pump ()
      | Some (Wire.Err _) -> t.stop_requested <- true
      | Some _ | None -> ())

let run t =
  t.backoff <- 1;
  let rec go () =
    if not t.stop_requested then begin
      t.delivered <- false;
      (match session t with
      | () -> ()
      | exception (Transport.Refused | Transport.Corrupt _) -> ());
      if not t.stop_requested then begin
        t.reconnects <- t.reconnects + 1;
        Metrics.inc t.m_reconnects;
        t.status <- Connecting;
        (* a session that streamed real batches was healthy: restart the
           backoff clock instead of compounding every delay since boot
           (a replica that ran for a week and hiccuped once should redial
           in 1 tick, not 64) *)
        if t.delivered then t.backoff <- 1;
        for _ = 1 to t.backoff do
          Sched.yield ()
        done;
        t.backoff <- min (2 * t.backoff) 64;
        go ()
      end
    end
  in
  go ();
  t.status <- Stopped

let spawn t = ignore (Sched.spawn (fun () -> run t))

let replication_rows t () =
  let row =
    [|
      Value.Str "follower";
      Value.Str t.dialer.Transport.addr;
      Value.Str
        (match t.status with
        | Connecting -> "connecting"
        | Streaming -> "streaming"
        | Stopped -> "stopped");
      Value.Int (Database.replicated_lsn t.db);
      Value.Int t.primary_flushed;
      Value.Int (lag t);
      Value.Int t.tick;
    |]
  in
  (Sys_tables.replication_header, [ row ])
