module Sched = Ivdb_sched.Sched
module Wire = Ivdb_wire.Wire
module Transport = Ivdb_transport.Transport
module Frame_io = Ivdb_transport.Transport.Frame_io
module Sql = Ivdb_sql.Sql

exception Server_busy of { retry_ticks : int }

exception
  Server_error of {
    code : Wire.error_code;
    text : string;
    txn_open : bool;
  }

exception Disconnected of string

type t = {
  mutable dialer : Transport.dialer; (* swapped by repoint on failover *)
  client : string;
  attempts : int;
  mutable io : Frame_io.t option;
  mutable session : int;
  mutable server : string;
  mutable seq : int;
  mutable reconnects : int;
  mutable closed : bool;
}

(* Correlation id for one statement: session id in the high half, request
   seq in the low 16 bits — unique across a run's sessions, stable across
   the wire (u32), and greppable in both client-side logs and the
   server's trace / slow-query log. *)
let rid_of ~session ~seq = (session * 65536) + (seq land 0xffff)

(* Doubling backoff, capped: yields under the scheduler (each yield is a
   logical tick and lets the server run), a short sleep outside it. *)
let backoff n =
  if Sched.in_run () then
    for _ = 1 to n do
      Sched.yield ()
    done
  else Unix.sleepf (float_of_int n *. 0.0005)

let next_delay n = min (2 * n) 64

(* One dial + handshake. Raises on every failure mode; [connect] and the
   reconnect path wrap it with retries. *)
let dial_once t =
  let conn = t.dialer.Transport.dial () in
  let io = Frame_io.create conn in
  Frame_io.send io
    (Wire.Hello
       {
         version = Wire.version;
         client = t.client;
         resume = (if t.session = 0 then None else Some t.session);
       });
  match Frame_io.recv io with
  | Some (Wire.Welcome { session; server; _ }) ->
      t.session <- session;
      t.server <- server;
      t.io <- Some io
  | Some (Wire.Busy { retry_ticks }) ->
      conn.Transport.close ();
      raise (Server_busy { retry_ticks })
  | Some (Wire.Err { code; text; txn_open; _ }) ->
      conn.Transport.close ();
      raise (Server_error { code; text; txn_open })
  | Some _ | None ->
      conn.Transport.close ();
      raise (Disconnected "handshake failed")
  | exception Transport.Corrupt m ->
      conn.Transport.close ();
      raise (Disconnected m)

let establish t =
  let rec go attempt delay =
    try dial_once t
    with (Transport.Refused | Server_busy _ | Disconnected _) as e ->
      if attempt >= t.attempts then raise e
      else begin
        backoff delay;
        go (attempt + 1) (next_delay delay)
      end
  in
  go 1 1

let connect ?(client = "ivdb-client") ?(attempts = 8) dialer =
  let t =
    {
      dialer;
      client;
      attempts;
      io = None;
      session = 0;
      server = "";
      seq = 0;
      reconnects = 0;
      closed = false;
    }
  in
  establish t;
  t

let peer_addr t = t.dialer.Transport.addr
let session_id t = t.session
let server_name t = t.server
let reconnects t = t.reconnects

let drop t =
  (match t.io with
  | Some io -> (Frame_io.conn io).Transport.close ()
  | None -> ());
  t.io <- None

(* The connection died under us: re-dial (best effort) so the next exec
   finds a live session, then tell the caller what happened. *)
let broken t msg =
  drop t;
  (try
     establish t;
     t.reconnects <- t.reconnects + 1
   with _ -> ());
  raise (Disconnected msg)

(* The one request skeleton: send the frame [make seq] on a live
   session and decode the reply; [decode] answers [None] for a frame
   that is no reply to this request. Errors, sheds, a closing server and
   a dead line map the same way for every request. *)
let request t make decode =
  if t.closed then raise (Disconnected "client closed");
  match t.io with
  | None -> broken t "not connected"
  | Some io -> (
      t.seq <- t.seq + 1;
      Frame_io.send io (make t.seq);
      match Frame_io.recv io with
      | Some (Wire.Err { code; text; txn_open; _ }) ->
          raise (Server_error { code; text; txn_open })
      | Some (Wire.Busy { retry_ticks }) -> raise (Server_busy { retry_ticks })
      | Some Wire.Bye -> broken t "server closed the session"
      | Some frame -> (
          match decode frame with
          | Some v -> v
          | None -> broken t "protocol violation from server")
      | None -> broken t "connection closed"
      | exception Transport.Corrupt m -> broken t m)

let exec ?rid t sql =
  request t
    (fun seq ->
      let rid =
        match rid with
        | Some r -> r
        | None -> rid_of ~session:t.session ~seq
      in
      Wire.Exec { seq; rid; sql })
    (function
      | Wire.Rows { header; rows; _ } -> Some (Sql.Rows { header; rows })
      | Wire.Affected { n; _ } -> Some (Sql.Affected n)
      | Wire.Msg { text; _ } -> Some (Sql.Message text)
      | _ -> None)

(* Admin round trips answered with a Msg frame (metrics, promote,
   drop_slot) share one request shape. *)
let msg_request t make =
  request t make (function Wire.Msg { text; _ } -> Some text | _ -> None)

(* 2PC round trips for the coordinator. Deliberately no transparent
   retry: whether to re-send is the coordinator's call (it re-sends a
   Decide, which the server answers idempotently from the in-doubt table
   and the presumed-abort rule, but never a Prepare, whose session
   transaction died with the line). *)
let prepare_2pc ?(rid = 0) t ~gtxn =
  request t
    (fun seq -> Wire.Prepare { seq; rid; gtxn })
    (function
      | Wire.Prepared { read_only; _ } ->
          Some (if read_only then `Read_only else `Prepared)
      | _ -> None)

let decide_2pc ?(rid = 0) t ~gtxn ~committed =
  request t
    (fun seq -> Wire.Decide { seq; rid; gtxn; committed })
    (function Wire.Decided _ -> Some () | _ -> None)

let metrics t = msg_request t (fun seq -> Wire.Metrics_req { seq })
let promote t = msg_request t (fun seq -> Wire.Promote { seq })
let drop_slot t name = msg_request t (fun seq -> Wire.DropSlot { seq; name })

(* Failover: aim this client at a different server (e.g. a freshly
   promoted primary). Any server-side transaction died with the old
   primary anyway, so the session is simply re-established. *)
let repoint t dialer =
  drop t;
  t.dialer <- dialer;
  t.session <- 0;
  establish t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.io with
    | Some io -> ( try Frame_io.send io Wire.Bye with _ -> ())
    | None -> ());
    drop t
  end
