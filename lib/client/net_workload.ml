module Sched = Ivdb_sched.Sched
module Rng = Ivdb_util.Rng
module Zipf = Ivdb_util.Zipf
module Workload = Ivdb.Workload
module Database = Ivdb.Database
module Server = Ivdb_server.Server
module Replica = Ivdb_server.Replica
module Transport = Ivdb_transport.Transport
module Unix_transport = Ivdb_transport.Unix_transport
module Wire = Ivdb_wire.Wire
module Wal = Ivdb_wal.Wal

type transport = Loopback | Tcp

type repl_report = {
  lag_max : int;
  lag_mean : float;
  ship_batches : int;
  reconnects : int;
  catchup_ticks : int;
}

let insert_sql ~id ~product ~qty ~amount =
  Printf.sprintf "INSERT INTO sales VALUES (%d, %d, %d, %.4f)" id product qty
    amount

(* One writer transaction: BEGIN, ops, COMMIT. Returns [true] on commit.
   Deadlock victims lose their server-side transaction (the Err frame
   carries [txn_open = false]) and retry from BEGIN with capped backoff;
   a died-and-reconnected session likewise restarts from scratch. *)
let writer_txn cl spec rng zipf next_id my_rows =
  let max_tries = 10 in
  let rec attempt tries delay =
    let rolled_back = ref [] in
    match
      ignore (Client.exec cl "BEGIN");
      for _ = 1 to spec.Workload.ops_per_txn do
        let do_delete =
          Rng.float rng < spec.Workload.delete_fraction && !my_rows <> []
        in
        if do_delete then begin
          match !my_rows with
          | id :: rest ->
              my_rows := rest;
              rolled_back := id :: !rolled_back;
              ignore
                (Client.exec cl
                   (Printf.sprintf "DELETE FROM sales WHERE id = %d" id))
          | [] -> ()
        end
        else begin
          incr next_id;
          let id = !next_id in
          ignore
            (Client.exec cl
               (insert_sql ~id ~product:(Zipf.draw zipf rng)
                  ~qty:(1 + Rng.int rng 10)
                  ~amount:(Rng.float rng *. 100.)));
          my_rows := id :: !my_rows
        end
      done;
      ignore (Client.exec cl "COMMIT")
    with
    | () -> true
    | exception Client.Server_error { code = Wire.E_deadlock; _ } ->
        (* rows deleted inside the lost transaction are back *)
        my_rows := !rolled_back @ !my_rows;
        if tries >= max_tries then false
        else begin
          for _ = 1 to delay do
            Sched.yield ()
          done;
          attempt (tries + 1) (min (2 * delay) 32)
        end
    | exception Client.Server_error { txn_open; _ } ->
        my_rows := !rolled_back @ !my_rows;
        if txn_open then ignore (Client.exec cl "ROLLBACK");
        false
    | exception Client.Disconnected _ ->
        (* reconnected on a fresh session: the open transaction is gone *)
        my_rows := !rolled_back @ !my_rows;
        if tries >= max_tries then false else attempt (tries + 1) delay
  in
  attempt 0 1

let reader_txn cl =
  match ignore (Client.exec cl "SELECT * FROM sales_by_product_0") with
  | () -> true
  | exception Client.Server_error _ -> false
  | exception Client.Disconnected _ -> false

(* The server shape's client: one connection per worker. A worker the
   admission control never lets in gets no client at all. *)
let net_client spec dialer next_id w rng zipf =
  match
    Client.connect ~client:(Printf.sprintf "wl-%d" w) ~attempts:64 dialer
  with
  | cl ->
      let my_rows = ref [] in
      Some
        {
          Workload.txn =
            (fun ~reader ->
              if reader then reader_txn cl
              else writer_txn cl spec rng zipf next_id my_rows);
          close = (fun () -> Client.close cl);
        }
  | exception (Client.Server_busy _ | Client.Disconnected _) -> None

let run_net ?(transport = Loopback) ?(server_config = Server.default_config)
    spec =
  let db, _sales, _views = Workload.setup spec in
  let next_id = ref 0 in
  let result =
    Workload.closed_loop spec (Database.metrics db) ~on_commit:ignore
      (fun start ->
        let listener, dialer =
          match transport with
          | Loopback ->
              (* backlog well above mpl so the admission-control cap in
                 [server_config], not the transport queue, is the limiter *)
              let net =
                Transport.Loopback.create
                  ~backlog:(max 64 (2 * spec.Workload.mpl))
                  ()
              in
              (Transport.Loopback.listener net, Transport.Loopback.dialer net)
          | Tcp ->
              let listener, port = Unix_transport.listen ~port:0 () in
              (listener, Unix_transport.dialer ~port ())
        in
        let srv = Server.create ~config:server_config db listener in
        Server.serve srv;
        let wait, _running = start (net_client spec dialer next_id) in
        wait ();
        Server.drain srv)
  in
  (result, db)

(* The same closed-loop run with a follower attached over a second
   loopback connection: primary serves clients and ships its WAL; the
   replica driver applies continuously while the workload runs. After
   the last client commits, the run waits for the follower to reach the
   primary's flushed horizon (that wait is [catchup_ticks]) before
   draining, so the returned follower is always converged. *)
let run_replicated ?(server_config = Server.default_config) spec =
  let db, _sales, _views = Workload.setup spec in
  let fdb = Database.create_follower () in
  let next_id = ref 0 in
  let lag_sum = ref 0 and lag_n = ref 0 and lag_max = ref 0 in
  let catchup = ref 0 in
  let ship_batches = ref 0 and reconnects = ref 0 in
  (* replication lag, sampled as each transaction commits *)
  let sample_lag _ =
    let lag = Wal.flushed_lsn (Database.wal db) - Database.replicated_lsn fdb in
    lag_sum := !lag_sum + lag;
    incr lag_n;
    if lag > !lag_max then lag_max := lag
  in
  let result =
    Workload.closed_loop spec (Database.metrics db) ~on_commit:sample_lag
      (fun start ->
        let net =
          Transport.Loopback.create
            ~backlog:(max 64 ((2 * spec.Workload.mpl) + 2))
            ()
        in
        let srv =
          Server.create ~config:server_config db
            (Transport.Loopback.listener net)
        in
        Server.serve srv;
        let repl =
          Replica.create ~name:"wl-follower" fdb (Transport.Loopback.dialer net)
        in
        Replica.spawn repl;
        let wait, _running =
          start (net_client spec (Transport.Loopback.dialer net) next_id)
        in
        wait ();
        (* aborts (e.g. deadlock victims) append CLRs without forcing:
           flush the tail so the follower can converge on the full log *)
        let pwal = Database.wal db in
        Wal.force pwal (Wal.last_lsn pwal);
        let done_tick = Sched.now () in
        while Database.replicated_lsn fdb < Wal.flushed_lsn pwal do
          Sched.yield ()
        done;
        catchup := Sched.now () - done_tick;
        ship_batches := Replica.batches repl;
        reconnects := Replica.reconnects repl;
        Replica.stop repl;
        Server.drain srv)
  in
  let report =
    {
      lag_max = !lag_max;
      lag_mean =
        (if !lag_n = 0 then 0. else float_of_int !lag_sum /. float_of_int !lag_n);
      ship_batches = !ship_batches;
      reconnects = !reconnects;
      catchup_ticks = !catchup;
    }
  in
  (result, db, fdb, report)
