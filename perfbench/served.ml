(* sql-served: the served SQL path. Eight client connections speak the
   wire protocol to one server over the in-memory loopback transport;
   every statement is parsed, planned and executed by the server's SQL
   session. The table keeps a constant 2,000 rows: two connections run
   writer transactions that update a random row, insert one and delete
   their session's oldest; the other six send autocommit point reads
   (two in three) and view reads. Point DML and autocommit reads are
   where the planner, MVCC and locking show.

   Point DML scans the table under S locks today, so concurrent writers
   deadlock. With three or more writer connections the retry chains made
   the writer tail vary by a factor of four between seeds; two writers
   still wait on and deadlock with each other, with a tail that repeats
   within a few percent. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Server = Ivdb_server.Server
module Client = Ivdb_client.Client
module Sql = Ivdb_sql.Sql
module Wire = Ivdb_wire.Wire
module Value = Ivdb_relation.Value
module Txn = Ivdb_txn.Txn

let rows = 2000
let sessions = 8
let writers = 2
let txns = 1600
let groups = 20

let rows_of = function Sql.Rows { rows; _ } -> rows | _ -> []

(* A growable set of live ids with uniform draws. *)
type live = {
  mutable ids : int array;
  mutable n : int;
  pos : (int, int) Hashtbl.t;
}

let live_add s id =
  if s.n = Array.length s.ids then begin
    let a = Array.make (2 * s.n) 0 in
    Array.blit s.ids 0 a 0 s.n;
    s.ids <- a
  end;
  s.ids.(s.n) <- id;
  Hashtbl.replace s.pos id s.n;
  s.n <- s.n + 1

let live_remove s id =
  let p = Hashtbl.find s.pos id in
  s.n <- s.n - 1;
  let last = s.ids.(s.n) in
  s.ids.(p) <- last;
  Hashtbl.replace s.pos last p;
  Hashtbl.remove s.pos id

let insert_values rng zipf id =
  Printf.sprintf "(%d, %d, %d, %.4f)" id (Load.draw zipf rng)
    (1 + Random.State.int rng 10)
    (Random.State.float rng 100.)

let run ~seed ~scale ~tr =
  let words0 = Load.live_words () in
  let setup = Refclock.start () in
  let config =
    {
      Database.default_config with
      commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
    }
  in
  let db = Database.create ~config () in
  let shim = Shim.create tr in
  let zipf = Load.zipf ~n:groups ~theta:0.99 in
  let result = ref None in
  Sched.run ~seed (fun () ->
      let srv =
        Server.create
          ~config:{ Server.default_config with max_inflight = 64 }
          db (Shim.listener shim)
      in
      Server.serve srv;
      let admin = Client.connect ~client:"setup" (Shim.dialer shim (Spans.ctx ())) in
      let admin_exec s = ignore (Client.exec admin s) in
      List.iter admin_exec
        [
          "CREATE TABLE sales (id INT NOT NULL, product INT NOT NULL, qty INT \
           NOT NULL, amount FLOAT NOT NULL)";
          "CREATE UNIQUE INDEX sales_id ON sales (id)";
          "CREATE VIEW sales_by_product AS SELECT product, COUNT(*), SUM(qty) \
           FROM sales GROUP BY product USING ESCROW";
        ];
      let prng = Load.rng ~seed ~session:(-1) in
      let live = { ids = Array.make rows 0; n = 0; pos = Hashtbl.create (2 * rows) } in
      let batch = 100 in
      for b = 0 to (rows / batch) - 1 do
        let ids = List.init batch (fun k -> (b * batch) + k + 1) in
        admin_exec
          ("INSERT INTO sales VALUES "
          ^ String.concat ", " (List.map (insert_values prng zipf) ids));
        List.iter (live_add live) ids;
        Refclock.tick setup
      done;
      Refclock.stop setup;
      (* --- measured phase ------------------------------------------------- *)
      let clock = Refclock.start () in
      let l = Load.ledger clock in
      let probe = Load.probe clock [ Database.metrics db ] in
      let bytes0 = shim.bytes and frames0 = shim.frames in
      Option.iter
        (fun t -> Spans.attach (Database.trace db) (Spans.engine_sink t))
        tr;
      let next_id = ref rows and bad = ref 0 in
      let per_session = max 1 (truncate (float_of_int txns *. scale)) / sessions in
      let session i =
        let rng = Load.rng ~seed ~session:i in
        let c = Spans.ctx () in
        Option.iter (fun t -> Spans.bind t c) tr;
        let cl = Client.connect ~client:(Printf.sprintf "s%d" i) (Shim.dialer shim c) in
        let exec sql =
          l.stmts <- l.stmts + 1;
          if tr <> None then
            Spans.within tr c "sql.parse" (fun () ->
                ignore (Ivdb_sql.Sql_parser.parse sql));
          Spans.within tr c "client.exec" (fun () -> Client.exec cl sql)
        in
        (* the preloaded rows this session deletes, oldest first *)
        let own = Queue.create () in
        for id = 1 to rows do
          if id mod sessions = i then Queue.push id own
        done;
        let writer () =
          let t0 = Sched.now () in
          let target = live.ids.(Random.State.int rng live.n) in
          incr next_id;
          let id = !next_id in
          let values = insert_values rng zipf id in
          let victim = Queue.peek own in
          let attempt () =
            match
              ignore (exec "BEGIN");
              ignore
                (exec
                   (Printf.sprintf "UPDATE sales SET qty = qty + 1 WHERE id = %d"
                      target));
              ignore (exec ("INSERT INTO sales VALUES " ^ values));
              let deleted =
                exec (Printf.sprintf "DELETE FROM sales WHERE id = %d" victim)
              in
              ignore (exec "COMMIT");
              deleted
            with
            | Sql.Affected 1 -> Ok ()
            | _ ->
                incr bad;
                Ok ()
            | exception Client.Server_error { code = Wire.E_deadlock; _ } ->
                Error `Retry
            | exception Client.Server_error { txn_open; _ } ->
                if txn_open then ignore (exec "ROLLBACK");
                Error `Fail
          in
          let ok =
            Spans.transaction tr c "txn.write" (fun () ->
                Load.retrying ~on_retry:(fun () -> l.retries <- l.retries + 1) attempt)
            <> None
          in
          if ok then begin
            ignore (Queue.pop own);
            Queue.push id own;
            live_remove live victim;
            live_add live id
          end;
          Load.finish l ~read:false ~t0 ok
        in
        let reader sql expect =
          let t0 = Sched.now () in
          let ok =
            match
              Spans.transaction tr c "txn.read" (fun () -> rows_of (exec sql))
            with
            | rs ->
                if not (expect rs) then incr bad;
                true
            | exception Client.Server_error _ -> false
          in
          Load.finish l ~read:true ~t0 ok
        in
        for _ = 1 to per_session do
          let u = Random.State.float rng 1.0 in
          if i < writers then writer ()
          else if u < 2. /. 3. then begin
            let id = live.ids.(Random.State.int rng live.n) in
            reader
              (Printf.sprintf "SELECT * FROM sales WHERE id = %d" id)
              (function
                | [] -> true
                | [ r ] -> Value.equal r.(0) (Value.Int id)
                | _ -> false)
          end
          else begin
            let g = Load.draw zipf rng in
            reader
              (Printf.sprintf "SELECT * FROM sales_by_product WHERE product = %d" g)
              (function
                | [] -> true
                | [ r ] -> Value.equal r.(0) (Value.Int g)
                | _ -> false)
          end;
          Sched.yield ()
        done;
        Client.close cl
      in
      let t0 = Sched.now () in
      Load.sessions sessions session;
      let ticks = Sched.now () - t0 in
      let t = Load.totals probe in
      Load.add_count t "wire.bytes" (shim.bytes - bytes0);
      Load.add_count t "wire.frames" (shim.frames - frames0);
      Refclock.stop clock;
      let live_words = Load.live_words () - words0 in
      Option.iter (fun _ -> Spans.detach (Database.trace db)) tr;
      (* --- checks: the view against a fold of the base rows ------------- *)
      Load.check l "statements returned the rows asked for" (!bad = 0);
      let base = rows_of (Client.exec admin "SELECT id, product, qty FROM sales") in
      Load.check l
        (Printf.sprintf "table holds %d rows, the live set the sessions kept" rows)
        (List.length base = rows
        && List.for_all (fun r -> Hashtbl.mem live.pos (Value.to_int r.(0))) base);
      Load.check l "view equals GROUP BY product over the base rows"
        (Load.view_matches_base ~base
           ~view:(rows_of (Client.exec admin "SELECT * FROM sales_by_product")));
      Client.close admin;
      Server.drain srv;
      result := Some { Load.setup; l; ticks; t; live_words });
  Option.get !result
