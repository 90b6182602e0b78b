(* Live introspection end to end: sys.* virtual tables resolved by the
   SQL layer (locally and over the wire), wait-queue visibility during an
   induced escrow conflict, correlation ids joining the slow-query log
   and the trace ring, and the Prometheus exposition of the metrics
   registry. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Workload = Ivdb.Workload
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module Value = Ivdb_relation.Value
module Sql = Ivdb_sql.Sql
module Sys_tables = Ivdb_sql.Sys_tables
module Transport = Ivdb_transport.Transport
module Unix_transport = Ivdb_transport.Unix_transport
module Server = Ivdb_server.Server
module Metrics_http = Ivdb_server.Metrics_http
module Client = Ivdb_client.Client
module Net_workload = Ivdb_client.Net_workload

let check = Alcotest.check

let value =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Value.to_string v)) Value.equal

let rows_of = function
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected Rows"

let header_of = function
  | Sql.Rows { header; _ } -> header
  | _ -> Alcotest.fail "expected Rows"

(* cell accessor by column name *)
let cell header name row =
  match List.find_index (fun h -> h = name) header with
  | Some i -> row.(i)
  | None -> Alcotest.failf "no column %s" name

let int_cell header name row =
  match cell header name row with
  | Value.Int i -> i
  | v -> Alcotest.failf "column %s not an int: %s" name (Value.to_string v)

let str_cell header name row =
  match cell header name row with
  | Value.Str s -> s
  | v -> Alcotest.failf "column %s not a string: %s" name (Value.to_string v)

let contains text sub =
  let n = String.length sub and l = String.length text in
  let rec go i = i + n <= l && (String.sub text i n = sub || go (i + 1)) in
  go 0

let setup_sales s =
  ignore
    (Sql.exec s
       "CREATE TABLE sales (id INT NOT NULL, product INT NOT NULL, qty INT \
        NOT NULL)");
  ignore
    (Sql.exec s
       "CREATE VIEW by_product AS SELECT product, COUNT(*), SUM(qty) FROM \
        sales GROUP BY product USING ESCROW");
  ignore (Sql.exec s "INSERT INTO sales VALUES (1, 1, 5), (2, 2, 7)")

(* --- local resolution ------------------------------------------------------ *)

let test_sys_basics () =
  let db = Database.create () in
  let s = Sql.session db in
  setup_sales s;
  (* sys.views: one view, right strategy, live group counts *)
  let r = Sql.exec s "SELECT * FROM sys.views" in
  let h = header_of r in
  (match rows_of r with
  | [ row ] ->
      check Alcotest.string "view name" "by_product" (str_cell h "view" row);
      check Alcotest.string "strategy" "escrow" (str_cell h "strategy" row);
      check Alcotest.int "groups" 2 (int_cell h "groups" row);
      check Alcotest.int "deltas" 2 (int_cell h "deltas" row)
  | l -> Alcotest.failf "expected 1 view row, got %d" (List.length l));
  (* sys.metrics: WHERE + projection by name *)
  let r =
    Sql.exec s "SELECT counter, value FROM sys.metrics WHERE counter = 'txn.commit'"
  in
  (match rows_of r with
  | [ row ] ->
      Alcotest.(check bool) "commits counted" true
        (int_cell (header_of r) "value" row > 0)
  | l -> Alcotest.failf "expected 1 metric row, got %d" (List.length l));
  (* ORDER BY + LIMIT over a sys table *)
  let r = Sql.exec s "SELECT counter FROM sys.metrics ORDER BY counter DESC LIMIT 3" in
  check Alcotest.int "limit applies" 3 (List.length (rows_of r));
  (* single-row providers *)
  check Alcotest.int "bufpool one row" 1
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.bufpool")));
  let r = Sql.exec s "SELECT * FROM sys.wal" in
  (match rows_of r with
  | [ row ] ->
      Alcotest.(check bool) "wal has records" true
        (int_cell (header_of r) "records" row > 0)
  | _ -> Alcotest.fail "expected 1 wal row");
  (* quiesced: no locks, no waits, no active transactions *)
  check Alcotest.int "no locks" 0
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.locks")));
  check Alcotest.int "no waits" 0
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.lock_waits")));
  check Alcotest.int "no active txns" 0
    (List.length
       (rows_of (Sql.exec s "SELECT * FROM sys.transactions WHERE state = 'active'")));
  (* a local session has no server: schema-only placeholders *)
  check Alcotest.int "no sessions locally" 0
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.server_sessions")));
  (* EXPLAIN names the access path without touching the engine *)
  (match Sql.exec s "EXPLAIN SELECT * FROM sys.lock_waits" with
  | Sql.Message m ->
      Alcotest.(check bool) "explain mentions snapshot" true
        (contains m "system table scan on sys.lock_waits")
  | _ -> Alcotest.fail "expected Message");
  (* unknown sys name lists the catalog *)
  (try
     ignore (Sql.exec s "SELECT * FROM sys.nope");
     Alcotest.fail "expected Sql_error"
   with Sql.Sql_error m ->
     Alcotest.(check bool) "error lists tables" true (contains m "sys.transactions"))

let test_sys_transactions_self () =
  let db = Database.create () in
  let s = Sql.session db in
  setup_sales s;
  ignore (Sql.exec s "BEGIN");
  ignore (Sql.exec s "INSERT INTO sales VALUES (3, 1, 2)");
  let r = Sql.exec s "SELECT * FROM sys.transactions WHERE state = 'active'" in
  let h = header_of r in
  (match rows_of r with
  | [ row ] ->
      check value "self" (Value.Bool true)
        (cell h "self" row);
      Alcotest.(check bool) "deltas counted" true (int_cell h "deltas" row >= 1);
      Alcotest.(check bool) "locks held" true (int_cell h "locks" row > 0)
  | l -> Alcotest.failf "expected 1 active txn, got %d" (List.length l));
  ignore (Sql.exec s "COMMIT");
  (* the committed transaction moved to the recent ring *)
  let r = Sql.exec s "SELECT * FROM sys.transactions WHERE state = 'committed'" in
  Alcotest.(check bool) "recent committed visible" true (rows_of r <> [])

(* sys.indoubt: one row per prepared global transaction, its [txn] joining
   to the locks it still holds in sys.locks; a read-only part commits at
   Prepare and never shows up. *)
let test_sys_indoubt () =
  let db = Database.create () in
  let s = Sql.session db in
  setup_sales s;
  let other = Sql.session db in
  ignore (Sql.exec other "BEGIN");
  ignore (Sql.exec other "SELECT * FROM sales WHERE id = 1");
  Alcotest.(check bool) "a read-only part votes read-only" true
    (Sql.prepare_2pc other ~gtxn:"c:1" = `Read_only);
  ignore (Sql.exec s "BEGIN");
  ignore (Sql.exec s "INSERT INTO sales VALUES (3, 1, 2)");
  Alcotest.(check bool) "a writing part prepares" true
    (Sql.prepare_2pc s ~gtxn:"c:2" = `Prepared);
  let r = Sql.exec s "SELECT * FROM sys.indoubt" in
  let h = header_of r in
  let txn =
    match rows_of r with
    | [ row ] ->
        check Alcotest.string "gtxn" "c:2" (str_cell h "gtxn" row);
        int_cell h "txn" row
    | l -> Alcotest.failf "expected 1 in-doubt row, got %d" (List.length l)
  in
  Alcotest.(check bool) "txn joins to the locks it holds" true
    (rows_of (Sql.exec s (Printf.sprintf "SELECT * FROM sys.locks WHERE txn = %d" txn))
    <> []);
  ignore (Database.decide_2pc db ~gtxn:"c:2" ~committed:true);
  check Alcotest.int "decided: no longer in doubt" 0
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.indoubt")))

(* --- induced escrow conflict: E holder vs S waiter ------------------------- *)

let test_lock_waits_conflict () =
  let db = Database.create () in
  Sched.run ~seed:7 (fun () ->
      let writer = Sql.session db in
      let reader = Sql.session db in
      let monitor = Sql.session db in
      setup_sales writer;
      ignore (Sql.exec writer "BEGIN");
      ignore (Sql.exec writer "INSERT INTO sales VALUES (3, 1, 2)");
      (* exactly one active transaction right now: the writer *)
      let writer_txn =
        match
          rows_of
            (Sql.exec monitor
               "SELECT txn FROM sys.transactions WHERE state = 'active'")
        with
        | [ [| Value.Int t |] ] -> t
        | _ -> Alcotest.fail "expected one active txn"
      in
      let reader_done = ref false in
      ignore
        (Sched.spawn (fun () ->
             ignore (Sql.exec reader "BEGIN");
             (* serializable view read: S-class locks, blocks on the E *)
             ignore (Sql.exec reader "SELECT * FROM by_product");
             ignore (Sql.exec reader "COMMIT");
             reader_done := true));
      let rec poll n =
        if n = 0 then Alcotest.fail "reader never blocked";
        match rows_of (Sql.exec monitor "SELECT * FROM sys.lock_waits") with
        | [] ->
            Sched.yield ();
            poll (n - 1)
        | ws -> ws
      in
      let r = Sql.exec monitor "SELECT * FROM sys.lock_waits" in
      ignore r;
      let ws = poll 10000 in
      check Alcotest.int "exactly one wait row" 1 (List.length ws);
      let wh =
        header_of (Sql.exec monitor "SELECT * FROM sys.lock_waits")
      in
      let w = List.hd ws in
      check Alcotest.int "holder is the writer" writer_txn
        (int_cell wh "holder" w);
      let waiter = int_cell wh "waiter" w in
      Alcotest.(check bool) "waiter is someone else" true (waiter <> writer_txn);
      Alcotest.(check bool) "wait measured in ticks" true
        (int_cell wh "wait_ticks" w >= 0);
      (* sys.locks shows the writer holding E on the contested resource *)
      let resource = str_cell wh "resource" w in
      let lh = header_of (Sql.exec monitor "SELECT * FROM sys.locks") in
      let holder_modes =
        rows_of (Sql.exec monitor "SELECT * FROM sys.locks")
        |> List.filter (fun row ->
               str_cell lh "resource" row = resource
               && int_cell lh "txn" row = writer_txn)
        |> List.map (fun row -> str_cell lh "mode" row)
      in
      check Alcotest.(list string) "writer holds E" [ "E" ] holder_modes;
      (* the blocked reader appears as an active transaction too *)
      Alcotest.(check bool) "two active txns" true
        (List.length
           (rows_of
              (Sql.exec monitor
                 "SELECT * FROM sys.transactions WHERE state = 'active'"))
        = 2);
      ignore (Sql.exec writer "COMMIT");
      let rec drain n =
        if n = 0 then Alcotest.fail "reader never finished";
        if not !reader_done then begin
          Sched.yield ();
          drain (n - 1)
        end
      in
      drain 10000;
      check Alcotest.int "wait queue drained" 0
        (List.length (rows_of (Sql.exec monitor "SELECT * FROM sys.lock_waits"))))

(* --- quiesced snapshot after a workload ------------------------------------ *)

let test_quiesced_snapshot_consistent () =
  let spec =
    { Workload.default with seed = 5; mpl = 4; txns_per_worker = 10 }
  in
  let db2, sales2, views2 = Workload.setup spec in
  let _ = Workload.run_on db2 sales2 views2 spec in
  let s = Sql.session db2 in
  check Alcotest.int "no residual locks" 0
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.locks")));
  check Alcotest.int "no residual waits" 0
    (List.length (rows_of (Sql.exec s "SELECT * FROM sys.lock_waits")));
  check Alcotest.int "no active txns" 0
    (List.length
       (rows_of (Sql.exec s "SELECT * FROM sys.transactions WHERE state = 'active'")));
  (* per-view delta counters agree with the global metric *)
  let vh = header_of (Sql.exec s "SELECT * FROM sys.views") in
  let view_deltas =
    rows_of (Sql.exec s "SELECT * FROM sys.views")
    |> List.fold_left (fun acc row -> acc + int_cell vh "deltas" row) 0
  in
  check Alcotest.int "vstats deltas = view.delta metric"
    (Metrics.get (Database.metrics db2) "view.delta")
    view_deltas;
  (* sys.metrics mirrors the registry exactly *)
  let mh = header_of (Sql.exec s "SELECT * FROM sys.metrics") in
  let via_sql =
    rows_of (Sql.exec s "SELECT * FROM sys.metrics")
    |> List.map (fun row -> (str_cell mh "counter" row, int_cell mh "value" row))
  in
  check
    Alcotest.(list (pair string int))
    "sys.metrics = snapshot"
    (Metrics.snapshot (Database.metrics db2))
    via_sql;
  (* bufpool within capacity; wal lsns ordered *)
  let bh = header_of (Sql.exec s "SELECT * FROM sys.bufpool") in
  (match rows_of (Sql.exec s "SELECT * FROM sys.bufpool") with
  | [ row ] ->
      Alcotest.(check bool) "resident <= capacity" true
        (int_cell bh "resident" row <= int_cell bh "capacity" row)
  | _ -> Alcotest.fail "expected one bufpool row");
  let wh = header_of (Sql.exec s "SELECT * FROM sys.wal") in
  match rows_of (Sql.exec s "SELECT * FROM sys.wal") with
  | [ row ] ->
      Alcotest.(check bool) "flushed <= last" true
        (int_cell wh "flushed_lsn" row <= int_cell wh "last_lsn" row);
      check Alcotest.int "retained_bytes = the log's retained payloads"
        (Ivdb_wal.Wal.retained_byte_size (Database.wal db2))
        (int_cell wh "retained_bytes" row);
      (* a checkpoint truncates: what the log holds falls, what it has
         flushed over its life does not *)
      ignore (Sql.exec s "CHECKPOINT");
      (match rows_of (Sql.exec s "SELECT * FROM sys.wal") with
      | [ after ] ->
          Alcotest.(check bool) "retained_bytes falls at a checkpoint" true
            (int_cell wh "retained_bytes" after < int_cell wh "retained_bytes" row);
          Alcotest.(check bool) "stable_bytes does not" true
            (int_cell wh "stable_bytes" after >= int_cell wh "stable_bytes" row)
      | _ -> Alcotest.fail "expected one wal row")
  | _ -> Alcotest.fail "expected one wal row"

(* --- determinism over loopback --------------------------------------------- *)

let test_sys_metrics_deterministic () =
  let spec =
    { Workload.default with seed = 21; mpl = 4; txns_per_worker = 8 }
  in
  let render_metrics () =
    let _r, db = Net_workload.run_net ~transport:Net_workload.Loopback spec in
    let s = Sql.session db in
    Sql.render (Sql.exec s "SELECT * FROM sys.metrics")
  in
  let a = render_metrics () in
  let b = render_metrics () in
  check Alcotest.string "same seed, same sys.metrics" a b

(* --- the acceptance path over live TCP ------------------------------------- *)

let test_tcp_lock_waits_and_correlation () =
  let db = Database.create () in
  let ring = Trace.Ring.create ~capacity:8192 in
  let tr = Database.trace db in
  Trace.add_sink tr (Trace.Ring.sink ring);
  Trace.set_enabled tr true;
  (* the reader's blocked statement carries this correlation id *)
  let reader_rid = 4242 in
  Sched.run ~seed:13 (fun () ->
      let listener, port = Unix_transport.listen ~port:0 () in
      let config =
        { Server.default_config with slow_query_ticks = Some 1 }
      in
      let srv = Server.create ~config db listener in
      Server.serve srv;
      let dial = Unix_transport.dialer ~port () in
      let writer = Client.connect dial in
      ignore
        (Client.exec writer
           "CREATE TABLE sales (id INT NOT NULL, product INT NOT NULL, qty \
            INT NOT NULL)");
      ignore
        (Client.exec writer
           "CREATE VIEW by_product AS SELECT product, COUNT(*), SUM(qty) \
            FROM sales GROUP BY product USING ESCROW");
      ignore (Client.exec writer "INSERT INTO sales VALUES (1, 1, 5)");
      ignore (Client.exec writer "BEGIN");
      ignore (Client.exec writer "INSERT INTO sales VALUES (2, 1, 3)");
      let monitor = Client.connect dial in
      (* the writer is the only active transaction *)
      let writer_txn =
        match
          rows_of
            (Client.exec monitor
               "SELECT txn FROM sys.transactions WHERE state = 'active'")
        with
        | [ [| Value.Int t |] ] -> t
        | _ -> Alcotest.fail "expected one active txn"
      in
      let reader = Client.connect dial in
      ignore (Client.exec reader "BEGIN");
      let reader_done = ref false in
      ignore
        (Sched.spawn (fun () ->
             (* blocks server-side on the writer's escrow E lock *)
             ignore (Client.exec ~rid:reader_rid reader "SELECT * FROM by_product");
             ignore (Client.exec reader "COMMIT");
             Client.close reader;
             reader_done := true));
      let rec poll n =
        if n = 0 then Alcotest.fail "no lock wait over TCP";
        match
          rows_of (Client.exec monitor "SELECT * FROM sys.lock_waits")
        with
        | [] ->
            Sched.yield ();
            poll (n - 1)
        | ws -> ws
      in
      let ws = poll 10000 in
      let wh = header_of (Client.exec monitor "SELECT * FROM sys.lock_waits") in
      check Alcotest.int "one blocked waiter" 1 (List.length ws);
      let w = List.hd ws in
      check Alcotest.int "holder is the writer txn" writer_txn
        (int_cell wh "holder" w);
      Alcotest.(check bool) "waiter differs" true
        (int_cell wh "waiter" w <> writer_txn);
      (* sessions are visible over the wire, writer's in an open txn *)
      let sh =
        header_of (Client.exec monitor "SELECT * FROM sys.server_sessions")
      in
      let sess_rows =
        rows_of (Client.exec monitor "SELECT * FROM sys.server_sessions")
      in
      check Alcotest.int "three sessions" 3 (List.length sess_rows);
      let writer_sess =
        List.find
          (fun r -> int_cell sh "session" r = Client.session_id writer)
          sess_rows
      in
      check value "writer in txn"
        (Value.Bool true)
        (cell sh "in_txn" writer_sess);
      (* release: the reader completes, slowly *)
      ignore (Client.exec writer "COMMIT");
      let rec drain n =
        if n = 0 then Alcotest.fail "reader never completed";
        if not !reader_done then begin
          Sched.yield ();
          drain (n - 1)
        end
      in
      drain 100000;
      (* the blocked SELECT shows up in the slow-query log under its rid *)
      let qh = header_of (Client.exec monitor "SELECT * FROM sys.slow_queries") in
      let slow =
        rows_of
          (Client.exec monitor
             (Printf.sprintf "SELECT * FROM sys.slow_queries WHERE rid = %d"
                reader_rid))
      in
      check Alcotest.int "slow query recorded once" 1 (List.length slow);
      let sq = List.hd slow in
      Alcotest.(check bool) "it is the view select" true
        (contains (str_cell qh "sql" sq) "by_product");
      Alcotest.(check bool) "ticks over threshold" true
        (int_cell qh "ticks" sq >= 1);
      Client.close writer;
      Client.close monitor;
      Server.drain srv);
  Trace.set_enabled tr false;
  (* the same rid joins the trace: request, response, and slow-query *)
  let events = List.map (fun r -> r.Trace.event) (Trace.Ring.contents ring) in
  let has_req =
    List.exists
      (function
        | Trace.Net_request { rid; _ } -> rid = reader_rid | _ -> false)
      events
  in
  let has_resp =
    List.exists
      (function
        | Trace.Net_response { rid; _ } -> rid = reader_rid | _ -> false)
      events
  in
  let has_slow =
    List.exists
      (function
        | Trace.Slow_query { rid; sql; _ } ->
            rid = reader_rid && contains sql "by_product"
        | _ -> false)
      events
  in
  Alcotest.(check bool) "rid in net.request" true has_req;
  Alcotest.(check bool) "rid in net.response" true has_resp;
  Alcotest.(check bool) "rid in net.slow_query" true has_slow

(* --- loopback smoke: every sys table + the exporter ------------------------ *)

let test_loopback_sys_smoke_and_scrape () =
  let db = Database.create () in
  Sched.run ~seed:17 (fun () ->
      let net = Transport.Loopback.create ~backlog:16 () in
      let srv = Server.create db (Transport.Loopback.listener net) in
      Server.serve srv;
      let cl = Client.connect (Transport.Loopback.dialer net) in
      ignore
        (Client.exec cl
           "CREATE TABLE sales (id INT NOT NULL, product INT NOT NULL, qty \
            INT NOT NULL)");
      ignore
        (Client.exec cl
           "CREATE VIEW by_product AS SELECT product, COUNT(*), SUM(qty) \
            FROM sales GROUP BY product USING ESCROW");
      ignore (Client.exec cl "INSERT INTO sales VALUES (1, 1, 5), (2, 2, 7)");
      (* every sys.* table answers over the wire *)
      List.iter
        (fun name ->
          match Client.exec cl (Printf.sprintf "SELECT * FROM %s" name) with
          | Sql.Rows { header; _ } ->
              Alcotest.(check bool)
                (name ^ " has a header") true (header <> [])
          | _ -> Alcotest.failf "%s did not return rows" name)
        Sys_tables.names;
      (* wire-level metrics fetch: families parse as exposition text *)
      let text = Client.metrics cl in
      Alcotest.(check bool) "counter family present" true
        (contains text "# TYPE ivdb_txn_commit counter");
      Alcotest.(check bool) "request hist present" true
        (contains text "ivdb_server_request_ticks_bucket{le=\"+Inf\"}");
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && not (String.length line > 0 && line.[0] = '#')
             then
               match String.split_on_char ' ' line with
               | [ name; value ] ->
                   Alcotest.(check bool)
                     ("metric line " ^ line)
                     true
                     (name <> "" && int_of_string_opt value <> None)
               | _ -> Alcotest.failf "unparseable metric line %S" line);
      Client.close cl;
      Server.drain srv)

let test_metrics_http_endpoint () =
  let m = Metrics.create () in
  Metrics.inc_by (Metrics.counter m "txn.commit") 5;
  Metrics.record (Metrics.hist m "commit.batch") 2;
  let response = Buffer.create 256 in
  Sched.run ~seed:19 (fun () ->
      let net = Transport.Loopback.create () in
      let listener = Transport.Loopback.listener net in
      Metrics_http.serve m listener;
      let conn = Transport.Loopback.connect net in
      conn.Transport.write "GET /metrics HTTP/1.0\r\n\r\n";
      let buf = Bytes.create 1024 in
      let rec read_all () =
        let n = conn.Transport.read buf 0 (Bytes.length buf) in
        if n > 0 then begin
          Buffer.add_subbytes response buf 0 n;
          read_all ()
        end
      in
      read_all ();
      conn.Transport.close ();
      listener.Transport.stop ());
  let text = Buffer.contents response in
  Alcotest.(check bool) "status line" true (contains text "HTTP/1.0 200 OK");
  Alcotest.(check bool) "content type" true
    (contains text "Content-Type: text/plain");
  Alcotest.(check bool) "counter body" true (contains text "ivdb_txn_commit 5");
  Alcotest.(check bool) "hist body" true
    (contains text "ivdb_commit_batch_bucket{le=\"+Inf\"} 1");
  (* Content-Length matches the body after the blank line *)
  match String.index_opt text ':' with
  | None -> Alcotest.fail "no headers"
  | Some _ ->
      let marker = "\r\n\r\n" in
      let rec find i =
        if i + 4 > String.length text then Alcotest.fail "no header terminator"
        else if String.sub text i 4 = marker then i
        else find (i + 1)
      in
      let split = find 0 in
      let body = String.sub text (split + 4) (String.length text - split - 4) in
      let advertised =
        String.split_on_char '\n' (String.sub text 0 split)
        |> List.find_map (fun line ->
               let p = "Content-Length: " in
               let line = String.trim line in
               if String.length line > String.length p
                  && String.sub line 0 (String.length p) = p
               then
                 int_of_string_opt
                   (String.sub line (String.length p)
                      (String.length line - String.length p))
               else None)
      in
      check Alcotest.(option int) "content length" (Some (String.length body))
        advertised

let () =
  Alcotest.run "introspect"
    [
      ( "local",
        [
          Alcotest.test_case "sys basics" `Quick test_sys_basics;
          Alcotest.test_case "sys.transactions self" `Quick
            test_sys_transactions_self;
          Alcotest.test_case "sys.indoubt joins to sys.locks" `Quick
            test_sys_indoubt;
          Alcotest.test_case "escrow conflict in sys.lock_waits" `Quick
            test_lock_waits_conflict;
          Alcotest.test_case "quiesced snapshot consistent" `Quick
            test_quiesced_snapshot_consistent;
        ] );
      ( "network",
        [
          Alcotest.test_case "sys.metrics deterministic per seed" `Quick
            test_sys_metrics_deterministic;
          Alcotest.test_case "tcp lock waits + rid correlation" `Quick
            test_tcp_lock_waits_and_correlation;
          Alcotest.test_case "loopback sys smoke + scrape" `Quick
            test_loopback_sys_smoke_and_scrape;
          Alcotest.test_case "metrics http endpoint" `Quick
            test_metrics_http_endpoint;
        ] );
    ]
