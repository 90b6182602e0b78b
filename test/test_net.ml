(* The serving layer end to end: loopback smoke, error/transaction
   semantics through the wire, admission control, graceful drain, and the
   closed-loop network workload on both transports. Everything except the
   TCP cases runs on the deterministic loopback transport inside a seeded
   scheduler run. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Workload = Ivdb.Workload
module Metrics = Ivdb_util.Metrics
module Sql = Ivdb_sql.Sql
module Wire = Ivdb_wire.Wire
module Transport = Ivdb_transport.Transport
module Server = Ivdb_server.Server
module Client = Ivdb_client.Client
module Net_workload = Ivdb_client.Net_workload

let check = Alcotest.check

(* Boot a loopback server around [f], which receives a dial function.
   Returns [f]'s result after a clean drain. *)
let with_loopback_server ?config ?(seed = 11) db f =
  Sched.run ~seed (fun () ->
      let net = Transport.Loopback.create ~backlog:64 () in
      let srv = Server.create ?config db (Transport.Loopback.listener net) in
      Server.serve srv;
      let r = f srv (Transport.Loopback.dialer net) in
      Server.drain srv;
      r)

let affected = function
  | Sql.Affected n -> n
  | _ -> Alcotest.fail "expected Affected"

let rows = function
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected Rows"

(* --- idle accept ------------------------------------------------------------ *)

(* A server's accept fiber blocks in [accept]: once it has suspended, a
   server that nobody dials adds no step to the clock. Main's [n] yields
   take exactly [n] ticks, as they do with no server at all. *)
let test_idle_server_costs_no_steps () =
  let n = 100 in
  let ticks =
    Sched.run ~policy:Sched.Fifo (fun () ->
        let net = Transport.Loopback.create () in
        let srv =
          Server.create (Database.create ()) (Transport.Loopback.listener net)
        in
        Server.serve srv;
        (* the accept fiber runs once and suspends *)
        Sched.yield ();
        let t0 = Sched.now () in
        for _ = 1 to n do
          Sched.yield ()
        done;
        let ticks = Sched.now () - t0 in
        Server.drain srv;
        ticks)
  in
  check Alcotest.int "one tick per yield of main" n ticks

(* [drain] stops the listener, which wakes the blocked accept fiber; it
   exits and the run returns. *)
let test_drain_wakes_accept () =
  let returned =
    with_loopback_server (Database.create ()) (fun _ _ ->
        for _ = 1 to 5 do
          Sched.yield ()
        done;
        true)
  in
  Alcotest.(check bool) "the run returned" true returned

(* A run that never drains its server is left with one live fiber, the
   blocked accept loop, and nothing to wake it: Stuck, not a spin. (An
   accept loop that polled would stay runnable; the check before main
   returns fails on it instead of spinning forever.) *)
let test_undrained_server_is_stuck () =
  let db = Database.create () in
  match
    Sched.run ~policy:Sched.Fifo (fun () ->
        let net = Transport.Loopback.create () in
        let srv = Server.create db (Transport.Loopback.listener net) in
        Server.serve srv;
        Sched.yield ();
        if Sched.runnable () > 0 then begin
          Server.drain srv;
          Alcotest.fail "the idle accept fiber is still runnable"
        end)
  with
  | () -> Alcotest.fail "expected Stuck"
  | exception Sched.Stuck n -> check Alcotest.int "the accept fiber" 1 n

(* --- smoke ----------------------------------------------------------------- *)

let test_loopback_smoke () =
  let db = Database.create () in
  with_loopback_server db (fun _srv dial ->
      let cl = Client.connect dial in
      Alcotest.(check bool) "session assigned" true (Client.session_id cl > 0);
      check Alcotest.string "server name" "ivdb" (Client.server_name cl);
      ignore (Client.exec cl "CREATE TABLE t (a INT NOT NULL, b TEXT)");
      check Alcotest.int "insert count" 2
        (affected (Client.exec cl "INSERT INTO t VALUES (1, 'x'), (2, 'y')"));
      check Alcotest.int "rows back" 2
        (List.length (rows (Client.exec cl "SELECT a, b FROM t ORDER BY a")));
      Client.close cl);
  let m = Database.metrics db in
  check Alcotest.int "accepted" 1 (Metrics.get m "server.accepted");
  check Alcotest.int "no leaked connections" (Metrics.get m "server.accepted")
    (Metrics.get m "server.sessions_closed");
  check Alcotest.int "nothing shed" 0 (Metrics.get m "server.shed")

let test_two_clients_interleave () =
  let db = Database.create () in
  with_loopback_server db (fun _srv dial ->
      let c1 = Client.connect dial in
      let c2 = Client.connect dial in
      ignore (Client.exec c1 "CREATE TABLE t (a INT NOT NULL)");
      ignore (Client.exec c1 "BEGIN");
      ignore (Client.exec c2 "BEGIN");
      ignore (Client.exec c1 "INSERT INTO t VALUES (1)");
      ignore (Client.exec c2 "INSERT INTO t VALUES (2)");
      ignore (Client.exec c1 "COMMIT");
      ignore (Client.exec c2 "COMMIT");
      check Alcotest.int "both transactions landed" 2
        (List.length (rows (Client.exec c1 "SELECT a FROM t")));
      Alcotest.(check bool) "distinct sessions" true
        (Client.session_id c1 <> Client.session_id c2);
      Client.close c1;
      Client.close c2)

(* --- regression: an error inside BEGIN..COMMIT leaves the transaction
   open and usable (in-process and through the server) ---------------------- *)

let test_error_keeps_txn_in_process () =
  let db = Database.create () in
  let s = Sql.session db in
  ignore (Sql.exec s "CREATE TABLE t (a INT NOT NULL)");
  ignore (Sql.exec s "BEGIN");
  ignore (Sql.exec s "INSERT INTO t VALUES (1)");
  (try ignore (Sql.exec s "INSERT INTO nosuch VALUES (1)")
   with Sql.Sql_error _ -> ());
  Alcotest.(check bool) "txn survives the error" true (Sql.in_transaction s);
  ignore (Sql.exec s "INSERT INTO t VALUES (2)");
  ignore (Sql.exec s "COMMIT");
  Alcotest.(check bool) "txn closed" false (Sql.in_transaction s);
  match Sql.exec s "SELECT a FROM t" with
  | Sql.Rows { rows; _ } -> check Alcotest.int "both inserts" 2 (List.length rows)
  | _ -> Alcotest.fail "expected rows"

let test_error_keeps_txn_over_wire () =
  let db = Database.create () in
  with_loopback_server db (fun _srv dial ->
      let cl = Client.connect dial in
      ignore (Client.exec cl "CREATE TABLE t (a INT NOT NULL)");
      ignore (Client.exec cl "BEGIN");
      ignore (Client.exec cl "INSERT INTO t VALUES (1)");
      (try
         ignore (Client.exec cl "INSERT INTO nosuch VALUES (1)");
         Alcotest.fail "expected Server_error"
       with Client.Server_error { code; txn_open; _ } ->
         check Alcotest.string "code" "sql" (Wire.error_code_name code);
         Alcotest.(check bool) "Err says txn still open" true txn_open);
      (* the same session keeps going inside the same transaction *)
      ignore (Client.exec cl "INSERT INTO t VALUES (2)");
      ignore (Client.exec cl "COMMIT");
      check Alcotest.int "both inserts visible" 2
        (List.length (rows (Client.exec cl "SELECT a FROM t")));
      Client.close cl)

let test_parse_error_over_wire () =
  let db = Database.create () in
  with_loopback_server db (fun _srv dial ->
      let cl = Client.connect dial in
      (try
         ignore (Client.exec cl "SELEKT 1");
         Alcotest.fail "expected Server_error"
       with Client.Server_error { code; _ } ->
         check Alcotest.string "code" "parse" (Wire.error_code_name code));
      (* connection survives a parse error *)
      ignore (Client.exec cl "CREATE TABLE t (a INT NOT NULL)");
      Client.close cl)

(* An operand of the wrong type is a statement error like any other: the
   server answers E_sql, keeps the transaction, and serves the next
   statement on the same connection. *)
let test_ill_typed_over_wire () =
  let db = Database.create () in
  with_loopback_server db (fun _srv dial ->
      let cl = Client.connect dial in
      ignore (Client.exec cl "CREATE TABLE t (k INT NOT NULL, g TEXT NOT NULL, x INT)");
      ignore (Client.exec cl "INSERT INTO t VALUES (1, 'a', 1)");
      List.iter
        (fun in_txn ->
          if in_txn then ignore (Client.exec cl "BEGIN");
          List.iter
            (fun sql ->
              (try
                 ignore (Client.exec cl sql);
                 Alcotest.failf "expected Server_error for %s" sql
               with Client.Server_error { code; txn_open; _ } ->
                 check Alcotest.string sql "sql" (Wire.error_code_name code);
                 Alcotest.(check bool) (sql ^ ": txn_open") in_txn txn_open);
              check Alcotest.int (sql ^ ": the session serves the next statement") 1
                (List.length (rows (Client.exec cl "SELECT * FROM t WHERE x = 1"))))
            [
              "SELECT * FROM t WHERE k AND 1";
              "SELECT * FROM t WHERE g + 1 > 2";
              "SELECT * FROM t WHERE g = 1";
              "UPDATE t SET x = g + 1";
              "UPDATE t SET x = 'text'";
              "SELECT g, COUNT(*) FROM t GROUP BY g HAVING g + 1 > 0";
            ];
          if in_txn then ignore (Client.exec cl "COMMIT"))
        [ false; true ];
      Client.close cl)

(* A number the lexer cannot read is a parse error like any other: the
   session answers it and serves the next statement. *)
let test_malformed_number_over_wire () =
  let db = Database.create () in
  with_loopback_server db (fun _srv dial ->
      let cl = Client.connect dial in
      ignore (Client.exec cl "CREATE TABLE t (k INT NOT NULL)");
      List.iter
        (fun lit ->
          (try
             ignore (Client.exec cl ("SELECT * FROM t WHERE k = " ^ lit));
             Alcotest.fail "expected Server_error"
           with Client.Server_error { code; _ } ->
             check Alcotest.string lit "parse" (Wire.error_code_name code));
          ignore (Client.exec cl "INSERT INTO t VALUES (1)"))
        [ "1.2.3"; "1..2"; "99999999999999999999" ];
      check Alcotest.int "rows" 3 (List.length (rows (Client.exec cl "SELECT k FROM t")));
      Client.close cl)

(* --- admission control ----------------------------------------------------- *)

let test_admission_sheds_with_busy () =
  let db = Database.create () in
  let config = { Server.default_config with max_inflight = 2 } in
  with_loopback_server ~config db (fun srv dial ->
      let c1 = Client.connect dial in
      let c2 = Client.connect dial in
      check Alcotest.int "inflight at cap" 2 (Server.inflight srv);
      (try
         (* a single attempt: no retry masking the shed *)
         ignore (Client.connect ~attempts:1 dial);
         Alcotest.fail "expected Server_busy"
       with Client.Server_busy { retry_ticks } ->
         Alcotest.(check bool) "backoff hint" true (retry_ticks > 0));
      Client.close c1;
      Client.close c2);
  let m = Database.metrics db in
  check Alcotest.int "accepted" 2 (Metrics.get m "server.accepted");
  check Alcotest.int "shed exactly one" 1 (Metrics.get m "server.shed");
  check Alcotest.int "no leaked connections" (Metrics.get m "server.accepted")
    (Metrics.get m "server.sessions_closed")

let test_shed_client_retries_in () =
  (* with retries allowed, a shed client gets in once capacity frees up *)
  let db = Database.create () in
  let config = { Server.default_config with max_inflight = 1 } in
  with_loopback_server ~config db (fun _srv dial ->
      let c1 = Client.connect dial in
      ignore (Client.exec c1 "CREATE TABLE t (a INT NOT NULL)");
      let second = ref None in
      let fiber =
        Sched.spawn (fun () -> second := Some (Client.connect ~attempts:32 dial))
      in
      ignore fiber;
      (* keep the slot busy for a while, then release it *)
      for i = 1 to 3 do
        ignore (Client.exec c1 (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
      done;
      Client.close c1;
      (* let the retrying client win the slot *)
      for _ = 1 to 200 do
        Sched.yield ()
      done;
      match !second with
      | None -> Alcotest.fail "retrying client never admitted"
      | Some c2 ->
          check Alcotest.int "sees committed data" 3
            (List.length (rows (Client.exec c2 "SELECT a FROM t")));
          Client.close c2);
  let m = Database.metrics db in
  Alcotest.(check bool) "shed at least once" true (Metrics.get m "server.shed" >= 1);
  check Alcotest.int "no leaked connections" (Metrics.get m "server.accepted")
    (Metrics.get m "server.sessions_closed")

(* --- graceful drain -------------------------------------------------------- *)

let test_drain_lets_open_txn_finish () =
  let db = Database.create () in
  with_loopback_server db (fun srv dial ->
      let busy = Client.connect dial in
      let idle = Client.connect dial in
      ignore (Client.exec busy "CREATE TABLE t (a INT NOT NULL)");
      ignore (Client.exec busy "BEGIN");
      ignore (Client.exec busy "INSERT INTO t VALUES (1)");
      Server.drain srv;
      (* draining: new connections are refused at the transport *)
      (try
         ignore (Client.connect ~attempts:1 dial);
         Alcotest.fail "expected refusal"
       with Transport.Refused -> ());
      (* the open transaction may still run to commit *)
      ignore (Client.exec busy "INSERT INTO t VALUES (2)");
      ignore (Client.exec busy "COMMIT");
      (* an idle session's next request is turned away *)
      (try
         ignore (Client.exec idle "SELECT a FROM t");
         Alcotest.fail "expected draining error"
       with Client.Server_error { code; _ } ->
         check Alcotest.string "code" "draining" (Wire.error_code_name code));
      (* and so is the drained writer once its transaction is done *)
      (try ignore (Client.exec busy "SELECT a FROM t")
       with Client.Server_error { code; _ } ->
         check Alcotest.string "code" "draining" (Wire.error_code_name code));
      Client.close busy;
      Client.close idle);
  (* the committed-during-drain transaction is durable *)
  let s = Sql.session db in
  match Sql.exec s "SELECT a FROM t" with
  | Sql.Rows { rows; _ } ->
      check Alcotest.int "drain committed both rows" 2 (List.length rows)
  | _ -> Alcotest.fail "expected rows"

(* --- closed-loop network workload ------------------------------------------ *)

let small_spec =
  {
    Workload.default with
    mpl = 8;
    txns_per_worker = 6;
    ops_per_txn = 3;
    initial_rows = 40;
    seed = 5;
  }

let check_net_result spec result db =
  Alcotest.(check bool)
    "every transaction accounted" true
    (result.Workload.committed + result.Workload.given_up
    >= spec.Workload.mpl * spec.Workload.txns_per_worker);
  Alcotest.(check bool) "made progress" true (result.Workload.committed > 0);
  let get = Metrics.window_get result.Workload.window in
  Alcotest.(check bool)
    "all clients admitted eventually" true
    (get "server.accepted" >= spec.Workload.mpl);
  check Alcotest.int "zero leaked connections" (get "server.accepted")
    (get "server.sessions_closed");
  Alcotest.(check bool)
    "V1 holds over the wire" true
    (Workload.check_consistency db (Database.view db "sales_by_product_0"))

let test_net_workload_loopback () =
  let result, db = Net_workload.run_net ~transport:Loopback small_spec in
  check_net_result small_spec result db

let test_net_workload_loopback_deterministic () =
  let r1, _ = Net_workload.run_net ~transport:Loopback small_spec in
  let r2, _ = Net_workload.run_net ~transport:Loopback small_spec in
  Alcotest.(check bool) "same result" true (r1 = r2)

let test_net_workload_group_commit_batches () =
  let spec =
    {
      small_spec with
      config =
        {
          small_spec.Workload.config with
          commit_mode =
            Ivdb_txn.Txn.Group { max_batch = 8; max_wait_ticks = 50 };
        };
    }
  in
  let result, db = Net_workload.run_net ~transport:Loopback spec in
  check_net_result spec result db;
  (* independent client connections are exactly what group commit batches *)
  Alcotest.(check bool)
    "batches formed" true
    (result.Workload.mean_batch >= 1.0);
  Alcotest.(check bool)
    "fewer forces than commits" true
    (Metrics.window_get result.Workload.window "log.force"
    < result.Workload.committed)

let test_net_workload_overload_sheds () =
  let config =
    { Server.default_config with max_inflight = 3; busy_retry_ticks = 20 }
  in
  let result, db =
    Net_workload.run_net ~transport:Loopback ~server_config:config small_spec
  in
  let get = Metrics.window_get result.Workload.window in
  Alcotest.(check bool) "sheds under overload" true (get "server.shed" > 0);
  Alcotest.(check bool) "still commits" true (result.Workload.committed > 0);
  check Alcotest.int "zero leaked connections" (get "server.accepted")
    (get "server.sessions_closed");
  Alcotest.(check bool)
    "V1 holds under shed" true
    (Workload.check_consistency db (Database.view db "sales_by_product_0"))

let test_net_workload_tcp () =
  let spec = { small_spec with mpl = 4; txns_per_worker = 4 } in
  let result, db = Net_workload.run_net ~transport:Tcp spec in
  check_net_result spec result db

let test_parse_host_port () =
  let parse = Ivdb_transport.Unix_transport.parse_host_port in
  let hp = Alcotest.(option (pair string int)) in
  check hp "empty host is loopback" (Some ("127.0.0.1", 5433)) (parse ":5433");
  check hp "port 0 asks the kernel" (Some ("h", 0)) (parse "h:0");
  check hp "no port" None (parse "h");
  check hp "non-numeric port" None (parse "h:x");
  check hp "negative port" None (parse "h:-1")

let () =
  Alcotest.run "net"
    [
      ( "smoke",
        [
          Alcotest.test_case "loopback request/response" `Quick
            test_loopback_smoke;
          Alcotest.test_case "two clients interleave" `Quick
            test_two_clients_interleave;
          Alcotest.test_case "HOST:PORT parsing" `Quick test_parse_host_port;
        ] );
      ( "error semantics",
        [
          Alcotest.test_case "error keeps txn (in-process)" `Quick
            test_error_keeps_txn_in_process;
          Alcotest.test_case "error keeps txn (over wire)" `Quick
            test_error_keeps_txn_over_wire;
          Alcotest.test_case "parse error over wire" `Quick
            test_parse_error_over_wire;
          Alcotest.test_case "malformed number over wire" `Quick
            test_malformed_number_over_wire;
          Alcotest.test_case "ill-typed expression over wire" `Quick
            test_ill_typed_over_wire;
        ] );
      ( "admission",
        [
          Alcotest.test_case "sheds with Busy at cap" `Quick
            test_admission_sheds_with_busy;
          Alcotest.test_case "shed client retries in" `Quick
            test_shed_client_retries_in;
        ] );
      ( "drain",
        [
          Alcotest.test_case "open txn finishes, idle turned away" `Quick
            test_drain_lets_open_txn_finish;
          Alcotest.test_case "an idle server costs no steps" `Quick
            test_idle_server_costs_no_steps;
          Alcotest.test_case "drain wakes the accept fiber" `Quick
            test_drain_wakes_accept;
          Alcotest.test_case "an undrained server is Stuck" `Quick
            test_undrained_server_is_stuck;
        ] );
      ( "net workload",
        [
          Alcotest.test_case "loopback closed loop" `Quick
            test_net_workload_loopback;
          Alcotest.test_case "loopback deterministic" `Quick
            test_net_workload_loopback_deterministic;
          Alcotest.test_case "group commit batches over the wire" `Quick
            test_net_workload_group_commit_batches;
          Alcotest.test_case "overload sheds with Busy" `Quick
            test_net_workload_overload_sheds;
          Alcotest.test_case "tcp closed loop" `Quick test_net_workload_tcp;
        ] );
    ]
