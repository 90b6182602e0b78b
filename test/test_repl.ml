(* Replication by WAL shipping, exercised at the engine level.

   Properties:
   - a follower fed the primary's stable log — in any batch size, across
     seeds — converges to an identical logical state (tables AND views)
     at the same replicated LSN;
   - follower reads are lock-free snapshot reads (no lock-manager or WAL
     traffic), and the replica's views satisfy V1;
   - every local write path on a follower is rejected;
   - a torn shipped batch truncates to its longest dense prefix and
     re-shipping the remainder converges, at every byte cut;
   - a follower crash mid-stream recovers (no undo, no checkpoint),
     rebuilds its open transactions' before-images from their log, and
     resumes at its ingested horizon;
   - the primary may crash at ANY force point (clean or torn tail) while
     a subscribed follower streams continuously; after recovery the
     follower resubscribes and converges to the recovered state;
   - a follower applies each record as it arrives, and at every cut a
     snapshot read sees exactly the transactions whose Commit record it
     has applied: never a split transaction, never an open one;
   - at any of those crash points the follower can instead PROMOTE,
     rolling back the in-flight transactions itself, and lands on exactly
     the state single-node recovery reaches — then serves writes;
   - the wire-level failover story holds end to end: the Promote admin
     frame, client repoint, replica-driver repoint, DropSlot retention
     release, and the redial backoff reset after a healthy session.

   The shipping harness uses the same serialize_range / decode_frames
   framing the wire protocol carries, so the byte-level fault behavior
   here is exactly what a network follower sees. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Workload = Ivdb.Workload
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Fault = Ivdb_storage.Fault
module Txn = Ivdb_txn.Txn
module Sched = Ivdb_sched.Sched
module Rng = Ivdb_util.Rng
module Metrics = Ivdb_util.Metrics
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Server = Ivdb_server.Server
module Harness = Ivdb_test_support.Harness

let qtest = QCheck_alcotest.to_alcotest

(* --- shipping harness ----------------------------------------------------- *)

let ship ?batch ?upto primary follower =
  Workload.ship_wal ?batch ?upto (Database.wal primary) follower

(* Force the primary's tail stable, ship everything, and require equal
   horizons and equal logical state digests. *)
let converged ctx primary follower =
  Wal.force (Database.wal primary) (Wal.last_lsn (Database.wal primary));
  ignore (ship primary follower);
  Alcotest.(check int)
    (ctx ^ ": equal replicated LSN")
    (Database.replicated_lsn primary)
    (Database.replicated_lsn follower);
  Alcotest.(check string)
    (ctx ^ ": equal state digest")
    (Database.state_digest primary)
    (Database.state_digest follower)

(* --- smoke: workload, ship, read on the replica --------------------------- *)

let smoke_spec =
  {
    Workload.default with
    seed = 11;
    mpl = 4;
    txns_per_worker = 8;
    ops_per_txn = 3;
    delete_fraction = 0.15;
    n_groups = 6;
    theta = 0.8;
    initial_rows = 30;
    n_views = 1;
    strategy = Maintain.Escrow;
    config =
      { Workload.default.Workload.config with Database.pool_capacity = 16 };
  }

let test_ship_smoke () =
  let spec = smoke_spec in
  let db, sales, views = Workload.setup spec in
  ignore (Workload.run_on db sales views spec);
  let f = Database.create_follower ~config:spec.Workload.config () in
  converged "smoke" db f;
  Alcotest.(check bool) "follower view satisfies V1" true
    (Workload.check_consistency f (Database.view f "sales_by_product_0"));
  (* replica reads: lock-free snapshot at the applied horizon *)
  let m = Database.metrics f in
  let locks0 = Metrics.get m "lock.acquire" in
  let appends0 = Metrics.get m "log.append" in
  let vf = Database.view f "sales_by_product_0" in
  let sf = Database.table f "sales" in
  let n_rows, n_groups =
    Database.transact f ~read_only:true (fun tx ->
        ( Seq.length (Query.table_scan f (Some tx) sf Query.Serializable),
          Seq.length (Query.view_scan f (Some tx) vf Query.Serializable) ))
  in
  Alcotest.(check bool) "replica serves rows" true (n_rows > 0);
  Alcotest.(check bool) "replica serves view groups" true (n_groups > 0);
  Alcotest.(check int) "zero lock traffic for follower reads" 0
    (Metrics.get m "lock.acquire" - locks0);
  Alcotest.(check int) "zero WAL appends for follower reads" 0
    (Metrics.get m "log.append" - appends0)

let prop_converges_across_seeds =
  QCheck.Test.make ~name:"replica converges across seeds and batch sizes"
    ~count:6
    QCheck.(pair (int_bound 999) (int_range 1 64))
    (fun (s, batch) ->
      let spec = { smoke_spec with Workload.seed = s; txns_per_worker = 4 } in
      let db, sales, views = Workload.setup spec in
      ignore (Workload.run_on db sales views spec);
      let f = Database.create_follower ~config:spec.Workload.config () in
      Wal.force (Database.wal db) (Wal.last_lsn (Database.wal db));
      ignore (ship ~batch db f);
      Database.replicated_lsn db = Database.replicated_lsn f
      && Database.state_digest db = Database.state_digest f)

(* --- role enforcement ------------------------------------------------------ *)

let test_write_rejection () =
  let f = Database.create_follower () in
  Alcotest.(check bool) "is_follower" true (Database.is_follower f);
  let rejected g = try g () ; false with Database.Read_only_replica -> true in
  Alcotest.(check bool) "transact rejected" true
    (rejected (fun () -> Database.transact f (fun _ -> ())));
  Alcotest.(check bool) "transact_result rejected" true
    (rejected (fun () -> ignore (Database.transact_result f (fun _ -> ()))));
  Alcotest.(check bool) "create_table rejected" true
    (rejected (fun () ->
         ignore
           (Database.create_table f ~name:"t"
              ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ])));
  Alcotest.(check bool) "checkpoint rejected" true
    (rejected (fun () -> Database.checkpoint f));
  Alcotest.(check int) "gc is a no-op" 0 (Database.gc f);
  (* snapshot reads stay open *)
  Alcotest.(check int) "read-only transact allowed" 42
    (Database.transact f ~read_only:true (fun _ -> 42))

let test_resume_below_retention () =
  let config =
    { Database.default_config with read_cost = 0; write_cost = 0 }
  in
  let db = Database.create ~config () in
  let sales =
    Database.create_table db ~name:"t"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  for i = 1 to 5 do
    Database.transact db (fun tx ->
        ignore (Table.insert db tx sales [| Value.Int i |]))
  done;
  (* no replication slot: the checkpoint truncates freely *)
  Database.checkpoint db;
  Alcotest.(check bool) "log was truncated" true
    (Wal.first_lsn (Database.wal db) > 1);
  let f = Database.create_follower ~config () in
  let refused = try ignore (ship db f); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "subscribing below retention is refused" true refused

(* --- what a follower snapshot may see ------------------------------------ *)

(* Table [name]'s first column, read at a snapshot on [d] and sorted; []
   while the table does not exist there. *)
let snapshot_ids d name =
  match Database.table d name with
  | tbl ->
      Database.transact d ~read_only:true (fun tx ->
          Query.table_scan d (Some tx) tbl Query.Serializable
          |> Seq.map (fun r -> match r.(0) with Value.Int i -> i | _ -> min_int)
          |> List.of_seq |> List.sort compare)
  | exception Not_found -> []

(* View [name]'s rows as snapshot [tx] reads them; [] before it exists. *)
let view_rows d tx name =
  match Database.view d name with
  | v -> List.of_seq (Query.view_scan d (Some tx) v Query.Serializable)
  | exception Not_found -> []

(* V1 at a snapshot: the view as the snapshot reads it equals its
   recomputation from the base rows the same snapshot reads (float sums
   up to rounding: the two add in different orders). *)
let snapshot_v1 d name =
  let close a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
    | _ -> Value.equal a b
  in
  let same (g1, r1) (g2, r2) =
    g1 = g2 && Array.length r1 = Array.length r2 && Array.for_all2 close r1 r2
  in
  match Database.view d name with
  | v ->
      Database.transact d ~read_only:true (fun tx ->
          let expect = Query.on_demand_aggregate d (Some tx) (Database.view_def d v) in
          let actual = view_rows d tx name in
          List.length expect = List.length actual && List.for_all2 same expect actual)
  | exception Not_found -> true

(* Transactions whose Commit record lies in the log prefix [.., upto]. *)
let committed_upto wal upto =
  let c = Hashtbl.create 16 in
  Wal.iter_from wal ~from:(Wal.first_lsn wal) (fun r ->
      match r.Log_record.body with
      | Log_record.Commit when r.Log_record.lsn <= upto ->
          Hashtbl.replace c r.Log_record.txn ()
      | _ -> ());
  c

(* The ids the committed transactions of the prefix wrote, given each
   transaction's ids. *)
let expected_ids wal upto ids_of =
  let c = committed_upto wal upto in
  Hashtbl.fold (fun txn ids acc -> if Hashtbl.mem c txn then ids @ acc else acc) ids_of []
  |> List.sort compare

(* --- torn shipped batches -------------------------------------------------- *)

(* Cut a serialized batch at EVERY byte offset: decode_frames must yield
   exactly a dense prefix (never garbage, never an exception), a follower
   that applied it must show a snapshot of exactly the transactions
   committed in it (each writes one row), with its view equal to its
   recomputation, and it must converge once the remainder is re-shipped —
   the reconnect path after a torn ReplRecords payload. *)
let test_torn_batch () =
  let config =
    { Database.default_config with read_cost = 0; write_cost = 0 }
  in
  let db = Database.create ~config () in
  let sales =
    Database.create_table db ~name:"sales"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "product"; ty = Value.TInt; nullable = false };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  let schema = Database.schema db sales in
  ignore
    (Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
       ~aggs:[ View_def.Count_star; View_def.Sum (Expr.col schema "qty") ]
       ~source:(Database.From (sales, None))
       ~strategy:Maintain.Escrow ());
  let ids_of = Hashtbl.create 8 in
  for i = 1 to 8 do
    Database.transact db (fun tx ->
        Hashtbl.replace ids_of (Txn.id tx) [ i ];
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 3); Value.Int i |]))
  done;
  let wal = Database.wal db in
  Wal.force wal (Wal.last_lsn wal);
  let n = Wal.flushed_lsn wal in
  let bytes = Wal.serialize_range wal ~from:1 ~upto:n in
  let len = String.length bytes in
  for cut = 0 to len do
    let records = Wal.decode_frames ~first_lsn:1 (String.sub bytes 0 cut) in
    let k = List.length records in
    if k > n then Alcotest.failf "cut %d: decoded beyond the stream" cut;
    List.iteri
      (fun i (r : Log_record.t) ->
        if r.Log_record.lsn <> i + 1 then
          Alcotest.failf "cut %d: LSN chain broken at %d" cut i)
      records;
    if cut = len && k <> n then
      Alcotest.failf "full stream decoded %d of %d records" k n;
    if cut mod 13 = 0 || cut = len then begin
      let f = Database.create_follower ~config () in
      Database.apply_replicated f records;
      Alcotest.(check int)
        (Printf.sprintf "cut %d: replicated = decoded" cut)
        k (Database.replicated_lsn f);
      Alcotest.(check (list int))
        (Printf.sprintf "cut %d: the snapshot holds the committed rows" cut)
        (expected_ids wal k ids_of) (snapshot_ids f "sales");
      Alcotest.(check bool)
        (Printf.sprintf "cut %d: V1 at the snapshot" cut)
        true (snapshot_v1 f "by_product");
      converged (Printf.sprintf "cut %d" cut) db f
    end
  done

(* --- follower crash mid-stream --------------------------------------------- *)

let test_follower_restart () =
  let spec = smoke_spec in
  let db, sales, views = Workload.setup spec in
  ignore (Workload.run_on db sales views spec);
  Wal.force (Database.wal db) (Wal.last_lsn (Database.wal db));
  let total = Wal.flushed_lsn (Database.wal db) in
  List.iter
    (fun k ->
      let cut = total * k / 5 in
      let f = Database.create_follower ~config:spec.Workload.config () in
      ignore (ship ~upto:cut db f);
      Alcotest.(check int)
        (Printf.sprintf "cut %d/%d applies every shipped record" cut total)
        cut (Database.replicated_lsn f);
      let f = Database.crash f in
      Alcotest.(check bool) "restart keeps the role" true (Database.is_follower f);
      Alcotest.(check int)
        (Printf.sprintf "restart at %d/%d resumes at the ingested horizon" cut total)
        cut (Database.replicated_lsn f);
      Alcotest.(check bool)
        (Printf.sprintf "restart at %d/%d: V1 at the snapshot" cut total)
        true
        (snapshot_v1 f "sales_by_product_0");
      converged (Printf.sprintf "after restart at %d/%d" cut total) db f;
      Alcotest.(check bool) "restarted replica satisfies V1" true
        (Workload.check_consistency f (Database.view f "sales_by_product_0")))
    [ 1; 2; 3; 4 ]

(* A primary log with three DDL statements (each a Ddl record, then its
   Commit), an escrow view among them, a transaction open from the middle
   of the log to its end, a committed delete, and a transaction that
   aborts. Built the same way
   every call, so one copy can be crashed for a reference. *)
let restart_primary () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "g"; ty = Value.TInt; nullable = false };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  let row i = [| Value.Int i; Value.Int (abs i mod 2); Value.Int i |] in
  let insert tx i = Table.insert db tx t (row i) in
  let rids =
    List.map (fun i -> Database.transact db (fun tx -> insert tx i)) [ 1; 2; 3 ]
  in
  let schema = Database.schema db t in
  ignore
    (Database.create_view db ~name:"v" ~group_by:[ "g" ]
       ~aggs:[ View_def.Count_star; View_def.Sum (Expr.col schema "qty") ]
       ~source:(Database.From (t, None))
       ~strategy:Maintain.Escrow ());
  Database.create_index db t ~col:"id" ~name:"t_id";
  (* open to the end of the log: its ids sort below every other, so no
     later insert's next-key lock meets its keys *)
  let mgr = Database.mgr db in
  let held = Txn.begin_txn mgr in
  ignore (insert held (-10));
  ignore (insert held (-11));
  ignore (Database.transact db (fun tx -> insert tx 4));
  Database.transact db (fun tx -> Table.delete db tx t (List.hd rids));
  (match
     Database.transact_result db (fun tx ->
         ignore (insert tx 20);
         raise Exit)
   with
  | Error (Database.User_abort Exit) -> ()
  | _ -> Alcotest.fail "the aborting transaction committed");
  ignore (Database.transact db (fun tx -> insert tx 5));
  Wal.force (Database.wal db) (Wal.last_lsn (Database.wal db));
  (config, db)

(* Restart the follower at EVERY cut of that log, between a Ddl record
   and its Commit among them. The restarted follower resumes at the
   horizon it had ingested, its snapshot sees what single-node recovery
   of the same prefix keeps (a promoted copy), it converges after further
   shipping, and promoting it then equals single-node recovery of the
   whole log. *)
let test_follower_restart_every_cut () =
  let config, db = restart_primary () in
  let reference = Database.state_digest (Database.crash (snd (restart_primary ()))) in
  let n = Wal.flushed_lsn (Database.wal db) in
  let ddl_cuts = ref 0 in
  for k = 1 to n do
    (match (Wal.get (Database.wal db) k).Log_record.body with
    | Log_record.Ddl _ -> incr ddl_cuts
    | _ -> ());
    let seen d =
      ( snapshot_ids d "t",
        Database.transact d ~read_only:true (fun tx -> view_rows d tx "v") )
    in
    let recovered = Database.create_follower ~config () in
    ignore (ship ~upto:k db recovered);
    ignore (Database.promote recovered);
    let f = Database.create_follower ~config () in
    ignore (ship ~upto:k db f);
    let f = Database.crash f in
    Alcotest.(check int)
      (Printf.sprintf "cut %d: restart resumes at the ingested horizon" k)
      k (Database.replicated_lsn f);
    if seen f <> seen recovered then
      Alcotest.failf
        "cut %d: the restarted snapshot differs from recovery of the prefix" k;
    Alcotest.(check bool) (Printf.sprintf "cut %d: V1 at the snapshot" k) true
      (snapshot_v1 f "v");
    converged (Printf.sprintf "after restart at %d" k) db f;
    ignore (Database.promote f);
    Alcotest.(check string)
      (Printf.sprintf "cut %d: promotion after restart = single-node recovery" k)
      reference (Database.state_digest f)
  done;
  Alcotest.(check int) "cuts right after each Ddl record (table, view, index)" 3
    !ddl_cuts

(* --- every cut: a snapshot sees exactly the committed transactions --------- *)

(* Two interleaved writers each insert a matched pair of rows (one in [a],
   one in [b]) per transaction, so Commit records regularly land while the
   other transaction is still open. Shipping record by record, at every
   cut a follower snapshot holds exactly the rows of the transactions
   whose Commit record is in the prefix — so no pair is ever split. *)
let test_no_split_transactions () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let ta =
    Database.create_table db ~name:"a"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  let tb =
    Database.create_table db ~name:"b"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  let ids_of = Hashtbl.create 16 in
  Sched.run ~seed:13 (fun () ->
      for w = 0 to 1 do
        ignore
          (Sched.spawn (fun () ->
               for i = 1 to 6 do
                 let id = (100 * w) + i in
                 Database.transact db (fun tx ->
                     Hashtbl.replace ids_of (Txn.id tx) [ id ];
                     ignore (Table.insert db tx ta [| Value.Int id |]);
                     Sched.yield ();
                     ignore (Table.insert db tx tb [| Value.Int id |]);
                     Sched.yield ())
               done))
      done);
  let wal = Database.wal db in
  Wal.force wal (Wal.last_lsn wal);
  let f = Database.create_follower ~config () in
  let hidden = ref 0 in
  for lsn = 1 to Wal.flushed_lsn wal do
    ignore (ship ~batch:1 ~upto:lsn db f);
    let expect = expected_ids wal lsn ids_of in
    Alcotest.(check (list int))
      (Printf.sprintf "lsn %d: a holds the committed rows" lsn)
      expect (snapshot_ids f "a");
    Alcotest.(check (list int))
      (Printf.sprintf "lsn %d: b holds the committed rows" lsn)
      expect (snapshot_ids f "b");
    (* the follower's pages hold an open transaction's row here *)
    match Database.table f "a" with
    | tbl ->
        if Seq.length (Query.table_scan f None tbl Query.Dirty) <> List.length expect
        then incr hidden
    | exception Not_found -> ()
  done;
  Alcotest.(check bool) "some cuts hid an applied open transaction" true (!hidden > 0);
  converged "record-by-record shipping" db f

(* One escrow-view writer commits; another inserts into the same groups
   and aborts, so its compensation (CLRs) ships too; a third rolls one
   insert back to a savepoint and commits. At every cut a follower
   snapshot holds exactly the committed rows, the view it reads equals
   its recomputation (V1), and a snapshot taken one record earlier still
   reads what it read then: the escrow commit path pushed the committed
   view rows it needed. *)
let test_escrow_abort_every_cut () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "g"; ty = Value.TInt; nullable = false };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  let schema = Database.schema db t in
  ignore
    (Database.create_view db ~name:"v" ~group_by:[ "g" ]
       ~aggs:[ View_def.Count_star; View_def.Sum (Expr.col schema "qty") ]
       ~source:(Database.From (t, None))
       ~strategy:Maintain.Escrow ());
  let ids_of = Hashtbl.create 16 in
  let insert tx id =
    ignore (Table.insert db tx t [| Value.Int id; Value.Int (id mod 2); Value.Int id |])
  in
  let aborted = ref 0 in
  Sched.run ~seed:17 (fun () ->
      let writer body =
        ignore
          (Sched.spawn (fun () ->
               for i = 1 to 4 do
                 match
                   Database.transact_result db (fun tx ->
                       Hashtbl.replace ids_of (Txn.id tx) [];
                       body tx i)
                 with
                 | Ok () -> ()
                 | Error _ -> incr aborted
               done))
      in
      writer (fun tx i ->
          Hashtbl.replace ids_of (Txn.id tx) [ i; 100 + i ];
          insert tx i;
          Sched.yield ();
          insert tx (100 + i);
          Sched.yield ());
      writer (fun tx i ->
          insert tx (200 + i);
          Sched.yield ();
          insert tx (300 + i);
          Sched.yield ();
          raise Exit);
      writer (fun tx i ->
          Hashtbl.replace ids_of (Txn.id tx) [ 400 + i ];
          insert tx (400 + i);
          let sp = Txn.savepoint tx in
          insert tx (500 + i);
          Sched.yield ();
          Txn.rollback_to (Database.mgr db) tx sp;
          Sched.yield ()));
  Alcotest.(check int) "every aborting transaction aborted" 4 !aborted;
  let wal = Database.wal db in
  Wal.force wal (Wal.last_lsn wal);
  let f = Database.create_follower ~config () in
  let mgr = Database.mgr f in
  for lsn = 1 to Wal.flushed_lsn wal do
    let held = Txn.begin_snapshot mgr in
    let read () =
      ( (match Database.table f "t" with
        | tbl -> Seq.length (Query.table_scan f (Some held) tbl Query.Serializable)
        | exception Not_found -> 0),
        view_rows f held "v" )
    in
    let before = read () in
    ignore (ship ~batch:1 ~upto:lsn db f);
    if read () <> before then
      Alcotest.failf "lsn %d: a snapshot taken one record earlier reads differently" lsn;
    Txn.commit mgr held;
    Alcotest.(check (list int))
      (Printf.sprintf "lsn %d: the snapshot holds the committed rows" lsn)
      (expected_ids wal lsn ids_of) (snapshot_ids f "t");
    Alcotest.(check bool) (Printf.sprintf "lsn %d: V1 at the snapshot" lsn) true
      (snapshot_v1 f "v")
  done;
  converged "escrow writers with aborts" db f

(* One primary transaction stays open while others commit: a follower
   snapshot sees each commit as soon as the one batch carrying it
   arrives, and never the open transaction's row until it commits. *)
let test_held_open_transaction () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  let f = Database.create_follower ~config () in
  let mgr = Database.mgr db in
  let held = Txn.begin_txn mgr in
  ignore (Table.insert db held t [| Value.Int 0 |]);
  for i = 1 to 5 do
    Database.transact db (fun tx -> ignore (Table.insert db tx t [| Value.Int i |]));
    let shipped = ship ~batch:Server.repl_batch_limit db f in
    Alcotest.(check bool)
      (Printf.sprintf "commit %d arrives in one batch (%d records)" i shipped)
      true
      (shipped <= Server.repl_batch_limit);
    Alcotest.(check (list int))
      (Printf.sprintf "commit %d is visible, the open transaction is not" i)
      (List.init i (fun j -> j + 1))
      (snapshot_ids f "t")
  done;
  Txn.commit mgr held;
  ignore (ship db f);
  Alcotest.(check (list int)) "the held transaction's commit is visible"
    [ 0; 1; 2; 3; 4; 5 ] (snapshot_ids f "t");
  converged "held-open transaction" db f

(* --- crash-the-primary sweep ----------------------------------------------- *)

(* Workload.run_replicated_until_crash with a continuously-streaming
   follower fiber: the shipper observes the stable horizon between other
   fibers' steps, ships it, and advances the slot's retention floor to its
   ack — exactly the server's subscription lifecycle. Determinism makes
   the force sweep exhaustive: the counting run and every armed run
   interleave identically up to the trigger. *)
let sweep_spec =
  {
    Workload.default with
    seed = 7;
    mpl = 3;
    txns_per_worker = 3;
    ops_per_txn = 3;
    delete_fraction = 0.;
    n_groups = 5;
    theta = 0.8;
    initial_rows = 20;
    n_views = 1;
    checkpoint_every = Some 3;
    strategy = Maintain.Escrow;
    config =
      { Workload.default.Workload.config with Database.pool_capacity = 8 };
  }

let count_forces spec =
  let db, _f, committed, crashed =
    Workload.run_replicated_until_crash spec Fault.no_faults
  in
  Alcotest.(check bool) "counting run crashed" false crashed;
  Alcotest.(check bool) "counting run committed" true (committed > 0);
  Fault.forces_seen (Database.fault_plan db)

let run_sweep_point spec fcfg desc =
  let db, f, _committed, crashed = Workload.run_replicated_until_crash spec fcfg in
  if not crashed then
    Alcotest.failf "%s: armed trigger did not fire (sweep out of sync)" desc;
  (* the slot is durable state: pin it to the follower's ack so recovery's
     checkpoint cannot truncate records the replica still needs (the CLRs
     it is about to append among them) *)
  Wal.set_retain_floor (Database.wal db)
    (Some (Database.replicated_lsn f + 1));
  let db' = Database.crash db in
  converged desc db' f;
  Alcotest.(check bool) (desc ^ ": replica view satisfies V1") true
    (Workload.check_consistency f (Database.view f "sales_by_product_0"))

(* --- heap growth under physical redo --------------------------------------- *)

(* Enough preloaded rows to span several heap pages: physical redo on the
   follower must adopt pages appended past each handle's cached tail
   (Heap_file.refresh), or the replica digest silently misses the chain's
   suffix. Regression test for exactly that bug. *)
let test_heap_growth () =
  let spec =
    { smoke_spec with Workload.seed = 5; initial_rows = 400; txns_per_worker = 2 }
  in
  let db, sales, views = Workload.setup spec in
  ignore (Workload.run_on db sales views spec);
  let f = Database.create_follower ~config:spec.Workload.config () in
  converged "heap growth" db f;
  let count d =
    Database.transact d ~read_only:true (fun tx ->
        Seq.length
          (Query.table_scan d (Some tx) (Database.table d "sales")
             Query.Serializable))
  in
  (* ~195 sales rows fit a page: 400 preloaded rows guarantee the chain
     grew past the follower handles' attach-time tails *)
  Alcotest.(check bool) "rows span multiple pages" true (count db >= 300);
  Alcotest.(check int) "equal row counts" (count db) (count f)

(* --- free space after promotion ---------------------------------------------- *)

(* A slot freed on the primary (a committed delete whose ghost the commit
   reclaims) reaches the follower through physical redo, behind its heap
   handles. After promotion, the new primary's first insert that misses the
   full tail must find that slot (the free-space map is rebuilt from the
   pages) instead of growing the file. *)
let test_promoted_reuses_space () =
  let module Heap_file = Ivdb_storage.Heap_file in
  let module Heap_page = Ivdb_storage.Heap_page in
  let module Bufpool = Ivdb_storage.Bufpool in
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "pad"; ty = Value.TStr; nullable = false };
        ]
  in
  let heap d =
    Database.Internal.(rt_heap (table_rt d (table_id (Database.table d "t"))))
  in
  let row i = [| Value.Int i; Value.Str (String.make 200 'p') |] in
  let insert d i = Database.transact d (fun tx -> Table.insert d tx (Database.table d "t") (row i)) in
  let tail_full d =
    let pages = Harness.heap_pages (Database.pool d) (heap d) in
    let len = ref 0 in
    Heap_file.iter (heap d) (fun _ r -> len := String.length r);
    Bufpool.read (Database.pool d) (List.nth pages (List.length pages - 1))
      Heap_page.free_space
    < 2 + !len + 2
  in
  let rids = ref [] and i = ref 0 in
  while List.length (Harness.heap_pages (Database.pool db) (heap db)) < 3 || not (tail_full db) do
    incr i;
    rids := insert db !i :: !rids
  done;
  let first = Heap_file.first_page (heap db) in
  let victim = List.find (fun r -> r.Heap_file.rpage = first) !rids in
  Database.transact db (fun tx -> Table.delete db tx t victim);
  let slots = ref [] in
  Heap_file.iter_all (heap db) (fun rid _ ~ghost:_ -> slots := rid :: !slots);
  Alcotest.(check bool) "the commit reclaimed the ghost" false (List.mem victim !slots);
  let f = Database.create_follower ~config () in
  converged "before promotion" db f;
  ignore (Database.promote f);
  let pages = Harness.heap_pages (Database.pool f) (heap f) in
  Alcotest.(check bool) "the follower's tail is full" true (tail_full f);
  let rid = insert f (!i + 1) in
  Alcotest.(check string) "the insert lands in the freed slot"
    (Format.asprintf "%a" Heap_file.pp_rid victim)
    (Format.asprintf "%a" Heap_file.pp_rid rid);
  Alcotest.(check (list int)) "no page appended" pages (Harness.heap_pages (Database.pool f) (heap f))

(* --- wire-level: server, replica driver, clients ---------------------------- *)

module Replica = Ivdb_server.Replica
module Client = Ivdb_client.Client
module Transport = Ivdb_transport.Transport
module Wire = Ivdb_wire.Wire
module Sql = Ivdb_sql.Sql

let rows = function
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected Rows"

let cell_str (r : Ivdb_relation.Row.t) i =
  match r.(i) with Value.Str s -> s | _ -> Alcotest.fail "expected Str cell"

(* A primary's replication slots as [(name, acked_lsn, connected)], read
   from its sys.replication. *)
let slots cl =
  rows (Client.exec cl "SELECT peer, replicated_lsn, state FROM sys.replication")
  |> List.map (function
       | [| Value.Str name; Value.Int acked; Value.Str state |] ->
           (name, acked, state = "streaming")
       | _ -> Alcotest.fail "a (peer, replicated_lsn, state) row")

let server_error code f =
  try
    ignore (f ());
    false
  with Client.Server_error { code = c; _ } -> c = code

(* Full deployment over loopback transports: a primary server with SQL
   clients, a follower database fed by the Replica driver, and a SECOND
   server fronting the follower for read-only SQL. Asserts the redesigned
   surfaces end to end: streaming catch-up, E_read_only over the wire,
   snapshot SELECTs on the follower, sys.replication on both roles, and
   slot reuse when a replica reconnects under the same name. *)
let test_wire_replication () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let fdb = Database.create_follower ~config () in
  let caught_up () =
    while Database.replicated_lsn fdb < Wal.flushed_lsn (Database.wal db) do
      Sched.yield ()
    done
  in
  Sched.run ~seed:7 (fun () ->
      let pnet = Transport.Loopback.create ~backlog:16 () in
      let fnet = Transport.Loopback.create ~backlog:16 () in
      let psrv = Server.create db (Transport.Loopback.listener pnet) in
      Server.serve psrv;
      let r1 = Replica.create ~name:"netfollower" fdb (Transport.Loopback.dialer pnet) in
      let fsrv = Server.create fdb (Transport.Loopback.listener fnet) in
      Server.attach_replica fsrv r1;
      Server.serve fsrv;
      Replica.spawn r1;
      (* primary takes writes while the follower streams *)
      let pcl = Client.connect ~client:"writer" (Transport.Loopback.dialer pnet) in
      ignore (Client.exec pcl "CREATE TABLE t (a INT NOT NULL, b TEXT)");
      ignore (Client.exec pcl "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
      caught_up ();
      Alcotest.(check bool) "driver is streaming" true
        (Replica.status r1 = Replica.Streaming);
      (* follower serves snapshot reads over the wire, rejects writes *)
      let fcl = Client.connect ~client:"reader" (Transport.Loopback.dialer fnet) in
      Alcotest.(check int) "follower serves the replicated rows" 2
        (List.length (rows (Client.exec fcl "SELECT a, b FROM t ORDER BY a")));
      Alcotest.(check bool) "INSERT on follower is E_read_only" true
        (server_error Wire.E_read_only (fun () ->
             Client.exec fcl "INSERT INTO t VALUES (3, 'z')"));
      Alcotest.(check bool) "BEGIN on follower is E_read_only" true
        (server_error Wire.E_read_only (fun () -> Client.exec fcl "BEGIN"));
      ignore (Client.exec fcl "BEGIN READ ONLY");
      Alcotest.(check int) "snapshot SELECT inside BEGIN READ ONLY" 2
        (List.length (rows (Client.exec fcl "SELECT a FROM t")));
      ignore (Client.exec fcl "COMMIT");
      (* sys.replication reflects the role on each side *)
      let prow =
        match rows (Client.exec pcl "SELECT * FROM sys.replication") with
        | [ r ] -> r
        | rs -> Alcotest.failf "primary: %d replication rows" (List.length rs)
      in
      Alcotest.(check string) "primary role" "primary" (cell_str prow 0);
      Alcotest.(check string) "primary peer is the slot name" "netfollower"
        (cell_str prow 1);
      Alcotest.(check string) "slot is streaming" "streaming" (cell_str prow 2);
      let frow =
        match rows (Client.exec fcl "SELECT * FROM sys.replication") with
        | [ r ] -> r
        | rs -> Alcotest.failf "follower: %d replication rows" (List.length rs)
      in
      Alcotest.(check string) "follower role" "follower" (cell_str frow 0);
      Alcotest.(check string) "follower streaming" "streaming" (cell_str frow 2);
      (* reconnect under the same name: the durable slot is reused, the
         new driver resumes from the follower's applied horizon *)
      Replica.stop r1;
      while Replica.status r1 <> Replica.Stopped do
        Sched.yield ()
      done;
      ignore (Client.exec pcl "INSERT INTO t VALUES (3, 'z')");
      let r2 = Replica.create ~name:"netfollower" fdb (Transport.Loopback.dialer pnet) in
      Server.attach_replica fsrv r2;
      Replica.spawn r2;
      caught_up ();
      Alcotest.(check int) "rows after resubscribe" 3
        (List.length (rows (Client.exec fcl "SELECT a FROM t")));
      (match slots pcl with
      | [ (name, acked, connected) ] ->
          Alcotest.(check string) "one durable slot" "netfollower" name;
          Alcotest.(check bool) "slot reconnected" true connected;
          Alcotest.(check int) "slot acked the full log" acked
            (Wal.flushed_lsn (Database.wal db))
      | rs -> Alcotest.failf "%d replication slots" (List.length rs));
      Client.close pcl;
      Client.close fcl;
      (* drivers must stop BEFORE the listener: a dialing replica retries
         against a drained loopback forever and the run never terminates *)
      Replica.stop r2;
      Server.drain fsrv;
      Server.drain psrv);
  Alcotest.(check string) "wire-replicated digest matches"
    (Database.state_digest db) (Database.state_digest fdb)

(* A fresh follower whose subscribe position predates the primary's
   retained log is refused with [Err E_repl]: the driver must treat that
   as fatal (stop, surface the error) rather than redialling forever. *)
let test_wire_subscribe_refused () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  for i = 1 to 5 do
    Database.transact db (fun tx -> ignore (Table.insert db tx t [| Value.Int i |]))
  done;
  (* no slots yet: the checkpoint truncates the log freely *)
  Database.checkpoint db;
  Alcotest.(check bool) "log truncated" true (Wal.first_lsn (Database.wal db) > 1);
  let fdb = Database.create_follower ~config () in
  Sched.run ~seed:3 (fun () ->
      let net = Transport.Loopback.create ~backlog:4 () in
      let srv = Server.create db (Transport.Loopback.listener net) in
      Server.serve srv;
      let r = Replica.create ~name:"late" fdb (Transport.Loopback.dialer net) in
      Replica.spawn r;
      while Replica.status r <> Replica.Stopped do
        Sched.yield ()
      done;
      Alcotest.(check int) "the refusal stopped the driver: no redial" 0
        (Replica.reconnects r);
      Alcotest.(check int) "nothing was applied" 0 (Database.replicated_lsn fdb);
      Server.drain srv)

(* Full failover over loopback: the primary dies mid-deployment, an admin
   [Promote] frame turns the follower's server into the new primary, the
   SQL client repoints, a second replica repoints its driver at the
   promoted node, and sys.replication shows the role transition. *)
let test_wire_failover () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let fdb = Database.create_follower ~config () in
  Sched.run ~seed:21 (fun () ->
      let pnet = Transport.Loopback.create ~backlog:16 () in
      let fnet = Transport.Loopback.create ~backlog:16 () in
      let psrv = Server.create db (Transport.Loopback.listener pnet) in
      Server.serve psrv;
      let r = Replica.create ~name:"standby" fdb (Transport.Loopback.dialer pnet) in
      let fsrv = Server.create fdb (Transport.Loopback.listener fnet) in
      Server.attach_replica fsrv r;
      Server.serve fsrv;
      Replica.spawn r;
      let pcl = Client.connect ~client:"app" (Transport.Loopback.dialer pnet) in
      ignore (Client.exec pcl "CREATE TABLE t (a INT NOT NULL)");
      ignore (Client.exec pcl "INSERT INTO t VALUES (1), (2)");
      while Database.replicated_lsn fdb < Wal.flushed_lsn (Database.wal db) do
        Sched.yield ()
      done;
      let fcl = Client.connect ~client:"admin" (Transport.Loopback.dialer fnet) in
      Alcotest.(check bool) "Promote on the primary is E_repl" true
        (server_error Wire.E_repl (fun () -> Client.promote pcl));
      (* the primary dies *)
      Server.drain psrv;
      (* an admin promotes the follower over the wire *)
      let msg = Client.promote fcl in
      Alcotest.(check bool) "promotion reported" true (String.length msg > 0);
      Alcotest.(check bool) "promotion stopped the driver" true
        (Replica.status r = Replica.Stopped);
      Alcotest.(check bool) "follower became primary" false
        (Database.is_follower fdb);
      (* sys.replication flipped from the follower row to the primary's
         slot rows (none yet: nothing has subscribed to the new primary) *)
      List.iter
        (fun row ->
          Alcotest.(check string) "post-promotion role" "primary"
            (cell_str row 0))
        (rows (Client.exec fcl "SELECT * FROM sys.replication"));
      (* the application client repoints and writes to the new primary *)
      Client.repoint pcl (Transport.Loopback.dialer fnet);
      ignore (Client.exec pcl "INSERT INTO t VALUES (3)");
      Alcotest.(check int) "promoted primary serves the write" 3
        (List.length (rows (Client.exec pcl "SELECT a FROM t ORDER BY a")));
      (* a second replica still dialling the dead primary repoints its
         driver and converges against the promoted node — whose promotion
         checkpoint kept the log it needs *)
      let fdb2 = Database.create_follower ~config () in
      let r2 =
        Replica.create ~name:"standby2" fdb2 (Transport.Loopback.dialer pnet)
      in
      Replica.spawn r2;
      for _ = 1 to 5 do
        Sched.yield ()
      done;
      Replica.repoint r2 (Transport.Loopback.dialer fnet);
      while Database.replicated_lsn fdb2 < Wal.flushed_lsn (Database.wal fdb) do
        Sched.yield ()
      done;
      Alcotest.(check string) "repointed replica converges"
        (Database.state_digest fdb) (Database.state_digest fdb2);
      Alcotest.(check bool) "second Promote is E_repl" true
        (server_error Wire.E_repl (fun () -> Client.promote fcl));
      Client.close pcl;
      Client.close fcl;
      Replica.stop r2;
      Server.drain fsrv)

(* A detached replica's durable slot pins WAL retention forever unless an
   operator drops it: [DropSlot] forgets the slot and recomputes the
   retain floor so checkpoint truncation resumes. Unknown and
   still-connected slots are refused. *)
let test_wire_drop_slot () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  let fdb = Database.create_follower ~config () in
  Sched.run ~seed:5 (fun () ->
      let net = Transport.Loopback.create ~backlog:8 () in
      let srv = Server.create db (Transport.Loopback.listener net) in
      Server.serve srv;
      let cl = Client.connect ~client:"admin" (Transport.Loopback.dialer net) in
      let r = Replica.create ~name:"gone" fdb (Transport.Loopback.dialer net) in
      Replica.spawn r;
      let insert i =
        Database.transact db (fun tx ->
            ignore (Table.insert db tx t [| Value.Int i |]))
      in
      insert 1;
      while Database.replicated_lsn fdb < Wal.flushed_lsn (Database.wal db) do
        Sched.yield ()
      done;
      Alcotest.(check bool) "dropping a live slot is refused" true
        (server_error Wire.E_repl (fun () -> Client.drop_slot cl "gone"));
      Alcotest.(check bool) "dropping an unknown slot is refused" true
        (server_error Wire.E_repl (fun () -> Client.drop_slot cl "nope"));
      (* the replica detaches for good; its slot keeps pinning the log *)
      Replica.stop r;
      while Replica.status r <> Replica.Stopped do
        Sched.yield ()
      done;
      let acked = Database.replicated_lsn fdb in
      for i = 2 to 9 do
        insert i
      done;
      (* the new records kick the caught-up stream fiber: it ships to the
         dead connection, observes the EOF, and marks the slot detached —
         until then a drop racing the disconnect is (correctly) refused *)
      let rec wait_detached () =
        match slots cl with
        | [ (_, _, false) ] -> ()
        | _ ->
            Sched.yield ();
            wait_detached ()
      in
      wait_detached ();
      Database.checkpoint db;
      Alcotest.(check bool) "detached slot pins retention" true
        (Wal.first_lsn (Database.wal db) <= acked + 1);
      let msg = Client.drop_slot cl "gone" in
      Alcotest.(check bool) "drop acknowledged" true (String.length msg > 0);
      Alcotest.(check (list (triple string int bool))) "no slots survive" []
        (slots cl);
      for i = 10 to 12 do
        insert i
      done;
      Database.checkpoint db;
      Alcotest.(check bool) "truncation resumed past the dropped slot" true
        (Wal.first_lsn (Database.wal db) > acked + 1);
      Client.close cl;
      Server.drain srv)

(* Regression: the redial backoff must reset once a session delivers a
   batch. Before the fix it compounded across the driver's whole
   lifetime, so a replica that streamed healthily for a long uptime and
   then hiccuped once redialled at the 64-tick cap instead of instantly.
   A scripted primary fails a burst of sessions (backoff climbs), serves
   one delivering session, then fails again — the next redial must be
   prompt. *)
let test_backoff_reset () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:[ { Schema.name = "id"; ty = Value.TInt; nullable = false } ]
  in
  for i = 1 to 3 do
    Database.transact db (fun tx -> ignore (Table.insert db tx t [| Value.Int i |]))
  done;
  let wal = Database.wal db in
  Wal.force wal (Wal.last_lsn wal);
  let n = Wal.flushed_lsn wal in
  let fdb = Database.create_follower ~config () in
  Sched.run ~seed:9 (fun () ->
      let net = Transport.Loopback.create ~backlog:16 () in
      let lst = Transport.Loopback.listener net in
      let failures = ref 0 in
      let fail_ticks = ref [] in
      let healthy_done = ref false in
      let healthy_close_tick = ref 0 in
      let first_fail_tick = ref (-1) in
      let mode = ref `Fail in
      let serve_one conn =
        match !mode with
        | `Fail ->
            incr failures;
            fail_ticks := Sched.now () :: !fail_ticks;
            if !healthy_done && !first_fail_tick < 0 then
              first_fail_tick := Sched.now ();
            conn.Transport.close ()
        | `Healthy ->
            let io = Transport.Frame_io.create conn in
            (match Transport.Frame_io.recv io with
            | Some (Wire.Hello _) -> (
                Transport.Frame_io.send io
                  (Wire.Welcome
                     { version = Wire.version; server = "fake"; session = 1 });
                match Transport.Frame_io.recv io with
                | Some (Wire.ReplSubscribe { from; _ }) when from <= n ->
                    let payload = Wal.serialize_range wal ~from ~upto:n in
                    Transport.Frame_io.send io
                      (Wire.ReplRecords
                         {
                           first = from;
                           upto = n;
                           flushed = n;
                           payload;
                         });
                    ignore (Transport.Frame_io.recv io);
                    (* one-shot: flip back to failing before the replica
                       can redial, so exactly one session delivers *)
                    mode := `Fail;
                    healthy_close_tick := Sched.now ();
                    healthy_done := true;
                    conn.Transport.close ()
                | _ ->
                    mode := `Fail;
                    healthy_close_tick := Sched.now ();
                    healthy_done := true;
                    conn.Transport.close ())
            | _ -> conn.Transport.close ())
      in
      ignore
        (Sched.spawn (fun () ->
             let rec loop () =
               match lst.Transport.accept () with
               | Some conn ->
                   serve_one conn;
                   loop ()
               | None -> ()
             in
             loop ()));
      let r = Replica.create ~name:"flaky" fdb (Transport.Loopback.dialer net) in
      Replica.spawn r;
      (* a burst of dead sessions: the backoff climbs toward the cap, 1, 2,
         4, 8 and then 16 yields before the sixth dial *)
      while !failures < 6 do
        Sched.yield ()
      done;
      let gap =
        match !fail_ticks with t6 :: t5 :: _ -> t6 - t5 | _ -> 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "backoff climbed after %d failed sessions (%d ticks)"
           !failures gap)
        true (gap >= 16);
      (* one healthy session delivers a batch... *)
      mode := `Healthy;
      while not !healthy_done do
        Sched.yield ()
      done;
      Alcotest.(check int) "the batch was applied" n
        (Database.replicated_lsn fdb);
      (* ...and the next hiccup redials promptly: the gap between the
         healthy session's close and the next (failing) dial is a couple
         of scheduler cycles, not the compounded 64-tick cap the driver
         had accumulated before the reset *)
      while !first_fail_tick < 0 do
        Sched.yield ()
      done;
      let gap = !first_fail_tick - !healthy_close_tick in
      Alcotest.(check bool)
        (Printf.sprintf "prompt redial after a delivering session (%d ticks)"
           gap)
        true
        (gap >= 0 && gap < 32);
      Replica.stop r;
      while Replica.status r <> Replica.Stopped do
        Sched.yield ()
      done;
      lst.Transport.stop ())

let sweep_crash_primary () =
  let spec = sweep_spec in
  let n_forces = count_forces spec in
  Alcotest.(check bool) "workload has force points" true (n_forces > 0);
  for k = 1 to n_forces do
    run_sweep_point spec
      { Fault.no_faults with crash_at_force = Some k }
      (Printf.sprintf "clean primary crash at force %d" k);
    run_sweep_point spec
      { Fault.no_faults with crash_at_force = Some k; torn_tail = true }
      (Printf.sprintf "torn primary crash at force %d" k)
  done

(* --- failover: promote the follower at every primary crash point ------------ *)

(* At every force point of the replicated workload, clean and torn: the
   primary dies, the follower final-ships the remainder of the dead log's
   SURVIVING image (Wal.crash applies the pending tear, so a torn force's
   lost bytes never reach the follower), promotes, and must land on
   exactly the state single-node crash recovery reaches over the same
   prefix — no committed transaction lost, every in-flight one rolled
   back by the promotion's undo pass. The promoted database must then
   serve writes and checkpoints. *)
let run_promote_point spec fcfg desc =
  let db, f, _committed, crashed = Workload.run_replicated_until_crash spec fcfg in
  if not crashed then
    Alcotest.failf "%s: armed trigger did not fire (sweep out of sync)" desc;
  let dead = Wal.crash (Database.wal db) (Metrics.create ()) in
  ignore (Workload.ship_wal dead f);
  let promo = Database.promote f in
  Alcotest.(check bool) (desc ^ ": promoted out of the follower role") false
    (Database.is_follower f);
  (* reference: single-node crash recovery over the same surviving log *)
  let db' = Database.crash db in
  Alcotest.(check string)
    (desc ^ ": promotion = single-node recovery of the same log")
    (Database.state_digest db')
    (Database.state_digest f);
  Alcotest.(check bool) (desc ^ ": promoted view satisfies V1") true
    (Workload.check_consistency f (Database.view f "sales_by_product_0"));
  (* the promoted primary is open for business *)
  let sales = Database.table f "sales" in
  Database.transact f (fun tx ->
      ignore
        (Table.insert f tx sales
           [| Value.Int 999_999; Value.Int 1; Value.Int 1; Value.Float 1. |]));
  Database.checkpoint f;
  promo

let sweep_promote_follower () =
  let spec = sweep_spec in
  let n_forces = count_forces spec in
  Alcotest.(check bool) "workload has force points" true (n_forces > 0);
  let undone = ref 0 in
  for k = 1 to n_forces do
    let p =
      run_promote_point spec
        { Fault.no_faults with crash_at_force = Some k }
        (Printf.sprintf "promote after clean crash at force %d" k)
    in
    undone := !undone + p.Database.losers_undone;
    let p =
      run_promote_point spec
        { Fault.no_faults with crash_at_force = Some k; torn_tail = true }
        (Printf.sprintf "promote after torn crash at force %d" k)
    in
    undone := !undone + p.Database.losers_undone
  done;
  Alcotest.(check bool) "some crash points left losers to roll back" true
    (!undone > 0)

let () =
  Alcotest.run "repl"
    [
      ( "shipping",
        [
          Alcotest.test_case "workload ships and replica serves reads" `Quick
            test_ship_smoke;
          Alcotest.test_case "resume below retention is refused" `Quick
            test_resume_below_retention;
          qtest prop_converges_across_seeds;
        ] );
      ( "roles",
        [ Alcotest.test_case "follower rejects writes" `Quick test_write_rejection ] );
      ( "redo",
        [
          Alcotest.test_case "heap chain growth under physical redo" `Quick
            test_heap_growth;
          Alcotest.test_case "promoted follower reuses freed space" `Quick
            test_promoted_reuses_space;
        ] );
      ( "horizon",
        [
          Alcotest.test_case "no split transactions on the replica" `Quick
            test_no_split_transactions;
          Alcotest.test_case "escrow writers with aborts, every cut" `Quick
            test_escrow_abort_every_cut;
          Alcotest.test_case "commits past a held-open transaction" `Quick
            test_held_open_transaction;
        ] );
      ( "wire",
        [
          Alcotest.test_case "end-to-end replication over loopback" `Quick
            test_wire_replication;
          Alcotest.test_case "subscribe below retention is fatal" `Quick
            test_wire_subscribe_refused;
          Alcotest.test_case "failover: promote, repoint, converge" `Quick
            test_wire_failover;
          Alcotest.test_case "drop a detached slot, truncation resumes" `Quick
            test_wire_drop_slot;
          Alcotest.test_case "redial backoff resets after delivery" `Quick
            test_backoff_reset;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn batch byte sweep" `Quick test_torn_batch;
          Alcotest.test_case "follower restart mid-stream" `Quick
            test_follower_restart;
          Alcotest.test_case "follower restart at every cut, then promote" `Quick
            test_follower_restart_every_cut;
          Alcotest.test_case "primary crash-at-force sweep" `Quick
            sweep_crash_primary;
          Alcotest.test_case "promote the follower at every crash point" `Quick
            sweep_promote_follower;
        ] );
    ]
