(* Concurrency semantics of indexed-view maintenance: escrow commutativity,
   logical undo under concurrent increments, phantom protection, deferred
   maintenance, and workload-level invariants. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Workload = Ivdb.Workload
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Sched = Ivdb_sched.Sched
module Metrics = Ivdb_util.Metrics

let check = Alcotest.check

let config = { Database.default_config with read_cost = 0; write_cost = 0 }

let cols =
  [
    { Schema.name = "id"; ty = Value.TInt; nullable = false };
    { Schema.name = "product"; ty = Value.TInt; nullable = false };
    { Schema.name = "qty"; ty = Value.TInt; nullable = false };
  ]

let row id product qty = [| Value.Int id; Value.Int product; Value.Int qty |]

let make ~strategy =
  let db = Database.create ~config () in
  let t = Database.create_table db ~name:"sales" ~cols in
  let v =
    Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
      ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
      ~source:(Database.From (t, None))
      ~strategy ()
  in
  (db, t, v)

let group_sum db v g =
  match Query.view_lookup db None v [| Value.Int g |] with
  | Some r -> Value.to_int r.(1)
  | None -> 0

(* --- escrow commutativity ---------------------------------------------------- *)

let test_escrow_concurrent_increments () =
  let db, t, v = make ~strategy:Maintain.Escrow in
  let id = ref 0 in
  Sched.run ~seed:1 (fun () ->
      for _ = 1 to 8 do
        ignore
          (Sched.spawn (fun () ->
               Database.transact db (fun tx ->
                   for _ = 1 to 5 do
                     incr id;
                     ignore (Table.insert db tx t (row !id 1 1));
                     Sched.yield ()
                   done)))
      done);
  check Alcotest.int "all increments applied" 40 (group_sum db v 1);
  Alcotest.(check bool) "V1" true (Workload.check_consistency db v)

let test_escrow_no_waits_between_incrementers () =
  (* pure incrementers on one hot group: escrow never blocks, exclusive must *)
  let run strategy =
    let db, t, _ = make ~strategy in
    let id = ref 0 in
    Sched.run ~seed:3 (fun () ->
        for _ = 1 to 6 do
          ignore
            (Sched.spawn (fun () ->
                 Database.transact db (fun tx ->
                     incr id;
                     ignore (Table.insert db tx t (row !id 1 1));
                     (* stay in the transaction across yields so lock
                        lifetimes overlap *)
                     Sched.yield ();
                     Sched.yield ())))
        done);
    Metrics.get (Database.metrics db) "lock.wait"
  in
  let escrow_waits = run Maintain.Escrow in
  let exclusive_waits = run Maintain.Exclusive in
  check Alcotest.int "escrow writers never wait" 0 escrow_waits;
  Alcotest.(check bool) "exclusive writers serialize" true (exclusive_waits > 0)

let test_reader_blocks_until_escrow_commit () =
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 10)));
  let observed = ref (-1) in
  let order = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 2 1 5));
                 order := `Writer_applied :: !order;
                 Sched.yield ();
                 Sched.yield ();
                 order := `Writer_committing :: !order)));
      ignore
        (Sched.spawn (fun () ->
             Sched.yield ();
             Database.transact db (fun tx ->
                 match Query.view_lookup db (Some tx) v [| Value.Int 1 |] with
                 | Some r ->
                     observed := Value.to_int r.(1);
                     order := `Reader_read :: !order
                 | None -> Alcotest.fail "group missing"))));
  (* the reader's S lock waited for the E lock: it saw the committed 15,
     never the in-flight intermediate *)
  check Alcotest.int "reader sees committed value" 15 !observed;
  check
    Alcotest.(list string)
    "reader ran after commit"
    [ "applied"; "committing"; "read" ]
    (List.rev_map
       (function
         | `Writer_applied -> "applied"
         | `Writer_committing -> "committing"
         | `Reader_read -> "read")
       !order)

let test_escrow_abort_preserves_concurrent_increments () =
  (* The decisive test for logical undo (D2): T1 increments, T2 increments
     and commits, T1 aborts. Physical before-image undo would wipe T2's
     increment; logical undo must keep it. *)
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 100)));
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             let mgr = Database.mgr db in
             let tx = Txn.begin_txn mgr in
             ignore (Table.insert db tx t (row 2 1 30));
             Sched.yield ();
             Sched.yield ();
             (* T2 has committed its +7 by now; abort T1 *)
             Txn.abort mgr tx));
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 3 1 7))))));
  check Alcotest.int "T2's increment survives T1's abort" 107 (group_sum db v 1);
  Alcotest.(check bool) "V1" true (Workload.check_consistency db v)

let test_concurrent_group_birth () =
  (* several transactions contribute the first rows of the same new group *)
  let db, t, v = make ~strategy:Maintain.Escrow in
  let id = ref 0 in
  Sched.run ~seed:9 (fun () ->
      for _ = 1 to 5 do
        ignore
          (Sched.spawn (fun () ->
               Database.transact db (fun tx ->
                   incr id;
                   ignore (Table.insert db tx t (row !id 77 2));
                   Sched.yield ())))
      done);
  check Alcotest.int "all births merged" 10 (group_sum db v 77);
  check Alcotest.int "single group row" 1
    (Seq.length (Query.view_scan db None v Query.Dirty))

let test_bounds_reads () =
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 10)));
  (* no writers in flight: the interval is a point *)
  (match Query.view_lookup_bounds db v [| Value.Int 1 |] with
  | Some (lo, hi) ->
      check Alcotest.int "point lo" 10 (Value.to_int lo.(1));
      check Alcotest.int "point hi" 10 (Value.to_int hi.(1))
  | None -> Alcotest.fail "group missing");
  (* a writer holds an uncommitted +5 *)
  let mgr = Database.mgr db in
  let tx = Txn.begin_txn mgr in
  ignore (Table.insert db tx t (row 2 1 5));
  (match Query.view_lookup_bounds db v [| Value.Int 1 |] with
  | Some (lo, hi) ->
      check Alcotest.int "lo count" 1 (Value.to_int lo.(0));
      check Alcotest.int "hi count" 2 (Value.to_int hi.(0));
      check Alcotest.int "lo sum" 10 (Value.to_int lo.(1));
      check Alcotest.int "hi sum" 15 (Value.to_int hi.(1))
  | None -> Alcotest.fail "group missing");
  Txn.abort mgr tx;
  (* after the abort the interval collapses back to the committed value *)
  (match Query.view_lookup_bounds db v [| Value.Int 1 |] with
  | Some (lo, hi) ->
      check Alcotest.int "abort lo" 10 (Value.to_int lo.(1));
      check Alcotest.int "abort hi" 10 (Value.to_int hi.(1))
  | None -> Alcotest.fail "group missing")

let test_bounds_mixed_signs () =
  let db, t, v = make ~strategy:Maintain.Escrow in
  let keep =
    Database.transact db (fun tx ->
        ignore (Table.insert db tx t (row 1 1 7));
        Table.insert db tx t (row 2 1 4))
  in
  (* committed: count 2, sum 11. In flight: +3 (insert) and -4 (delete) *)
  let mgr = Database.mgr db in
  let tx1 = Txn.begin_txn mgr in
  ignore (Table.insert db tx1 t (row 3 1 3));
  let tx2 = Txn.begin_txn mgr in
  Table.delete db tx2 t keep;
  (match Query.view_lookup_bounds db v [| Value.Int 1 |] with
  | Some (lo, hi) ->
      (* outcomes: both commit 10; +3 aborts 7; delete aborts 14; both abort 11 *)
      check Alcotest.int "lo sum" 7 (Value.to_int lo.(1));
      check Alcotest.int "hi sum" 14 (Value.to_int hi.(1));
      check Alcotest.int "lo count" 1 (Value.to_int lo.(0));
      check Alcotest.int "hi count" 3 (Value.to_int hi.(0))
  | None -> Alcotest.fail "group missing");
  Txn.commit mgr tx1;
  Txn.commit mgr tx2;
  match Query.view_lookup_bounds db v [| Value.Int 1 |] with
  | Some (lo, hi) ->
      check Alcotest.int "final point" 10 (Value.to_int lo.(1));
      check Alcotest.int "final point hi" 10 (Value.to_int hi.(1))
  | None -> Alcotest.fail "group missing"

let test_bounds_never_blocks () =
  (* the bounds read proceeds while an E lock is held — unlike view_lookup,
     which would wait for commit *)
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 1)));
  let read_during_write = ref None in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 2 1 1));
                 Sched.yield ();
                 Sched.yield ())));
      ignore
        (Sched.spawn (fun () ->
             Sched.yield ();
             (* no transaction, no locks: cannot block *)
             read_during_write := Query.view_lookup_bounds db v [| Value.Int 1 |])));
  match !read_during_write with
  | Some (lo, hi) ->
      check Alcotest.int "lo during write" 1 (Value.to_int lo.(1));
      check Alcotest.int "hi during write" 2 (Value.to_int hi.(1))
  | None -> Alcotest.fail "bounds read failed"

(* --- phantom protection --------------------------------------------------------- *)

let test_serializable_scan_blocks_group_creation () =
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 1)));
  let events = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 (* serializable scan: RangeS_S on every key and EOF *)
                 Seq.iter (fun _ -> ())
                   (Query.view_scan db (Some tx) v Query.Serializable);
                 events := `Scanned :: !events;
                 Sched.yield ();
                 Sched.yield ();
                 Sched.yield ();
                 events := `Scanner_done :: !events)));
      ignore
        (Sched.spawn (fun () ->
             Sched.yield ();
             Database.transact db (fun tx ->
                 (* new group 2: its RangeI_N on the scanned gap must wait *)
                 ignore (Table.insert db tx t (row 2 2 1));
                 events := `Created :: !events))));
  check
    Alcotest.(list string)
    "creation blocked until scanner committed"
    [ "scanned"; "scanner-done"; "created" ]
    (List.rev_map
       (function
         | `Scanned -> "scanned"
         | `Scanner_done -> "scanner-done"
         | `Created -> "created")
       !events)

let test_inserts_into_existing_groups_do_not_conflict () =
  (* two inserts into two *existing* groups: no waits at all under escrow *)
  let db, t, _ = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx ->
      ignore (Table.insert db tx t (row 1 1 1));
      ignore (Table.insert db tx t (row 2 2 1)));
  let before = Metrics.get (Database.metrics db) "lock.wait" in
  Sched.run ~seed:4 (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 3 1 1));
                 Sched.yield ())));
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 4 2 1));
                 Sched.yield ()))));
  check Alcotest.int "no lock waits" before
    (Metrics.get (Database.metrics db) "lock.wait")

let test_range_scan_contents () =
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx ->
      List.iter
        (fun (g, q) -> ignore (Table.insert db tx t (row g g q)))
        [ (1, 10); (3, 30); (5, 50); (7, 70); (9, 90) ]);
  let got =
    List.of_seq
      (Query.view_scan_range db None v ~lo:[| Value.Int 3 |] ~hi:[| Value.Int 8 |]
         Query.Dirty)
    |> List.map (fun (g, r) -> (Value.to_int g.(0), Value.to_int r.(1)))
  in
  check Alcotest.(list (pair int int)) "half-open range" [ (3, 30); (5, 50); (7, 70) ] got

let test_range_scan_phantom_precision () =
  (* a serializable range scan of [3, 8) blocks group creation INSIDE the
     range but not outside it *)
  let db, t, v = make ~strategy:Maintain.Escrow in
  Database.transact db (fun tx ->
      List.iter (fun g -> ignore (Table.insert db tx t (row g g 1))) [ 3; 5; 9 ]);
  let events = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 Seq.iter (fun _ -> ())
                   (Query.view_scan_range db (Some tx) v ~lo:[| Value.Int 3 |]
                      ~hi:[| Value.Int 8 |] Query.Serializable);
                 events := `Scanned :: !events;
                 for _ = 1 to 6 do
                   Sched.yield ()
                 done;
                 events := `Scanner_commit :: !events)));
      (* creation outside the scanned range proceeds immediately *)
      ignore
        (Sched.spawn (fun () ->
             Sched.yield ();
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 100 20 1));
                 events := `Outside_created :: !events)));
      (* creation inside the range must wait for the scanner *)
      ignore
        (Sched.spawn (fun () ->
             Sched.yield ();
             Sched.yield ();
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 101 6 1));
                 events := `Inside_created :: !events))));
  let names =
    List.rev_map
      (function
        | `Scanned -> "scan"
        | `Scanner_commit -> "scan-commit"
        | `Outside_created -> "outside"
        | `Inside_created -> "inside")
      !events
  in
  (* outside insert finished while the scanner still held its range locks *)
  Alcotest.(check bool) "outside before scanner commit" true
    (let rec idx n = function
       | [] -> -1
       | x :: rest -> if x = n then 0 else 1 + idx n rest
     in
     idx "outside" names < idx "scan-commit" names
     && idx "inside" names > idx "scan-commit" names)

(* --- deferred ---------------------------------------------------------------------- *)

let test_deferred_appends_dont_touch_view () =
  let db, t, v = make ~strategy:Maintain.Deferred in
  Database.transact db (fun tx ->
      for i = 1 to 6 do
        ignore (Table.insert db tx t (row i 1 2))
      done);
  Alcotest.(check bool) "view still empty" true
    (Query.view_lookup db None v [| Value.Int 1 |] = None);
  check Alcotest.int "staleness" 6 (Query.staleness db v);
  Database.transact db (fun tx ->
      check Alcotest.int "drained" 6 (Query.refresh db tx v));
  check Alcotest.int "view caught up" 12 (group_sum db v 1);
  check Alcotest.int "queue empty" 0 (Query.staleness db v)

let test_deferred_abort_removes_queued_deltas () =
  let db, t, v = make ~strategy:Maintain.Deferred in
  let mgr = Database.mgr db in
  let tx = Txn.begin_txn mgr in
  ignore (Table.insert db tx t (row 1 1 2));
  check Alcotest.int "queued" 1 (Query.staleness db v);
  Txn.abort mgr tx;
  check Alcotest.int "rolled back with txn" 0 (Query.staleness db v)

let test_deferred_writers_never_conflict_on_view () =
  let db, t, _ = make ~strategy:Maintain.Deferred in
  let id = ref 0 in
  Sched.run ~seed:5 (fun () ->
      for _ = 1 to 8 do
        ignore
          (Sched.spawn (fun () ->
               Database.transact db (fun tx ->
                   incr id;
                   ignore (Table.insert db tx t (row !id 1 1));
                   Sched.yield ())))
      done);
  check Alcotest.int "no waits" 0 (Metrics.get (Database.metrics db) "lock.wait")

let test_deferred_refresh_is_transactional () =
  let db, t, v = make ~strategy:Maintain.Deferred in
  Database.transact db (fun tx ->
      for i = 1 to 4 do
        ignore (Table.insert db tx t (row i 1 5))
      done);
  (* refresh, then abort the refreshing transaction: queue must be intact *)
  let mgr = Database.mgr db in
  let tx = Txn.begin_txn mgr in
  ignore (Query.refresh db tx v);
  check Alcotest.int "drained inside txn" 0 (Query.staleness db v);
  Txn.abort mgr tx;
  check Alcotest.int "queue restored on abort" 4 (Query.staleness db v);
  Alcotest.(check bool) "view restored on abort" true
    (Query.view_lookup db None v [| Value.Int 1 |] = None);
  Database.transact db (fun tx -> ignore (Query.refresh db tx v));
  check Alcotest.int "final sum" 20 (group_sum db v 1)

let test_deferred_auto_refresh_threshold () =
  let db = Database.create ~config () in
  let t = Database.create_table db ~name:"sales" ~cols in
  let v =
    Database.create_view db ~name:"v" ~refresh_threshold:5 ~group_by:[ "product" ]
      ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
      ~source:(Database.From (t, None))
      ~strategy:Maintain.Deferred ()
  in
  Database.transact db (fun tx ->
      for i = 1 to 4 do
        ignore (Table.insert db tx t (row i 1 1))
      done);
  (* below the threshold: a transactional reader sees the stale view *)
  Database.transact db (fun tx ->
      Alcotest.(check bool) "stale below threshold" true
        (Query.view_lookup db (Some tx) v [| Value.Int 1 |] = None));
  check Alcotest.int "still queued" 4 (Query.staleness db v);
  Database.transact db (fun tx ->
      for i = 5 to 8 do
        ignore (Table.insert db tx t (row i 1 1))
      done);
  (* now 8 > 5: the next transactional reader drains the queue first *)
  Database.transact db (fun tx ->
      match Query.view_lookup db (Some tx) v [| Value.Int 1 |] with
      | Some r -> check Alcotest.int "fresh after auto-refresh" 8 (Value.to_int r.(1))
      | None -> Alcotest.fail "auto-refresh did not run");
  check Alcotest.int "queue drained" 0 (Query.staleness db v);
  Alcotest.(check bool) "counted" true
    (Metrics.get (Database.metrics db) "view.auto_refresh" >= 1)

(* --- join views under concurrency ----------------------------------------------------- *)

let test_join_view_concurrent () =
  let db = Database.create ~config () in
  let orders =
    Database.create_table db ~name:"orders"
      ~cols:
        [
          { Schema.name = "oid"; ty = Value.TInt; nullable = false };
          { Schema.name = "customer"; ty = Value.TInt; nullable = false };
        ]
  in
  let items =
    Database.create_table db ~name:"items"
      ~cols:
        [
          { Schema.name = "order_id"; ty = Value.TInt; nullable = false };
          { Schema.name = "amount"; ty = Value.TInt; nullable = false };
        ]
  in
  Database.create_index db orders ~col:"oid" ~name:"ix_o";
  Database.create_index db items ~col:"order_id" ~name:"ix_i";
  let js = Database.join_schema db orders items in
  let v =
    Database.create_view db ~name:"cust" ~group_by:[ "customer" ]
      ~aggs:[ View_def.Sum (Expr.col js "amount") ]
      ~source:
        (Database.From_join
           { left = orders; right = items; left_col = "oid"; right_col = "order_id";
             where = None })
      ~strategy:Maintain.Escrow ()
  in
  let next_oid = ref 0 in
  Sched.run ~seed:21 (fun () ->
      for w = 1 to 5 do
        ignore
          (Sched.spawn (fun () ->
               let rng = Ivdb_util.Rng.create (w * 7) in
               for _ = 1 to 10 do
                 (try
                    Database.transact db (fun tx ->
                        incr next_oid;
                        let oid = !next_oid in
                        ignore
                          (Table.insert db tx orders
                             [| Value.Int oid; Value.Int (Ivdb_util.Rng.int rng 4) |]);
                        Sched.yield ();
                        for _ = 1 to 1 + Ivdb_util.Rng.int rng 2 do
                          ignore
                            (Table.insert db tx items
                               [| Value.Int oid; Value.Int (1 + Ivdb_util.Rng.int rng 9) |]);
                          Sched.yield ()
                        done)
                  with Txn.Conflict _ -> ());
                 Sched.yield ()
               done))
      done);
  Alcotest.(check bool) "join view V1 under concurrency" true
    (Workload.check_consistency db v)

(* --- workload-level invariants ------------------------------------------------------- *)

let consistency_spec strategy =
  {
    Workload.default with
    seed = 11;
    mpl = 6;
    txns_per_worker = 25;
    ops_per_txn = 3;
    delete_fraction = 0.2;
    n_groups = 10;
    theta = 0.9;
    strategy;
  }

let test_workload_consistency_all_strategies () =
  List.iter
    (fun strategy ->
      let spec = consistency_spec strategy in
      let db, sales, views = Workload.setup spec in
      let res = Workload.run_on db sales views spec in
      Alcotest.(check bool) "some commits" true (res.Workload.committed > 0);
      let v = List.hd views in
      (match strategy with
      | Maintain.Deferred ->
          Database.transact db (fun tx -> ignore (Query.refresh db tx v))
      | Maintain.Escrow | Maintain.Exclusive -> ());
      Alcotest.(check bool)
        (Printf.sprintf "V1 under concurrency (%s)"
           (Maintain.strategy_to_string strategy))
        true
        (Workload.check_consistency db v))
    [ Maintain.Exclusive; Maintain.Escrow; Maintain.Deferred ]

let test_workload_deterministic () =
  let spec = consistency_spec Maintain.Escrow in
  let r1 = Workload.run spec and r2 = Workload.run spec in
  Alcotest.(check bool) "same result" true (r1 = r2)

(* Each commit's latency lands once in the run's window, and the mean and
   p95 that ivdb_workload and the bench print are the plain mean and
   nearest-rank percentile of those observations. *)
let test_workload_latency_window () =
  let spec =
    {
      (consistency_spec Maintain.Escrow) with
      read_fraction = 0.3;
      config =
        {
          Workload.default.Workload.config with
          commit_mode = Txn.Group { max_batch = 8; max_wait_ticks = 50 };
        };
    }
  in
  let r = Workload.run spec in
  let cells = Metrics.window_cells r.Workload.window "txn.commit_ticks" in
  let latencies =
    List.concat_map (fun (v, c) -> List.init c (fun _ -> v)) cells
    |> List.sort compare |> Array.of_list
  in
  let n = Array.length latencies in
  Alcotest.(check bool) "some commits" true (r.Workload.committed > 0);
  check Alcotest.int "one observation per commit" r.Workload.committed n;
  check (Alcotest.float 1e-9) "mean"
    (float_of_int (Array.fold_left ( + ) 0 latencies) /. float_of_int n)
    r.Workload.mean_latency;
  let rank = int_of_float (ceil (0.95 *. float_of_int n)) in
  check (Alcotest.float 0.) "nearest-rank p95"
    (float_of_int latencies.(rank - 1))
    r.Workload.p95_latency;
  Alcotest.(check bool) "group commit batched" true (r.Workload.mean_batch > 0.);
  check (Alcotest.float 1e-9) "mean batch"
    (Metrics.cells_mean (Metrics.window_cells r.Workload.window "commit.batch"))
    r.Workload.mean_batch

(* A run that an injected crash stops still reports the ticks it ran, at
   least to its last commit. The run's clock reads 1 when it starts. *)
let test_crashed_run_reports_ticks () =
  let spec =
    { Workload.default with mpl = 4; txns_per_worker = 10; checkpoint_every = Some 5 }
  in
  let db, sales, views = Workload.setup spec in
  let last_commit = ref 0 in
  let tr = Database.trace db in
  Ivdb_util.Trace.add_sink tr (fun r ->
      match r.Ivdb_util.Trace.event with
      | Ivdb_util.Trace.Txn_commit { system = false; _ } -> last_commit := r.Ivdb_util.Trace.tick
      | _ -> ());
  Ivdb_util.Trace.set_enabled tr true;
  Database.install_fault db
    { Ivdb_storage.Fault.no_faults with crash_at_write = Some 6; torn_writes = true };
  let r = Workload.run_on db sales views spec in
  Alcotest.(check bool) "crashed" true r.Workload.crashed;
  Alcotest.(check bool) "committed before the crash" true (r.Workload.committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "ticks %d reach the last commit at %d" r.Workload.ticks !last_commit)
    true
    (r.Workload.ticks >= !last_commit - 1)

let test_checkpoint_under_concurrency () =
  (* sharp checkpoints interleave with active transactions: stealing
     uncommitted pages is fine (undo is logical), truncation respects
     active transactions, and the final state is consistent and
     crash-recoverable *)
  let spec =
    {
      (consistency_spec Maintain.Escrow) with
      checkpoint_every = Some 15;
      txns_per_worker = 30;
    }
  in
  let db, sales, views = Workload.setup spec in
  let r = Workload.run_on db sales views spec in
  Alcotest.(check bool) "commits" true (r.Workload.committed > 100);
  Alcotest.(check bool) "checkpoints ran" true
    (Metrics.get (Database.metrics db) "txn.checkpoint" >= 5);
  Alcotest.(check bool) "log truncated" true
    (Ivdb_wal.Wal.first_lsn (Database.wal db) > 1);
  Alcotest.(check bool) "V1" true (Workload.check_consistency db (List.hd views));
  let db' = Database.crash db in
  Alcotest.(check bool) "V1 after crash" true
    (Workload.check_consistency db' (Database.view db' "sales_by_product_0"))

let test_workload_gc_under_churn () =
  let spec =
    {
      (consistency_spec Maintain.Escrow) with
      delete_fraction = 0.45;
      n_groups = 40;
      gc_every = Some 10;
      txns_per_worker = 30;
    }
  in
  let db, sales, views = Workload.setup spec in
  let _ = Workload.run_on db sales views spec in
  ignore (Database.gc db);
  Alcotest.(check bool) "V1 with churn + gc" true
    (Workload.check_consistency db (List.hd views))

let test_user_create_mode_contends () =
  (* D3 ablation: user-transaction group creation holds X to commit, so
     concurrent writers to a newborn group must wait *)
  let run create_mode =
    let db = Database.create ~config () in
    let t = Database.create_table db ~name:"sales" ~cols in
    let _ =
      Database.create_view db ~create_mode ~name:"v" ~group_by:[ "product" ]
        ~aggs:[]
        ~source:(Database.From (t, None))
        ~strategy:Maintain.Escrow ()
    in
    let id = ref 0 in
    Sched.run ~policy:Sched.Fifo (fun () ->
        for _ = 1 to 4 do
          ignore
            (Sched.spawn (fun () ->
                 Database.transact db (fun tx ->
                     incr id;
                     ignore (Table.insert db tx t (row !id 500 1));
                     Sched.yield ();
                     Sched.yield ())))
        done);
    Metrics.get (Database.metrics db) "lock.wait"
  in
  check Alcotest.int "system-txn creation: no waits" 0 (run Maintain.System_txn);
  Alcotest.(check bool) "user-txn creation: waits" true (run Maintain.User_txn > 0)

let () =
  Alcotest.run "view"
    [
      ( "escrow",
        [
          Alcotest.test_case "concurrent increments" `Quick
            test_escrow_concurrent_increments;
          Alcotest.test_case "no waits between incrementers" `Quick
            test_escrow_no_waits_between_incrementers;
          Alcotest.test_case "reader blocks until commit" `Quick
            test_reader_blocks_until_escrow_commit;
          Alcotest.test_case "abort preserves concurrent increments" `Quick
            test_escrow_abort_preserves_concurrent_increments;
          Alcotest.test_case "concurrent group birth" `Quick test_concurrent_group_birth;
        ] );
      ( "bounds-reads",
        [
          Alcotest.test_case "point and interval" `Quick test_bounds_reads;
          Alcotest.test_case "mixed signs" `Quick test_bounds_mixed_signs;
          Alcotest.test_case "never blocks" `Quick test_bounds_never_blocks;
        ] );
      ( "phantoms",
        [
          Alcotest.test_case "serializable scan blocks creation" `Quick
            test_serializable_scan_blocks_group_creation;
          Alcotest.test_case "existing groups don't conflict" `Quick
            test_inserts_into_existing_groups_do_not_conflict;
          Alcotest.test_case "range scan contents" `Quick test_range_scan_contents;
          Alcotest.test_case "range scan phantom precision" `Quick
            test_range_scan_phantom_precision;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "appends don't touch view" `Quick
            test_deferred_appends_dont_touch_view;
          Alcotest.test_case "abort removes queued deltas" `Quick
            test_deferred_abort_removes_queued_deltas;
          Alcotest.test_case "writers never conflict" `Quick
            test_deferred_writers_never_conflict_on_view;
          Alcotest.test_case "refresh is transactional" `Quick
            test_deferred_refresh_is_transactional;
          Alcotest.test_case "auto-refresh threshold" `Quick
            test_deferred_auto_refresh_threshold;
        ] );
      ( "join-concurrency",
        [ Alcotest.test_case "V1 under concurrent order entry" `Quick
            test_join_view_concurrent ] );
      ( "workload",
        [
          Alcotest.test_case "V1 under concurrency, all strategies" `Quick
            test_workload_consistency_all_strategies;
          Alcotest.test_case "deterministic by seed" `Quick test_workload_deterministic;
          Alcotest.test_case "latency figures come from the window" `Quick
            test_workload_latency_window;
          Alcotest.test_case "a crashed run reports its ticks" `Quick
            test_crashed_run_reports_ticks;
          Alcotest.test_case "gc under churn" `Quick test_workload_gc_under_churn;
          Alcotest.test_case "checkpoint under concurrency" `Quick
            test_checkpoint_under_concurrency;
          Alcotest.test_case "create-mode ablation" `Quick test_user_create_mode_contends;
        ] );
    ]
