module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Workload = Ivdb.Workload
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Row = Ivdb_relation.Row
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Rng = Ivdb_util.Rng
module Sql = Ivdb_sql.Sql
module Metrics = Ivdb_util.Metrics

let check = Alcotest.check

let config =
  { Database.default_config with read_cost = 0; write_cost = 0 }

let cols =
  [
    { Schema.name = "id"; ty = Value.TInt; nullable = false };
    { Schema.name = "product"; ty = Value.TInt; nullable = false };
    { Schema.name = "qty"; ty = Value.TInt; nullable = false };
  ]

let row id product qty = [| Value.Int id; Value.Int product; Value.Int qty |]

let make_db ?(config = config) () =
  let db = Database.create ~config () in
  let t = Database.create_table db ~name:"sales" ~cols in
  (db, t)

let sum_qty db t ~strategy () =
  Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
    ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
    ~source:(Database.From (t, None))
    ~strategy ()

(* --- tables ------------------------------------------------------------- *)

(* The live row at [rid], unlocked. *)
let get db t rid =
  Database.Internal.heap_scan_rows db None t
  |> Seq.find_map (fun (r, row) -> if r = rid then Some row else None)

let test_table_crud () =
  let db, t = make_db () in
  let rid =
    Database.transact db (fun tx -> Table.insert db tx t (row 1 10 5))
  in
  Alcotest.(check bool) "get" true
    (Option.is_some (get db t rid));
  Database.transact db (fun tx -> Table.delete db tx t rid);
  Alcotest.(check bool) "gone" true (get db t rid = None);
  check Alcotest.int "count" 0 (Table.row_count db t)

let test_table_validation () =
  let db, t = make_db () in
  Database.transact db (fun tx ->
      Alcotest.check_raises "arity"
        (Invalid_argument "Table.insert: arity mismatch: expected 3, got 1")
        (fun () -> ignore (Table.insert db tx t [| Value.Int 1 |]));
      Alcotest.check_raises "type"
        (Invalid_argument "Table.insert: product: expected INT, got STR")
        (fun () -> ignore (Table.insert db tx t [| Value.Int 1; Value.Str "x"; Value.Int 2 |])))

let test_table_scan_where () =
  let db, t = make_db () in
  Database.transact db (fun tx ->
      for i = 1 to 20 do
        ignore (Table.insert db tx t (row i (i mod 4) i))
      done);
  let schema = Database.schema db t in
  let pred = Expr.Cmp (Expr.Eq, Expr.col schema "product", Expr.int 2) in
  let n = Seq.length (Query.table_scan db None t ~where:pred Query.Dirty) in
  check Alcotest.int "filtered" 5 n

let test_update_moves_row () =
  let db, t = make_db () in
  let rid = Database.transact db (fun tx -> Table.insert db tx t (row 1 1 1)) in
  let rid' =
    Database.transact db (fun tx -> Table.update db tx t rid (row 1 1 99))
  in
  Alcotest.(check bool) "old rid gone" true (get db t rid = None);
  (match get db t rid' with
  | Some r -> Alcotest.(check bool) "new value" true (Value.to_int r.(2) = 99)
  | None -> Alcotest.fail "row missing");
  check Alcotest.int "still one row" 1 (Table.row_count db t)

let test_secondary_index_probe () =
  let db, t = make_db () in
  Database.create_index db t ~col:"product" ~name:"ix_product";
  Database.transact db (fun tx ->
      for i = 1 to 30 do
        ignore (Table.insert db tx t (row i (i mod 3) i))
      done);
  let rows =
    Database.Internal.index_probe db None
      ~table:(Database.Internal.table_id t) ~col:1 (Value.Int 1)
  in
  check Alcotest.int "probe hits" 10 (Seq.length rows);
  (* index maintained under deletes *)
  let schema = Database.schema db t in
  let n =
    Database.transact db (fun tx ->
        Table.delete_where db tx t (Expr.Cmp (Expr.Eq, Expr.col schema "product", Expr.int 1)))
  in
  check Alcotest.int "deleted" 10 n;
  let rows =
    Database.Internal.index_probe db None
      ~table:(Database.Internal.table_id t) ~col:1 (Value.Int 1)
  in
  check Alcotest.int "probe empty" 0 (Seq.length rows)

(* A serializable scan reads each page, not each row: its lock fixpoint
   walks the heap twice (the second walk finds no new rid and its live
   rows are the result), so its buffer fixes stay within twice the
   table's pages, which an unlocked scan fixes once each. Ghosts of
   committed deletes are locked but not returned. *)
let test_locked_scan_fixes_pages () =
  let db, t = make_db () in
  let rids =
    Database.transact db (fun tx ->
        List.init 2000 (fun i -> Table.insert db tx t (row i (i mod 7) i)))
  in
  Database.transact db (fun tx ->
      List.iteri (fun i rid -> if i mod 5 = 0 then Table.delete db tx t rid) rids);
  let m = Database.metrics db in
  let fixes f =
    let count () = Metrics.get m "buffer.hit" + Metrics.get m "buffer.miss" in
    let before = count () in
    let v = f () in
    (count () - before, v)
  in
  let scan txn = List.of_seq (Query.table_scan db txn t Query.Serializable) in
  let pages, unlocked = fixes (fun () -> scan None) in
  let locked_fixes, locked =
    fixes (fun () -> Database.transact db (fun tx -> scan (Some tx)))
  in
  check Alcotest.int "live rows" 1600 (List.length locked);
  Alcotest.(check bool) "same rows in rid order" true
    (List.equal Row.equal unlocked locked);
  Alcotest.(check bool)
    (Printf.sprintf "%d fixes within twice the %d pages" locked_fixes pages)
    true
    (locked_fixes <= 2 * pages)

let test_lock_escalation () =
  let config = { config with Database.escalation_threshold = Some 5 } in
  let db = Database.create ~config () in
  let t = Database.create_table db ~name:"sales" ~cols in
  let mgr = Database.mgr db in
  let tx = Txn.begin_txn mgr in
  for i = 1 to 20 do
    ignore (Table.insert db tx t (row i 1 1))
  done;
  (* after the 5th row lock the whole table is X-locked and later rows take
     no individual locks *)
  Alcotest.(check bool) "escalated" true
    (Ivdb_util.Metrics.get (Database.metrics db) "lock.escalation" = 1);
  let held = Ivdb_lock.Lock_mgr.lock_count (Database.locks db)
      ~txn:(Txn.id tx) in
  Alcotest.(check bool) "far fewer locks than rows" true (held < 15);
  Alcotest.(check bool) "table X held" true
    (Ivdb_lock.Lock_mgr.held_mode (Database.locks db) ~txn:(Txn.id tx)
       (Ivdb_lock.Lock_name.Table (Database.Internal.table_id t))
    = Some Ivdb_lock.Lock_mode.X);
  Txn.commit mgr tx;
  (* counters are per-transaction: a fresh txn starts from zero *)
  let tx2 = Txn.begin_txn mgr in
  for i = 21 to 23 do
    ignore (Table.insert db tx2 t (row i 1 1))
  done;
  Alcotest.(check bool) "no new escalation" true
    (Ivdb_util.Metrics.get (Database.metrics db) "lock.escalation" = 1);
  Txn.commit mgr tx2

let test_escalated_table_blocks_writers () =
  let config = { config with Database.escalation_threshold = Some 3 } in
  let db = Database.create ~config () in
  let t = Database.create_table db ~name:"sales" ~cols in
  let order = ref [] in
  Ivdb_sched.Sched.run ~policy:Ivdb_sched.Sched.Fifo (fun () ->
      ignore
        (Ivdb_sched.Sched.spawn (fun () ->
             Database.transact db (fun tx ->
                 for i = 1 to 6 do
                   ignore (Table.insert db tx t (row i 1 1))
                 done;
                 order := `Bulk_loaded :: !order;
                 Ivdb_sched.Sched.yield ();
                 Ivdb_sched.Sched.yield ())));
      ignore
        (Ivdb_sched.Sched.spawn (fun () ->
             Ivdb_sched.Sched.yield ();
             Database.transact db (fun tx ->
                 ignore (Table.insert db tx t (row 100 2 1));
                 order := `Late_writer :: !order))));
  check
    Alcotest.(list string)
    "late writer blocked behind escalated X"
    [ "bulk"; "late" ]
    (List.rev_map (function `Bulk_loaded -> "bulk" | `Late_writer -> "late") !order)

let test_index_range_scan () =
  let db, t = make_db () in
  Database.create_index db t ~col:"qty" ~name:"ix_qty";
  Database.transact db (fun tx ->
      for i = 1 to 20 do
        ignore (Table.insert db tx t (row i (i mod 3) i))
      done);
  let range ~lo ~hi =
    Database.Internal.index_range_rids db None
      ~table:(Database.Internal.table_id t) ~col:2 ~lo ~hi
    |> Seq.map (fun (_, r) -> Value.to_int r.(2))
    |> List.of_seq |> List.sort compare
  in
  check Alcotest.(list int) "closed-open" [ 5; 6; 7 ]
    (range ~lo:(Some (Value.Int 5, true)) ~hi:(Some (Value.Int 8, false)));
  check Alcotest.(list int) "open-closed" [ 6; 7; 8 ]
    (range ~lo:(Some (Value.Int 5, false)) ~hi:(Some (Value.Int 8, true)));
  check Alcotest.(list int) "unbounded below" [ 1; 2 ]
    (range ~lo:None ~hi:(Some (Value.Int 2, true)));
  check Alcotest.int "unbounded above" 3
    (List.length (range ~lo:(Some (Value.Int 18, true)) ~hi:None));
  (* fallback without an index behaves identically *)
  let range_noix ~lo ~hi =
    Database.Internal.index_range_rids db None
      ~table:(Database.Internal.table_id t) ~col:0 ~lo ~hi
    |> Seq.map (fun (_, r) -> Value.to_int r.(0))
    |> List.of_seq |> List.sort compare
  in
  check Alcotest.(list int) "scan fallback" [ 3; 4 ]
    (range_noix ~lo:(Some (Value.Int 3, true)) ~hi:(Some (Value.Int 4, true)))

(* --- unique indexes ---------------------------------------------------------- *)

let test_unique_index_enforced () =
  let db, t = make_db () in
  Database.create_index db ~unique:true t ~col:"id" ~name:"pk_id";
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 1)));
  (* duplicate rejected, and the failed transaction leaves nothing behind *)
  (match
     Database.transact db (fun tx ->
         ignore (Table.insert db tx t (row 2 2 2));
         ignore (Table.insert db tx t (row 1 9 9)))
   with
  | exception Database.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate id accepted");
  check Alcotest.int "atomicity: partial txn rolled back" 1 (Table.row_count db t);
  (* delete + reinsert of the same value works (ghost revived with new rid) *)
  Database.transact db (fun tx ->
      match Table.find db (Some tx) t ~col:"id" (Value.Int 1) with
      | [ (rid, _) ] -> Table.delete db tx t rid
      | _ -> Alcotest.fail "row missing");
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 5 5)));
  (match Table.find db None t ~col:"id" (Value.Int 1) with
  | [ (_, r) ] -> check Alcotest.int "reinserted row" 5 (Value.to_int r.(1))
  | l -> Alcotest.failf "expected 1 row, got %d" (List.length l))

let test_unique_backfill_rejects_duplicates () =
  let db, t = make_db () in
  Database.transact db (fun tx ->
      ignore (Table.insert db tx t (row 1 1 1));
      ignore (Table.insert db tx t (row 1 2 2)));
  match Database.create_index db ~unique:true t ~col:"id" ~name:"pk" with
  | exception Database.Constraint_violation _ -> ()
  | () -> Alcotest.fail "backfill should reject duplicates"

let test_unique_insert_blocks_on_inflight_delete () =
  (* T1 deletes id=1 but has not committed; T2 inserts id=1: it must block
     on the key lock and succeed only because T1 commits. Then the reverse:
     if the deleter aborts, the blocked inserter gets the violation. *)
  let run ~deleter_commits =
    let db, t = make_db ~config:{ config with Database.txn_retries = 0 } () in
    Database.create_index db ~unique:true t ~col:"id" ~name:"pk";
    Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 1)));
    let outcome = ref `Pending in
    Ivdb_sched.Sched.run ~policy:Ivdb_sched.Sched.Fifo (fun () ->
        ignore
          (Ivdb_sched.Sched.spawn (fun () ->
               let mgr = Database.mgr db in
               let tx = Txn.begin_txn mgr in
               (match Table.find db (Some tx) t ~col:"id" (Value.Int 1) with
               | [ (rid, _) ] -> Table.delete db tx t rid
               | _ -> Alcotest.fail "row missing");
               Ivdb_sched.Sched.yield ();
               Ivdb_sched.Sched.yield ();
               if deleter_commits then Txn.commit mgr tx else Txn.abort mgr tx));
        ignore
          (Ivdb_sched.Sched.spawn (fun () ->
               Ivdb_sched.Sched.yield ();
               match
                 Database.transact db (fun tx ->
                     ignore (Table.insert db tx t (row 1 7 7)))
               with
               | () -> outcome := `Inserted
               | exception Database.Constraint_violation _ -> outcome := `Violation)));
    !outcome
  in
  Alcotest.(check bool) "deleter commits -> insert succeeds" true
    (run ~deleter_commits:true = `Inserted);
  Alcotest.(check bool) "deleter aborts -> violation" true
    (run ~deleter_commits:false = `Violation)

(* --- views: correctness ---------------------------------------------------- *)

let view_contents db v =
  List.of_seq (Query.view_scan db None v Query.Dirty)
  |> List.map (fun (g, r) -> (Value.to_int g.(0), Array.to_list r))

let test_view_initial_materialization () =
  let db, t = make_db () in
  Database.transact db (fun tx ->
      for i = 1 to 10 do
        ignore (Table.insert db tx t (row i (i mod 2) i))
      done);
  (* view created after the data exists *)
  let v = sum_qty db t ~strategy:Maintain.Exclusive () in
  (* group 0: ids 2,4,6,8,10 -> qty sum 30; group 1: 1,3,5,7,9 -> 25 *)
  check
    Alcotest.(list (pair int (list string)))
    "materialized"
    [
      (0, [ "5"; "30" ]);
      (1, [ "5"; "25" ]);
    ]
    (List.map (fun (g, r) -> (g, List.map Value.to_string r)) (view_contents db v))

let test_view_incremental_all_strategies () =
  List.iter
    (fun strategy ->
      let db, t = make_db () in
      let v = sum_qty db t ~strategy () in
      Database.transact db (fun tx ->
          for i = 1 to 12 do
            ignore (Table.insert db tx t (row i (i mod 3) 2))
          done);
      Database.transact db (fun tx ->
          ignore (Query.staleness db v);
          if Database.view_strategy db v = Maintain.Deferred then
            ignore (Query.refresh db tx v));
      Alcotest.(check bool)
        (Printf.sprintf "V1 holds under %s" (Maintain.strategy_to_string strategy))
        true
        (Workload.check_consistency db v))
    [ Maintain.Exclusive; Maintain.Escrow; Maintain.Deferred ]

let test_view_lookup_and_absent_groups () =
  let db, t = make_db () in
  let v = sum_qty db t ~strategy:Maintain.Escrow () in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 7 3)));
  (match Query.view_lookup db None v [| Value.Int 7 |] with
  | Some r -> check Alcotest.int "sum" 3 (Value.to_int r.(1))
  | None -> Alcotest.fail "group 7 missing");
  Alcotest.(check bool) "absent group" true
    (Query.view_lookup db None v [| Value.Int 99 |] = None)

let test_view_zero_count_invisible_then_gc () =
  let db, t = make_db () in
  let v = sum_qty db t ~strategy:Maintain.Escrow () in
  let rid = Database.transact db (fun tx -> Table.insert db tx t (row 1 5 2)) in
  Database.transact db (fun tx -> Table.delete db tx t rid);
  (* escrow leaves the zero-count row physically present but invisible *)
  Alcotest.(check bool) "invisible" true
    (Query.view_lookup db None v [| Value.Int 5 |] = None);
  check Alcotest.int "one ghost group" 1
    (Ivdb_core.Group_gc.zero_count_rows (Database.Internal.view_rt db (Database.Internal.view_id v)));
  let removed = Database.gc db in
  Alcotest.(check bool) "gc removed it" true (removed >= 1);
  check Alcotest.int "no ghost groups" 0
    (Ivdb_core.Group_gc.zero_count_rows (Database.Internal.view_rt db (Database.Internal.view_id v)));
  (* the group can be reborn *)
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 2 5 9)));
  match Query.view_lookup db None v [| Value.Int 5 |] with
  | Some r -> check Alcotest.int "reborn sum" 9 (Value.to_int r.(1))
  | None -> Alcotest.fail "group not reborn"

let test_view_minmax_recompute () =
  let db, t = make_db () in
  let schema = Database.schema db t in
  let v =
    Database.create_view db ~name:"minmax" ~group_by:[ "product" ]
      ~aggs:
        [ View_def.Min (Expr.col schema "qty"); View_def.Max (Expr.col schema "qty") ]
      ~source:(Database.From (t, None))
      ~strategy:Maintain.Exclusive ()
  in
  let rids =
    Database.transact db (fun tx ->
        List.map (fun q -> Table.insert db tx t (row q 1 q)) [ 5; 2; 9; 7 ])
  in
  let get () = Option.get (Query.view_lookup db None v [| Value.Int 1 |]) in
  check Alcotest.int "min" 2 (Value.to_int (get ()).(1));
  check Alcotest.int "max" 9 (Value.to_int (get ()).(2));
  (* deleting the max (qty 9, third rid) forces a group recompute *)
  Database.transact db (fun tx -> Table.delete db tx t (List.nth rids 2));
  check Alcotest.int "max recomputed" 7 (Value.to_int (get ()).(2));
  check Alcotest.int "min unchanged" 2 (Value.to_int (get ()).(1));
  Alcotest.(check bool) "recompute counted" true
    (Ivdb_util.Metrics.get (Database.metrics db) "view.recompute" >= 1)

let test_view_escrow_rejects_minmax () =
  let db, t = make_db () in
  let schema = Database.schema db t in
  Alcotest.check_raises "escrow minmax"
    (Invalid_argument
       "Database.create_view: escrow/deferred strategies require COUNT/SUM-only \
        views (MIN/MAX needs exclusive maintenance)") (fun () ->
      ignore
        (Database.create_view db ~name:"bad" ~group_by:[ "product" ]
           ~aggs:[ View_def.Min (Expr.col schema "qty") ]
           ~source:(Database.From (t, None))
           ~strategy:Maintain.Escrow ()))

let test_view_where_filter () =
  let db, t = make_db () in
  let schema = Database.schema db t in
  let big = Expr.Cmp (Expr.Gt, Expr.col schema "qty", Expr.int 5) in
  let v =
    Database.create_view db ~name:"big_sales" ~group_by:[ "product" ]
      ~aggs:[]
      ~source:(Database.From (t, Some big))
      ~strategy:Maintain.Escrow ()
  in
  Database.transact db (fun tx ->
      ignore (Table.insert db tx t (row 1 1 3));
      ignore (Table.insert db tx t (row 2 1 7));
      ignore (Table.insert db tx t (row 3 1 9)));
  match Query.view_lookup db None v [| Value.Int 1 |] with
  | Some r -> check Alcotest.int "only qualifying rows" 2 (Value.to_int r.(0))
  | None -> Alcotest.fail "group missing"

let test_multi_column_string_groups () =
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"orders"
      ~cols:
        [
          { Schema.name = "region"; ty = Value.TStr; nullable = false };
          { Schema.name = "product"; ty = Value.TStr; nullable = true };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  let schema = Database.schema db t in
  let v =
    Database.create_view db ~name:"by_region_product"
      ~group_by:[ "region"; "product" ]
      ~aggs:[ View_def.Sum (Expr.col schema "qty") ]
      ~source:(Database.From (t, None))
      ~strategy:Maintain.Escrow ()
  in
  Database.transact db (fun tx ->
      List.iter
        (fun (r, p, q) ->
          ignore (Table.insert db tx t [| Value.Str r; p; Value.Int q |]))
        [
          ("eu", Value.Str "ore", 5);
          ("eu", Value.Str "ore", 7);
          ("eu", Value.Str "wood", 1);
          ("us", Value.Str "ore", 2);
          ("us", Value.Null, 9);
          (* NULL groups with NULL *)
          ("us", Value.Null, 1);
        ]);
  (match Query.view_lookup db None v [| Value.Str "eu"; Value.Str "ore" |] with
  | Some r ->
      check Alcotest.int "count" 2 (Value.to_int r.(0));
      check Alcotest.int "sum" 12 (Value.to_int r.(1))
  | None -> Alcotest.fail "group (eu, ore) missing");
  (match Query.view_lookup db None v [| Value.Str "us"; Value.Null |] with
  | Some r -> check Alcotest.int "null group sum" 10 (Value.to_int r.(1))
  | None -> Alcotest.fail "NULL group missing");
  check Alcotest.int "distinct groups" 4 (Query.view_count db v);
  Alcotest.(check bool) "V1" true (Workload.check_consistency db v);
  (* groups scan in lexicographic (region, product) order; NULL first *)
  let keys =
    List.of_seq (Query.view_scan db None v Query.Dirty)
    |> List.map (fun (g, _) -> Array.to_list (Array.map Value.to_string g))
  in
  check
    Alcotest.(list (list string))
    "ordered groups"
    [
      [ "\"eu\""; "\"ore\"" ];
      [ "\"eu\""; "\"wood\"" ];
      [ "\"us\""; "NULL" ];
      [ "\"us\""; "\"ore\"" ];
    ]
    keys

let test_null_aggregation_semantics () =
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"t"
      ~cols:
        [
          { Schema.name = "g"; ty = Value.TInt; nullable = false };
          { Schema.name = "x"; ty = Value.TInt; nullable = true };
        ]
  in
  let schema = Database.schema db t in
  let v =
    Database.create_view db ~name:"v" ~group_by:[ "g" ]
      ~aggs:
        [ View_def.Count (Expr.col schema "x"); View_def.Sum (Expr.col schema "x") ]
      ~source:(Database.From (t, None))
      ~strategy:Maintain.Escrow ()
  in
  Database.transact db (fun tx ->
      ignore (Table.insert db tx t [| Value.Int 1; Value.Int 5 |]);
      ignore (Table.insert db tx t [| Value.Int 1; Value.Null |]);
      ignore (Table.insert db tx t [| Value.Int 1; Value.Int 3 |]));
  match Query.view_lookup db None v [| Value.Int 1 |] with
  | Some r ->
      check Alcotest.int "count(*) counts NULL rows" 3 (Value.to_int r.(0));
      check Alcotest.int "count(x) skips NULLs" 2 (Value.to_int r.(1));
      check Alcotest.int "sum skips NULLs" 8 (Value.to_int r.(2))
  | None -> Alcotest.fail "group missing"

(* --- join views --------------------------------------------------------------- *)

let make_join_db () =
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
  Database.create_index db orders ~col:"oid" ~name:"ix_orders_oid";
  Database.create_index db items ~col:"order_id" ~name:"ix_items_order";
  (db, orders, items)

let join_view db orders items strategy =
  let js = Database.join_schema db orders items in
  Database.create_view db ~name:"cust_totals" ~group_by:[ "customer" ]
    ~aggs:[ View_def.Sum (Expr.col js "amount") ]
    ~source:
      (Database.From_join
         { left = orders; right = items; left_col = "oid"; right_col = "order_id"; where = None })
    ~strategy ()

let test_join_view_maintenance () =
  let db, orders, items = make_join_db () in
  let v = join_view db orders items Maintain.Escrow in
  Database.transact db (fun tx ->
      ignore (Table.insert db tx orders [| Value.Int 1; Value.Int 100 |]);
      ignore (Table.insert db tx orders [| Value.Int 2; Value.Int 100 |]);
      ignore (Table.insert db tx orders [| Value.Int 3; Value.Int 200 |]));
  Database.transact db (fun tx ->
      ignore (Table.insert db tx items [| Value.Int 1; Value.Int 10 |]);
      ignore (Table.insert db tx items [| Value.Int 1; Value.Int 20 |]);
      ignore (Table.insert db tx items [| Value.Int 2; Value.Int 5 |]);
      ignore (Table.insert db tx items [| Value.Int 3; Value.Int 7 |]));
  (match Query.view_lookup db None v [| Value.Int 100 |] with
  | Some r ->
      check Alcotest.int "join rows" 3 (Value.to_int r.(0));
      check Alcotest.int "sum" 35 (Value.to_int r.(1))
  | None -> Alcotest.fail "customer 100 missing");
  Alcotest.(check bool) "V1 join" true (Workload.check_consistency db v);
  (* deleting an order retracts its joined items *)
  let schema = Database.schema db orders in
  Database.transact db (fun tx ->
      ignore
        (Table.delete_where db tx orders
           (Expr.Cmp (Expr.Eq, Expr.col schema "oid", Expr.int 1))));
  (match Query.view_lookup db None v [| Value.Int 100 |] with
  | Some r -> check Alcotest.int "sum after retract" 5 (Value.to_int r.(1))
  | None -> Alcotest.fail "customer 100 missing after delete");
  Alcotest.(check bool) "V1 join after delete" true (Workload.check_consistency db v)

(* The reference test for the hash join that recomputes join views (V1's
   oracle): [source_rows] reads a join view's rows by hash join with no
   transaction and under a snapshot transaction. After random inserts and
   deletes, each read must equal, as a multiset, a nested-loop join of the
   base rows on [Value.equal]. Both sides repeat join keys, and some join
   values are NULL (which the engine joins to NULL). *)
let prop_join_source_rows =
  QCheck.Test.make ~name:"join source rows = nested-loop join" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let db = Database.create ~config () in
      let col name = { Schema.name; ty = Value.TInt; nullable = true } in
      let l = Database.create_table db ~name:"l" ~cols:[ col "lk"; col "a" ] in
      let r = Database.create_table db ~name:"r" ~cols:[ col "rk"; col "b" ] in
      Database.create_index db l ~col:"lk" ~name:"ix_l";
      Database.create_index db r ~col:"rk" ~name:"ix_r";
      let v =
        Database.create_view db ~name:"jv" ~group_by:[ "a" ]
          ~aggs:[ View_def.Sum (Expr.col (Database.join_schema db l r) "b") ]
          ~source:
            (Database.From_join
               { left = l; right = r; left_col = "lk"; right_col = "rk"; where = None })
          ~strategy:Maintain.Escrow ()
      in
      (* the base rows as the test wrote them: (table, rid, row) *)
      let live = ref [] in
      let key () = if Rng.int rng 4 = 0 then Value.Null else Value.Int (Rng.int rng 4) in
      for _ = 1 to 30 do
        Database.transact db (fun tx ->
            if !live <> [] && Rng.int rng 3 = 0 then begin
              let ((tbl, rid, _) as gone) = List.nth !live (Rng.int rng (List.length !live)) in
              Table.delete db tx tbl rid;
              live := List.filter (fun e -> e != gone) !live
            end
            else
              let tbl = if Rng.int rng 2 = 0 then l else r in
              let row = [| key (); Value.Int (Rng.int rng 3) |] in
              live := (tbl, Table.insert db tx tbl row, row) :: !live)
      done;
      let side tbl = List.filter_map (fun (t, _, row) -> if t == tbl then Some row else None) !live in
      let expect =
        List.concat_map
          (fun lr ->
            List.filter_map
              (fun rr -> if Value.equal lr.(0) rr.(0) then Some (Array.append lr rr) else None)
              (side r))
          (side l)
      in
      let multiset rows = List.sort compare rows in
      let same rows = List.equal Row.equal (multiset rows) (multiset expect) in
      let def = Database.view_def db v in
      let unlocked = List.of_seq (Database.Internal.source_rows db None def) in
      let snapshot =
        Database.transact db ~read_only:true (fun tx ->
            if Txn.snapshot_of tx = None then Alcotest.fail "not a snapshot transaction";
            List.of_seq (Database.Internal.source_rows db (Some tx) def))
      in
      same unlocked && same snapshot && Workload.check_consistency db v)

(* --- baseline ------------------------------------------------------------------ *)

let test_on_demand_matches_view () =
  let db, t = make_db () in
  let v = sum_qty db t ~strategy:Maintain.Exclusive () in
  Database.transact db (fun tx ->
      for i = 1 to 50 do
        ignore (Table.insert db tx t (row i (i mod 7) (i * 2)))
      done);
  let baseline = Query.on_demand_aggregate db None (Database.view_def db v) in
  let actual = List.of_seq (Query.view_scan db None v Query.Dirty) in
  check Alcotest.int "same group count" (List.length baseline) (List.length actual);
  List.iter2
    (fun (g1, r1) (g2, r2) ->
      Alcotest.(check bool) "group" true (Row.equal g1 g2);
      Alcotest.(check bool) "aggs" true (Row.equal r1 r2))
    baseline actual

(* --- crash / recovery across the full engine ------------------------------------- *)

let test_crash_preserves_catalog_and_views () =
  let db, t = make_db () in
  let _v = sum_qty db t ~strategy:Maintain.Escrow () in
  Database.transact db (fun tx ->
      for i = 1 to 10 do
        ignore (Table.insert db tx t (row i (i mod 2) 1))
      done);
  let db' = Database.crash db in
  let t' = Database.table db' "sales" in
  let v' = Database.view db' "by_product" in
  check Alcotest.int "rows recovered" 10 (Table.row_count db' t');
  Alcotest.(check bool) "view consistent" true (Workload.check_consistency db' v');
  (* maintenance still works after recovery *)
  Database.transact db' (fun tx -> ignore (Table.insert db' tx t' (row 11 0 5)));
  match Query.view_lookup db' None v' [| Value.Int 0 |] with
  | Some r -> check Alcotest.int "post-recovery sum" 10 (Value.to_int r.(1))
  | None -> Alcotest.fail "group missing after recovery"

let test_crash_rolls_back_inflight_escrow () =
  let db, t = make_db () in
  let v = sum_qty db t ~strategy:Maintain.Escrow () in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 3 10)));
  (* an in-flight transaction increments the same group, then the log is
     forced (as a page flush would) and the system crashes *)
  let mgr = Database.mgr db in
  let tx = Txn.begin_txn mgr in
  ignore (Table.insert db tx t (row 2 3 100));
  Ivdb_wal.Wal.force (Database.wal db) (Ivdb_wal.Wal.last_lsn (Database.wal db));
  let db' = Database.crash db in
  let v' = Database.view db' "by_product" in
  (match Query.view_lookup db' None v' [| Value.Int 3 |] with
  | Some r ->
      check Alcotest.int "count excludes loser" 1 (Value.to_int r.(0));
      check Alcotest.int "sum excludes loser" 10 (Value.to_int r.(1))
  | None -> Alcotest.fail "group missing");
  ignore v;
  Alcotest.(check bool) "V1 after recovery" true (Workload.check_consistency db' v')

let test_crash_deferred_queue_recovered () =
  let db, t = make_db () in
  let v = sum_qty db t ~strategy:Maintain.Deferred () in
  Database.transact db (fun tx ->
      for i = 1 to 5 do
        ignore (Table.insert db tx t (row i 1 2))
      done);
  check Alcotest.int "pending before crash" 5 (Query.staleness db v);
  let db' = Database.crash db in
  let v' = Database.view db' "by_product" in
  check Alcotest.int "pending after crash" 5 (Query.staleness db' v');
  Database.transact db' (fun tx -> ignore (Query.refresh db' tx v'));
  Alcotest.(check bool) "V1 after refresh" true (Workload.check_consistency db' v')

let test_checkpoint_truncates_log () =
  let db, t = make_db () in
  let _v = sum_qty db t ~strategy:Maintain.Escrow () in
  Database.transact db (fun tx ->
      for i = 1 to 50 do
        ignore (Table.insert db tx t (row i (i mod 3) 1))
      done);
  let before = Ivdb_wal.Wal.record_count (Database.wal db) in
  Database.checkpoint db;
  let after = Ivdb_wal.Wal.record_count (Database.wal db) in
  Alcotest.(check bool) "log shrank" true (after < before / 2);
  Alcotest.(check bool) "first lsn advanced" true
    (Ivdb_wal.Wal.first_lsn (Database.wal db) > 1);
  (* the truncated log still recovers the full state *)
  let db' = Database.crash db in
  check Alcotest.int "rows survive" 50 (Table.row_count db' (Database.table db' "sales"));
  Alcotest.(check bool) "view consistent" true
    (Workload.check_consistency db' (Database.view db' "by_product"))

let test_checkpoint_respects_active_txn () =
  let db, t = make_db () in
  let mgr = Database.mgr db in
  let tx = Txn.begin_txn mgr in
  ignore (Table.insert db tx t (row 1 1 1));
  (* the only active transaction's first LSN *)
  let first = List.fold_left min max_int (Txn.active_first_lsns mgr) in
  (* lots of committed work after the long-running transaction began *)
  Database.transact db (fun tx2 ->
      for i = 2 to 40 do
        ignore (Table.insert db tx2 t (row i 2 1))
      done);
  Database.checkpoint db;
  Alcotest.(check bool) "truncation held back by active txn" true
    (Ivdb_wal.Wal.first_lsn (Database.wal db) <= first);
  (* the long transaction can still abort: its undo chain is intact *)
  Txn.abort mgr tx;
  check Alcotest.int "rolled back" 39 (Table.row_count db t)

(* A transaction's ghost bookkeeping ends with it, whatever ends it:
   explicit COMMIT and ROLLBACK, a 2PC decision either way, a deadlock
   victim's abort, and transact's commit and abort. *)
let test_ghost_entries_end_with_txn () =
  let db = Database.create ~config:{ config with Database.txn_retries = 0 } () in
  let s = Sql.session db in
  let sql q = ignore (Sql.exec s q) in
  sql "CREATE TABLE t (k INT NOT NULL, x INT NOT NULL)";
  sql "CREATE UNIQUE INDEX t_k ON t (k)";
  for k = 1 to 20 do
    sql (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k)
  done;
  let t = Database.table db "t" in
  let rid k =
    Database.Internal.heap_scan_rows db None t
    |> Seq.find (fun (_, r) -> r.(0) = Value.Int k)
    |> Option.get |> fst
  in
  let entries what n = check Alcotest.int what n (Database.Internal.ghost_entries db) in
  let explicit k last =
    sql "BEGIN";
    sql (Printf.sprintf "DELETE FROM t WHERE k = %d" k);
    entries "open transaction" 1;
    last ()
  in
  explicit 1 (fun () -> sql "COMMIT");
  entries "after COMMIT" 0;
  explicit 2 (fun () -> sql "ROLLBACK");
  entries "after ROLLBACK" 0;
  let decide k committed =
    let gtxn = Printf.sprintf "g:%d" k in
    explicit k (fun () -> ignore (Sql.prepare_2pc s ~gtxn));
    ignore (Database.decide_2pc db ~gtxn ~committed)
  in
  decide 3 true;
  entries "after a 2PC commit" 0;
  decide 4 false;
  entries "after a 2PC abort" 0;
  let delete tx k =
    Table.delete db tx t (rid k);
    entries "inside transact" 1
  in
  Database.transact db (fun tx -> delete tx 5);
  entries "after transact's commit" 0;
  (match Database.transact_result db (fun tx -> delete tx 6; raise Exit) with
  | Error (Database.User_abort Exit) -> ()
  | _ -> Alcotest.fail "the body's exception aborts");
  entries "after transact's abort" 0;
  (* each deletes one row, then the other's: one is the deadlock victim *)
  let victims = ref 0 in
  let r10 = rid 10 and r15 = rid 15 in
  Ivdb_sched.Sched.run ~policy:Ivdb_sched.Sched.Fifo (fun () ->
      List.iter
        (fun (a, b) ->
          ignore
            (Ivdb_sched.Sched.spawn (fun () ->
                 match
                   Database.transact_result db (fun tx ->
                       Table.delete db tx t a;
                       Ivdb_sched.Sched.yield ();
                       Table.delete db tx t b)
                 with
                 | Error Database.Deadlock_victim -> incr victims
                 | Ok () | Error _ -> ())))
        [ (r10, r15); (r15, r10) ]);
  check Alcotest.int "one deadlock victim" 1 !victims;
  entries "after a deadlock victim's abort" 0

(* A prepared transaction survives a restart in doubt, holding its locks;
   its before-images survive too, so an autocommit SELECT (a snapshot) on
   the restarted shard reads past its writes exactly as before the crash.
   The decision then settles what the snapshot sees: the new rows after a
   commit, still the old ones after an abort. *)
let test_indoubt_snapshot_after_restart () =
  let rows db =
    match Sql.exec (Sql.session db) "SELECT * FROM t" with
    | Sql.Rows { rows; _ } ->
        List.sort compare
          (List.map
             (function
               | [| Value.Int k; Value.Int x |] -> (k, x)
               | _ -> Alcotest.fail "a (k, x) row")
             rows)
    | _ -> Alcotest.fail "expected rows"
  in
  List.iter
    (fun committed ->
      let db = Database.create ~config () in
      let s = Sql.session db in
      List.iter
        (fun q -> ignore (Sql.exec s q))
        [
          "CREATE TABLE t (k INT NOT NULL, x INT NOT NULL)";
          "INSERT INTO t VALUES (1, 10)";
          "BEGIN";
          "INSERT INTO t VALUES (2, 20)";
          "UPDATE t SET x = 99 WHERE k = 1";
        ];
      ignore (Sql.prepare_2pc s ~gtxn:"g:1");
      let old = [ (1, 10) ] in
      check Alcotest.(list (pair int int)) "before the crash" old (rows db);
      let db = Database.crash db in
      check Alcotest.int "in doubt after the restart" 1 (Database.indoubt_count db);
      check Alcotest.(list (pair int int)) "after the restart" old (rows db);
      ignore (Database.decide_2pc db ~gtxn:"g:1" ~committed);
      check Alcotest.(list (pair int int))
        (if committed then "after a commit decision" else "after an abort decision")
        (if committed then [ (1, 99); (2, 20) ] else old)
        (rows db))
    [ true; false ]

(* Page density: the shape of perfbench's view-read table, 20,000 rows
   of (id, product, qty, amount) with a unique index on id, loaded in
   ascending id order, must fit in at most 1.1 times the pages it took
   when B-tree leaves first filled on ascending inserts, integer cells
   first took only the bytes they need and unique-index entries first
   carried six-byte rids: 110 pages, against 223 before. A format change
   that bloats pages fails here, not only as a slower benchmark. *)
let density_pages = 110

let test_view_read_shape_density () =
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"sales"
      ~cols:(cols @ [ { Schema.name = "amount"; ty = Value.TFloat; nullable = false } ])
  in
  Database.create_index db ~unique:true t ~col:"id" ~name:"sales_id";
  let rng = Rng.create 1 in
  for b = 0 to 199 do
    Database.transact db (fun tx ->
        for id = (b * 100) + 1 to (b + 1) * 100 do
          ignore
            (Table.insert db tx t
               [|
                 Value.Int id;
                 Value.Int (Rng.int rng 20);
                 Value.Int (1 + Rng.int rng 10);
                 Value.Float (100. *. Rng.float rng);
               |])
        done)
  done;
  Database.checkpoint db;
  let pages = Ivdb_storage.Disk.max_page_id (Ivdb_storage.Bufpool.disk (Database.pool db)) in
  let bound = density_pages * 11 / 10 in
  Alcotest.(check bool)
    (Printf.sprintf "%d pages within %d" pages bound)
    true (pages <= bound)

let test_double_crash () =
  let db, t = make_db () in
  let _ = sum_qty db t ~strategy:Maintain.Escrow () in
  Database.transact db (fun tx -> ignore (Table.insert db tx t (row 1 1 1)));
  let db' = Database.crash db in
  let db'' = Database.crash db' in
  check Alcotest.int "rows stable" 1 (Table.row_count db'' (Database.table db'' "sales"))

let () =
  Alcotest.run "db"
    [
      ( "table",
        [
          Alcotest.test_case "crud" `Quick test_table_crud;
          Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "scan where" `Quick test_table_scan_where;
          Alcotest.test_case "update moves row" `Quick test_update_moves_row;
          Alcotest.test_case "secondary index" `Quick test_secondary_index_probe;
          Alcotest.test_case "locked scan fixes pages, not rows" `Quick
            test_locked_scan_fixes_pages;
          Alcotest.test_case "lock escalation" `Quick test_lock_escalation;
          Alcotest.test_case "escalated lock blocks writers" `Quick
            test_escalated_table_blocks_writers;
        ] );
      ( "index-ranges",
        [ Alcotest.test_case "range scans" `Quick test_index_range_scan ] );
      ( "unique-indexes",
        [
          Alcotest.test_case "enforced + ghost revive" `Quick test_unique_index_enforced;
          Alcotest.test_case "backfill rejects duplicates" `Quick
            test_unique_backfill_rejects_duplicates;
          Alcotest.test_case "blocks on in-flight delete" `Quick
            test_unique_insert_blocks_on_inflight_delete;
          Alcotest.test_case "view-read shape fits its pages" `Quick
            test_view_read_shape_density;
        ] );
      ( "views",
        [
          Alcotest.test_case "initial materialization" `Quick
            test_view_initial_materialization;
          Alcotest.test_case "incremental, all strategies" `Quick
            test_view_incremental_all_strategies;
          Alcotest.test_case "lookup and absent groups" `Quick
            test_view_lookup_and_absent_groups;
          Alcotest.test_case "zero-count lifecycle + gc" `Quick
            test_view_zero_count_invisible_then_gc;
          Alcotest.test_case "min/max recompute" `Quick test_view_minmax_recompute;
          Alcotest.test_case "escrow rejects minmax" `Quick
            test_view_escrow_rejects_minmax;
          Alcotest.test_case "where filter" `Quick test_view_where_filter;
          Alcotest.test_case "multi-column / string / NULL groups" `Quick
            test_multi_column_string_groups;
          Alcotest.test_case "NULL aggregation semantics" `Quick
            test_null_aggregation_semantics;
        ] );
      ( "join-views",
        [
          Alcotest.test_case "maintenance" `Quick test_join_view_maintenance;
          QCheck_alcotest.to_alcotest prop_join_source_rows;
        ] );
      ("baseline", [ Alcotest.test_case "on-demand matches view" `Quick test_on_demand_matches_view ]);
      ( "crash",
        [
          Alcotest.test_case "catalog and views survive" `Quick
            test_crash_preserves_catalog_and_views;
          Alcotest.test_case "in-flight escrow rolled back" `Quick
            test_crash_rolls_back_inflight_escrow;
          Alcotest.test_case "deferred queue recovered" `Quick
            test_crash_deferred_queue_recovered;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "in-doubt writes hidden from snapshots after restart"
            `Quick test_indoubt_snapshot_after_restart;
          Alcotest.test_case "ghost entries end with their transaction" `Quick
            test_ghost_entries_end_with_txn;
          Alcotest.test_case "checkpoint truncates log" `Quick
            test_checkpoint_truncates_log;
          Alcotest.test_case "truncation respects active txn" `Quick
            test_checkpoint_respects_active_txn;
        ] );
    ]
