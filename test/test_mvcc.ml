(* MVCC snapshot reads (D14).

   Property: a snapshot reader interleaved with committing and aborting
   escrow writers always sees a commit-consistent picture — the view rows
   it reads equal an aggregation over the base rows it reads (V1 at its
   begin stamp), and re-reading after yields returns the same answer —
   across seeds and commit modes. Plus: snapshot readers never touch the
   lock manager (metric-verified), and version chains drain once the last
   snapshot is released. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Sched = Ivdb_sched.Sched
module Txn = Ivdb_txn.Txn
module Mvcc = Ivdb_txn.Mvcc
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng

exception Planned_abort

let make_db ?(commit_mode = Txn.Sync) () =
  let config =
    {
      Database.default_config with
      read_cost = 0;
      write_cost = 0;
      commit_mode;
    }
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
  let v =
    Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
      ~aggs:[ View_def.Sum (Expr.col schema "qty") ]
      ~source:(Database.From (sales, None))
      ~strategy:Maintain.Escrow ()
  in
  (db, sales, v)

(* V1 at the snapshot: the view rows read under [tx] must equal a fresh
   aggregation over the base rows read under the same [tx]. *)
let snapshot_consistent db sales v tx =
  let expect = Hashtbl.create 16 in
  Seq.iter
    (fun row ->
      let p = Value.to_int row.(1) and q = Value.to_int row.(2) in
      let c, s =
        Option.value ~default:(0, 0) (Hashtbl.find_opt expect p)
      in
      Hashtbl.replace expect p (c + 1, s + q))
    (Query.table_scan db (Some tx) sales Query.Serializable);
  let actual = List.of_seq (Query.view_scan db (Some tx) v Query.Serializable) in
  List.length actual = Hashtbl.length expect
  && List.for_all
       (fun ((g : Ivdb_relation.Row.t), (stored : Ivdb_relation.Row.t)) ->
         match Hashtbl.find_opt expect (Value.to_int g.(0)) with
         | Some (c, s) ->
             Value.to_int stored.(0) = c && Value.to_int stored.(1) = s
         | None -> false)
       actual

let view_rows db v tx =
  List.of_seq (Query.view_scan db (Some tx) v Query.Serializable)

let run_mix ~seed ~commit_mode =
  let db, sales, v = make_db ~commit_mode () in
  (* preload so snapshots have history to defend *)
  Database.transact db (fun tx ->
      for i = 1 to 30 do
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 5); Value.Int (1 + (i mod 7)) |])
      done);
  let failures = ref [] in
  let fail_with msg = failures := msg :: !failures in
  let next_id = ref 1000 in
  Sched.run ~seed (fun () ->
      (* escrow writers: inserts and deletes, ~30% planned aborts *)
      for w = 1 to 4 do
        ignore
          (Sched.spawn (fun () ->
               let rng = Rng.create ((seed * 733) + w) in
               let my_rows = ref [] in
               for _ = 1 to 15 do
                 (try
                    Database.transact db (fun tx ->
                        for _ = 1 to 3 do
                          (if Rng.float rng < 0.25 && !my_rows <> [] then (
                             match !my_rows with
                             | rid :: rest ->
                                 my_rows := rest;
                                 (try Table.delete db tx sales rid
                                  with Not_found -> ())
                             | [] -> ())
                           else begin
                             incr next_id;
                             let rid =
                               Table.insert db tx sales
                                 [|
                                   Value.Int !next_id;
                                   Value.Int (Rng.int rng 5);
                                   Value.Int (1 + Rng.int rng 7);
                                 |]
                             in
                             my_rows := rid :: !my_rows
                           end);
                          Sched.yield ()
                        done;
                        if Rng.float rng < 0.3 then raise Planned_abort)
                  with
                 | Planned_abort -> ()
                 | Txn.Conflict _ -> ());
                 Sched.yield ()
               done))
      done;
      (* snapshot readers: consistency at begin, stability across yields *)
      for r = 1 to 3 do
        ignore
          (Sched.spawn (fun () ->
               for round = 1 to 8 do
                 Database.transact db ~read_only:true (fun tx ->
                     if not (snapshot_consistent db sales v tx) then
                       fail_with
                         (Printf.sprintf
                            "reader %d round %d: view != base at snapshot" r
                            round);
                     let first = view_rows db v tx in
                     Sched.yield ();
                     Sched.yield ();
                     if view_rows db v tx <> first then
                       fail_with
                         (Printf.sprintf
                            "reader %d round %d: snapshot read unstable" r
                            round);
                     Sched.yield ();
                     if not (snapshot_consistent db sales v tx) then
                       fail_with
                         (Printf.sprintf
                            "reader %d round %d: view != base after yields" r
                            round));
                 Sched.yield ()
               done))
      done);
  (db, v, List.rev !failures)

let test_snapshot_vs_escrow_writers () =
  let total_pruned = ref 0 in
  List.iter
    (fun (commit_mode, mode_name) ->
      for seed = 1 to 4 do
        let db, v, failures = run_mix ~seed ~commit_mode in
        total_pruned :=
          !total_pruned
          + Metrics.get (Database.metrics db) "mvcc.versions_pruned";
        Alcotest.(check (list string))
          (Printf.sprintf "commit-consistent snapshots (%s, seed %d)"
             mode_name seed)
          [] failures;
        (* engine-level invariant V1 still holds after the storm *)
        Alcotest.(check bool)
          (Printf.sprintf "V1 (%s, seed %d)" mode_name seed)
          true
          (Ivdb.Workload.check_consistency db v);
        (* every snapshot released: chains must be empty *)
        Alcotest.(check int)
          (Printf.sprintf "no live versions after run (%s, seed %d)"
             mode_name seed)
          0
          (Metrics.get (Database.metrics db) "mvcc.versions_live")
      done)
    [
      (Txn.Sync, "sync");
      (Txn.Group { max_batch = 4; max_wait_ticks = 50 }, "group");
      (Txn.Async, "async");
    ];
  (* the storm must actually have exercised version chains: writers
     committed under live snapshots, so versions were installed and later
     pruned — a zero here would mean the property test went vacuous *)
  Alcotest.(check bool) "version chains were exercised" true (!total_pruned > 0)

(* Read-only transactions never touch the lock manager or the WAL. *)
let test_snapshot_takes_no_locks () =
  let db, sales, v = make_db () in
  Database.transact db (fun tx ->
      for i = 1 to 10 do
        ignore
          (Table.insert db tx sales [| Value.Int i; Value.Int (i mod 3); Value.Int i |])
      done);
  let m = Database.metrics db in
  let locks_before = Metrics.get m "lock.acquire" in
  let wal_before = Metrics.get m "log.append" in
  Database.transact db ~read_only:true (fun tx ->
      ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]);
      Seq.iter
        (fun _ -> ())
        (Query.table_scan db (Some tx) sales Query.Serializable);
      Seq.iter (fun _ -> ()) (Query.view_scan db (Some tx) v Query.Serializable));
  Alcotest.(check int) "zero lock acquisitions" 0
    (Metrics.get m "lock.acquire" - locks_before);
  Alcotest.(check int) "zero WAL appends" 0
    (Metrics.get m "log.append" - wal_before);
  Alcotest.(check int) "snapshot counted" 1 (Metrics.get m "txn.snapshot_begin")

(* Writes are rejected loudly inside a read-only transaction. *)
let test_snapshot_rejects_writes () =
  let db, sales, _v = make_db () in
  let raised =
    try
      Database.transact db ~read_only:true (fun tx ->
          ignore
            (Table.insert db tx sales
               [| Value.Int 1; Value.Int 1; Value.Int 1 |]);
          false)
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "insert raises Invalid_argument" true raised

(* Versions are only retained while a snapshot can still read them, and the
   chains drain as soon as the last snapshot is released. *)
let test_version_gc () =
  let db, sales, _v = make_db () in
  let m = Database.metrics db in
  Database.transact db (fun tx ->
      for i = 1 to 5 do
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 2); Value.Int i |])
      done);
  (* no snapshot live: committed writes install nothing *)
  Alcotest.(check int) "no versions without readers" 0 (Metrics.get m "mvcc.versions_live");
  let snap = Txn.begin_snapshot (Database.mgr db) in
  Database.transact db (fun tx ->
      for i = 10 to 14 do
        ignore
          (Table.insert db tx sales
             [| Value.Int i; Value.Int (i mod 2); Value.Int i |])
      done);
  let live_during = Metrics.get m "mvcc.versions_live" in
  Alcotest.(check bool) "versions retained for the open snapshot" true
    (live_during > 0);
  (* the snapshot still sees the pre-commit state *)
  let n = ref 0 in
  Seq.iter
    (fun _ -> incr n)
    (Query.table_scan db (Some snap) sales Query.Serializable);
  Alcotest.(check int) "snapshot sees 5 rows" 5 !n;
  Txn.commit (Database.mgr db) snap;
  Alcotest.(check int) "chains drained after release" 0
    (Metrics.get m "mvcc.versions_live");
  Alcotest.(check bool) "prunes counted" true
    (Metrics.get m "mvcc.versions_pruned" >= live_during)

(* Regression for the install-time race documented at [Mvcc.install]: on
   a mixed escrow-then-exclusive key, commit delivers TWO entries at the
   same stamp — the escrow maintenance path pushes the pre-commit value
   ([push_committed]) and the transaction's recorded before-image is
   promoted by [commit_txn] — and either can arrive first. The first
   writer must win and the second must be dropped: exactly one entry
   joins the chain per key, and a snapshot reader resolves to the
   first-installed value in both arrival orders. Before the dedup, the
   chain head was duplicated and the reader's answer depended on which
   path ran last. *)
let test_mixed_install_race () =
  let metrics = Metrics.create () in
  let mvcc = Mvcc.create metrics in
  let live () = Metrics.get metrics "mvcc.versions_live" in
  let snap = Mvcc.begin_snapshot mvcc in
  let committed = function
    | Mvcc.Committed v -> v
    | Mvcc.Pending _ -> Alcotest.fail "resolved to Pending"
    | Mvcc.Current -> Alcotest.fail "resolved to Current"
  in
  (* key "a": the escrow push lands first, the promoted before-image
     second (same stamp) *)
  Mvcc.record_write mvcc ~txn:7 ~obj:1 ~key:"a" ~before:(Some "before-a");
  (* no commit since [snap], the last-issued stamp: the next one follows it *)
  let stamp_a = snap + 1 in
  Mvcc.push_committed mvcc ~obj:1 ~key:"a" ~stamp:stamp_a (Some "escrow-a");
  Alcotest.(check int) "one entry after the escrow push" 1
    (live ());
  let s = Mvcc.commit_txn mvcc ~txn:7 in
  Alcotest.(check int) "commit stamps the racing pair equally" stamp_a s;
  Alcotest.(check int) "the promoted before-image was dropped" 1
    (live ());
  Alcotest.(check (option string)) "reader sees the first-installed value"
    (Some "escrow-a")
    (committed (Mvcc.resolve mvcc ~obj:1 ~key:"a" ~snap));
  (* key "b": reverse order — the before-image promotion lands first,
     the escrow push second *)
  Mvcc.record_write mvcc ~txn:8 ~obj:1 ~key:"b" ~before:(Some "before-b");
  let stamp_b = Mvcc.commit_txn mvcc ~txn:8 in
  Alcotest.(check int) "one entry after the promotion" 2
    (live ());
  Mvcc.push_committed mvcc ~obj:1 ~key:"b" ~stamp:stamp_b (Some "escrow-b");
  Alcotest.(check int) "the late escrow push was dropped" 2
    (live ());
  Alcotest.(check (option string)) "reader sees the first-installed value"
    (Some "before-b")
    (committed (Mvcc.resolve mvcc ~obj:1 ~key:"b" ~snap));
  (* distinct stamps never dedup: a later commit chains normally *)
  Mvcc.record_write mvcc ~txn:9 ~obj:1 ~key:"a" ~before:(Some "second-a");
  ignore (Mvcc.commit_txn mvcc ~txn:9);
  Alcotest.(check int) "a distinct stamp chains a new entry" 3
    (live ());
  Alcotest.(check (option string)) "the old snapshot still reads the oldest"
    (Some "escrow-a")
    (committed (Mvcc.resolve mvcc ~obj:1 ~key:"a" ~snap));
  Mvcc.release_snapshot mvcc snap;
  Alcotest.(check int) "chains drain with the snapshot" 0
    (live ())

(* --- snapshot index probes ------------------------------------------------- *)

module Heap_file = Ivdb_storage.Heap_file
module I = Database.Internal

(* Differential: under a snapshot, index probes and range scans must return
   exactly what a filtered snapshot heap scan returns. Random histories on
   a table with a unique index (id) and an ordinary one (grp): inserts,
   point updates (which move a row to a new rid), deletes (whose ghosts
   are reclaimed at commit), aborts and explicit gc, with snapshots opened
   and closed in between. The check runs for every open snapshot while a
   writer is still in flight and again after it ends. *)
let normalize rows =
  List.map
    (fun ((rid : Heap_file.rid), row) ->
      ( rid.Heap_file.rpage,
        rid.Heap_file.rslot,
        Array.to_list (Array.map Value.to_int row) ))
    rows
  |> List.sort compare

let snapshot_probes_agree db t snap =
  let tid = I.table_id t in
  let heap = List.of_seq (I.heap_scan_rows db (Some snap) t) in
  let expect f = normalize (List.filter (fun (_, row) -> f row) heap) in
  let same what f got = if normalize (List.of_seq got) = expect f then [] else [ what ] in
  let int_at c row = Value.to_int row.(c) in
  let probes =
    List.concat_map
      (fun (col, v) ->
        same
          (Printf.sprintf "probe col %d = %d" col v)
          (fun row -> int_at col row = v)
          (I.index_probe_rids db (Some snap) ~table:tid ~col (Value.Int v)))
      (List.init 5 (fun g -> (1, g)) @ List.init 24 (fun id -> (0, id)))
  in
  let ranges =
    List.concat_map
      (fun (col, lo, hi) ->
        let bound = Option.map (fun (v, incl) -> (Value.Int v, incl)) in
        let ok row =
          let x = int_at col row in
          (match lo with None -> true | Some (l, i) -> if i then x >= l else x > l)
          && match hi with None -> true | Some (h, i) -> if i then x <= h else x < h
        in
        same
          (Printf.sprintf "range col %d" col)
          ok
          (I.index_range_rids db (Some snap) ~table:tid ~col ~lo:(bound lo) ~hi:(bound hi)))
      [
        (1, Some (1, true), Some (3, false));
        (1, Some (2, false), None);
        (1, None, Some (2, true));
        (0, Some (4, true), Some (15, true));
        (0, None, Some (7, false));
        (0, Some (10, false), None);
        (0, None, None);
      ]
  in
  probes @ ranges

let history_agrees steps =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
  let db = Database.create ~config () in
  let mgr = Database.mgr db in
  let t =
    Database.create_table db ~name:"t"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "grp"; ty = Value.TInt; nullable = false };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  Database.create_index db ~unique:true t ~col:"id" ~name:"t_id";
  Database.create_index db t ~col:"grp" ~name:"t_grp";
  let next_id = ref 0 and live = ref [] and snaps = ref [] and failures = ref [] in
  let check_all () =
    List.iter
      (fun snap -> failures := snapshot_probes_agree db t snap @ !failures)
      !snaps
  in
  List.iter
    (fun (kind, a, b) ->
      match kind mod 6 with
      | 0 -> snaps := Txn.begin_snapshot mgr :: !snaps
      | 1 -> (
          match !snaps with
          | [] -> ()
          | l ->
              let victim = List.nth l (a mod List.length l) in
              Txn.commit mgr victim;
              snaps := List.filter (fun s -> s != victim) l)
      | 2 -> ignore (Database.gc db)
      | _ -> (
          let commit = b mod 4 <> 0 in
          let before = !live in
          try
            Database.transact db (fun tx ->
                for op = 0 to a mod 3 do
                  match ((a / 3) + op + b) mod 3, !live with
                  | 0, _ | _, [] ->
                      incr next_id;
                      let id = !next_id in
                      let row = [| Value.Int id; Value.Int ((a + op) mod 5); Value.Int b |] in
                      ignore (Table.insert db tx t row);
                      live := id :: !live
                  | k, l ->
                      let id = List.nth l ((a + op) mod List.length l) in
                      let rid, row =
                        List.hd (Table.find db (Some tx) t ~col:"id" (Value.Int id))
                      in
                      if k = 1 then
                        ignore
                          (Table.update db tx t rid
                             [| row.(0); Value.Int ((b + op) mod 5); Value.Int (a + b) |])
                      else begin
                        Table.delete db tx t rid;
                        live := List.filter (( <> ) id) !live
                      end
                done;
                check_all ();
                if not commit then raise Planned_abort)
          with Planned_abort ->
            live := before;
            check_all ()))
    steps;
  check_all ();
  List.iter (Txn.commit mgr) !snaps;
  if Metrics.get (Database.metrics db) "view.join_scan_fallback" <> 0 then
    failures := "scan fallback" :: !failures;
  !failures = []

let qtest = QCheck_alcotest.to_alcotest

let prop_snapshot_probes =
  QCheck.Test.make ~name:"snapshot probes = filtered snapshot heap scan" ~count:150
    QCheck.(
      list_of_size Gen.(int_range 5 40) (triple small_nat small_nat small_nat))
    history_agrees

(* Auto-snapshot point and range SELECTs read through the index: no scan
   fallback, and the probe is counted. *)
let test_auto_snapshot_select_probes () =
  let s = Ivdb_sql.Sql.session (Database.create ()) in
  let exec sql = ignore (Ivdb_sql.Sql.exec s sql) in
  exec "CREATE TABLE t (id INT NOT NULL, qty INT NOT NULL)";
  exec "CREATE UNIQUE INDEX t_id ON t (id)";
  exec "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)";
  exec "UPDATE t SET qty = 21 WHERE id = 2";
  let m = Database.metrics (Ivdb_sql.Sql.db s) in
  let rows sql =
    match Ivdb_sql.Sql.exec s sql with
    | Ivdb_sql.Sql.Rows { rows; _ } -> List.map (Array.map Value.to_int) rows
    | _ -> Alcotest.fail "rows"
  in
  let probes0 = Metrics.get m "sql.index_probe" in
  let ranges0 = Metrics.get m "sql.index_range" in
  Alcotest.(check (list (array int))) "point" [ [| 2; 21 |] ]
    (rows "SELECT id, qty FROM t WHERE id = 2");
  Alcotest.(check (list (array int))) "range" [ [| 2 |]; [| 3 |] ]
    (rows "SELECT id FROM t WHERE id > 1 ORDER BY id");
  Alcotest.(check int) "no scan fallback" 0 (Metrics.get m "view.join_scan_fallback");
  Alcotest.(check int) "probe counted" 1 (Metrics.get m "sql.index_probe" - probes0);
  Alcotest.(check int) "range counted" 1 (Metrics.get m "sql.index_range" - ranges0)

(* A partial rollback compensates an escrow increment in storage and in
   the in-flight registry alike: a snapshot taken while the writer is
   still open, and one held across its commit, read the committed group.
   Both partial rollbacks are covered: ROLLBACK TO a savepoint, and a
   statement that fails after its first row. *)
let test_partial_rollback_escrow () =
  let db = Database.create () in
  let module Sql = Ivdb_sql.Sql in
  let w = Sql.session db and r = Sql.session db in
  let exec s sql = ignore (Sql.exec s sql) in
  let rows s sql =
    match Sql.exec s sql with
    | Sql.Rows { rows; _ } -> List.map (Array.map Value.to_int) rows
    | _ -> Alcotest.failf "%s: expected rows" sql
  in
  exec w "CREATE TABLE t (k INT NOT NULL, g INT NOT NULL, x INT NOT NULL)";
  exec w "CREATE UNIQUE INDEX t_k ON t (k)";
  exec w "CREATE VIEW v AS SELECT g, COUNT(*), SUM(x) FROM t GROUP BY g USING ESCROW";
  exec w "INSERT INTO t VALUES (1, 1, 10)";
  let committed = [ [| 1; 1; 10 |] ] in
  exec w "BEGIN";
  exec w "INSERT INTO t VALUES (2, 1, 5)";
  exec w "SAVEPOINT s";
  exec w "INSERT INTO t VALUES (3, 1, 7)";
  exec w "ROLLBACK TO s";
  Alcotest.(check (list (array int))) "snapshot after ROLLBACK TO" committed
    (rows r "SELECT * FROM v");
  (* the second row repeats k = 1: the statement fails after its first
     row and is rolled back on its own *)
  (match Sql.exec w "INSERT INTO t VALUES (4, 1, 9), (1, 1, 1)" with
  | exception Database.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate key accepted");
  Alcotest.(check (list (array int))) "snapshot after the failed statement" committed
    (rows r "SELECT * FROM v");
  exec r "BEGIN READ ONLY";
  Alcotest.(check (list (array int))) "held snapshot before the commit" committed
    (rows r "SELECT * FROM v");
  exec w "COMMIT";
  Alcotest.(check (list (array int))) "held snapshot after the commit" committed
    (rows r "SELECT * FROM v");
  exec r "COMMIT";
  Alcotest.(check (list (array int))) "after the commit" [ [| 1; 2; 15 |] ]
    (rows r "SELECT * FROM v");
  Alcotest.(check bool) "V1" true
    (Ivdb.Workload.check_consistency db (Database.view db "v"))

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "snapshot readers vs escrow writers" `Quick
            test_snapshot_vs_escrow_writers;
          Alcotest.test_case "no locks, no WAL" `Quick
            test_snapshot_takes_no_locks;
          Alcotest.test_case "writes rejected" `Quick
            test_snapshot_rejects_writes;
          Alcotest.test_case "version chains drain" `Quick test_version_gc;
          Alcotest.test_case "mixed-key install race dedups at the head"
            `Quick test_mixed_install_race;
          Alcotest.test_case "partial rollback of escrow deltas" `Quick
            test_partial_rollback_escrow;
        ] );
      ( "probes",
        [
          qtest prop_snapshot_probes;
          Alcotest.test_case "auto-snapshot SELECT probes the index" `Quick
            test_auto_snapshot_select_probes;
        ] );
    ]
