(* The crash-point sweep: run a small concurrent workload and crash it at
   EVERY injection point — the n-th disk write, the n-th WAL force, clean
   and torn variants, under sync and group commit — then recover and check
   the two invariants that define correctness under power loss:

   - durability: every transaction whose [Database.transact] returned
     before the crash is fully present after recovery;
   - consistency (V1): every indexed view equals a from-scratch
     recomputation over its base table.

   The sweep is exhaustive because injection is deterministic: a counting
   run under a trigger-less plan learns how many write/force points the
   workload has, and the armed runs replay identically up to the trigger. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Workload = Ivdb.Workload
module Fault = Ivdb_storage.Fault
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Sched = Ivdb_sched.Sched
module Rng = Ivdb_util.Rng
module Metrics = Ivdb_util.Metrics
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module Row = Ivdb_relation.Row
module View_def = Ivdb_core.View_def
module Heap_file = Ivdb_storage.Heap_file
module Btree = Ivdb_btree.Btree
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Catalog = Ivdb.Catalog

(* Disk writes so far: each is a crash point while no fault is armed. *)
let disk_writes db = Metrics.get (Database.metrics db) "disk.write"

let qtest = QCheck_alcotest.to_alcotest

(* Small on purpose: the sweep runs the whole workload once per injection
   point. A tiny pool forces evictions (mid-run page writes) and periodic
   checkpoints force flushes, so both crash sites get exercised early. *)
let spec_of mode =
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
    strategy = Maintain.Escrow;
    config =
      {
        Workload.default.Workload.config with
        Database.pool_capacity = 8;
        commit_mode = mode;
      };
  }

let seed = 7
let ckpt_every = 3

(* A deterministic insert-only workload that tracks acknowledgement: ids
   enter [acked] only after [Database.transact] returns, i.e. after the
   commit was made durable under the mode's contract. Insert-only keeps the
   durability check a plain subset test. *)
let run_until_crash db sales ~mpl ~txns_per_worker ~ops =
  let acked = ref [] in
  let next_id = ref 0 in
  let committed = ref 0 in
  let crashed = ref false in
  (try
     Sched.run ~seed (fun () ->
         let wait, _running =
           Sched.spawn_group mpl (fun w ->
               let rng = Rng.create ((seed * 31) + w) in
               for _ = 1 to txns_per_worker do
                 let ids = ref [] in
                 (try
                    Database.transact db (fun tx ->
                        for _ = 1 to ops do
                          incr next_id;
                          let id = !next_id in
                          ignore
                            (Table.insert db tx sales
                               [|
                                 Value.Int id;
                                 Value.Int (1 + Rng.int rng 5);
                                 Value.Int (1 + Rng.int rng 10);
                                 Value.Float 1.;
                               |]);
                          ids := id :: !ids;
                          Sched.yield ()
                        done);
                    acked := !ids @ !acked;
                    incr committed;
                    if !committed mod ckpt_every = 0 then Database.checkpoint db
                  with Txn.Conflict _ -> ());
                 Sched.yield ()
               done)
         in
         wait ())
   with Fault.Crash_point _ -> crashed := true);
  (!acked, !committed, !crashed)

let surviving_ids db sales =
  Query.table_scan db None sales Query.Dirty
  |> Seq.filter_map (fun row ->
         match row.(0) with
         | Value.Int id when id > 0 -> Some id
         | _ -> None)
  |> List.of_seq

(* One injection point: fresh deterministic db + workload, armed plan,
   expect the trigger to fire, recover, check durability + V1. Returns the
   pages recovery found torn. *)
let run_point spec fcfg desc =
  let db, sales, _views = Workload.setup spec in
  Database.install_fault db fcfg;
  let acked, _committed, crashed =
    run_until_crash db sales ~mpl:spec.Workload.mpl
      ~txns_per_worker:spec.Workload.txns_per_worker
      ~ops:spec.Workload.ops_per_txn
  in
  if not crashed then
    Alcotest.failf "%s: armed trigger did not fire (sweep out of sync)" desc;
  let db' = Database.crash db in
  let sales' = Database.table db' "sales" in
  let present = surviving_ids db' sales' in
  List.iter
    (fun id ->
      if not (List.mem id present) then
        Alcotest.failf "%s: acked row %d lost by the crash" desc id)
    acked;
  let v' = Database.view db' "sales_by_product_0" in
  if not (Workload.check_consistency db' v') then
    Alcotest.failf "%s: view inconsistent after recovery" desc;
  Metrics.get (Database.metrics db') "recovery.torn_pages"

let count_points spec =
  let db, sales, _views = Workload.setup spec in
  (* a trigger-less live plan counts every injection point it passes; with
     no fault to inject, every disk write is a write point *)
  Database.install_fault db Fault.no_faults;
  let writes0 = disk_writes db in
  let _acked, committed, crashed =
    run_until_crash db sales ~mpl:spec.Workload.mpl
      ~txns_per_worker:spec.Workload.txns_per_worker
      ~ops:spec.Workload.ops_per_txn
  in
  Alcotest.(check bool) "counting run crashed" false crashed;
  Alcotest.(check bool) "counting run committed" true (committed > 0);
  (disk_writes db - writes0, Fault.forces_seen (Database.fault_plan db))

let sweep_test mode () =
  let spec = spec_of mode in
  let n_writes, n_forces = count_points spec in
  Alcotest.(check bool) "workload has disk-write points" true (n_writes > 0);
  Alcotest.(check bool) "workload has force points" true (n_forces > 0);
  (* a tear cuts where the old and new images differ, so recovery must
     detect and repair the torn page at every torn-write point *)
  let torn = ref 0 in
  for k = 1 to n_writes do
    ignore
      (run_point spec
         { Fault.no_faults with crash_at_write = Some k }
         (Printf.sprintf "clean crash at write %d" k));
    torn :=
      !torn
      + run_point spec
          { Fault.no_faults with crash_at_write = Some k; torn_writes = true }
          (Printf.sprintf "torn crash at write %d" k)
  done;
  Alcotest.(check int) "every torn write was detected" n_writes !torn;
  for k = 1 to n_forces do
    ignore
      (run_point spec
         { Fault.no_faults with crash_at_force = Some k }
         (Printf.sprintf "clean crash at force %d" k));
    ignore
      (run_point spec
         { Fault.no_faults with crash_at_force = Some k; torn_tail = true }
         (Printf.sprintf "torn crash at force %d" k))
  done

(* Transient errors only: the run must complete (retries absorb every
   error), commit work, stay consistent — and actually have injected. *)
let test_transient_errors () =
  let spec = spec_of Txn.Sync in
  let db, sales, _views = Workload.setup spec in
  Database.install_fault db
    {
      Fault.no_faults with
      fault_seed = 11;
      read_error_p = 0.3;
      write_error_p = 0.3;
      max_consecutive_errors = 2;
    };
  let _acked, committed, crashed =
    run_until_crash db sales ~mpl:spec.Workload.mpl
      ~txns_per_worker:spec.Workload.txns_per_worker
      ~ops:spec.Workload.ops_per_txn
  in
  Alcotest.(check bool) "no crash" false crashed;
  Alcotest.(check bool) "committed" true (committed > 0);
  let m = Database.metrics db in
  Alcotest.(check bool) "errors were injected" true
    (Metrics.get m "fault.io_error_read" + Metrics.get m "fault.io_error_write" > 0);
  Alcotest.(check bool) "pool retried" true (Metrics.get m "buffer.io_retry" > 0);
  let v = Database.view db "sales_by_product_0" in
  Alcotest.(check bool) "consistent under transient errors" true
    (Workload.check_consistency db v)

(* Same armed config + seed twice => byte-identical outcome: the whole
   point of seeded injection is reproducible crashes. *)
let prop_injection_deterministic =
  QCheck.Test.make ~name:"same fault seed => same crash outcome" ~count:10
    QCheck.(int_bound 1000)
    (fun s ->
      let spec = spec_of Txn.Sync in
      let fcfg =
        {
          Fault.no_faults with
          fault_seed = s;
          crash_at_write = Some (1 + (s mod 5));
          torn_writes = s mod 2 = 0;
        }
      in
      let once () =
        let db, sales, _views = Workload.setup spec in
        Database.install_fault db fcfg;
        let acked, committed, crashed =
          run_until_crash db sales ~mpl:spec.Workload.mpl
            ~txns_per_worker:spec.Workload.txns_per_worker
            ~ops:spec.Workload.ops_per_txn
        in
        (List.sort compare acked, committed, crashed, disk_writes db)
      in
      once () = once ())

(* --- DDL crash sweep -------------------------------------------------------

   A DDL statement is whole or absent: crashed at any disk write or log
   force, clean or torn, restart and a follower promoted from the crashed
   log both recover, and the catalog holds the statement's object exactly
   when its Ddl record's transaction has a stable Commit. The table is
   several times the pool, so backfills and materializations evict pages
   and split trees while the statement runs. A DDL commit is not forced,
   so the statement is followed by an insert that maintains the new object
   and a checkpoint: their forces and writes are the points at which the
   DDL is already stable. *)

let ddl_config = { Database.default_config with Database.pool_capacity = 8 }
let ddl_rows = 1_200
let pad = String.make 200 'x'
let int_col name = { Schema.name; ty = Value.TInt; nullable = false }

(* t (id, k, pad): id unique, k = id mod 600 so every k occurs twice;
   u (uk, w): one row per k. The checkpoint puts both tables (and the
   older view [old]) in the restart snapshot; the retain floor keeps the
   whole log for the follower. *)
let ddl_setup () =
  let db = Database.create ~config:ddl_config () in
  Wal.set_retain_floor (Database.wal db) (Some 1);
  let t =
    Database.create_table db ~name:"t"
      ~cols:[ int_col "id"; int_col "k"; { Schema.name = "pad"; ty = Value.TStr; nullable = false } ]
  in
  let u = Database.create_table db ~name:"u" ~cols:[ int_col "uk"; int_col "w" ] in
  ignore
    (Database.create_view db ~name:"old" ~group_by:[ "w" ]
       ~aggs:[ View_def.Count_star ] ~source:(Database.From (u, None))
       ~strategy:Maintain.Escrow ());
  for b = 0 to (ddl_rows / 100) - 1 do
    Database.transact db (fun tx ->
        for i = (b * 100) + 1 to (b + 1) * 100 do
          ignore (Table.insert db tx t [| Value.Int i; Value.Int (i mod 600); Value.Str pad |]);
          if i <= 600 then
            ignore (Table.insert db tx u [| Value.Int (i - 1); Value.Int (i mod 7) |])
        done)
  done;
  Database.checkpoint db;
  db

(* Each statement creates index [ix] or view [v]. *)
type ddl_stmt = { what : string; index : bool; run : Database.t -> unit }

let ddl_stmts =
  let index ?(unique = false) what col =
    { what; index = true;
      run = (fun db -> Database.create_index db ~unique (Database.table db "t") ~col ~name:"ix") }
  in
  let view what ?(join = false) strategy aggs =
    { what; index = false;
      run =
        (fun db ->
          let t = Database.table db "t" and u = Database.table db "u" in
          let schema, source =
            if join then
              ( Database.join_schema db t u,
                Database.From_join { left = t; right = u; left_col = "k"; right_col = "uk"; where = None } )
            else (Database.schema db t, Database.From (t, None))
          in
          ignore
            (Database.create_view db ~name:"v" ~group_by:[ "k" ]
               ~aggs:(View_def.Count_star :: List.map (fun f -> f (Expr.col schema "id")) aggs)
               ~source ~strategy ())) }
  in
  let sum e = View_def.Sum e in
  [
    index "CREATE INDEX" "k";
    index ~unique:true "CREATE UNIQUE INDEX" "id";
    index ~unique:true "CREATE UNIQUE INDEX over duplicates" "k";
    view "CREATE VIEW (escrow)" Maintain.Escrow [ sum ];
    view "CREATE VIEW (exclusive)" Maintain.Exclusive [ sum ];
    view "CREATE VIEW (deferred)" Maintain.Deferred [ sum ];
    view "CREATE VIEW (min/max)" Maintain.Exclusive [ (fun e -> View_def.Min e); (fun e -> View_def.Max e) ];
    view "CREATE VIEW (join)" ~join:true Maintain.Escrow [ sum ];
  ]

(* Committed Ddl records in a stable log, read straight off the log. *)
let committed_ddl wal =
  let ddl = Hashtbl.create 8 and n = ref 0 in
  Wal.iter_stable wal (fun r ->
      match r.Log_record.body with
      | Log_record.Ddl _ -> Hashtbl.replace ddl r.Log_record.txn ()
      | Log_record.Commit when Hashtbl.mem ddl r.Log_record.txn -> incr n
      | _ -> ());
  !n

let has_object db stmt =
  if stmt.index then
    List.exists (fun (_, n) -> n = "ix") (Database.indexed_columns db (Database.table db "t"))
  else List.mem_assoc "v" (Database.list_views db)

(* Every table keeps its rows, every index holds exactly the live rows'
   keys, and every view, a deferred one once refreshed, equals its
   recomputation (V1). *)
let check_engine desc db =
  let t = Database.table db "t" in
  let rows = Seq.length (Query.table_scan db None t Query.Dirty) in
  if rows <> ddl_rows && rows <> ddl_rows + 1 then Alcotest.failf "%s: t has %d rows" desc rows;
  Alcotest.(check int) (desc ^ ": u rows") 600
    (Seq.length (Query.table_scan db None (Database.table db "u") Query.Dirty));
  let rt = Database.Internal.table_rt db (Database.Internal.table_id t) in
  List.iter
    (fun ix ->
      let col = Database.Internal.ix_col ix and unique = Database.Internal.ix_unique ix in
      let expect = ref [] and actual = ref [] in
      Heap_file.iter (Database.Internal.rt_heap rt) (fun rid record ->
          expect := Database.Internal.index_key ~unique (Row.decode record).(col) rid :: !expect);
      Btree.iter (Database.Internal.ix_tree ix) (fun k v ->
          if not (Database.Internal.index_entry_is_ghost v) then actual := k :: !actual);
      if List.sort compare !expect <> List.sort compare !actual then
        Alcotest.failf "%s: index %d does not hold exactly the live rows" desc
          (Database.Internal.ix_id ix))
    (Database.Internal.rt_indexes rt);
  List.iter
    (fun (name, _) ->
      let v = Database.view db name in
      if Database.view_strategy db v = Maintain.Deferred then
        ignore (Database.transact db (fun tx -> Query.refresh db tx v));
      if not (Workload.check_consistency db v) then
        Alcotest.failf "%s: view %s differs from its recomputation" desc name)
    (Database.list_views db)

let run_stmt (stmt : ddl_stmt) db =
  try stmt.run db with Database.Constraint_violation _ -> ()

let run_ddl stmt db =
  run_stmt stmt db;
  let t = Database.table db "t" in
  Database.transact db (fun tx ->
      ignore (Table.insert db tx t [| Value.Int (ddl_rows + 1); Value.Int 1; Value.Str pad |]));
  Database.checkpoint db

(* A counting run: the statement's write and force points, and whether it
   commits at all. *)
let ddl_points stmt =
  let db = ddl_setup () in
  Database.install_fault db Fault.no_faults;
  let writes0 = disk_writes db in
  run_ddl stmt db;
  (disk_writes db - writes0, Fault.forces_seen (Database.fault_plan db), has_object db stmt)

(* Returns whether the statement's Ddl record committed before the crash. *)
let run_ddl_point stmt fcfg desc =
  let db = ddl_setup () in
  let setup_ddl = committed_ddl (Database.wal db) in
  Database.install_fault db fcfg;
  (match run_ddl stmt db with
  | () -> Alcotest.failf "%s: armed trigger did not fire (sweep out of sync)" desc
  | exception Fault.Crash_point _ -> ());
  let dead = Wal.crash (Database.wal db) (Metrics.create ()) in
  let committed = committed_ddl dead > setup_ddl in
  let f = Database.create_follower ~config:ddl_config () in
  ignore (Workload.ship_wal dead f);
  ignore (Database.promote f);
  let db' = Database.crash db in
  Alcotest.(check string) (desc ^ ": promotion = restart")
    (Database.state_digest db') (Database.state_digest f);
  List.iter
    (fun (side, d) ->
      let desc = Printf.sprintf "%s, %s" desc side in
      Alcotest.(check bool) (desc ^ ": catalog holds the object iff its Ddl committed")
        committed (has_object d stmt);
      check_engine desc d)
    [ ("restart", db'); ("promotion", f) ];
  (* the recovered engine takes the statement again when it was lost *)
  if not committed then begin
    run_stmt stmt db';
    check_engine (desc ^ ", rerun") db'
  end;
  committed

let ddl_sweep stmt () =
  let n_writes, n_forces, commits = ddl_points stmt in
  Printf.printf "%s: %d writes, %d forces\n%!" stmt.what n_writes n_forces;
  Alcotest.(check bool) "statement has disk-write points" true (n_writes > 0);
  Alcotest.(check bool) "statement has force points" true (n_forces > 0);
  let outcomes = ref [] in
  let point what k torn fcfg =
    let desc =
      Printf.sprintf "%s: %s crash at %s %d" stmt.what (if torn then "torn" else "clean") what k
    in
    outcomes := run_ddl_point stmt fcfg desc :: !outcomes
  in
  for k = 1 to n_writes do
    List.iter
      (fun torn ->
        point "write" k torn { Fault.no_faults with crash_at_write = Some k; torn_writes = torn })
      [ false; true ]
  done;
  for k = 1 to n_forces do
    List.iter
      (fun torn ->
        point "force" k torn { Fault.no_faults with crash_at_force = Some k; torn_tail = torn })
      [ false; true ]
  done;
  Alcotest.(check (pair bool bool)) "points before, and after, the Ddl commit is stable"
    (true, commits)
    (List.mem false !outcomes, List.mem true !outcomes)

(* A Ddl record forced stable without its Commit: the crash point passes
   through [Txn.system] untouched, and neither restart nor promotion lets
   the catalog learn the index. *)
let test_uncommitted_ddl_absent () =
  let db = ddl_setup () in
  let t = Database.table db "t" in
  let mgr = Database.mgr db and wal = Database.wal db in
  let tree = Btree.create mgr ~index_id:1_000 in
  let meta =
    { Catalog.ix_id = 1_000; ix_name = "ix"; ix_table = Database.Internal.table_id t;
      ix_col = 1; ix_unique = false; ix_root = Btree.root tree }
  in
  let forced = ref 0 in
  (match
     Txn.system mgr (fun stx ->
         Btree.insert ~undo:Log_record.No_undo stx tree ~key:"k"
           ~value:(Database.Internal.index_entry_live "");
         Txn.log_ddl mgr stx (Catalog.encode_op (Catalog.Add_index meta));
         forced := Wal.last_lsn wal;
         Wal.force wal !forced;
         raise (Fault.Crash_point "before the Commit"))
   with
  | () -> Alcotest.fail "the body raises"
  | exception Fault.Crash_point _ -> ());
  Alcotest.(check int) "nothing logged after the crash point" !forced (Wal.last_lsn wal);
  let dead = Wal.crash wal (Metrics.create ()) in
  let f = Database.create_follower ~config:ddl_config () in
  ignore (Workload.ship_wal dead f);
  ignore (Database.promote f);
  let db' = Database.crash db in
  List.iter
    (fun (side, d) ->
      Alcotest.(check (list (pair string string))) (side ^ ": no index")
        [] (Database.indexed_columns d (Database.table d "t"));
      check_engine side d)
    [ ("restart", db'); ("promotion", f) ]

let () =
  Alcotest.run "fault-props"
    [
      ( "crash-point sweep",
        [
          Alcotest.test_case "sync commit" `Quick (sweep_test Txn.Sync);
          Alcotest.test_case "group commit" `Quick
            (sweep_test (Txn.Group { max_batch = 4; max_wait_ticks = 30 }));
        ] );
      ( "transient errors",
        [ Alcotest.test_case "retries absorb errors" `Quick test_transient_errors ] );
      ( "determinism", [ qtest prop_injection_deterministic ] );
      ( "DDL crash sweep",
        Alcotest.test_case "Ddl stable, Commit lost" `Quick test_uncommitted_ddl_absent
        :: List.map (fun stmt -> Alcotest.test_case stmt.what `Quick (ddl_sweep stmt)) ddl_stmts );
    ]
