(* V3 as a property: whatever the interleaving, a crash at a stable-log
   point recovers to a state where every indexed view equals a from-scratch
   recomputation, and the engine keeps working afterwards. *)

module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Workload = Ivdb.Workload
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Wal = Ivdb_wal.Wal
module Metrics = Ivdb_util.Metrics
module Value = Ivdb_relation.Value

let qtest = QCheck_alcotest.to_alcotest

let spec_of seed strategy =
  {
    Workload.default with
    seed;
    strategy;
    mpl = 4;
    txns_per_worker = 15;
    ops_per_txn = 3;
    delete_fraction = 0.25;
    n_groups = 8;
    theta = 0.8;
    initial_rows = 30;
  }

let strategies = [| Maintain.Exclusive; Maintain.Escrow; Maintain.Deferred |]

(* every property runs under every commit mode: batched (and async) forces
   must not change what recovery reconstructs *)
let modes =
  [| Txn.Sync; Txn.Group { max_batch = 8; max_wait_ticks = 30 }; Txn.Async |]

let with_mode spec mode =
  { spec with Workload.config = { spec.Workload.config with Database.commit_mode = mode } }

(* decorrelate from the [seed mod 3] strategy pick so every
   (strategy, commit mode) pair occurs *)
let mode_of seed = modes.((seed / 3) mod Array.length modes)

let consistent_after db v =
  (match Database.view_strategy db v with
  | Maintain.Deferred -> Database.transact db (fun tx -> ignore (Query.refresh db tx v))
  | Maintain.Exclusive | Maintain.Escrow -> ());
  Workload.check_consistency db v

(* crash with the full log forced (in-flight txns become losers) *)
let prop_crash_forced =
  QCheck.Test.make ~name:"crash with forced log: V1 after recovery" ~count:15
    QCheck.(int_bound 10000)
    (fun seed ->
      let strategy = strategies.(seed mod 3) in
      let spec = with_mode (spec_of seed strategy) (mode_of seed) in
      let db, sales, views = Workload.setup spec in
      let _ = Workload.run_on db sales views spec in
      (* leave losers in flight *)
      let mgr = Database.mgr db in
      (* distinct groups per loser: they run sequentially outside the
         scheduler, so they must not block on one another *)
      for k = 1 to 3 do
        let tx = Txn.begin_txn mgr in
        ignore
          (Table.insert db tx sales
             [| Value.Int (-900 - k); Value.Int (900 + k); Value.Int 5; Value.Float 1. |])
      done;
      Wal.force (Database.wal db) (Wal.last_lsn (Database.wal db));
      let db' = Database.crash db in
      let v' = Database.view db' "sales_by_product_0" in
      consistent_after db' v')

(* crash losing the unforced tail (only committed work survives) *)
let prop_crash_unforced_tail =
  QCheck.Test.make ~name:"crash losing unforced tail: V1 after recovery" ~count:15
    QCheck.(int_bound 10000)
    (fun seed ->
      let strategy = strategies.(seed mod 3) in
      let spec = with_mode (spec_of (seed + 77) strategy) (mode_of seed) in
      let db, sales, views = Workload.setup spec in
      let _ = Workload.run_on db sales views spec in
      (* unforced in-flight work simply evaporates *)
      let mgr = Database.mgr db in
      let tx = Txn.begin_txn mgr in
      ignore
        (Table.insert db tx sales
           [| Value.Int (-999); Value.Int 1; Value.Int 5; Value.Float 1. |]);
      let db' = Database.crash db in
      let v' = Database.view db' "sales_by_product_0" in
      consistent_after db' v')

(* double crash with work in between *)
let prop_crash_twice =
  QCheck.Test.make ~name:"crash, work, crash again: still consistent" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let strategy = strategies.(seed mod 3) in
      let spec = with_mode (spec_of (seed + 313) strategy) (mode_of seed) in
      let db, sales, views = Workload.setup spec in
      let _ = Workload.run_on db sales views spec in
      let db' = Database.crash db in
      let sales' = Database.table db' "sales" in
      ignore (Database.gc db');
      Database.transact db' (fun tx ->
          for k = 1 to 5 do
            ignore
              (Table.insert db' tx sales'
                 [| Value.Int (1000 + k); Value.Int 2; Value.Int 1; Value.Float 2. |])
          done);
      let db'' = Database.crash db' in
      let v'' = Database.view db'' "sales_by_product_0" in
      consistent_after db'' v'')

(* acknowledged durability: in Sync and Group modes every transaction whose
   commit returned survives a crash — the batched force must cover a commit
   before it is acknowledged. (Async deliberately fails this; see
   prop_async_runs_consistent for its weaker contract.) *)
let prop_group_commit_durable =
  QCheck.Test.make ~name:"group commit: acked work survives a crash" ~count:15
    QCheck.(int_bound 10000)
    (fun seed ->
      let strategy = strategies.(seed mod 3) in
      let mode =
        if seed mod 2 = 0 then Txn.Sync
        else Txn.Group { max_batch = 1 + (seed mod 12); max_wait_ticks = seed mod 60 }
      in
      let spec = with_mode (spec_of (seed + 515) strategy) mode in
      let db, sales, _views = Workload.setup spec in
      let _ = Workload.run_on db sales _views spec in
      let dump d t =
        Query.table_scan d None t Query.Dirty |> List.of_seq |> List.sort compare
      in
      let before = dump db sales in
      let db' = Database.crash db in
      let after = dump db' (Database.table db' "sales") in
      before = after)

(* async mode may lose acked-but-unflushed tail transactions, but what
   recovery reconstructs is still transaction-consistent: base table and
   view agree *)
let prop_async_runs_consistent =
  QCheck.Test.make ~name:"async commit: crash state is still consistent" ~count:15
    QCheck.(int_bound 10000)
    (fun seed ->
      let strategy = strategies.(seed mod 3) in
      let spec = with_mode (spec_of (seed + 929) strategy) Txn.Async in
      let db, sales, views = Workload.setup spec in
      let _ = Workload.run_on db sales views spec in
      let db' = Database.crash db in
      let v' = Database.view db' "sales_by_product_0" in
      consistent_after db' v')

(* the scheduler's seeded RNG fully determines the interleaving, so the
   whole result, batch boundaries included — an emergent property of who
   reaches commit when — must be reproducible run over run *)
let prop_batch_boundaries_deterministic =
  QCheck.Test.make ~name:"same seed => same batch boundaries" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let strategy = strategies.(seed mod 3) in
      let mode = Txn.Group { max_batch = 2 + (seed mod 10); max_wait_ticks = 20 } in
      let spec = with_mode (spec_of (seed + 1111) strategy) mode in
      let r1 = Workload.run spec in
      let r2 = Workload.run spec in
      r1 = r2)

let () =
  Alcotest.run "crash-props"
    [
      ( "properties",
        [ qtest prop_crash_forced; qtest prop_crash_unforced_tail; qtest prop_crash_twice ]
      );
      ( "commit modes",
        [
          qtest prop_group_commit_durable;
          qtest prop_async_runs_consistent;
          qtest prop_batch_boundaries_deterministic;
        ] );
    ]
