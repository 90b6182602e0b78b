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
   expect the trigger to fire, recover, check durability + V1. *)
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
    Alcotest.failf "%s: view inconsistent after recovery" desc

let count_points spec =
  let db, sales, _views = Workload.setup spec in
  (* a trigger-less live plan counts every injection point it passes *)
  Database.install_fault db Fault.no_faults;
  let _acked, committed, crashed =
    run_until_crash db sales ~mpl:spec.Workload.mpl
      ~txns_per_worker:spec.Workload.txns_per_worker
      ~ops:spec.Workload.ops_per_txn
  in
  Alcotest.(check bool) "counting run crashed" false crashed;
  Alcotest.(check bool) "counting run committed" true (committed > 0);
  let plan = Database.fault_plan db in
  (Fault.writes_seen plan, Fault.forces_seen plan)

let sweep_test mode () =
  let spec = spec_of mode in
  let n_writes, n_forces = count_points spec in
  Alcotest.(check bool) "workload has disk-write points" true (n_writes > 0);
  Alcotest.(check bool) "workload has force points" true (n_forces > 0);
  for k = 1 to n_writes do
    run_point spec
      { Fault.no_faults with crash_at_write = Some k }
      (Printf.sprintf "clean crash at write %d" k);
    run_point spec
      { Fault.no_faults with crash_at_write = Some k; torn_writes = true }
      (Printf.sprintf "torn crash at write %d" k)
  done;
  for k = 1 to n_forces do
    run_point spec
      { Fault.no_faults with crash_at_force = Some k }
      (Printf.sprintf "clean crash at force %d" k);
    run_point spec
      { Fault.no_faults with crash_at_force = Some k; torn_tail = true }
      (Printf.sprintf "torn crash at force %d" k)
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
  Alcotest.(check bool) "errors were injected" true
    (Fault.injected (Database.fault_plan db) > 0);
  let m = Database.metrics db in
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
        let plan = Database.fault_plan db in
        (List.sort compare acked, committed, crashed, Fault.writes_seen plan)
      in
      once () = once ())

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
    ]
