module Txn = Ivdb_txn.Txn
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Recovery = Ivdb_recovery.Recovery
module Heap_file = Ivdb_storage.Heap_file
module Bufpool = Ivdb_storage.Bufpool
module Btree = Ivdb_btree.Btree
module Lock_mgr = Ivdb_lock.Lock_mgr
module Name = Ivdb_lock.Lock_name
module Mode = Ivdb_lock.Lock_mode
module Metrics = Ivdb_util.Metrics
module Sched = Ivdb_sched.Sched
module Harness = Ivdb_test_support.Harness

let check = Alcotest.check

(* A miniature access layer: one heap (table 1) and one B-tree (index 1),
   with the logical-undo executor the db layer would normally install. *)
type env = {
  h : Harness.t;
  heap : Heap_file.t;
  tree : Btree.t;
}

(* A transaction's status as sys.transactions reports it. *)
let status mgr tx =
  match
    List.find_opt
      (fun i -> i.Txn.i_txn = Txn.id tx)
      (Txn.active_info mgr @ Txn.recent_info mgr)
  with
  | Some i -> i.Txn.i_status
  | None -> Alcotest.failf "transaction %d is unknown" (Txn.id tx)

let install_undo h ~heap ~tree =
  Txn.set_undo_exec h.Harness.mgr (fun _txn undo ->
      match undo with
      | Log_record.No_undo -> []
      | Log_record.Undo_heap_insert { rid; _ } -> Heap_file.delete heap rid
      | Log_record.Undo_heap_delete { rid; _ } -> Heap_file.revive heap rid
      | Log_record.Undo_heap_update { rid; before; _ } -> Heap_file.update heap rid before
      | Log_record.Undo_bt_insert { key; _ } -> Btree.delete_raw tree ~key
      | Log_record.Undo_bt_delete { key; value; _ } -> Btree.insert_raw tree ~key ~value
      | Log_record.Undo_bt_update { key; before; _ } -> Btree.update_raw tree ~key ~value:before
      | Log_record.Undo_escrow _ -> failwith "no escrow in this suite")

let make_env ?commit_mode () =
  let h = Harness.make ?commit_mode ~pool_capacity:64 () in
  let heap =
    Txn.system h.Harness.mgr (fun stx ->
        let heap, diffs = Heap_file.create h.Harness.pool h.Harness.disk in
        Txn.log_update h.Harness.mgr stx ~undo:Log_record.No_undo diffs;
        heap)
  in
  let tree = Btree.create h.Harness.mgr ~index_id:1 in
  install_undo h ~heap ~tree;
  { h; heap; tree }

let reopen env =
  (* crash: volatile state gone; rebuild handles over the stable substrate *)
  let h' = Harness.crash env.h ~pool_capacity:64 in
  let analysis = Recovery.analyze h'.Harness.wal in
  let applied = (Recovery.redo h'.Harness.wal h'.Harness.pool analysis).Recovery.applied in
  Txn.bump_txn_id h'.Harness.mgr analysis.Recovery.max_txn_id;
  let heap =
    Heap_file.attach h'.Harness.pool h'.Harness.disk
      ~first_page:(Heap_file.first_page env.heap)
  in
  let tree = Btree.attach h'.Harness.mgr ~index_id:1 ~root:(Btree.root env.tree) in
  let env' = { h = h'; heap; tree } in
  install_undo h' ~heap ~tree;
  List.iter
    (fun (tid, last) ->
      let t = Txn.resurrect h'.Harness.mgr ~id:tid ~last_lsn:last () in
      Txn.rollback_tail h'.Harness.mgr t ~from:last)
    analysis.Recovery.losers;
  (env', analysis, applied)

let heap_insert env tx record =
  let rid, diffs = Heap_file.insert env.heap record in
  Txn.log_update env.h.Harness.mgr tx
    ~undo:(Log_record.Undo_heap_insert { table = 1; rid })
    diffs;
  rid

let heap_delete env tx rid =
  let diffs = Heap_file.delete env.heap rid in
  Txn.log_update env.h.Harness.mgr tx
    ~undo:(Log_record.Undo_heap_delete { table = 1; rid })
    diffs

let heap_contents env =
  let acc = ref [] in
  Heap_file.iter env.heap (fun _ r -> acc := r :: !acc);
  List.sort compare !acc

let tree_contents env =
  let acc = ref [] in
  Btree.iter env.tree (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* --- basic lifecycle ---------------------------------------------------- *)

let test_commit_forces_log () =
  let env = make_env () in
  let tx = Txn.begin_txn env.h.Harness.mgr in
  ignore (heap_insert env tx "r1");
  Alcotest.(check bool) "not yet forced" true
    (Wal.flushed_lsn env.h.Harness.wal < Wal.last_lsn env.h.Harness.wal);
  Txn.commit env.h.Harness.mgr tx;
  Alcotest.(check bool) "commit record stable" true
    (Wal.flushed_lsn env.h.Harness.wal >= Txn.last_lsn tx - 1)

let test_system_txn_no_force () =
  let env = make_env () in
  let flushed = Wal.flushed_lsn env.h.Harness.wal in
  Txn.system env.h.Harness.mgr ignore;
  check Alcotest.int "no force on system commit" flushed
    (Wal.flushed_lsn env.h.Harness.wal)

(* The bracket aborts and re-raises on a failure, undoing what the body
   logged; a crash point passes untouched, leaving the rollback to
   recovery. *)
let test_system_txn_failure () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let run exn =
    let stx = ref None in
    (try
       Txn.system mgr (fun tx ->
           stx := Some tx;
           ignore (heap_insert env tx "undone");
           raise exn)
     with e when e == exn -> ());
    status mgr (Option.get !stx)
  in
  Alcotest.(check bool) "a failure aborts" true (run Exit = Txn.Aborted);
  check Alcotest.(list string) "its insert is undone" [] (heap_contents env);
  Alcotest.(check bool) "a crash point leaves it active" true
    (run (Ivdb_storage.Fault.Crash_point "test") = Txn.Active)

(* A redo-only update has nothing to undo: abort writes a CLR for the
   undoable insert alone and leaves the redo-only entry in place. *)
let test_redo_only_gets_no_clr () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  Btree.insert ~undo:Log_record.No_undo tx env.tree ~key:"r" ~value:"redo-only";
  Btree.insert tx env.tree ~key:"u" ~value:"undoable";
  Txn.abort mgr tx;
  let wal = env.h.Harness.wal and clrs = ref 0 in
  for lsn = Wal.first_lsn wal to Wal.last_lsn wal do
    let r = Wal.get wal lsn in
    match r.Log_record.body with
    | Log_record.Clr _ when r.Log_record.txn = Txn.id tx -> incr clrs
    | _ -> ()
  done;
  check Alcotest.int "one CLR" 1 !clrs;
  check Alcotest.(option string) "redo-only entry stays" (Some "redo-only")
    (Btree.search env.tree "r");
  check Alcotest.(option string) "undoable entry undone" None (Btree.search env.tree "u")

let test_abort_rolls_back_heap () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx0 = Txn.begin_txn mgr in
  let keep = heap_insert env tx0 "keep" in
  Txn.commit mgr tx0;
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "drop1");
  heap_delete env tx keep;
  ignore (heap_insert env tx "drop2");
  Txn.abort mgr tx;
  check Alcotest.(list string) "only committed row survives, delete undone"
    [ "keep" ] (heap_contents env);
  Alcotest.(check bool) "status" true (status mgr tx = Txn.Aborted)

let test_abort_rolls_back_btree () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx0 = Txn.begin_txn mgr in
  Btree.insert tx0 env.tree ~key:"b" ~value:"base";
  Txn.commit mgr tx0;
  let tx = Txn.begin_txn mgr in
  Btree.insert tx env.tree ~key:"a" ~value:"new";
  Btree.update tx env.tree ~key:"b" ~value:"changed";
  Btree.delete tx env.tree ~key:"b";
  Txn.abort mgr tx;
  check
    Alcotest.(list (pair string string))
    "tree restored" [ ("b", "base") ] (tree_contents env)

let test_abort_idempotent () =
  let env = make_env () in
  let tx = Txn.begin_txn env.h.Harness.mgr in
  ignore (heap_insert env tx "x");
  Txn.abort env.h.Harness.mgr tx;
  Txn.abort env.h.Harness.mgr tx;
  check Alcotest.(list string) "clean" [] (heap_contents env)

let test_clr_chain () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "a");
  ignore (heap_insert env tx "b");
  Txn.abort mgr tx;
  (* log shape: Begin, U1, U2, Abort, CLR(undo U2), CLR(undo U1), End *)
  let clrs = ref [] in
  for lsn = 1 to Wal.last_lsn env.h.Harness.wal do
    match (Wal.get env.h.Harness.wal lsn).Log_record.body with
    | Log_record.Clr { undo_next; _ } -> clrs := undo_next :: !clrs
    | _ -> ()
  done;
  check Alcotest.int "two CLRs" 2 (List.length !clrs);
  (* the second CLR's undo_next points before the first update *)
  Alcotest.(check bool) "descending undo-next chain" true
    (List.hd !clrs < List.nth !clrs 1)

let test_conflict_exception_from_deadlock () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let outcomes = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      let worker first second =
        let tx = Txn.begin_txn mgr in
        try
          Txn.lock mgr tx first Mode.X;
          Sched.yield ();
          Sched.yield ();
          Txn.lock mgr tx second Mode.X;
          Txn.commit mgr tx;
          outcomes := `Commit :: !outcomes
        with Txn.Conflict _ ->
          Txn.abort mgr tx;
          outcomes := `Abort :: !outcomes
      in
      ignore (Sched.spawn (fun () -> worker (Name.Table 1) (Name.Table 2)));
      ignore (Sched.spawn (fun () -> worker (Name.Table 2) (Name.Table 1))));
  let aborts = List.length (List.filter (fun o -> o = `Abort) !outcomes) in
  check Alcotest.int "exactly one victim" 1 aborts

let test_read_only_commit_skips_force () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  (* durable baseline *)
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "x");
  Txn.commit mgr tx;
  let forces = Metrics.get env.h.Harness.metrics "log.force" in
  (* read-only transaction: reads, locks, commits — no force *)
  let ro = Txn.begin_txn mgr in
  Txn.lock mgr ro (Name.Table 1) Mode.S;
  Txn.commit mgr ro;
  check Alcotest.int "no extra force" forces
    (Metrics.get env.h.Harness.metrics "log.force");
  check Alcotest.int "counted" 1
    (Metrics.get env.h.Harness.metrics "txn.read_only_commit")

(* --- savepoints ------------------------------------------------------------ *)

let test_savepoint_partial_rollback () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "before");
  let sp = Txn.savepoint tx in
  ignore (heap_insert env tx "after-1");
  ignore (heap_insert env tx "after-2");
  Txn.rollback_to mgr tx sp;
  Txn.commit mgr tx;
  check Alcotest.(list string) "only pre-savepoint work" [ "before" ]
    (heap_contents env)

let test_savepoint_nested () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "a");
  let sp1 = Txn.savepoint tx in
  ignore (heap_insert env tx "b");
  let sp2 = Txn.savepoint tx in
  ignore (heap_insert env tx "c");
  Txn.rollback_to mgr tx sp2;
  (* b survives, c gone *)
  ignore (heap_insert env tx "d");
  Txn.rollback_to mgr tx sp1;
  (* b and d gone *)
  ignore (heap_insert env tx "e");
  Txn.commit mgr tx;
  check Alcotest.(list string) "nested savepoints" [ "a"; "e" ] (heap_contents env)

let test_savepoint_then_full_abort () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "x");
  let sp = Txn.savepoint tx in
  ignore (heap_insert env tx "y");
  Txn.rollback_to mgr tx sp;
  ignore (heap_insert env tx "z");
  (* the CLRs from the partial rollback must not confuse the full abort *)
  Txn.abort mgr tx;
  check Alcotest.(list string) "nothing survives" [] (heap_contents env)

let test_savepoint_work_after_rollback_persists () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  let sp = Txn.savepoint tx in
  Btree.insert tx env.tree ~key:"k" ~value:"v1";
  Txn.rollback_to mgr tx sp;
  Btree.insert tx env.tree ~key:"k" ~value:"v2";
  Txn.commit mgr tx;
  check
    Alcotest.(list (pair string string))
    "post-rollback insert persists" [ ("k", "v2") ] (tree_contents env)

let test_savepoint_crash_after_partial_rollback () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "keep-me-not");
  let sp = Txn.savepoint tx in
  ignore (heap_insert env tx "rolled");
  Txn.rollback_to mgr tx sp;
  ignore (heap_insert env tx "tail");
  (* loser with a compensated middle section; stable log, then crash *)
  Wal.force env.h.Harness.wal (Wal.last_lsn env.h.Harness.wal);
  let env', _, _ = reopen env in
  check Alcotest.(list string) "loser fully undone" [] (heap_contents env')

(* --- group commit ---------------------------------------------------------- *)

let group_mode = Txn.Group { max_batch = 4; max_wait_ticks = 10 }

let test_group_commit_batches_forces () =
  let env = make_env ~commit_mode:group_mode () in
  let mgr = env.h.Harness.mgr in
  let forces_before = Metrics.get env.h.Harness.metrics "log.force" in
  Sched.run ~policy:Sched.Fifo (fun () ->
      for w = 1 to 4 do
        ignore
          (Sched.spawn (fun () ->
               let tx = Txn.begin_txn mgr in
               ignore (heap_insert env tx (Printf.sprintf "g%d" w));
               Txn.commit mgr tx;
               (* acknowledged == durable: the batched force covered us *)
               Alcotest.(check bool) "acked commit is flushed" true
                 (Wal.flushed_lsn env.h.Harness.wal >= Txn.last_lsn tx - 1)))
      done);
  let forces = Metrics.get env.h.Harness.metrics "log.force" - forces_before in
  check Alcotest.int "one force for the whole batch" 1 forces;
  check Alcotest.int "all four committed" 4
    (Metrics.get env.h.Harness.metrics "txn.commit");
  check
    Alcotest.(list (pair int int))
    "batch histogram: one batch of 4" [ (4, 1) ]
    (Metrics.hist_snapshot env.h.Harness.metrics "commit.batch");
  check Alcotest.int "forces avoided" 3
    (Metrics.get env.h.Harness.metrics "commit.forces_avoided")

let test_group_commit_deadline_fires () =
  (* a single committer must not wait forever for a batch that never
     fills: with no other fiber runnable the coordinator flushes it at
     once (the deadline path is pinned by the runnable-fiber test below) *)
  let env = make_env ~commit_mode:group_mode () in
  let mgr = env.h.Harness.mgr in
  Sched.run ~policy:Sched.Fifo (fun () ->
      let tx = Txn.begin_txn mgr in
      ignore (heap_insert env tx "solo");
      Txn.commit mgr tx);
  check
    Alcotest.(list (pair int int))
    "batch of 1" [ (1, 1) ]
    (Metrics.hist_snapshot env.h.Harness.metrics "commit.batch");
  check Alcotest.(list string) "durable" [ "solo" ] (heap_contents env)

(* A deadline far beyond one force: a batch that waits it out shows. *)
let patient_group = Txn.Group { max_batch = 32; max_wait_ticks = 10_000 }

(* [k] writers that all reach commit: once each has suspended, no other
   fiber can join the batch, so the coordinator forces at once instead of
   yielding out the deadline. Each writer stalls about one force. *)
let test_group_commit_closes_when_nobody_can_join () =
  let k = 6 in
  List.iter
    (fun seed ->
      let env = make_env ~commit_mode:patient_group () in
      let mgr = env.h.Harness.mgr in
      let forces_before = Metrics.get env.h.Harness.metrics "log.force" in
      let stalls = ref [] in
      Sched.run ~seed (fun () ->
          let wait, _ =
            Sched.spawn_group k (fun w ->
                let tx = Txn.begin_txn mgr in
                ignore (heap_insert env tx (Printf.sprintf "g%d" w));
                let t0 = Sched.now () in
                Txn.commit mgr tx;
                stalls := (Sched.now () - t0) :: !stalls)
          in
          wait ());
      check Alcotest.int "one force for every writer" 1
        (Metrics.get env.h.Harness.metrics "log.force" - forces_before);
      check
        Alcotest.(list (pair int int))
        "one batch of k" [ (k, 1) ]
        (Metrics.hist_snapshot env.h.Harness.metrics "commit.batch");
      List.iter
        (fun stall ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: stall %d is about one force" seed stall)
            true
            (stall >= 100 && stall < 100 + (4 * k)))
        !stalls)
    [ 1; 2; 3; 4; 5 ]

(* A fiber that stays runnable without committing could still join, so
   the batch stays open until the deadline: the deadline bounds the wait. *)
let test_group_commit_runnable_fiber_holds_batch () =
  let env = make_env ~commit_mode:patient_group () in
  let mgr = env.h.Harness.mgr in
  let stall =
    Sched.run ~policy:Sched.Fifo (fun () ->
        let acked = ref false in
        ignore
          (Sched.spawn (fun () ->
               while not !acked do
                 Sched.yield ()
               done));
        let tx = Txn.begin_txn mgr in
        ignore (heap_insert env tx "solo");
        let t0 = Sched.now () in
        Txn.commit mgr tx;
        acked := true;
        Sched.now () - t0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "stall %d is the deadline plus one force" stall)
    true
    (stall >= 10_000 + 100 && stall < 10_000 + 100 + 10);
  check
    Alcotest.(list (pair int int))
    "batch of 1" [ (1, 1) ]
    (Metrics.hist_snapshot env.h.Harness.metrics "commit.batch")

let test_group_commit_outside_run_falls_back () =
  (* no scheduler, no fibers: Group mode degrades to a private force *)
  let env = make_env ~commit_mode:group_mode () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "solo");
  Txn.commit mgr tx;
  Alcotest.(check bool) "commit record stable" true
    (Wal.flushed_lsn env.h.Harness.wal >= Txn.last_lsn tx - 1);
  check Alcotest.int "sync fallback counted" 1
    (Metrics.get env.h.Harness.metrics "commit.sync_fallback")

let test_group_commit_crash_before_force_loses_txn () =
  (* crash in the window between the Commit append and the batched force:
     the transaction was never acknowledged, so it must be a loser (its
     earlier records reached the stable log via a page-steal force) *)
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "unacked");
  Wal.force env.h.Harness.wal (Wal.last_lsn env.h.Harness.wal);
  (* commit record appended but NOT yet covered by the coordinator's force *)
  ignore
    (Wal.append env.h.Harness.wal ~txn:(Txn.id tx) ~prev:(Txn.last_lsn tx)
       Log_record.Commit);
  let env', analysis, _ = reopen env in
  check Alcotest.int "rolled back as loser" 1
    (List.length analysis.Recovery.losers);
  check Alcotest.(list string) "no trace" [] (heap_contents env')

let test_group_commit_crash_after_force_commits_without_end () =
  (* crash after the batched force but before the End append: the stable
     Commit record alone makes the transaction committed *)
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "acked");
  ignore
    (Wal.append env.h.Harness.wal ~txn:(Txn.id tx) ~prev:(Txn.last_lsn tx)
       Log_record.Commit);
  Wal.force env.h.Harness.wal (Wal.last_lsn env.h.Harness.wal);
  let env', analysis, _ = reopen env in
  check Alcotest.int "not a loser" 0 (List.length analysis.Recovery.losers);
  check Alcotest.(list string) "durable" [ "acked" ] (heap_contents env')

let test_group_commit_checkpoint_during_wait () =
  (* a checkpoint taken while a transaction waits for the batched force
     records it in the ATT even though its Commit record is stable and
     earlier than the checkpoint; recovery must still commit it *)
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "waiting");
  ignore
    (Wal.append env.h.Harness.wal ~txn:(Txn.id tx) ~prev:(Txn.last_lsn tx)
       Log_record.Commit);
  (* tx is still in the manager's active table: the checkpoint ATT lists it *)
  Txn.checkpoint mgr ~catalog:"";
  let env', analysis, _ = reopen env in
  check Alcotest.int "stable Commit overrides checkpoint ATT" 0
    (List.length analysis.Recovery.losers);
  check Alcotest.(list string) "durable" [ "waiting" ] (heap_contents env')

let test_async_commit_outside_run_lost_on_crash () =
  (* Async acknowledges before any force; outside a scheduler run nothing
     flushes in the background either, so a crash loses the transaction *)
  let env = make_env ~commit_mode:Txn.Async () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "volatile");
  Txn.commit mgr tx;
  Alcotest.(check bool) "acknowledged as committed" true
    (status mgr tx = Txn.Committed);
  Alcotest.(check bool) "but commit record not stable" true
    (Wal.flushed_lsn env.h.Harness.wal < Txn.last_lsn tx - 1);
  let env', _, _ = reopen env in
  check Alcotest.(list string) "lost: the weakened guarantee" []
    (heap_contents env')

let test_async_commit_in_run_flushed_by_coordinator () =
  (* inside a run the background coordinator drains the pending commits
     before the scheduler can go idle *)
  let env = make_env ~commit_mode:Txn.Async () in
  let mgr = env.h.Harness.mgr in
  Sched.run ~policy:Sched.Fifo (fun () ->
      for w = 1 to 3 do
        ignore
          (Sched.spawn (fun () ->
               let tx = Txn.begin_txn mgr in
               ignore (heap_insert env tx (Printf.sprintf "a%d" w));
               Txn.commit mgr tx))
      done);
  Alcotest.(check bool) "drained at run end" true
    (Wal.flushed_lsn env.h.Harness.wal >= Wal.last_lsn env.h.Harness.wal - 3);
  let env', _, _ = reopen env in
  check Alcotest.int "all three recovered" 3 (List.length (heap_contents env'))

(* --- checkpoint + recovery ------------------------------------------------ *)

let test_recovery_committed_survive_uncommitted_vanish () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx1 = Txn.begin_txn mgr in
  ignore (heap_insert env tx1 "committed-1");
  Btree.insert tx1 env.tree ~key:"k1" ~value:"committed";
  Txn.commit mgr tx1;
  let tx2 = Txn.begin_txn mgr in
  ignore (heap_insert env tx2 "loser-row");
  Btree.insert tx2 env.tree ~key:"k2" ~value:"loser";
  (* the loser's records reach stable storage (as a page flush would force
     them), then the crash hits with tx2 still in flight *)
  Wal.force env.h.Harness.wal (Wal.last_lsn env.h.Harness.wal);
  let env', analysis, _ = reopen env in
  check Alcotest.int "one loser" 1 (List.length analysis.Recovery.losers);
  check Alcotest.(list string) "heap" [ "committed-1" ] (heap_contents env');
  check
    Alcotest.(list (pair string string))
    "tree" [ ("k1", "committed") ] (tree_contents env')

let test_recovery_unforced_loser_leaves_no_trace () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx1 = Txn.begin_txn mgr in
  ignore (heap_insert env tx1 "winner");
  Txn.commit mgr tx1;
  let tx2 = Txn.begin_txn mgr in
  ignore (heap_insert env tx2 "never-forced");
  (* no force after the commit of tx1: tx2's records die with the buffers *)
  let env', analysis, _ = reopen env in
  check Alcotest.int "no losers to undo" 0 (List.length analysis.Recovery.losers);
  check Alcotest.(list string) "only the winner" [ "winner" ] (heap_contents env')

let test_recovery_repeats_history_for_unflushed_pages () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  for i = 1 to 50 do
    ignore (heap_insert env tx (Printf.sprintf "row-%02d" i))
  done;
  Txn.commit mgr tx;
  (* nothing flushed to disk: redo must rebuild every page from the log *)
  let env', _, applied = reopen env in
  Alcotest.(check bool) "redo applied work" true (applied > 0);
  check Alcotest.int "all rows back" 50 (List.length (heap_contents env'))

let test_recovery_after_flush_skips_redo () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "persisted");
  Txn.commit mgr tx;
  Bufpool.flush_all env.h.Harness.pool;
  let env', _, applied = reopen env in
  check Alcotest.int "pageLSN check suppresses redo" 0 applied;
  check Alcotest.(list string) "contents" [ "persisted" ] (heap_contents env')

let test_recovery_with_checkpoint () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "before-ckpt");
  Txn.commit mgr tx;
  Txn.checkpoint mgr ~catalog:"CATALOG-BLOB";
  let tx2 = Txn.begin_txn mgr in
  ignore (heap_insert env tx2 "after-ckpt");
  Txn.commit mgr tx2;
  let env', analysis, _ = reopen env in
  check Alcotest.(option string) "catalog recovered" (Some "CATALOG-BLOB")
    analysis.Recovery.catalog;
  check Alcotest.(list string) "both rows" [ "after-ckpt"; "before-ckpt" ]
    (heap_contents env')

let test_recovery_checkpoint_with_active_txn () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "loser");
  Txn.checkpoint mgr ~catalog:"";
  (* loser active across the checkpoint, then more work, then crash *)
  ignore (heap_insert env tx "loser2");
  let env', analysis, _ = reopen env in
  check Alcotest.int "loser tracked via checkpoint ATT" 1
    (List.length analysis.Recovery.losers);
  check Alcotest.(list string) "rolled back" [] (heap_contents env')

let test_recovery_idempotent () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "x");
  Txn.commit mgr tx;
  let env', _, _ = reopen env in
  (* crash again immediately: double recovery must be stable *)
  let env'', _, _ = reopen env' in
  check Alcotest.(list string) "stable" [ "x" ] (heap_contents env'')

let test_recovery_crash_during_rollback () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx0 = Txn.begin_txn mgr in
  let keep = heap_insert env tx0 "keep" in
  ignore keep;
  Txn.commit mgr tx0;
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "a");
  ignore (heap_insert env tx "b");
  (* simulate a partial rollback that crashed: force all records so the
     stable log contains the abort + first CLR but no End *)
  Txn.abort mgr tx;
  Wal.force env.h.Harness.wal (Wal.last_lsn env.h.Harness.wal);
  let env', _, _ = reopen env in
  check Alcotest.(list string) "consistent" [ "keep" ] (heap_contents env')

let test_txn_id_monotonic_after_recovery () =
  let env = make_env () in
  let mgr = env.h.Harness.mgr in
  let tx = Txn.begin_txn mgr in
  ignore (heap_insert env tx "x");
  Txn.commit mgr tx;
  let env', _, _ = reopen env in
  let tx' = Txn.begin_txn env'.h.Harness.mgr in
  Alcotest.(check bool) "fresh txn id larger" true (Txn.id tx' > Txn.id tx);
  Txn.commit env'.h.Harness.mgr tx'

let () =
  Alcotest.run "txn"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "commit forces log" `Quick test_commit_forces_log;
          Alcotest.test_case "system txn no force" `Quick test_system_txn_no_force;
          Alcotest.test_case "redo-only update gets no CLR" `Quick test_redo_only_gets_no_clr;
          Alcotest.test_case "system txn failure aborts, crash passes" `Quick
            test_system_txn_failure;
          Alcotest.test_case "abort rolls back heap" `Quick test_abort_rolls_back_heap;
          Alcotest.test_case "abort rolls back btree" `Quick test_abort_rolls_back_btree;
          Alcotest.test_case "abort idempotent" `Quick test_abort_idempotent;
          Alcotest.test_case "CLR chain" `Quick test_clr_chain;
          Alcotest.test_case "deadlock -> Conflict" `Quick
            test_conflict_exception_from_deadlock;
          Alcotest.test_case "read-only commit skips force" `Quick
            test_read_only_commit_skips_force;
        ] );
      ( "savepoints",
        [
          Alcotest.test_case "partial rollback" `Quick test_savepoint_partial_rollback;
          Alcotest.test_case "nested" `Quick test_savepoint_nested;
          Alcotest.test_case "then full abort" `Quick test_savepoint_then_full_abort;
          Alcotest.test_case "work after rollback persists" `Quick
            test_savepoint_work_after_rollback_persists;
          Alcotest.test_case "crash after partial rollback" `Quick
            test_savepoint_crash_after_partial_rollback;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "batches forces" `Quick test_group_commit_batches_forces;
          Alcotest.test_case "deadline flushes a lone committer" `Quick
            test_group_commit_deadline_fires;
          Alcotest.test_case "closes once nobody can join" `Quick
            test_group_commit_closes_when_nobody_can_join;
          Alcotest.test_case "a runnable fiber holds it to the deadline" `Quick
            test_group_commit_runnable_fiber_holds_batch;
          Alcotest.test_case "outside run falls back to sync" `Quick
            test_group_commit_outside_run_falls_back;
          Alcotest.test_case "crash before force loses txn" `Quick
            test_group_commit_crash_before_force_loses_txn;
          Alcotest.test_case "crash after force commits without End" `Quick
            test_group_commit_crash_after_force_commits_without_end;
          Alcotest.test_case "checkpoint during commit wait" `Quick
            test_group_commit_checkpoint_during_wait;
          Alcotest.test_case "async outside run lost on crash" `Quick
            test_async_commit_outside_run_lost_on_crash;
          Alcotest.test_case "async in run flushed by coordinator" `Quick
            test_async_commit_in_run_flushed_by_coordinator;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "winners survive, losers vanish" `Quick
            test_recovery_committed_survive_uncommitted_vanish;
          Alcotest.test_case "unforced loser leaves no trace" `Quick
            test_recovery_unforced_loser_leaves_no_trace;
          Alcotest.test_case "repeat history" `Quick
            test_recovery_repeats_history_for_unflushed_pages;
          Alcotest.test_case "flushed pages skip redo" `Quick
            test_recovery_after_flush_skips_redo;
          Alcotest.test_case "checkpoint" `Quick test_recovery_with_checkpoint;
          Alcotest.test_case "checkpoint with active txn" `Quick
            test_recovery_checkpoint_with_active_txn;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "crash during rollback" `Quick
            test_recovery_crash_during_rollback;
          Alcotest.test_case "txn ids monotonic" `Quick
            test_txn_id_monotonic_after_recovery;
        ] );
    ]
