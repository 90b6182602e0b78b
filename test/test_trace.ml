(* The structured engine trace: ring bounding, JSON rendering, stream
   determinism under the seeded scheduler, and the transact_result API. *)

module Trace = Ivdb_util.Trace
module Metrics = Ivdb_util.Metrics
module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Workload = Ivdb.Workload
module Txn = Ivdb_txn.Txn
module Name = Ivdb_lock.Lock_name
module Mode = Ivdb_lock.Lock_mode

let check = Alcotest.check

let config = { Database.default_config with read_cost = 0; write_cost = 0 }

(* --- plumbing ---------------------------------------------------------------- *)

let test_disabled_emits_nothing () =
  let tr = Trace.create () in
  let ring = Trace.Ring.create ~capacity:8 in
  Trace.add_sink tr (Trace.Ring.sink ring);
  Trace.emit tr (Trace.Txn_begin { txn = 1; system = false });
  check Alcotest.int "nothing recorded" 0 (Trace.Ring.seen ring);
  Trace.set_enabled tr true;
  Trace.emit tr (Trace.Txn_begin { txn = 1; system = false });
  check Alcotest.int "recorded once enabled" 1 (Trace.Ring.seen ring);
  (* seq numbering starts only when events are actually emitted *)
  check Alcotest.int "first seq is 0" 0
    (match Trace.Ring.contents ring with r :: _ -> r.Trace.seq | [] -> -1)

let test_ring_bounds () =
  let tr = Trace.create () in
  let ring = Trace.Ring.create ~capacity:4 in
  Trace.add_sink tr (Trace.Ring.sink ring);
  Trace.set_enabled tr true;
  for i = 1 to 10 do
    Trace.emit tr (Trace.Txn_begin { txn = i; system = false })
  done;
  check Alcotest.int "all events counted" 10 (Trace.Ring.seen ring);
  check Alcotest.int "only capacity retained" 4 (Trace.Ring.length ring);
  let txns =
    List.map
      (fun r ->
        match r.Trace.event with Trace.Txn_begin { txn; _ } -> txn | _ -> -1)
      (Trace.Ring.contents ring)
  in
  check Alcotest.(list int) "oldest retained first" [ 7; 8; 9; 10 ] txns;
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Trace.Ring.create: capacity must be > 0") (fun () ->
      ignore (Trace.Ring.create ~capacity:0))

let test_json_rendering () =
  let tr = Trace.create ~clock:(fun () -> 7) ~fiber:(fun () -> 3) () in
  let got = ref [] in
  Trace.add_sink tr (fun r -> got := Trace.to_json r :: !got);
  Trace.set_enabled tr true;
  Trace.emit tr (Trace.Lock_wait { txn = 5; name = "table:1"; mode = "X" });
  (* binary view keys must escape to pure 7-bit ASCII *)
  Trace.emit tr
    (Trace.View_delta { view = 2; key = "a\"b\\c\x00\xff"; strategy = "escrow" });
  (match !got with
  | [ delta; wait ] ->
      check Alcotest.string "lock event"
        {|{"seq": 0, "tick": 7, "fiber": 3, "ev": "lock.wait", "txn": 5, "lock": "table:1", "mode": "X"}|}
        wait;
      check Alcotest.string "escaped key"
        {|{"seq": 1, "tick": 7, "fiber": 3, "ev": "view.delta", "view": 2, "key": "a\"b\\c\u0000\u00ff", "strategy": "escrow"}|}
        delta;
      String.iter
        (fun c -> Alcotest.(check bool) "7-bit" true (Char.code c < 128))
        delta
  | _ -> Alcotest.fail "expected two events")

(* --- determinism -------------------------------------------------------------- *)

(* Same seed, same spec: the JSONL trace of the measured phase must be
   byte-identical across runs — the regression class that keeps
   nondeterminism (hashtable order, wall-clock, ids) out of the stream. *)
let traced_run seed =
  let spec =
    { Workload.default with seed; mpl = 4; txns_per_worker = 10; read_fraction = 0.2 }
  in
  let db, sales, views = Workload.setup spec in
  let buf = Buffer.create 4096 in
  let tr = Database.trace db in
  Trace.add_sink tr (fun r ->
      Buffer.add_string buf (Trace.to_json r);
      Buffer.add_char buf '\n');
  Trace.set_enabled tr true;
  ignore (Workload.run_on db sales views spec);
  Buffer.contents buf

let test_stream_deterministic () =
  let a = traced_run 42 and b = traced_run 42 in
  Alcotest.(check bool) "stream is nonempty" true (String.length a > 0);
  Alcotest.(check bool) "same seed, byte-identical stream" true (a = b);
  let c = traced_run 43 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c)

let test_profile_renders () =
  let spec = { Workload.default with mpl = 8; txns_per_worker = 20 } in
  let db, sales, views = Workload.setup spec in
  let profile = Trace.Profile.create () in
  let tr = Database.trace db in
  Trace.add_sink tr (Trace.Profile.sink profile);
  Trace.set_enabled tr true;
  ignore (Workload.run_on db sales views spec);
  let report = Trace.Profile.render profile in
  Alcotest.(check bool) "has lock section" true
    (String.length report > 0
    && String.sub report 0 17 = "lock-wait profile");
  let report2 = Trace.Profile.render profile in
  check Alcotest.string "render is stable" report report2

(* --- transact_result ---------------------------------------------------------- *)

let test_transact_result_ok_and_user_abort () =
  let db = Database.create ~config () in
  (match Database.transact_result db (fun _ -> 42) with
  | Ok v -> check Alcotest.int "ok value" 42 v
  | Error _ -> Alcotest.fail "expected Ok");
  (match Database.transact_result db (fun _ -> raise Exit) with
  | Error (Database.User_abort Exit) -> ()
  | _ -> Alcotest.fail "expected User_abort Exit");
  (* the classic API re-raises the user exception unchanged *)
  Alcotest.check_raises "transact re-raises" Exit (fun () ->
      Database.transact db (fun _ -> raise Exit))

let test_transact_result_deadlock_victim () =
  let db = Database.create ~config:{ config with Database.txn_retries = 0 } () in
  let outcomes = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      let worker first second =
        let r =
          Database.transact_result db (fun tx ->
              Txn.lock (Database.mgr db) tx first Mode.X;
              Sched.yield ();
              Sched.yield ();
              Txn.lock (Database.mgr db) tx second Mode.X)
        in
        outcomes := r :: !outcomes
      in
      ignore (Sched.spawn (fun () -> worker (Name.Table 1) (Name.Table 2)));
      ignore (Sched.spawn (fun () -> worker (Name.Table 2) (Name.Table 1))));
  let victims =
    List.filter (fun r -> r = Error Database.Deadlock_victim) !outcomes
  in
  let oks = List.filter (fun r -> r = Ok ()) !outcomes in
  check Alcotest.int "exactly one victim" 1 (List.length victims);
  check Alcotest.int "the other commits" 1 (List.length oks);
  Alcotest.(check bool) "give-up counted" true
    (Metrics.get (Database.metrics db) "txn.give_up" >= 1)

let test_transact_retries_deadlock () =
  let db = Database.create ~config () in
  let committed = ref 0 in
  Sched.run ~policy:Sched.Fifo (fun () ->
      let worker first second =
        Database.transact db (fun tx ->
            Txn.lock (Database.mgr db) tx first Mode.X;
            Sched.yield ();
            Sched.yield ();
            Txn.lock (Database.mgr db) tx second Mode.X);
        incr committed
      in
      ignore (Sched.spawn (fun () -> worker (Name.Table 1) (Name.Table 2)));
      ignore (Sched.spawn (fun () -> worker (Name.Table 2) (Name.Table 1))));
  (* with retries left, the victim re-runs and both eventually commit *)
  check Alcotest.int "both commit" 2 !committed;
  Alcotest.(check bool) "retry counted" true
    (Metrics.get (Database.metrics db) "txn.retry" >= 1)

let () =
  Alcotest.run "trace"
    [
      ( "plumbing",
        [
          Alcotest.test_case "disabled emits nothing" `Quick
            test_disabled_emits_nothing;
          Alcotest.test_case "ring bounds" `Quick test_ring_bounds;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same stream" `Quick
            test_stream_deterministic;
          Alcotest.test_case "profile renders" `Quick test_profile_renders;
        ] );
      ( "transact_result",
        [
          Alcotest.test_case "ok and user abort" `Quick
            test_transact_result_ok_and_user_abort;
          Alcotest.test_case "deadlock victim" `Quick
            test_transact_result_deadlock_victim;
          Alcotest.test_case "transact retries" `Quick
            test_transact_retries_deadlock;
        ] );
    ]
