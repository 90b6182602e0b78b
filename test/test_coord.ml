(* The sharding coordinator end to end on the deterministic loopback
   transport: statement routing, cross-shard 2PC, shard-local partial
   views combined on read (V1 across the cluster, MIN/MAX and deferred
   views included; join views must be co-partitioned), sys.shards
   through both paths, read-only participants, gids never reused across
   a restart, the coordinator-crash-at-every-action sweep, the
   participant-crash-at-every-force-point sweep (clean and torn tail),
   both over writers only and with a read-only participant, and the
   prepare/decide retransmit regressions: a shard answers a re-sent
   frame exactly once while keeping no memory of decided gtxns.

   The crash sweeps follow the repo's standard shape: run a scripted
   workload once unarmed to size the sweep, then re-run it once per
   injection point, power-cycle the whole cluster (Database.crash per
   shard, Wal.crash for the coordinator's decision log), run
   coordinator recovery, and require that (a) no shard keeps an
   in-doubt transaction and (b) the gc'd union of shard digests is
   bit-identical to a serial re-execution of exactly the
   decided-committed transactions on a fresh cluster. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Metrics = Ivdb_util.Metrics
module Sql = Ivdb_sql.Sql
module Transport = Ivdb_transport.Transport
module Server = Ivdb_server.Server
module Client = Ivdb_client.Client
module Coord = Ivdb_coord.Coord
module Trace = Ivdb_util.Trace
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Fault = Ivdb_storage.Fault
module Value = Ivdb_relation.Value

let check = Alcotest.check

let rows = function
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected Rows"

let affected = function
  | Sql.Affected n -> n
  | _ -> Alcotest.fail "expected Affected"

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let sort_rows rs =
  List.sort (fun (a : Value.t array) b -> Value.compare a.(0) b.(0)) rs

(* --- cluster harness --------------------------------------------------- *)

(* The durable half of a cluster: the shard engines and the
   coordinator's decision log. Transports, servers and the coordinator
   itself are volatile — rebuilt by every [phase]. *)
type cluster = { mutable dbs : Database.t array; mutable cwal : Wal.t }

let fresh_cluster shards =
  {
    dbs = Array.init shards (fun _ -> Database.create ());
    cwal = Wal.create (Metrics.create ());
  }

(* One power cycle: each phase is one scheduler run with a fresh
   loopback cluster over the surviving engines and a coordinator rebuilt
   over the surviving decision log. An escaping Fault.Crash_point models
   the whole machine dying mid-run. *)
let phase ?(seed = 11) ?trace cl f =
  Sched.run ~seed (fun () ->
      Coord.loopback_cluster ~config:Server.default_config cl.dbs
        (fun dialers ->
          let c = Coord.create ?trace ~wal:cl.cwal dialers in
          let r = f c dialers in
          Coord.close c;
          r))

(* Power loss: volatile state (open sessions, unforced tails) is gone;
   shards recover from their WALs — resurrecting in-doubt transactions
   with their locks — and the coordinator log drops its torn tail. The
   next [phase] makes the recovered engines shards again. *)
let crash_cluster cl =
  cl.dbs <- Array.map Database.crash cl.dbs;
  cl.cwal <- Wal.crash cl.cwal (Metrics.create ())

let digest_union cl =
  Array.iter (fun db -> ignore (Database.gc db)) cl.dbs;
  String.concat "|" (Array.to_list (Array.map Database.state_digest cl.dbs))

(* --- scripted workload ------------------------------------------------- *)

let setup_stmts =
  [
    "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)";
    "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
     USING ESCROW";
    (* DDL system transactions don't force the log on their own; the
       checkpoint makes the schema durable before any crash point *)
    "CHECKPOINT";
  ]

let run_setup c = List.iter (fun s -> ignore (Coord.exec c s)) setup_stmts

let keys_owned_by ~shards shard n =
  let rec go k acc remaining =
    if remaining = 0 then Array.of_list (List.rev acc)
    else if Coord.route_value ~shards (Value.Int k) = shard then
      go (k + 1) (k :: acc) (remaining - 1)
    else go (k + 1) acc remaining
  in
  go 0 [] n

(* [n] transactions, every one spanning both shards of a 2-shard
   cluster (one insert owned by each), so each COMMIT is a full 2PC
   round and global transaction [i+1] is script transaction [i]. *)
let script ~shards n =
  let a = keys_owned_by ~shards 0 n and b = keys_owned_by ~shards 1 n in
  List.init n (fun i ->
      [
        Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" a.(i) (i mod 3)
          (i + 1);
        Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" b.(i)
          ((i + 1) mod 3)
          (10 * (i + 1));
      ])

(* [n] transactions on a 3-shard cluster, each inserting a row on two
   shards and reading one on the third, a participant that votes
   read-only. The read finds the row transaction [i-1] inserted there;
   the first one's read finds nothing. Global transaction [i+1] is script
   transaction [i]. *)
let read_script n =
  let shards = 3 in
  let keys = Array.init shards (fun s -> keys_owned_by ~shards s (2 * n)) in
  let key i slot = keys.((i + slot) mod shards).((2 * i) + slot) in
  List.init n (fun i ->
      let read = if i = 0 then keys.(2).(0) else key (i - 1) 0 in
      [
        Printf.sprintf "SELECT * FROM t WHERE k = %d" read;
        Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" (key i 0) (i mod 3)
          (i + 1);
        Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" (key i 1)
          ((i + 1) mod 3)
          (10 * (i + 1));
      ])

let run_txn c stmts =
  ignore (Coord.exec c "BEGIN");
  List.iter (fun s -> ignore (Coord.exec c s)) stmts;
  ignore (Coord.exec c "COMMIT")

let run_script c txns = List.iter (run_txn c) txns

(* Global transaction ids decided committed in the coordinator's log
   ("coord:N" -> N), i.e. the transactions recovery is bound to
   preserve. *)
let committed_gids cwal =
  let acc = ref [] in
  Wal.iter_stable cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Decision { gtxn } -> (
          match String.rindex_opt gtxn ':' with
          | Some i -> (
              match
                int_of_string_opt
                  (String.sub gtxn (i + 1) (String.length gtxn - i - 1))
              with
              | Some n -> acc := n :: !acc
              | None -> ())
          | None -> ())
      | _ -> ());
  List.sort_uniq compare !acc

(* The coordinator log's 2PC records, in log order: "gids g" for a gid
   block reserved up to g, "commit g" for a decision record. *)
let coord_log cwal =
  let acc = ref [] in
  Wal.iter_stable cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Gid_block { last } -> acc := ("gids " ^ last) :: !acc
      | Log_record.Decision { gtxn } -> acc := ("commit " ^ gtxn) :: !acc
      | _ -> ());
  List.rev !acc

(* A shard's in-doubt gtxns, read as an operator would: sys.indoubt. *)
let indoubt_gtxns db =
  rows (Sql.exec (Sql.session db) "SELECT gtxn FROM sys.indoubt")
  |> List.map (function [| Value.Str g |] -> g | _ -> Alcotest.fail "gtxn row")

(* Serial reference: execute exactly [gids] of [txns], in order, on a
   fresh cluster — the state every recovery must land on. Memoised per
   committed set (sweeps revisit the same prefixes). *)
let reference cache ~shards txns gids =
  let key = String.concat "," (List.map string_of_int gids) in
  match Hashtbl.find_opt cache key with
  | Some d -> d
  | None ->
      let cl = fresh_cluster shards in
      phase cl (fun c _ ->
          run_setup c;
          List.iteri
            (fun i txn -> if List.mem (i + 1) gids then run_txn c txn)
            txns);
      let d = digest_union cl in
      Hashtbl.add cache key d;
      d

(* --- routing / escrow smoke -------------------------------------------- *)

let test_cluster_smoke () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c dialers ->
      run_setup c;
      check Alcotest.int "shard count" 2 (Coord.shard_count c);
      (* a multi-row INSERT splits by partition yet reports one count *)
      check Alcotest.int "all rows inserted" 5
        (affected
           (Coord.exec c
              "INSERT INTO t VALUES (0,'a',1),(1,'a',2),(2,'b',3),(3,'b',4),(4,'a',5)"));
      (* full scans fan out; ORDER BY/LIMIT re-applied after the merge *)
      check Alcotest.int "fan-out scan" 5
        (List.length (rows (Coord.exec c "SELECT k, grp, qty FROM t ORDER BY k")));
      (match rows (Coord.exec c "SELECT k, grp, qty FROM t ORDER BY k DESC LIMIT 2") with
      | [ [| Value.Int 4; _; _ |]; [| Value.Int 3; _; _ |] ] -> ()
      | _ -> Alcotest.fail "merged ORDER BY DESC LIMIT");
      (* pk = literal pins to the owning shard *)
      (match rows (Coord.exec c "SELECT qty FROM t WHERE k = 4") with
      | [ [| Value.Int 5 |] ] -> ()
      | _ -> Alcotest.fail "pinned point read");
      (* each shard holds a partial view; the coordinator combines them *)
      (match sort_rows (rows (Coord.exec c "SELECT * FROM v")) with
      | [
          [| Value.Str "a"; Value.Int 3; Value.Int 8 |];
          [| Value.Str "b"; Value.Int 2; Value.Int 7 |];
        ] -> ()
      | v ->
          Alcotest.failf "view contents after inserts: %d rows" (List.length v));
      (* pinned autocommit writes commit on their one shard *)
      check Alcotest.int "pinned update" 1
        (affected (Coord.exec c "UPDATE t SET qty = 14 WHERE k = 3"));
      check Alcotest.int "pinned delete" 1
        (affected (Coord.exec c "DELETE FROM t WHERE k = 2"));
      (* EXPLAIN of a write is answered by a shard's planner *)
      (match Coord.exec c "EXPLAIN DELETE FROM t WHERE k = 4" with
      | Sql.Message m -> check Alcotest.string "explain delete" "seq scan on t with filter" m
      | _ -> Alcotest.fail "expected a plan");
      (match sort_rows (rows (Coord.exec c "SELECT * FROM v")) with
      | [
          [| Value.Str "a"; Value.Int 3; Value.Int 8 |];
          [| Value.Str "b"; Value.Int 1; Value.Int 14 |];
        ] -> ()
      | _ -> Alcotest.fail "view contents after update+delete");
      ignore (Coord.exec c "CREATE TABLE u (k INT NOT NULL, x INT)");
      ignore (Coord.exec c "INSERT INTO u VALUES (0, 1)");
      let s = Coord.stats c in
      check Alcotest.int "the split insert ran 2PC" 1 s.Coord.cross_shard_commits;
      check Alcotest.int "its two participants prepared" 2 s.Coord.prepares_sent;
      check Alcotest.int "every one-shard write took the fast path" 3
        s.Coord.single_shard_commits;
      (* sys.shards: the coordinator concatenates every shard's row ... *)
      (match rows (Coord.exec c "SELECT * FROM sys.shards") with
      | [ [| Value.Int 0; Value.Int 2; Value.Str "participant"; _; _; _ |];
          [| Value.Int 1; Value.Int 2; Value.Str "participant"; _; _; _ |] ] ->
          ()
      | _ -> Alcotest.fail "sys.shards through the coordinator");
      (* ... and a direct connection to one shard shows just its own *)
      let cl0 = Client.connect dialers.(0) in
      (match rows (Client.exec cl0 "SELECT * FROM sys.shards") with
      | [ [| Value.Int 0; Value.Int 2; _; _; _; _ |] ] -> ()
      | _ -> Alcotest.fail "sys.shards on a shard connection");
      Client.close cl0)

let test_txn_semantics () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      (* a cross-shard transaction is atomic across both shards *)
      run_txn c (List.hd (script ~shards 1));
      check Alcotest.int "both legs landed" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      let s = Coord.stats c in
      check Alcotest.int "one 2PC commit" 1 s.Coord.cross_shard_commits;
      check Alcotest.int "prepare per participant" 2 s.Coord.prepares_sent;
      check Alcotest.int "decide per participant" 2 s.Coord.decides_sent;
      (* ROLLBACK undoes every shard's leg *)
      ignore (Coord.exec c "BEGIN");
      List.iter
        (fun s -> ignore (Coord.exec c s))
        (List.hd (script ~shards 2 |> List.tl));
      ignore (Coord.exec c "ROLLBACK");
      check Alcotest.int "rollback left no rows behind" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      (* cross-shard aggregation over a base table is refused with a hint *)
      (try
         ignore (Coord.exec c "SELECT grp, SUM(qty) FROM t GROUP BY grp");
         Alcotest.fail "expected Coord_error"
       with Coord.Coord_error m ->
         Alcotest.(check bool) "hint names indexed views" true
           (String.length m > 0)))

(* --- shard-local partial views ------------------------------------------ *)

(* A transaction whose rows all live on one shard commits there, whatever
   view groups its rows fall into: every shard maintains its own rows'
   view, so no other shard takes part. *)
let test_single_shard_write_skips_2pc () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      let ks = keys_owned_by ~shards 0 8 in
      run_txn c
        (List.init 8 (fun i ->
             Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', 1)" ks.(i) i));
      ignore
        (Coord.exec c (Printf.sprintf "UPDATE t SET qty = 2 WHERE k = %d" ks.(0)));
      let s = Coord.stats c in
      check Alcotest.int "no prepares" 0 s.Coord.prepares_sent;
      check Alcotest.int "both commits took the fast path" 2
        s.Coord.single_shard_commits;
      check Alcotest.int "every group visible" 8
        (List.length (rows (Coord.exec c "SELECT * FROM v"))))

let str = function Value.Str s -> s | v -> Value.to_string v

(* Base rows (k, grp, qty) grouped on grp, each group's qty folded by [f]. *)
let fold_base f (rows : Value.t array list) =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (r : Value.t array) ->
      let g = str r.(1) in
      Hashtbl.replace h g (f (Hashtbl.find_opt h g) (Value.to_int r.(2))))
    rows;
  Hashtbl.fold (fun g acc l -> (g, acc) :: l) h [] |> List.sort compare

(* the columns after grp of a COUNT/SUM view and of a MIN/MAX view *)
let count_sum acc q =
  match acc with
  | None -> [ 1; q ]
  | Some [ n; s ] -> [ n + 1; s + q ]
  | Some _ -> assert false

let count_min_max acc q =
  match acc with
  | None -> [ 1; q; q ]
  | Some [ n; lo; hi ] -> [ n + 1; min lo q; max hi q ]
  | Some _ -> assert false

let view_groups (rows : Value.t array list) =
  List.map
    (fun (r : Value.t array) ->
      (str r.(0), List.map Value.to_int (List.tl (Array.to_list r))))
    rows
  |> List.sort compare

(* V1 across the cluster: after a seeded script of inserts, pinned
   updates (moving rows between groups), deletes and rollbacks on three
   shards, every view read through the coordinator equals a GROUP BY
   fold of all base rows, and every shard's own view equals the fold of
   that shard's rows — for an escrow COUNT/SUM view, an exclusive MIN/MAX
   view and a deferred view. *)
let test_partial_views_v1 () =
  let shards = 3 in
  let cl = fresh_cluster shards in
  phase cl (fun c dialers ->
      List.iter
        (fun s -> ignore (Coord.exec c s))
        [
          "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)";
          "CREATE VIEW ve AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
           USING ESCROW";
          "CREATE VIEW vm AS SELECT grp, MIN(qty), MAX(qty) FROM t GROUP BY grp \
           USING EXCLUSIVE";
          "CREATE VIEW vd AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
           USING DEFERRED REFRESH THRESHOLD 0";
        ];
      let rng = Random.State.make [| 7 |] in
      let live = ref [] and next = ref 0 in
      for _ = 1 to 40 do
        ignore (Coord.exec c "BEGIN");
        let added = ref [] and gone = ref [] in
        for _ = 1 to 1 + Random.State.int rng 3 do
          let grp = Printf.sprintf "g%d" (Random.State.int rng 5) in
          let qty = 1 + Random.State.int rng 50 in
          match (Random.State.int rng 4, !live) with
          | (0 | 1), _ | _, [] ->
              incr next;
              added := !next :: !added;
              ignore
                (Coord.exec c
                   (Printf.sprintf "INSERT INTO t VALUES (%d, '%s', %d)" !next grp qty))
          | 2, l ->
              let k = List.nth l (Random.State.int rng (List.length l)) in
              ignore
                (Coord.exec c
                   (Printf.sprintf "UPDATE t SET grp = '%s', qty = %d WHERE k = %d"
                      grp qty k))
          | _, l ->
              let k = List.nth l (Random.State.int rng (List.length l)) in
              gone := k :: !gone;
              ignore (Coord.exec c (Printf.sprintf "DELETE FROM t WHERE k = %d" k))
        done;
        if Random.State.int rng 5 = 0 then ignore (Coord.exec c "ROLLBACK")
        else begin
          ignore (Coord.exec c "COMMIT");
          live := List.filter (fun k -> not (List.mem k !gone)) (!added @ !live)
        end
      done;
      (* a deferred view refreshes for a transactional reader *)
      let read exec v =
        ignore (exec "BEGIN");
        let r = rows (exec ("SELECT * FROM " ^ v)) in
        ignore (exec "COMMIT");
        view_groups r
      in
      let expect what exec base =
        check
          Alcotest.(list (pair string (list int)))
          (what ^ ": escrow COUNT/SUM") (fold_base count_sum base)
          (read exec "ve");
        check
          Alcotest.(list (pair string (list int)))
          (what ^ ": exclusive MIN/MAX") (fold_base count_min_max base)
          (read exec "vm");
        check
          Alcotest.(list (pair string (list int)))
          (what ^ ": deferred COUNT/SUM") (fold_base count_sum base)
          (read exec "vd")
      in
      let base = rows (Coord.exec c "SELECT * FROM t") in
      check Alcotest.int "every committed row is there" (List.length !live)
        (List.length base);
      expect "combined" (Coord.exec c) base;
      let partial_sums =
        Array.map
          (fun d ->
            let cl = Client.connect d in
            let own = rows (Client.exec cl "SELECT * FROM t") in
            expect "shard" (Client.exec cl) own;
            Client.close cl;
            fold_base count_sum own)
          dialers
      in
      (* a group whose combined sum beats every partial one *)
      let combined = fold_base count_sum base in
      let biggest_partial g =
        Array.fold_left
          (fun acc p ->
            match List.assoc_opt g p with Some [ _; s ] -> max acc s | _ -> acc)
          0 partial_sums
      in
      let g, n =
        List.find_map
          (fun (g, cs) ->
            let m = biggest_partial g in
            if List.nth cs 1 > m then Some (g, m) else None)
          combined
        |> Option.get
      in
      let above =
        view_groups
          (rows (Coord.exec c (Printf.sprintf "SELECT * FROM ve WHERE sum > %d" n)))
      in
      Alcotest.(check bool) "WHERE applies to the combined row" true
        (List.mem_assoc g above);
      check
        Alcotest.(list (pair string (list int)))
        "WHERE filters after the merge"
        (List.filter (fun (_, cs) -> List.nth cs 1 > n) combined)
        above;
      let top2 =
        rows (Coord.exec c "SELECT * FROM ve ORDER BY sum DESC LIMIT 2")
        |> List.map (fun (r : Value.t array) -> Value.to_int r.(2))
      in
      check Alcotest.(list int) "ORDER BY and LIMIT apply after the merge"
        (List.map (fun (_, cs) -> List.nth cs 1) combined
        |> List.sort (fun a b -> compare b a)
        |> List.filteri (fun i _ -> i < 2))
        top2)

(* Two aggregates of one kind get a column each (sum_a, sum_b), and the
   coordinator combines both by kind across the shards. *)
let test_two_sums_combine () =
  let cl = fresh_cluster 2 in
  phase cl (fun c dialers ->
      List.iter
        (fun s -> ignore (Coord.exec c s))
        [
          "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, a INT NOT NULL, b INT NOT NULL)";
          "CREATE VIEW v AS SELECT grp, SUM(a), SUM(b) FROM t GROUP BY grp USING ESCROW";
        ];
      for k = 0 to 9 do
        ignore
          (Coord.exec c
             (Printf.sprintf "INSERT INTO t VALUES (%d, '%s', %d, %d)" k
                (if k < 8 then "x" else "y") k (10 * k)))
      done;
      Array.iter
        (fun d ->
          let cl = Client.connect d in
          Alcotest.(check bool) "each shard holds part of group x" true
            (rows (Client.exec cl "SELECT * FROM t WHERE grp = 'x'") <> []);
          Client.close cl)
        dialers;
      (match Coord.exec c "SELECT * FROM v" with
      | Sql.Rows { header; rows } ->
          check Alcotest.(list string) "one name per column"
            [ "grp"; "count(*)"; "sum_a"; "sum_b" ] header;
          check
            Alcotest.(list (pair string (list int)))
            "both sums combined" [ ("x", [ 8; 28; 280 ]); ("y", [ 2; 17; 170 ]) ]
            (view_groups rows)
      | _ -> Alcotest.fail "expected Rows");
      check
        Alcotest.(list (pair string (list int)))
        "WHERE reads the second sum by name" [ ("x", [ 280 ]) ]
        (view_groups (rows (Coord.exec c "SELECT grp, sum_b FROM v WHERE sum_b > 200"))))

(* A shard joins only the rows it holds, so a join view is accepted only
   when both sides join on their partition columns. *)
let test_join_views_must_be_copartitioned () =
  let cl = fresh_cluster 2 in
  phase cl (fun c _ ->
      List.iter
        (fun s -> ignore (Coord.exec c s))
        [
          "CREATE TABLE o (oid INT NOT NULL, cust TEXT NOT NULL)";
          "CREATE TABLE i (iid INT NOT NULL, order_id INT NOT NULL, amt INT NOT NULL)";
          "CREATE TABLE li (order_id INT NOT NULL, amt INT NOT NULL)";
        ];
      (match
         Coord.exec c
           "CREATE VIEW jv AS SELECT cust, COUNT(*), SUM(amt) FROM o JOIN i ON \
            oid = order_id GROUP BY cust USING ESCROW"
       with
      | _ -> Alcotest.fail "a join off i's partition column was accepted"
      | exception Coord.Coord_error m ->
          Alcotest.(check bool) "the refusal names the partition columns" true
            (contains m "partition column"));
      ignore
        (Coord.exec c
           "CREATE VIEW jv AS SELECT cust, COUNT(*), SUM(amt) FROM o JOIN li ON \
            oid = order_id GROUP BY cust USING ESCROW");
      ignore
        (Coord.exec c
           "INSERT INTO o VALUES (1, 'ada'), (2, 'bob'), (3, 'cy'), (4, 'di')");
      ignore
        (Coord.exec c
           "INSERT INTO li VALUES (1, 10), (1, 20), (2, 5), (2, 2), (3, 7), (4, 1)");
      Alcotest.(check bool) "the orders span both shards" true
        (List.length
           (List.sort_uniq compare
              (List.init 4 (fun k -> Coord.route_value ~shards:2 (Value.Int (k + 1)))))
        = 2);
      check
        Alcotest.(list (pair string (list int)))
        "the combined join view"
        [ ("ada", [ 2; 30 ]); ("bob", [ 2; 7 ]); ("cy", [ 1; 7 ]); ("di", [ 1; 1 ]) ]
        (view_groups (rows (Coord.exec c "SELECT * FROM jv"))))

(* --- coordinator crash at every protocol action ------------------------ *)

let coordinator_crash_sweep ~shards txns () =
  let total =
    let cl = fresh_cluster shards in
    phase cl (fun c _ ->
        run_setup c;
        run_script c txns;
        Coord.actions c)
  in
  Alcotest.(check bool) "sweep has points" true (total > 0);
  let cache = Hashtbl.create 8 in
  let saw_indoubt = ref false in
  for n = 1 to total do
    let cl = fresh_cluster shards in
    let crashed =
      try
        phase cl (fun c _ ->
            Coord.set_crash_at_action c (Some n);
            run_setup c;
            run_script c txns;
            false)
      with Fault.Crash_point _ -> true
    in
    if not crashed then
      Alcotest.failf "action %d: armed trigger did not fire" n;
    crash_cluster cl;
    if Array.exists (fun db -> Database.indoubt_count db > 0) cl.dbs then
      saw_indoubt := true;
    phase cl (fun c _ -> ignore (Coord.recover c));
    Array.iteri
      (fun i db ->
        check Alcotest.int
          (Printf.sprintf "action %d: shard %d fully resolved" n i)
          0
          (Database.indoubt_count db))
      cl.dbs;
    let gids = committed_gids cl.cwal in
    check Alcotest.string
      (Printf.sprintf "action %d: digest union = serial prefix %s" n
         (String.concat "," (List.map string_of_int gids)))
      (reference cache ~shards txns gids)
      (digest_union cl)
  done;
  Alcotest.(check bool) "some crash left a shard in doubt" true !saw_indoubt

(* --- participant crash at every WAL force ------------------------------ *)

let participant_run ~shards ~txns fcfg =
  let cl = fresh_cluster shards in
  (* setup is not part of the sweep: its DDL forces are counted first
     and the armed trigger aimed past them, so every point lands inside
     the 2PC protocol *)
  Database.install_fault cl.dbs.(0) fcfg;
  let crashed =
    try
      phase cl (fun c _ ->
          run_setup c;
          run_script c txns;
          false)
    with Fault.Crash_point _ -> true
  in
  (cl, crashed)

let participant_crash_sweep ~shards txns () =
  (* unarmed counting runs: forces during setup alone, then in total *)
  let setup_forces =
    let cl = fresh_cluster shards in
    Database.install_fault cl.dbs.(0) Fault.no_faults;
    phase cl (fun c _ -> run_setup c);
    Fault.forces_seen (Database.fault_plan cl.dbs.(0))
  in
  let total_forces =
    let cl, crashed = participant_run ~shards ~txns Fault.no_faults in
    Alcotest.(check bool) "counting run survived" false crashed;
    Fault.forces_seen (Database.fault_plan cl.dbs.(0))
  in
  Alcotest.(check bool) "workload forces past setup" true
    (total_forces > setup_forces);
  let cache = Hashtbl.create 8 in
  let sweep_point fcfg desc =
    let cl, crashed = participant_run ~shards ~txns fcfg in
    if not crashed then Alcotest.failf "%s: armed trigger did not fire" desc;
    crash_cluster cl;
    phase cl (fun c _ -> ignore (Coord.recover c));
    Array.iteri
      (fun i db ->
        check Alcotest.int
          (Printf.sprintf "%s: shard %d fully resolved" desc i)
          0
          (Database.indoubt_count db))
      cl.dbs;
    let gids = committed_gids cl.cwal in
    check Alcotest.string
      (Printf.sprintf "%s: digest union = serial prefix" desc)
      (reference cache ~shards txns gids)
      (digest_union cl)
  in
  for k = setup_forces + 1 to total_forces do
    sweep_point
      { Fault.no_faults with crash_at_force = Some k }
      (Printf.sprintf "clean participant crash at force %d" k);
    sweep_point
      {
        Fault.no_faults with
        fault_seed = k;
        crash_at_force = Some k;
        torn_tail = true;
      }
      (Printf.sprintf "torn participant crash at force %d" k)
  done

(* --- retransmits ------------------------------------------------------- *)

(* A dialer whose connections can be told to die right before
   delivering the next reply: the request reaches the server, the
   response is lost — exactly the window where a blind resend could
   double-prepare. The yields let the server consume and process the
   in-flight request before the line is cut. *)
let flaky_dialer (inner : Transport.dialer) drop_next =
  {
    Transport.addr = inner.Transport.addr ^ "+flaky";
    dial =
      (fun () ->
        let c = inner.Transport.dial () in
        {
          c with
          Transport.read =
            (fun buf off len ->
              if !drop_next then begin
                drop_next := false;
                for _ = 1 to 200 do
                  Sched.yield ()
                done;
                c.Transport.close ();
                0
              end
              else c.Transport.read buf off len);
        });
  }

let test_retransmit_dedupe () =
  let db = Database.create () in
  Coord.configure_shard db ~shard:0 ~shards:1;
  Sched.run ~seed:5 (fun () ->
      let net = Transport.Loopback.create ~backlog:64 () in
      let srv = Server.create db (Transport.Loopback.listener net) in
      Server.serve srv;
      let drop = ref false in
      let cl = Client.connect (flaky_dialer (Transport.Loopback.dialer net) drop) in
      ignore (Client.exec cl "CREATE TABLE t (k INT NOT NULL, x INT)");
      ignore (Client.exec cl "BEGIN");
      ignore (Client.exec cl "INSERT INTO t VALUES (1, 10)");
      (* the Prepare lands, the Prepared ack dies with the connection *)
      drop := true;
      (try
         ignore (Client.prepare_2pc cl ~gtxn:"g:1");
         Alcotest.fail "expected Disconnected"
       with Client.Disconnected _ -> ());
      (* the coordinator-style resend is answered from the in-doubt
         table on a fresh session — not re-executed *)
      Alcotest.(check bool) "the resend votes yes from the table" true
        (Client.prepare_2pc cl ~gtxn:"g:1" = `Prepared);
      check Alcotest.int "prepared exactly once" 1
        (Metrics.get (Database.metrics db) "shard.prepared");
      (* same for the decision: the ack dies, the resend is a no-op *)
      drop := true;
      (try
         Client.decide_2pc cl ~gtxn:"g:1" ~committed:true;
         Alcotest.fail "expected Disconnected"
       with Client.Disconnected _ -> ());
      Client.decide_2pc cl ~gtxn:"g:1" ~committed:true;
      check Alcotest.int "committed exactly once" 1
        (List.length (rows (Client.exec cl "SELECT k FROM t")));
      check Alcotest.int "nothing left in doubt" 0 (Database.indoubt_count db);
      (* the shard keeps nothing once the gtxn is decided: a third commit
         Decide is a duplicate by rule and changes nothing *)
      Alcotest.(check bool) "decided gtxn forgotten" true
        (Database.gtxn_status db "g:1" = `Unknown);
      Alcotest.(check bool) "third commit Decide is a duplicate" true
        (Database.decide_2pc db ~gtxn:"g:1" ~committed:true = `Duplicate);
      check Alcotest.int "the duplicate changed no rows" 1
        (List.length (rows (Client.exec cl "SELECT k FROM t")));
      check Alcotest.int "decided exactly once" 1
        (Metrics.get (Database.metrics db) "shard.decided");
      Alcotest.(check bool) "two reconnects behind the retries" true
        (Client.reconnects cl = 2);
      Client.close cl;
      Server.drain srv)

(* A Prepare on a session with no open transaction is a No vote: there is
   nothing of this gtxn's on the shard to prepare, and preparing an empty
   transaction would vote yes for work the shard never did. *)
let test_prepare_without_txn_votes_no () =
  let db = Database.create () in
  Coord.configure_shard db ~shard:0 ~shards:1;
  Sched.run ~seed:5 (fun () ->
      let net = Transport.Loopback.create ~backlog:64 () in
      let srv = Server.create db (Transport.Loopback.listener net) in
      Server.serve srv;
      let cl = Client.connect (Transport.Loopback.dialer net) in
      (match Client.prepare_2pc cl ~gtxn:"g:1" with
      | _ -> Alcotest.fail "a Prepare with no open transaction voted yes"
      | exception Client.Server_error _ -> ());
      check Alcotest.int "nothing in doubt" 0 (Database.indoubt_count db);
      Alcotest.(check bool) "the gtxn is unknown to the shard" true
        (Database.gtxn_status db "g:1" = `Unknown);
      Client.close cl;
      Server.drain srv)

(* --- prepare lost before the shard sees it ------------------------------ *)

(* A dialer whose connections silently drop selected outbound frames:
   the [k]-th write containing [needle] never reaches the server and the
   line dies — a connection failure BEFORE the shard processes the frame
   (the flaky dialer above covers failure after). *)
let black_hole_dialer (inner : Transport.dialer) needle drops =
  let seen = ref 0 in
  {
    inner with
    Transport.dial =
      (fun () ->
        let c = inner.Transport.dial () in
        {
          c with
          Transport.write =
            (fun s ->
              if contains s needle then begin
                incr seen;
                if List.mem !seen !drops then c.Transport.close ()
                else c.Transport.write s
              end
              else c.Transport.write s);
        });
  }

(* The regression the review found: when an op shard's connection dies
   before the server processes the Prepare, the disconnect rolls the
   shard's session transaction back — a blind resend would prepare a
   brand-new empty transaction and vote yes, silently committing a
   partial transaction. The coordinator must treat the dead line as a No
   vote and abort everywhere. *)
let cross_shard_cluster seed f =
  let dbs = Array.init 2 (fun _ -> Database.create ()) in
  Sched.run ~seed (fun () ->
      Coord.loopback_cluster ~config:Server.default_config dbs (f dbs))

(* The coordinator answers a view SELECT — projection, WHERE, ORDER BY,
   LIMIT, NULL aggregates — exactly as one engine holding all the rows
   does. *)
let test_views_match_one_engine () =
  let engine = Sql.session (Database.create ()) in
  cross_shard_cluster 43 (fun _ dialers ->
      let c = Coord.create dialers in
      let both sql =
        ignore (Sql.exec engine sql);
        ignore (Coord.exec c sql)
      in
      both "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT)";
      both
        "CREATE VIEW ve AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
         USING ESCROW";
      both
        "CREATE VIEW vm AS SELECT grp, COUNT(qty), MIN(qty), MAX(qty) FROM t \
         GROUP BY grp USING EXCLUSIVE";
      let rng = Random.State.make [| 5 |] in
      for k = 0 to 39 do
        let qty =
          if Random.State.int rng 4 = 0 then "NULL"
          else string_of_int (Random.State.int rng 30)
        in
        both
          (Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %s)" k
             (Random.State.int rng 6) qty)
      done;
      for k = 0 to 9 do
        both (Printf.sprintf "DELETE FROM t WHERE k = %d" (k * 3))
      done;
      both "UPDATE t SET qty = NULL WHERE grp = 'g4'";
      (* a group every row has left *)
      both "DELETE FROM t WHERE grp = 'g5'";
      List.iter
        (fun sql ->
          check Alcotest.string sql
            (Sql.render (Sql.exec engine sql))
            (Sql.render (Coord.exec c sql)))
        [
          "SELECT * FROM ve";
          "SELECT * FROM vm";
          "SELECT grp FROM ve";
          "SELECT sum, grp FROM ve WHERE sum > 20 ORDER BY sum DESC";
          "SELECT grp, count FROM vm WHERE min IS NULL OR max < 20 ORDER BY count LIMIT 3";
          "SELECT max, min FROM vm WHERE grp <> 'g1' ORDER BY max DESC LIMIT 2";
          "SELECT * FROM ve WHERE sum IS NULL";
          "SELECT grp FROM vm WHERE NOT (max >= 10) ORDER BY grp DESC";
          "SELECT * FROM ve ORDER BY sum LIMIT 1";
        ];
      Coord.close c)

(* An operand of the wrong type — evaluated on a shard, or by the
   coordinator over a combined view — is answered E_sql; the connection
   and its transaction carry on. *)
let test_ill_typed_through_coord () =
  cross_shard_cluster 47 (fun _ dialers ->
      let c = Coord.create dialers in
      let cnet = Transport.Loopback.create ~backlog:16 () in
      let csrv = Coord.server c (Transport.Loopback.listener cnet) in
      Server.serve csrv;
      let cl = Client.connect (Transport.Loopback.dialer cnet) in
      ignore (Client.exec cl "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, x INT)");
      ignore
        (Client.exec cl
           "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(x) FROM t GROUP BY grp USING ESCROW");
      ignore (Client.exec cl "INSERT INTO t VALUES (0, 'a', 1), (1, 'b', 1)");
      List.iter
        (fun in_txn ->
          if in_txn then ignore (Client.exec cl "BEGIN");
          List.iter
            (fun sql ->
              (try
                 ignore (Client.exec cl sql);
                 Alcotest.failf "expected Server_error for %s" sql
               with Client.Server_error { code; txn_open; _ } ->
                 check Alcotest.string sql "sql" (Ivdb_wire.Wire.error_code_name code);
                 Alcotest.(check bool) (sql ^ ": txn_open") in_txn txn_open);
              check Alcotest.int (sql ^ ": the connection serves the next statement") 2
                (List.length (rows (Client.exec cl "SELECT * FROM t WHERE x = 1"))))
            [
              "SELECT * FROM t WHERE k AND 1";
              "SELECT * FROM t WHERE grp + 1 > 2";
              "UPDATE t SET x = grp + 1";
              "SELECT * FROM v WHERE grp + 1 > 0";
              "SELECT grp FROM v WHERE sum AND TRUE";
            ];
          if in_txn then ignore (Client.exec cl "COMMIT"))
        [ false; true ];
      Client.close cl;
      Coord.close c;
      Server.drain csrv)

let test_prepare_loss_aborts () =
  let shards = 2 in
  cross_shard_cluster 13 (fun dbs dialers ->
      let drops = ref [] and drops3 = ref [] in
      let dialers =
        Array.mapi
          (fun i d ->
            if i = 0 then
              black_hole_dialer (black_hole_dialer d "coord:1" drops) "coord:3" drops3
            else d)
          dialers
      in
      let c = Coord.create dialers in
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      let k0 = (keys_owned_by ~shards 0 1).(0)
      and k1 = (keys_owned_by ~shards 1 1).(0) in
      let legs =
        [
          Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0;
          Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1;
        ]
      in
      ignore (Coord.exec c "BEGIN");
      List.iter (fun s -> ignore (Coord.exec c s)) legs;
      (* the first 2PC frame carrying this gtxn — shard 0's Prepare, the
         one whose session transaction holds the shard's DML — vanishes *)
      drops := [ 1 ];
      let forces () = Metrics.get (Coord.metrics c) "log.force" in
      let forces0 = forces () in
      (try
         ignore (Coord.exec c "COMMIT");
         Alcotest.fail "expected the transaction to abort"
       with Coord.Coord_error _ -> ());
      (* presumed abort: the round's one force reserves the first gid
         block; there is no begin record and no decision record *)
      check Alcotest.int "one coordinator force" 1 (forces () - forces0);
      check
        Alcotest.(list string)
        "the coordinator log" [ "gids coord:1024" ] (coord_log (Coord.wal c));
      (* atomicity: no leg survived anywhere, nothing left in doubt *)
      check Alcotest.int "no partial commit" 0
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d not in doubt" i)
            0
            (Database.indoubt_count db))
        dbs;
      check Alcotest.int "the abort was counted" 1 (Coord.stats c).Coord.aborts;
      (* the coordinator session survives: the same work then commits,
         forcing its commit record and nothing else *)
      let forces0 = forces () in
      run_txn c legs;
      check Alcotest.int "a commit forces one coordinator record" 1
        (forces () - forces0);
      check
        Alcotest.(list string)
        "the coordinator log after the commit"
        [ "gids coord:1024"; "commit coord:2" ]
        (coord_log (Coord.wal c));
      check Alcotest.int "retried transaction landed both legs" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      (* with the gid block reserved, an abort forces nothing at all *)
      let k0' = (keys_owned_by ~shards 0 2).(1)
      and k1' = (keys_owned_by ~shards 1 2).(1) in
      ignore (Coord.exec c "BEGIN");
      ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 3)" k0'));
      ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 4)" k1'));
      drops3 := [ 1 ];
      let forces0 = forces () in
      (try
         ignore (Coord.exec c "COMMIT");
         Alcotest.fail "expected the transaction to abort"
       with Coord.Coord_error _ -> ());
      check Alcotest.int "an abort forces no coordinator record" 0
        (forces () - forces0);
      check Alcotest.int "the aborted legs are gone" 2
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* --- decision re-delivery without an explicit recover ------------------- *)

let test_decision_redelivery () =
  let shards = 2 in
  cross_shard_cluster 17 (fun dbs dialers ->
      let drops = ref [] in
      let dialers =
        Array.mapi
          (fun i d -> if i = 1 then black_hole_dialer d "coord:1" drops else d)
          dialers
      in
      let c = Coord.create dialers in
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      let k0 = keys_owned_by ~shards 0 2 and k1 = keys_owned_by ~shards 1 1 in
      (* shard 1's frames with this gtxn: Prepare (#1, delivered), then
         the Decide and its one retry (#2, #3) both vanish — the commit
         succeeds but shard 1 is left in doubt, holding its locks *)
      drops := [ 2; 3 ];
      run_txn c
        [
          Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(0);
          Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1.(0);
        ];
      check Alcotest.int "undelivered decision leaves shard 1 in doubt" 1
        (Database.indoubt_count dbs.(1));
      (* the next commit re-delivers the logged decision first — no
         operator recover() needed *)
      ignore
        (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 3)" k0.(1)));
      check Alcotest.int "re-delivery resolved the in-doubt txn" 0
        (Database.indoubt_count dbs.(1));
      check Alcotest.int "all three rows visible" 3
        (List.length (rows (Coord.exec c "SELECT k FROM t")));
      Coord.close c)

(* An aborting round — shard 0's Prepare is lost, as in
   test_prepare_loss_aborts — crashed at each of its actions: the gid
   block force, the Prepare, the Decide. After a power cycle and recovery
   no shard is in doubt, no leg survives anywhere, and the coordinator
   log holds no decision record: recovery reads the missing decision as
   abort and writes nothing. *)
let test_abort_round_crash_sweep () =
  let shards = 2 in
  let k0 = (keys_owned_by ~shards 0 1).(0) and k1 = (keys_owned_by ~shards 1 1).(0) in
  let legs =
    [
      Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0;
      Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1;
    ]
  in
  (* the aborting round on a fresh cluster, armed [n] actions into its
     COMMIT: the round's action count, or the crash *)
  let round cl n =
    Sched.run ~seed:13 (fun () ->
        Coord.loopback_cluster ~config:Server.default_config cl.dbs
          (fun dialers ->
            let drops = ref [] in
            let dialers =
              Array.mapi
                (fun i d -> if i = 0 then black_hole_dialer d "coord:1" drops else d)
                dialers
            in
            let c = Coord.create ~wal:cl.cwal dialers in
            ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
            ignore (Coord.exec c "CHECKPOINT");
            ignore (Coord.exec c "BEGIN");
            List.iter (fun s -> ignore (Coord.exec c s)) legs;
            drops := [ 1 ];
            let a0 = Coord.actions c in
            Coord.set_crash_at_action c (Option.map (fun n -> a0 + n) n);
            (try
               ignore (Coord.exec c "COMMIT");
               Alcotest.fail "expected the transaction to abort"
             with Coord.Coord_error _ -> ());
            let n = Coord.actions c - a0 in
            Coord.close c;
            n))
  in
  check Alcotest.int "gid block force, Prepare, Decide" 3
    (round (fresh_cluster shards) None);
  for n = 1 to 3 do
    let cl = fresh_cluster shards in
    (match round cl (Some n) with
    | _ -> Alcotest.failf "action %d: armed trigger did not fire" n
    | exception Fault.Crash_point _ -> ());
    crash_cluster cl;
    phase cl (fun c _ -> ignore (Coord.recover c));
    Array.iteri
      (fun i db ->
        check Alcotest.int
          (Printf.sprintf "action %d: shard %d not in doubt" n i)
          0 (Database.indoubt_count db))
      cl.dbs;
    check Alcotest.int
      (Printf.sprintf "action %d: no leg survived" n)
      0
      (phase cl (fun c _ -> List.length (rows (Coord.exec c "SELECT k FROM t"))));
    Alcotest.(check bool)
      (Printf.sprintf "action %d: no decision record" n)
      true
      (List.for_all
         (fun r -> not (String.starts_with ~prefix:"commit " r))
         (coord_log cl.cwal))
  done

(* A coordinator over a copy of a log that holds committed gtxns — as
   each of perfbench's session coordinators starts — sends no Decide
   until [recover] is called: the first Decide frames any shard sees are
   its own first commit's. *)
let test_restart_sends_nothing_before_recover () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      run_script c (script ~shards 2));
  check Alcotest.(list string) "two committed gtxns"
    [ "gids coord:1024"; "commit coord:1"; "commit coord:2" ]
    (coord_log cl.cwal);
  let decides = ref [] in
  Array.iter
    (fun db ->
      let tr = Database.trace db in
      Trace.add_sink tr (fun r ->
          match r.Trace.event with
          | Trace.Twopc_decide { gtxn; _ } -> decides := gtxn :: !decides
          | _ -> ());
      Trace.set_enabled tr true)
    cl.dbs;
  let a = keys_owned_by ~shards 0 4 and b = keys_owned_by ~shards 1 4 in
  Sched.run ~seed:11 (fun () ->
      Coord.loopback_cluster ~config:Server.default_config cl.dbs
        (fun dialers ->
          let c =
            Coord.create ~name:"w1" ~wal:(Wal.crash cl.cwal (Metrics.create ()))
              dialers
          in
          (* a one-shard commit first, then the first 2PC commit *)
          ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 'g0', 1)" a.(3)));
          check Alcotest.int "no Decide for a one-shard commit" 0
            (List.length !decides);
          run_txn c
            [
              Printf.sprintf "INSERT INTO t VALUES (%d, 'g0', 1)" a.(2);
              Printf.sprintf "INSERT INTO t VALUES (%d, 'g1', 2)" b.(2);
            ];
          Coord.close c));
  check Alcotest.(list string) "only the new gtxn's Decides" [ "w1:1"; "w1:1" ]
    !decides

(* Coordinators sharing one registry add up in the in-doubt gauge: each
   leaves one decision undelivered, and the gauge counts both, then drops
   back as the next commit of each re-delivers its own. *)
let test_indoubt_gauge_is_shared () =
  let shards = 2 in
  cross_shard_cluster 19 (fun dbs dialers ->
      let m = Metrics.create () in
      let k0 = keys_owned_by ~shards 0 4 and k1 = keys_owned_by ~shards 1 2 in
      let coordinator name =
        let drops = ref [] in
        let dialers =
          Array.mapi
            (fun i d ->
              if i = 1 then black_hole_dialer d (name ^ ":1") drops else d)
            dialers
        in
        (Coord.create ~name ~metrics:m dialers, drops)
      in
      let a, drops_a = coordinator "ca" in
      let b, drops_b = coordinator "cb" in
      ignore (Coord.exec a "CREATE TABLE t (k INT NOT NULL, x INT)");
      List.iteri
        (fun j (c, drops) ->
          (* shard 1's Decide and its one retry vanish, as in
             test_decision_redelivery *)
          drops := [ 2; 3 ];
          run_txn c
            [
              Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k0.(j);
              Printf.sprintf "INSERT INTO t VALUES (%d, 2)" k1.(j);
            ])
        [ (a, drops_a); (b, drops_b) ];
      check Alcotest.int "shard 1 holds both in doubt" 2
        (Database.indoubt_count dbs.(1));
      check Alcotest.int "the gauge counts both coordinators" 2
        (Metrics.get m "coord.indoubt");
      List.iteri
        (fun j c ->
          ignore
            (Coord.exec c
               (Printf.sprintf "INSERT INTO t VALUES (%d, 3)" k0.(2 + j))))
        [ a; b ];
      check Alcotest.int "re-delivery resolved both" 0
        (Database.indoubt_count dbs.(1));
      check Alcotest.int "the gauge is back to zero" 0
        (Metrics.get m "coord.indoubt");
      Coord.close a;
      Coord.close b)

(* A participant's decision is its own Commit or Abort record. One
   prepared transaction is decided commit and the crash lands after its
   Commit force; another is decided abort and the crash lands with its
   Abort record stable but its rollback not. Both restart settled and not
   in doubt. The shard remembers neither gtxn: a re-sent commit is a
   duplicate and a re-sent abort is presumed-abort, and neither appends a
   log record or changes a row. *)
let test_participant_outcomes_survive_restart () =
  let db = Database.create () in
  let s = Sql.session db in
  ignore (Sql.exec s "CREATE TABLE t (k INT NOT NULL, x INT)");
  ignore (Sql.exec s "CHECKPOINT");
  let prepare gtxn k =
    ignore (Sql.exec s "BEGIN");
    ignore (Sql.exec s (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k));
    if Sql.prepare_2pc s ~gtxn <> `Prepared then Alcotest.failf "%s: not prepared" gtxn
  in
  prepare "g:commit" 1;
  prepare "g:abort" 2;
  let decide gtxn committed =
    match Database.decide_2pc db ~gtxn ~committed with
    | `Applied -> ()
    | _ -> Alcotest.failf "%s: decision not applied" gtxn
  in
  let appends () = Metrics.get (Database.metrics db) "log.append" in
  let a0 = appends () in
  decide "g:commit" true;
  check Alcotest.int "a commit decision appends Commit and End only" 2
    (appends () - a0);
  let wal = Database.wal db in
  let from = Wal.flushed_lsn wal + 1 in
  decide "g:abort" false;
  let rec abort_lsn l =
    if l > Wal.last_lsn wal then Alcotest.fail "no Abort record"
    else
      match (Wal.get wal l).Log_record.body with
      | Log_record.Abort -> l
      | _ -> abort_lsn (l + 1)
  in
  Wal.force wal (abort_lsn from);
  Alcotest.(check bool) "the rollback is not stable" true
    (Wal.flushed_lsn wal < Wal.last_lsn wal);
  let db = Database.crash db in
  check Alcotest.int "nothing in doubt" 0 (Database.indoubt_count db);
  Wal.iter_stable (Database.wal db) (fun r ->
      match r.Log_record.body with
      | Log_record.Decision _ -> Alcotest.fail "a participant logged a Decision"
      | _ -> ());
  let appends () = Metrics.get (Database.metrics db) "log.append" in
  let count () = List.length (rows (Sql.exec (Sql.session db) "SELECT k FROM t")) in
  check Alcotest.int "only the committed row survived" 1 (count ());
  let a0 = appends () in
  List.iter
    (fun (gtxn, committed, answer) ->
      Alcotest.(check bool)
        (gtxn ^ " re-sent is answered by rule") true
        (Database.decide_2pc db ~gtxn ~committed = answer))
    [ ("g:commit", true, `Duplicate); ("g:abort", false, `Presumed_abort) ];
  check Alcotest.int "the re-sends appended nothing" 0 (appends () - a0);
  check Alcotest.int "the re-sends changed no rows" 1 (count ())

(* --- read-only participants ----------------------------------------------- *)

let has_prepare_record db =
  let w = Database.wal db in
  let rec go l =
    l <= Wal.last_lsn w
    && (match (Wal.get w l).Log_record.body with
       | Log_record.Prepare _ -> true
       | _ -> go (l + 1))
  in
  go (Wal.first_lsn w)

(* A gtxn that reads on shard 0 and writes on shards 1 and 2. Shard 0
   votes read-only: its part commits at Prepare, so a conflicting writer
   there proceeds while the writers still wait for the decision, and it
   gets no Decide and logs no Prepare record. A gtxn that only reads
   forces no coordinator record. *)
let test_read_only_participant () =
  let shards = 3 in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let decides = Array.make shards 0 in
  Array.iteri
    (fun i db ->
      let tr = Database.trace db in
      Trace.add_sink tr (fun r ->
          match r.Trace.event with
          | Trace.Twopc_decide _ -> decides.(i) <- decides.(i) + 1
          | _ -> ());
      Trace.set_enabled tr true)
    dbs;
  let k s n = (keys_owned_by ~shards s (n + 1)).(n) in
  Sched.run ~seed:53 (fun () ->
      Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
          (* each writer's Decide for ro:1 and its one retry vanish, so the
             decision reaches neither writer until the next commit *)
          let drops = ref [] in
          let dialers =
            Array.mapi
              (fun i d -> if i > 0 then black_hole_dialer d "ro:1" drops else d)
              dialers
          in
          let c = Coord.create ~name:"ro" dialers in
          let exec sql = ignore (Coord.exec c sql) in
          exec "CREATE TABLE t (k INT NOT NULL, x INT)";
          exec (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" (k 0 0));
          exec (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" (k 1 0));
          drops := [ 2; 3 ];
          run_txn c
            [
              Printf.sprintf "SELECT * FROM t WHERE k = %d" (k 0 0);
              Printf.sprintf "INSERT INTO t VALUES (%d, 1)" (k 1 1);
              Printf.sprintf "INSERT INTO t VALUES (%d, 2)" (k 2 0);
            ];
          (match rows (Coord.exec c "SELECT votes, undelivered FROM sys.gtxns") with
          | [ [| Value.Str "0:read-only,1:yes,2:yes"; Value.Int 2 |] ] -> ()
          | _ -> Alcotest.fail "sys.gtxns: shard 0 voted read-only");
          check Alcotest.(list (list string)) "only the writers are in doubt"
            [ []; [ "ro:1" ]; [ "ro:1" ] ]
            (Array.to_list (Array.map indoubt_gtxns dbs));
          (* a writer on the row the gtxn read is not blocked *)
          let w = Coord.session c in
          ignore (Coord.exec w "BEGIN");
          check Alcotest.int "the conflicting UPDATE ran" 1
            (affected
               (Coord.exec w (Printf.sprintf "UPDATE t SET x = 9 WHERE k = %d" (k 0 0))));
          check Alcotest.int "while both writers wait for the decision" 2
            (Database.indoubt_count dbs.(1) + Database.indoubt_count dbs.(2));
          (* its commit re-delivers the decision to the writers only *)
          ignore (Coord.exec w "COMMIT");
          Coord.close w;
          check Alcotest.(list int) "Decides: none for the reader" [ 0; 1; 1 ]
            (Array.to_list decides);
          Alcotest.(check (list bool)) "Prepare records: none on the reader"
            [ false; true; true ]
            (Array.to_list (Array.map has_prepare_record dbs));
          check Alcotest.int "the gtxn's writes landed" 4
            (List.length (rows (Coord.exec c "SELECT k FROM t")));
          (* a gtxn that only reads: every participant votes read-only,
             and the coordinator forces nothing and sends no Decide *)
          let forces () = Metrics.get (Coord.metrics c) "log.force" in
          let forces0 = forces () in
          run_txn c
            [
              Printf.sprintf "SELECT * FROM t WHERE k = %d" (k 0 0);
              Printf.sprintf "SELECT * FROM t WHERE k = %d" (k 1 0);
            ];
          check Alcotest.int "an all-read-only commit forces nothing" 0
            (forces () - forces0);
          (match rows (Coord.exec c "SELECT gtxn, phase, votes FROM sys.gtxns") with
          | [| Value.Str "ro:2"; Value.Str "committed"; Value.Str "0:read-only,1:read-only" |]
            :: _ -> ()
          | _ -> Alcotest.fail "sys.gtxns: an all-read-only gtxn");
          check Alcotest.(list int) "and sent no Decide" [ 0; 1; 1 ]
            (Array.to_list decides);
          Coord.close c))

(* A restarted coordinator never hands out a gid a shard may still hold
   in doubt. The coordinator crashes after shard 0 prepared coord:1 and
   before shard 1 did. Shard 0 is down while the restarted coordinator
   recovers and commits new gtxns on shards 1 and 2. Once shard 0 is
   back, the next commit asks it again: coord:1 aborts there, and a new
   gtxn on shard 0 is prepared for real, not answered from the in-doubt
   table. A reused gid would have read the new gtxn's commit record as
   coord:1's. *)
let test_gids_never_reused () =
  let shards = 3 in
  let cl = fresh_cluster shards in
  let keys = Array.init shards (fun s -> keys_owned_by ~shards s 4) in
  let ins s n = Printf.sprintf "INSERT INTO t VALUES (%d, %d)" keys.(s).(n) n in
  (match
     phase cl (fun c _ ->
         ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
         ignore (Coord.exec c "CHECKPOINT");
         (* actions: the gid block (1), Prepare to shard 0 (2), then the
            crash at the Prepare to shard 1 *)
         Coord.set_crash_at_action c (Some (Coord.actions c + 3));
         run_txn c [ ins 0 0; ins 1 0 ])
   with
  | () -> Alcotest.fail "armed trigger did not fire"
  | exception Fault.Crash_point _ -> ());
  crash_cluster cl;
  check Alcotest.(list string) "shard 0 holds coord:1 in doubt" [ "coord:1" ]
    (indoubt_gtxns cl.dbs.(0));
  let down = ref false in
  let prepared () = Metrics.get (Database.metrics cl.dbs.(0)) "shard.prepared" in
  let prepared0 = prepared () in
  let gids =
    Sched.run ~seed:11 (fun () ->
        Coord.loopback_cluster ~config:Server.default_config cl.dbs
          (fun dialers ->
            let dialers =
              Array.mapi
                (fun i (d : Transport.dialer) ->
                  if i > 0 then d
                  else
                    {
                      d with
                      Transport.dial =
                        (fun () ->
                          let conn = d.Transport.dial () in
                          {
                            conn with
                            Transport.write =
                              (fun s ->
                                if !down then conn.Transport.close ()
                                else conn.Transport.write s);
                          });
                    })
                dialers
            in
            let c = Coord.create ~wal:cl.cwal dialers in
            down := true;
            check Alcotest.int "recovery cannot reach shard 0" 0 (Coord.recover c);
            run_txn c [ ins 1 1; ins 2 1 ];
            down := false;
            (* this commit asks again: the poll meets the re-dial and is
               retried on the new connection *)
            run_txn c [ ins 1 2; ins 2 2 ];
            check Alcotest.(list string) "resolved at the first commit after the return" []
              (indoubt_gtxns cl.dbs.(0));
            run_txn c [ ins 0 3; ins 1 3 ];
            let gids =
              rows (Coord.exec c "SELECT gtxn, phase FROM sys.gtxns")
              |> List.map (function
                   | [| Value.Str g; Value.Str p |] -> g ^ " " ^ p
                   | _ -> Alcotest.fail "sys.gtxns row")
            in
            Coord.close c;
            gids))
  in
  check Alcotest.(list string) "coord:1 aborted; new gids above its block"
    [
      "coord:1027 committed"; "coord:1026 committed"; "coord:1 aborted";
      "coord:1025 committed";
    ]
    gids;
  check Alcotest.(list string) "shard 0 no longer in doubt" [] (indoubt_gtxns cl.dbs.(0));
  check Alcotest.int "shard 0 prepared the new gtxn itself" 1 (prepared () - prepared0);
  let on_shard0 =
    rows (Sql.exec (Sql.session cl.dbs.(0)) "SELECT k FROM t")
    |> List.map (function [| Value.Int k |] -> k | _ -> Alcotest.fail "key row")
  in
  check Alcotest.(list int) "coord:1's row is gone, the new one landed"
    [ keys.(0).(3) ] on_shard0

(* --- cluster observability: sys.gtxns, trace, wire catalogs ------------ *)

(* An armed crash at action 4 stops the protocol at the decision force:
   the gid block force (1) and both Prepares (2, 3) have happened, so the
   global transaction is mid-flight with two yes votes — exactly the
   moment sys.gtxns must show one "deciding" row. After a power cycle,
   recovery finds it in doubt on both shards with no decision logged,
   aborts it, and the row drains into the recent list. *)
let test_gtxns_inflight () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      Coord.set_crash_at_action c (Some 4);
      (try
         run_txn c (List.hd (script ~shards 1));
         Alcotest.fail "armed trigger did not fire"
       with Fault.Crash_point _ -> ());
      Coord.set_crash_at_action c None;
      (match rows (Coord.exec c "SELECT * FROM sys.gtxns") with
      | [
          [|
            Value.Str "coord:1";
            Value.Str "deciding";
            Value.Str "0,1";
            Value.Str "0:yes,1:yes";
            Value.Int _;
            Value.Int 0;
          |];
        ] -> ()
      | rs -> Alcotest.failf "in-flight sys.gtxns: %d row(s)" (List.length rs));
      (* the catalog answers with full sys.* semantics: WHERE/projection *)
      match
        rows
          (Coord.exec c
             "SELECT gtxn FROM sys.gtxns WHERE phase = 'deciding'")
      with
      | [ [| Value.Str "coord:1" |] ] -> ()
      | _ -> Alcotest.fail "WHERE/projection over sys.gtxns");
  crash_cluster cl;
  phase cl (fun c _ ->
      (* recovery resolves it (presumed abort) and the row drains *)
      check Alcotest.int "one txn resolved" 1 (Coord.recover c);
      (match rows (Coord.exec c "SELECT gtxn, phase, participants FROM sys.gtxns") with
      | [ [| Value.Str "coord:1"; Value.Str "aborted"; Value.Str "0,1" |] ] -> ()
      | _ -> Alcotest.fail "sys.gtxns after recovery");
      Array.iteri
        (fun i db ->
          check Alcotest.(list string)
            (Printf.sprintf "shard %d not in doubt" i)
            [] (indoubt_gtxns db))
        cl.dbs;
      (* a clean cross-shard commit lands newest-first ahead of it, with
         a gid above the block reserved before the crash *)
      run_txn c (List.hd (script ~shards 2 |> List.tl));
      (match rows (Coord.exec c "SELECT gtxn, phase FROM sys.gtxns") with
      | [
          [| Value.Str "coord:1025"; Value.Str "committed" |];
          [| Value.Str "coord:1"; Value.Str "aborted" |];
        ] -> ()
      | _ -> Alcotest.fail "recent gtxns after a clean commit");
      (* the typed 2PC metrics saw the commit *)
      let m = Coord.metrics c in
      check Alcotest.int "two yes votes" 2 (Metrics.get m "coord.votes.yes");
      check Alcotest.int "one 2PC commit" 1 (Metrics.get m "coord.commit.2pc");
      check Alcotest.int "nothing in doubt" 0 (Metrics.get m "coord.indoubt"))

(* Two identical-seed runs with tracing on, coordinator and shards:
   both streams must be byte-identical, and the 2PC events on each side
   must carry the same gtxn and coordinator correlation id. *)
let coord_trace_run seed =
  let shards = 2 in
  let cbuf = Buffer.create 1024 and sbuf = Buffer.create 1024 in
  let cl = fresh_cluster shards in
  Array.iter
    (fun db ->
      let tr = Database.trace db in
      Trace.add_sink tr (fun r -> Buffer.add_string sbuf (Trace.to_json r ^ "\n"));
      Trace.set_enabled tr true)
    cl.dbs;
  let ctr = Trace.create ~clock:Sched.now ~fiber:Sched.self () in
  Trace.add_sink ctr (fun r -> Buffer.add_string cbuf (Trace.to_json r ^ "\n"));
  Trace.set_enabled ctr true;
  phase ~seed ~trace:ctr cl (fun c _ ->
      run_setup c;
      run_script c (script ~shards 2));
  (Buffer.contents cbuf, Buffer.contents sbuf)

let test_trace_determinism () =
  let c1, s1 = coord_trace_run 29 and c2, s2 = coord_trace_run 29 in
  check Alcotest.string "coordinator stream is byte-deterministic" c1 c2;
  check Alcotest.string "shard streams are byte-deterministic" s1 s2;
  Alcotest.(check bool) "a different seed reorders the stream" true
    (let c3, _ = coord_trace_run 31 in
     c3 <> c1 || String.length c1 > 0);
  (* gtxn correlation across the cluster: the first cross-shard COMMIT is
     statement 7 (3 setup statements, then BEGIN/INSERT/INSERT/COMMIT), so
     its coordinator-assigned rid is 7 — stamped on the coordinator's own
     prepare events AND on the Prepare frames the shards traced *)
  let expect what hay needle =
    Alcotest.(check bool) what true (contains hay needle)
  in
  expect "coordinator routed statements" c1 {|"ev": "coord.route"|};
  expect "coordinator prepare, correlated" c1
    {|"ev": "coord.prepare", "gtxn": "coord:1", "rid": 7|};
  expect "coordinator saw the votes" c1
    {|"ev": "coord.vote", "gtxn": "coord:1"|};
  expect "coordinator logged the decision" c1
    {|"ev": "coord.decision", "gtxn": "coord:1", "committed": true|};
  expect "coordinator decide fan-out, correlated" c1
    {|"ev": "coord.decide", "gtxn": "coord:1", "rid": 7|};
  expect "participants traced the Prepare with the same identity" s1
    {|"gtxn": "coord:1", "rid": 7, "outcome": "prepared"|};
  expect "participants traced the Decide with the same identity" s1
    {|"gtxn": "coord:1", "rid": 7, "committed": true, "outcome": "applied"|}

(* The whole observability surface over the wire: an ordinary client
   connected to the coordinator's Server sees the coordinator catalogs, the
   Prometheus rollup, and shard-side slow-query rows carrying the
   coordinator's correlation ids. *)
let test_catalogs_over_wire () =
  let shards = 2 in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  (* the rids on the Prepare frames shard 0 traced *)
  let prepare_rids = ref [] in
  let tr = Database.trace dbs.(0) in
  Trace.add_sink tr (fun r ->
      match r.Trace.event with
      | Trace.Twopc_prepare { rid; _ } -> prepare_rids := rid :: !prepare_rids
      | _ -> ());
  Trace.set_enabled tr true;
  Sched.run ~seed:23 (fun () ->
      Coord.loopback_cluster
        ~config:{ Server.default_config with slow_query_ticks = Some 0 }
        dbs
        (fun dialers ->
          let c = Coord.create dialers in
          (* the rid the coordinator stamped on its Prepare to shard 0 *)
          let commit_rid = ref 0 in
          Trace.add_sink (Coord.trace c) (fun r ->
              match r.Trace.event with
              | Trace.Coord_prepare { rid; shard = 0; _ } -> commit_rid := rid
              | _ -> ());
          Trace.set_enabled (Coord.trace c) true;
          let cnet = Transport.Loopback.create ~backlog:16 () in
          let csrv =
            Coord.server
              ~config:{ Server.default_config with name = "coord-console" }
              c
              (Transport.Loopback.listener cnet)
          in
          Server.serve csrv;
          let cl = Client.connect (Transport.Loopback.dialer cnet) in
          check Alcotest.string "welcome names the coordinator" "coord-console"
            (Client.server_name cl);
          ignore
            (Client.exec cl
               "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT \
                NULL)");
          ignore
            (Client.exec cl
               "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY \
                grp USING ESCROW");
          let k0 = (keys_owned_by ~shards 0 1).(0)
          and k1 = (keys_owned_by ~shards 1 1).(0) in
          ignore (Client.exec cl "BEGIN");
          ignore
            (Client.exec cl (Printf.sprintf "INSERT INTO t VALUES (%d, 'a', 1)" k0));
          ignore
            (Client.exec cl (Printf.sprintf "INSERT INTO t VALUES (%d, 'b', 2)" k1));
          (match Client.exec cl "COMMIT" with
          | Sql.Message m ->
              Alcotest.(check bool) "2PC commit reported" true
                (contains m "2 participants")
          | _ -> Alcotest.fail "expected a commit message");
          (* sys.gtxns answers over the wire, WHERE/projection included *)
          (match
             rows (Client.exec cl "SELECT gtxn, phase FROM sys.gtxns")
           with
          | [ [| Value.Str "coord:1"; Value.Str "committed" |] ] -> ()
          | _ -> Alcotest.fail "sys.gtxns over the wire");
          (* sys.coord_shards: one health row per shard, traffic counted *)
          (match rows (Client.exec cl "SELECT * FROM sys.coord_shards") with
          | [
              [| Value.Int 0; Value.Str _; _; Value.Int p0; Value.Int d0; _; _ |];
              [| Value.Int 1; Value.Str _; _; Value.Int p1; Value.Int d1; _; _ |];
            ] ->
              check Alcotest.int "prepares counted" 2 (p0 + p1);
              check Alcotest.int "decides counted" 2 (d0 + d1)
          | _ -> Alcotest.fail "sys.coord_shards over the wire");
          (* sys.cluster_metrics: rollup rows from the coordinator and every
             shard, in one relation *)
          let nodes =
            rows (Client.exec cl "SELECT node FROM sys.cluster_metrics")
            |> List.filter_map (function
                 | [| Value.Str n |] -> Some n
                 | _ -> None)
            |> List.sort_uniq compare
          in
          check
            Alcotest.(list string)
            "every node reports" [ "coord"; "shard0"; "shard1" ] nodes;
          Alcotest.(check bool) "the coordinator's 2PC counters are in the rollup"
            true
            (rows
               (Client.exec cl
                  "SELECT value FROM sys.cluster_metrics WHERE counter = \
                   'coord.commit.2pc'")
            = [ [| Value.Int 1 |] ]);
          (* Metrics_req returns the coordinator registry, not a shard's *)
          let prom = Client.metrics cl in
          Alcotest.(check bool) "prometheus rollup has the vote counters" true
            (contains prom "ivdb_coord_votes_yes 2");
          Alcotest.(check bool) "prometheus rollup has the phase histograms" true
            (contains prom "ivdb_coord_prepare_ticks");
          (* shard-side slow queries carry the coordinator's correlation ids:
             small sequential rids (client-originated ones are >= 65536) *)
          let slow = rows (Client.exec cl "SELECT rid, sql FROM sys.slow_queries") in
          Alcotest.(check bool) "shard 0 recorded coordinator statements" true
            (List.length slow > 0);
          List.iter
            (function
              | [| Value.Int rid; Value.Str _ |] ->
                  Alcotest.(check bool) "rid is coordinator-assigned" true
                    (rid >= 1 && rid < 65536)
              | _ -> Alcotest.fail "malformed slow-query row")
            slow;
          check Alcotest.(list int) "the COMMIT's rid reached the shard's trace"
            [ !commit_rid ] !prepare_rids;
          Client.close cl;
          Coord.close c;
          Server.drain csrv))

(* --- coordinator restart without crash --------------------------------- *)

let test_recover_is_idempotent () =
  let shards = 2 in
  let txns = script ~shards 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      run_script c txns);
  let before = digest_union cl in
  (* after a clean restart no shard holds anything in doubt, so recovery
     has nothing to resolve and changes nothing *)
  crash_cluster cl;
  let resolved, owed =
    phase cl (fun c _ ->
        let r = Coord.recover c in
        (r, Metrics.get (Coord.metrics c) "coord.indoubt"))
  in
  check Alcotest.int "nothing to resolve" 0 resolved;
  check Alcotest.int "nothing left owed" 0 owed;
  check Alcotest.string "recovery changed nothing" before (digest_union cl);
  let resolved = phase cl (fun c _ -> Coord.recover c) in
  check Alcotest.int "second recovery is a no-op too" 0 resolved;
  check Alcotest.string "still unchanged" before (digest_union cl)

(* Every restart ends in a checkpoint that truncates a finished gtxn's
   Prepare and Commit records, so after a second restart the shards no
   longer know the gtxns the coordinator committed. Recovery must send
   them nothing — it asks the shards what they hold in doubt — and a
   commit re-sent for such a gtxn (a Decide whose ack was lost) must be
   answered as a duplicate, not a protocol error, or the coordinator
   keeps the gtxn owed forever. *)
let test_recover_after_second_restart () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      run_script c (script ~shards 2));
  let before = digest_union cl in
  crash_cluster cl;
  check Alcotest.int "first recovery resolves nothing" 0
    (phase cl (fun c _ -> Coord.recover c));
  crash_cluster cl;
  let outcomes = ref [] in
  Array.iter
    (fun db ->
      let tr = Database.trace db in
      Trace.add_sink tr (fun r ->
          match r.Trace.event with
          | Trace.Twopc_decide { outcome; _ } -> outcomes := outcome :: !outcomes
          | _ -> ());
      Trace.set_enabled tr true)
    cl.dbs;
  let resolved, indoubt =
    phase cl (fun c _ ->
        let r = Coord.recover c in
        (r, Metrics.get (Coord.metrics c) "coord.indoubt"))
  in
  check Alcotest.int "second recovery resolves nothing" 0 resolved;
  check Alcotest.int "nothing left owed" 0 indoubt;
  check Alcotest.(list string) "recovery sent no Decide" [] !outcomes;
  Array.iter
    (fun db ->
      check Alcotest.(list string) "nothing in doubt" [] (indoubt_gtxns db);
      List.iter
        (fun gtxn ->
          Alcotest.(check bool)
            (gtxn ^ ": a re-sent commit is a duplicate") true
            (Database.decide_2pc db ~gtxn ~committed:true = `Duplicate))
        [ "coord:1"; "coord:2" ])
    cl.dbs;
  check Alcotest.string "nothing changed" before (digest_union cl)

(* Routing metadata is re-derived from the DDL in the coordinator's log:
   a restarted coordinator must keep refusing partition-column updates
   (silently broadcasting one would strand rows on the wrong shard) and
   keep knowing each table's partition column. *)
let test_routing_metadata_survives_restart () =
  let shards = 2 in
  let cl = fresh_cluster shards in
  phase cl (fun c _ ->
      run_setup c;
      run_script c (script ~shards 1));
  crash_cluster cl;
  phase cl (fun c _ ->
      ignore (Coord.recover c);
      (try
         ignore (Coord.exec c "UPDATE t SET k = 99 WHERE qty = 1");
         Alcotest.fail "expected partition-column refusal"
       with Coord.Coord_error m ->
         Alcotest.(check bool) "guard still fires after restart" true
           (contains m "partition column"));
      (* the aggregation-refusal hint still names the partition column *)
      (try
         ignore (Coord.exec c "SELECT grp, SUM(qty) FROM t GROUP BY grp");
         Alcotest.fail "expected aggregation refusal"
       with Coord.Coord_error m ->
         Alcotest.(check bool) "hint still names the pk" true
           (contains m "k = <literal>"));
      (* pinned point reads and view fan-out still answer correctly *)
      let k = (keys_owned_by ~shards 0 1).(0) in
      check Alcotest.int "pinned point read" 1
        (List.length
           (rows (Coord.exec c (Printf.sprintf "SELECT qty FROM t WHERE k = %d" k))));
      check Alcotest.int "view fan-out" 2
        (List.length (rows (Coord.exec c "SELECT * FROM v"))))

(* --- per-connection sessions ---------------------------------------------- *)

let rec wait_until cond = if not (cond ()) then (Sched.yield (); wait_until cond)

let sorted_keys c =
  rows (Coord.exec c "SELECT k FROM t")
  |> List.map (function [| Value.Int k |] -> k | _ -> Alcotest.fail "key row")
  |> List.sort compare

(* Every wire connection to the coordinator is its own session: one
   client's ROLLBACK cannot touch another's transaction, and a client
   that disconnects mid-transaction leaves nothing open on any shard. *)
let test_wire_sessions_are_isolated () =
  let shards = 2 in
  cross_shard_cluster 37 (fun dbs dialers ->
      let c = Coord.create dialers in
      ignore (Coord.exec c "CREATE TABLE t (k INT NOT NULL, x INT)");
      ignore (Coord.exec c "CREATE UNIQUE INDEX t_k ON t (k)");
      let cnet = Transport.Loopback.create ~backlog:16 () in
      let csrv = Coord.server c (Transport.Loopback.listener cnet) in
      Server.serve csrv;
      let connect () = Client.connect (Transport.Loopback.dialer cnet) in
      let insert cl k =
        ignore (Client.exec cl (Printf.sprintf "INSERT INTO t VALUES (%d, 1)" k))
      in
      let k0 = keys_owned_by ~shards 0 2 and k1 = keys_owned_by ~shards 1 1 in
      let a = connect () and b = connect () in
      ignore (Client.exec a "BEGIN");
      insert a k0.(0);
      ignore (Client.exec b "BEGIN");
      insert b k1.(0);
      ignore (Client.exec b "ROLLBACK");
      ignore (Client.exec a "COMMIT");
      check Alcotest.(list int) "A's row committed, B's rolled back" [ k0.(0) ]
        (sorted_keys c);
      (* a client that goes away mid-transaction *)
      let d = connect () in
      ignore (Client.exec d "BEGIN");
      insert d k0.(1);
      Client.close d;
      wait_until (fun () -> Server.inflight csrv = 2);
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d has no open transaction" i)
            0
            (List.length (Ivdb_txn.Txn.active_info (Database.mgr db)));
          Alcotest.(check bool)
            (Printf.sprintf "shard %d holds no lock" i)
            true
            (List.for_all
               (fun (_, owners, _) -> owners = [])
               (Ivdb_lock.Lock_mgr.dump (Database.locks db))))
        dbs;
      (* the same key is free for the next client *)
      let e = connect () in
      ignore (Client.exec e "BEGIN");
      insert e k0.(1);
      ignore (Client.exec e "COMMIT");
      check Alcotest.(list int) "the next client's transaction commits"
        (List.sort compare [ k0.(0); k0.(1) ])
        (sorted_keys c);
      List.iter Client.close [ a; b; e ];
      Coord.close c;
      Server.drain csrv)

(* A deadlock victim's shard rolls its session transaction back and
   answers txn_open = false. The coordinator transaction must become
   abort-only: a further statement would run on that shard in
   autocommit, and a COMMIT would prepare an empty shard transaction
   next to the victim's surviving work on the other shard. *)
let test_deadlock_victim_is_abort_only () =
  let shards = 2 in
  cross_shard_cluster 41 (fun dbs dialers ->
      let c1 = Coord.create ~name:"c1" dialers
      and c2 = Coord.create ~name:"c2" dialers in
      ignore
        (Coord.exec c1
           "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)");
      ignore
        (Coord.exec c1
           "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
            USING EXCLUSIVE");
      (* rows of groups g0 live on shard 0 and rows of groups g1 on shard
         1, so each group's locks are taken on that shard *)
      let g0 = [| "a"; "b" |] and g1 = [| "c"; "d" |] in
      let k0 = keys_owned_by ~shards 0 8 and k1 = keys_owned_by ~shards 1 4 in
      let insert c k g =
        ignore (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, '%s', 1)" k g))
      in
      (* the groups exist up front, so the transactions below only
         X-lock existing group rows *)
      insert c1 k0.(6) g0.(0);
      insert c1 k0.(7) g0.(1);
      insert c1 k1.(2) g1.(0);
      insert c1 k1.(3) g1.(1);
      let setup_keys = [ k0.(6); k0.(7); k1.(2); k1.(3) ] in
      let a_ready = ref false and b_ready = ref false in
      let survivor_done = ref false and finished = ref 0 in
      let victim = ref None and survivor_keys = ref [] in
      (* each side: a row on shard 1, then two shard-0 groups in opposite
         orders; one of the two closes the lock cycle and is the victim *)
      let side c ~me ~first ~second ~own ~ready ~other keys =
        ignore (Coord.exec c "BEGIN");
        insert c keys.(0) g1.(me);
        insert c keys.(1) first;
        ready := true;
        wait_until (fun () -> !other);
        (match insert c keys.(2) second with
        | () ->
            ignore (Coord.exec c "COMMIT");
            survivor_keys := Array.to_list keys;
            survivor_done := true
        | exception Client.Server_error { code = Ivdb_wire.Wire.E_deadlock; _ } ->
            victim := Some me;
            wait_until (fun () -> !survivor_done);
            (try
               insert c own g0.(0);
               Alcotest.fail "the victim's next statement ran"
             with Coord.Coord_error _ -> ());
            (try
               ignore (Coord.exec c "COMMIT");
               Alcotest.fail "the victim's COMMIT committed"
             with Coord.Coord_error _ -> ()));
        incr finished
      in
      ignore
        (Sched.spawn (fun () ->
             side c1 ~me:0 ~first:g0.(0) ~second:g0.(1) ~own:k0.(3)
               ~ready:a_ready ~other:b_ready
               [| k1.(0); k0.(0); k0.(1) |]));
      ignore
        (Sched.spawn (fun () ->
             side c2 ~me:1 ~first:g0.(1) ~second:g0.(0) ~own:k0.(5)
               ~ready:b_ready ~other:a_ready
               [| k1.(1); k0.(2); k0.(4) |]));
      wait_until (fun () -> !finished = 2);
      Alcotest.(check bool) "a deadlock picked a victim" true (!victim <> None);
      check Alcotest.(list int) "only the survivor's rows exist"
        (List.sort compare (setup_keys @ !survivor_keys))
        (sorted_keys c1);
      Array.iteri
        (fun i db ->
          check Alcotest.int
            (Printf.sprintf "shard %d not in doubt" i)
            0 (Database.indoubt_count db))
        dbs;
      Coord.close c1;
      Coord.close c2)

(* Coord.session: a second session on the same coordinator. Two sessions'
   cross-shard transactions interleave statement by statement; they draw
   global ids from the one shared counter and land in the one decision
   log, and the coordinator's stats count both. *)
let test_sessions_share_the_coordinator () =
  let shards = 2 in
  let txns = script ~shards 4 in
  let cl = fresh_cluster shards in
  let stats_a, stats_b =
    phase cl (fun a _ ->
        run_setup a;
        let b = Coord.session a in
        let exec c s = ignore (Coord.exec c s) in
        (match txns with
        | [ t1; t2; t3; t4 ] ->
            List.iter
              (fun (ta, tb) ->
                exec a "BEGIN";
                exec b "BEGIN";
                List.iter2 (fun sa sb -> exec a sa; exec b sb) ta tb;
                exec b "COMMIT";
                exec a "COMMIT")
              [ (t1, t2); (t3, t4) ]
        | _ -> assert false);
        check Alcotest.int "every row through either session" 8
          (List.length (sorted_keys b));
        let st = (Coord.stats a, Coord.stats b) in
        Coord.close b;
        st)
  in
  let decided = ref [] in
  Wal.iter_stable cl.cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Decision { gtxn } -> decided := gtxn :: !decided
      | _ -> ());
  check Alcotest.int "four decisions logged" 4 (List.length !decided);
  check Alcotest.int "distinct gtxn ids" 4
    (List.length (List.sort_uniq compare !decided));
  check Alcotest.int "stats count both sessions' commits" 4
    stats_a.Coord.cross_shard_commits;
  Alcotest.(check bool) "both sessions see the same stats" true
    (stats_a = stats_b)

(* A lock cycle that spans shards. Two sessions each update one row on
   shard 0 and one on shard 1, in opposite orders. Each shard sees one
   waits-for edge and no cycle, and no lock wait times out, so both
   transactions wait forever. With every fiber blocked (the shard
   servers' accept loops too) the run ends in Stuck: the hang is
   reported, not a silent spin. Ending the cycle with an error the
   client sees is still open. Main first yields until it is the only
   runnable fiber, so a fiber that keeps polling fails the test within
   a bounded number of steps instead of hanging it. *)
let test_cross_shard_cycle_is_stuck () =
  let shards = 2 in
  let k0 = (keys_owned_by ~shards 0 1).(0) and k1 = (keys_owned_by ~shards 1 1).(0) in
  let update c k =
    ignore (Coord.exec c (Printf.sprintf "UPDATE t SET x = x + 1 WHERE k = %d" k))
  in
  let blocked = ref 0 and committed = ref 0 in
  match
    cross_shard_cluster 7 (fun _dbs dialers ->
        let a = Coord.create ~name:"cyc" dialers in
        ignore (Coord.exec a "CREATE TABLE t (k INT NOT NULL, x INT NOT NULL)");
        ignore (Coord.exec a (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k0));
        ignore (Coord.exec a (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k1));
        let b = Coord.session a in
        let a_ready = ref false and b_ready = ref false in
        let side c ~first ~second ~ready ~other =
          ignore (Coord.exec c "BEGIN");
          update c first;
          ready := true;
          wait_until (fun () -> !other);
          incr blocked;
          update c second;
          decr blocked;
          ignore (Coord.exec c "COMMIT");
          incr committed
        in
        let wait, _ =
          Sched.spawn_group 2 (function
            | 1 -> side a ~first:k0 ~second:k1 ~ready:a_ready ~other:b_ready
            | _ -> side b ~first:k1 ~second:k0 ~ready:b_ready ~other:a_ready)
        in
        let rec settle steps =
          if Sched.runnable () > 0 then
            if steps = 0 then Alcotest.fail "fibers still runnable after 100k steps"
            else begin
              Sched.yield ();
              settle (steps - 1)
            end
        in
        settle 100_000;
        wait ();
        Coord.close b;
        Coord.close a)
  with
  | () -> Alcotest.fail "both transactions committed through a lock cycle"
  | exception Sched.Stuck _ ->
      check Alcotest.int "both sessions wait in their second UPDATE" 2 !blocked;
      check Alcotest.int "neither committed" 0 !committed

let () =
  Alcotest.run "coord"
    [
      ( "routing",
        [
          Alcotest.test_case "cluster smoke: routing, views, sys.shards"
            `Quick test_cluster_smoke;
          Alcotest.test_case "cross-shard transactions and aborts" `Quick
            test_txn_semantics;
        ] );
      ( "partial views",
        [
          Alcotest.test_case "a one-shard write commits without 2PC" `Quick
            test_single_shard_write_skips_2pc;
          Alcotest.test_case "V1 across the cluster, MIN/MAX and deferred too"
            `Quick test_partial_views_v1;
          Alcotest.test_case "view SELECTs match one engine" `Quick
            test_views_match_one_engine;
          Alcotest.test_case "ill-typed expressions answer E_sql" `Quick
            test_ill_typed_through_coord;
          Alcotest.test_case "join views must be co-partitioned" `Quick
            test_join_views_must_be_copartitioned;
          Alcotest.test_case "two sums combine by kind" `Quick test_two_sums_combine;
        ] );
      ( "crash",
        [
          Alcotest.test_case "coordinator crash at every protocol action"
            `Slow (coordinator_crash_sweep ~shards:2 (script ~shards:2 4));
          Alcotest.test_case "participant crash at every force point" `Slow
            (participant_crash_sweep ~shards:2 (script ~shards:2 3));
          Alcotest.test_case
            "coordinator crash at every action, with a read-only participant"
            `Slow (coordinator_crash_sweep ~shards:3 (read_script 3));
          Alcotest.test_case
            "participant crash at every force, with a read-only participant"
            `Slow (participant_crash_sweep ~shards:3 (read_script 3));
          Alcotest.test_case "coordinator crash at every action of an abort"
            `Quick test_abort_round_crash_sweep;
          Alcotest.test_case "recovery is idempotent" `Quick
            test_recover_is_idempotent;
          Alcotest.test_case "a second restart's re-delivery is a duplicate"
            `Quick test_recover_after_second_restart;
          Alcotest.test_case "a restarted coordinator waits for recover"
            `Quick test_restart_sends_nothing_before_recover;
          Alcotest.test_case "routing metadata survives a restart" `Quick
            test_routing_metadata_survives_restart;
          Alcotest.test_case "a restart never reuses a gid" `Quick
            test_gids_never_reused;
        ] );
      ( "dedupe",
        [
          Alcotest.test_case "prepare/decide retransmits are deduped" `Quick
            test_retransmit_dedupe;
          Alcotest.test_case "a Prepare with no open transaction votes no"
            `Quick test_prepare_without_txn_votes_no;
          Alcotest.test_case "a lost Prepare aborts instead of part-committing"
            `Quick test_prepare_loss_aborts;
          Alcotest.test_case "undelivered decisions re-deliver at next commit"
            `Quick test_decision_redelivery;
          Alcotest.test_case "coordinators sharing a registry sum the gauge"
            `Quick test_indoubt_gauge_is_shared;
          Alcotest.test_case "a participant's Commit or Abort is its decision"
            `Quick test_participant_outcomes_survive_restart;
        ] );
      ( "read-only",
        [
          Alcotest.test_case "a read-only participant leaves at Prepare" `Quick
            test_read_only_participant;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sys.gtxns tracks an in-flight 2PC round" `Quick
            test_gtxns_inflight;
          Alcotest.test_case "trace streams are byte-deterministic per seed"
            `Quick test_trace_determinism;
          Alcotest.test_case "catalogs, rollup and rids over the wire" `Quick
            test_catalogs_over_wire;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "wire sessions run independent transactions"
            `Quick test_wire_sessions_are_isolated;
          Alcotest.test_case "a deadlock victim's transaction is abort-only"
            `Quick test_deadlock_victim_is_abort_only;
          Alcotest.test_case "Coord.session shares log, ids and stats"
            `Quick test_sessions_share_the_coordinator;
          Alcotest.test_case "a cross-shard lock cycle ends in Stuck" `Quick
            test_cross_shard_cycle_is_stuck;
        ] );
    ]
