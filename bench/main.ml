(* Benchmark harness: regenerates every experiment table of the
   reproduction (E1-E19, see DESIGN.md / EXPERIMENTS.md) plus the bechamel
   micro-benchmarks (M0). Every E-series cell is a simulated-tick figure
   or a count, so the E-series output is deterministic; wall-clock cost is
   perfbench's, measured over repeats.

   Usage: main.exe [e1|e2|...|e19|micro]...; no arguments runs e1-e19,
   the output `dune runtest` diffs against golden.expected. micro (M0) is
   wall-clock and runs only when named. *)

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
module Group_gc = Ivdb_core.Group_gc
module Txn = Ivdb_txn.Txn
module Wal = Ivdb_wal.Wal
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng
module Fault = Ivdb_storage.Fault
module Sched = Ivdb_sched.Sched
module Coord = Ivdb_coord.Coord
module Server = Ivdb_server.Server
module Net_workload = Ivdb_client.Net_workload

(* --- tables ---------------------------------------------------------------- *)

(* One table cell; [F (d, x)] prints [x] with [d] decimals. *)
type cell = I of int | F of int * float | S of string

type table = { title : string; header : string list; rows : cell list list }

let i n = I n
let f1 x = F (1, x)
let f2 x = F (2, x)

let text = function
  | I n -> string_of_int n
  | F (d, x) -> Printf.sprintf "%.*f" d x
  | S s -> s

let print_table t =
  let ncols = List.length t.header in
  List.iter
    (fun r ->
      if List.length r <> ncols then
        invalid_arg
          (Printf.sprintf "table %S: a row has %d cells, the header has %d"
             t.title (List.length r) ncols))
    t.rows;
  let all = t.header :: List.map (List.map text) t.rows in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) t.header)
      all
  in
  let line row = String.concat "  " (List.map2 (Printf.sprintf "%*s") widths row) in
  Printf.printf "\n%s\n%s\n" t.title (String.make (String.length t.title) '=');
  print_endline (line t.header);
  print_endline (String.make (String.length (line t.header)) '-');
  List.iter (fun r -> print_endline (line r)) (List.tl all);
  flush stdout

(* Build-breaking guard of E11, E14 and E19: instrumentation must leave
   the simulated schedule alone. Each [(off, on)] pair of rows under
   [header] holds one run with the instrumentation off and one with it
   on; their [cols] cells must be equal. *)
(* The cell of [row] under column [c] of [header]. *)
let cell header row c = List.assoc c (List.combine header row)

(* Guards compare cells exactly: a float cell may move below its printed
   decimals. *)
let exact = function F (_, x) -> Printf.sprintf "%.17g" x | c -> text c

let assert_same_schedule exp header cols pairs =
  let cell = cell header in
  List.iter
    (fun (off, on) ->
      List.iter
        (fun c ->
          if cell off c <> cell on c then begin
            Printf.eprintf "FATAL: %s: instrumentation moved %s (off %s, on %s)\n"
              exp c (exact (cell off c)) (exact (cell on c));
            exit 1
          end)
        cols)
    pairs;
  Printf.printf "%s instrumentation guard: ok (%s identical off and on)\n%!" exp
    (String.concat ", " cols)

(* --- shared fixtures ----------------------------------------------------------- *)

let strategy_name s = S (Maintain.strategy_to_string s)

let metric r name = Metrics.window_get r.Workload.window name

let group_commit = Txn.Group { max_batch = 32; max_wait_ticks = 50 }

(* The closed loop E2 and E11-E16 share: [budget] transactions split over
   [mpl] workers, committing in [commit_mode]. *)
let closed_loop ~seed ~budget
    ?(commit_mode = Workload.default.Workload.config.Database.commit_mode) mpl =
  {
    Workload.default with
    seed;
    mpl;
    txns_per_worker = max 1 (budget / mpl);
    config = { Workload.default.Workload.config with commit_mode };
  }

(* The sales(id, product, qty) table under a SUM(qty) GROUP BY product
   escrow view, with [rows] loaded in one transaction once the view
   exists. The default config has free I/O. *)
let sales_db ?(config = Workload.default.Workload.config) rows =
  let db = Database.create ~config () in
  let t =
    Database.create_table db ~name:"sales"
      ~cols:
        [
          { Schema.name = "id"; ty = Value.TInt; nullable = false };
          { Schema.name = "product"; ty = Value.TInt; nullable = false };
          { Schema.name = "qty"; ty = Value.TInt; nullable = false };
        ]
  in
  let v =
    Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
      ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
      ~source:(Database.From (t, None))
      ~strategy:Maintain.Escrow ()
  in
  Database.transact db (fun tx ->
      List.iter (fun r -> ignore (Table.insert db tx t r)) rows);
  (db, t, v)

(* --- E1: read benefit of indexed views -------------------------------------- *)

(* Buffer fixes (hits plus misses) [f ()] makes in [db]'s pool. *)
let fixes db f =
  let m = Database.metrics db in
  let count () = Metrics.get m "buffer.hit" + Metrics.get m "buffer.miss" in
  let before = count () in
  f ();
  count () - before

(* Pages a query touches: indexed-view point lookup vs aggregation on
   demand, growing the base table. The paper's motivation: the view turns
   an O(N) aggregation into an O(log N) lookup. A lookup's figure is the
   most any of the 100 groups' lookups fixes. The guard after the table
   fails the run unless that figure is the same at every size and the
   on-demand figure grows with the base rows. *)
let e1 () =
  let measure n =
    let rng = Rng.create 7 in
    let db, _t, v =
      sales_db
        ~config:{ Workload.default.Workload.config with pool_capacity = 4096 }
        (List.init n (fun k ->
             [| Value.Int (k + 1); Value.Int (Rng.int rng 100); Value.Int (1 + Rng.int rng 9) |]))
    in
    let lookup =
      List.fold_left max 0
        (List.init 100 (fun g ->
             fixes db (fun () -> ignore (Query.view_lookup db None v [| Value.Int g |]))))
    in
    let ondemand =
      fixes db (fun () ->
          ignore (Query.on_demand_aggregate db None (Database.view_def db v)))
    in
    (lookup, ondemand)
  in
  let sizes = [ 1_000; 5_000; 20_000; 50_000 ] in
  let results = List.map measure sizes in
  print_table
    {
      title = "E1  Indexed view vs on-demand aggregation (100 groups, point query)";
      header = [ "base rows"; "view lookup (fixes)"; "on-demand agg (fixes)"; "ratio" ];
      rows =
        List.map2
          (fun n (l, o) -> [ i n; i l; i o; f1 (float_of_int o /. float_of_int l) ])
          sizes results;
    };
  let lookups, ondemands = List.split results in
  let lookup = List.hd lookups in
  if List.exists (( <> ) lookup) lookups || List.sort_uniq compare ondemands <> ondemands
  then begin
    let show l = String.concat "/" (List.map string_of_int l) in
    Printf.eprintf "FATAL: e1: view lookup fixes %s, on-demand fixes %s over base rows %s\n"
      (show lookups) (show ondemands) (show sizes);
    exit 1
  end;
  Printf.printf
    "e1 read-shape guard: ok (%d fixes per view lookup at every size, on-demand fixes grow with base rows)\n%!"
    lookup

(* --- E2: writer throughput under contention ---------------------------------- *)

let e2 () =
  let cell strategy mpl =
    let r = Workload.run { (closed_loop ~seed:2 ~budget:256 mpl) with strategy } in
    let per_txn x = float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      strategy_name strategy;
      i mpl;
      i r.Workload.committed;
      f2 r.Workload.throughput;
      f2 (per_txn (metric r "lock.wait"));
      i (metric r "lock.deadlock");
      i (metric r "txn.retry");
      f1 r.Workload.mean_latency;
      f1 r.Workload.p95_latency;
    ]
  in
  let mpls = [ 1; 2; 4; 8; 16; 32 ] in
  print_table
    {
      title =
        "E2  Writer scalability on a hot skewed view (zipf 0.99 over 20 groups, ~256 txns)";
      header =
        [ "strategy"; "mpl"; "commits"; "tput/1k ticks"; "waits/txn"; "deadlocks";
          "retries"; "lat mean"; "lat p95" ];
      rows =
        List.concat_map
          (fun s -> List.map (cell s) mpls)
          [ Maintain.Exclusive; Maintain.Escrow ];
    }

(* --- E3: conflicts vs skew ----------------------------------------------------- *)

let e3 () =
  let cell strategy theta =
    let spec =
      {
        Workload.default with
        seed = 3;
        strategy;
        mpl = 16;
        txns_per_worker = 16;
        n_groups = 50;
        theta;
      }
    in
    let r = Workload.run spec in
    let per100 x = 100. *. float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      strategy_name strategy;
      f2 theta;
      i r.Workload.committed;
      f2 (per100 (metric r "lock.deadlock"));
      f2 (per100 (metric r "txn.retry"));
      f2 (per100 (metric r "lock.wait"));
      f1 r.Workload.p95_latency;
    ]
  in
  let thetas = [ 0.0; 0.5; 0.9; 0.99; 1.2 ] in
  print_table
    {
      title = "E3  Conflict rate vs access skew (mpl 16, 50 groups)";
      header =
        [ "strategy"; "theta"; "commits"; "deadlocks/100"; "retries/100";
          "waits/100"; "lat p95" ];
      rows =
        List.concat_map
          (fun s -> List.map (cell s) thetas)
          [ Maintain.Exclusive; Maintain.Escrow ];
    }

(* --- E4: maintenance overhead per view ------------------------------------------ *)

let e4 () =
  let cell strategy n_views =
    let spec =
      {
        Workload.default with
        seed = 4;
        strategy;
        mpl = 1;
        txns_per_worker = 200;
        delete_fraction = 0.;
        n_views;
        initial_rows = 100;
        config = Database.default_config (* real I/O costs *);
      }
    in
    let r = Workload.run spec in
    let per_txn x = float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      (if n_views = 0 then S "none" else strategy_name strategy);
      i n_views;
      i r.Workload.committed;
      f1 (float_of_int r.Workload.ticks /. float_of_int (max 1 r.Workload.committed));
      f1 (per_txn (metric r "log.bytes"));
      f2 (per_txn (metric r "disk.read" + metric r "disk.write"));
    ]
  in
  print_table
    {
      title = "E4  Writer-side cost of immediate vs deferred maintenance (mpl 1, 200 txns)";
      header = [ "strategy"; "views"; "commits"; "ticks/txn"; "log B/txn"; "IOs/txn" ];
      rows =
        cell Maintain.Escrow 0
        :: List.concat_map
             (fun s -> List.map (cell s) [ 1; 2; 4 ])
             [ Maintain.Escrow; Maintain.Deferred ];
    }

(* --- E5: deferred refresh amortization -------------------------------------------- *)

let e5 () =
  let cell batch =
    let spec = { Workload.default with seed = 5; strategy = Maintain.Deferred } in
    let db, sales, views = Workload.setup spec in
    let v = List.hd views in
    (* fold the preload's deltas away so only the batch is measured *)
    Database.transact db (fun tx -> ignore (Query.refresh db tx v));
    let rng = Rng.create 55 in
    for k = 1 to batch do
      Database.transact db (fun tx ->
          ignore
            (Table.insert db tx sales
               [|
                 Value.Int (1000 + k);
                 Value.Int (Rng.int rng 20);
                 Value.Int 1;
                 Value.Float 1.0;
               |]))
    done;
    let pending = Query.staleness db v in
    let m = Database.metrics db in
    let touched_before = Metrics.get m "view.exclusive_update" in
    let applied = Database.transact db (fun tx -> Query.refresh db tx v) in
    let touched = Metrics.get m "view.exclusive_update" - touched_before in
    [ i batch; i pending; i applied; i touched ]
  in
  print_table
    {
      title = "E5  Deferred maintenance: refresh cost amortizes with batch size (20 groups)";
      header = [ "batch"; "staleness"; "deltas applied"; "view rows touched" ];
      rows = List.map cell [ 1; 10; 100; 1000 ];
    }

(* --- E6: recovery ------------------------------------------------------------------- *)

let e6 () =
  let cell ?(ckpt = false) txns =
    let spec =
      {
        Workload.default with
        seed = 6;
        mpl = 4;
        txns_per_worker = txns / 4;
        delete_fraction = 0.15;
      }
    in
    let db, sales, views = Workload.setup spec in
    let _ = Workload.run_on db sales views spec in
    if ckpt then Database.checkpoint db (* sharp checkpoint + log truncation *);
    (* leave some losers in flight, force their records, crash *)
    let mgr = Database.mgr db in
    let losers =
      List.init 5 (fun k ->
          let tx = Txn.begin_txn mgr in
          ignore
            (Table.insert db tx sales
               [| Value.Int (-k - 1); Value.Int 1; Value.Int 1; Value.Float 1. |]);
          tx)
    in
    ignore losers;
    Wal.force (Database.wal db) (Wal.last_lsn (Database.wal db));
    let db' = Database.crash db in
    let m = Database.metrics db' in
    let rows_after = Table.row_count db' (Database.table db' "sales") in
    [
      (if ckpt then S (Printf.sprintf "%d +ckpt" txns) else i txns);
      i (Metrics.get m "recovery.stable_records");
      i (Metrics.get m "recovery.redo_applied");
      i (Metrics.get m "recovery.losers");
      i rows_after;
      S
        (string_of_bool
           (Workload.check_consistency db' (Database.view db' "sales_by_product_0")));
    ]
  in
  print_table
    {
      title = "E6  Restart recovery vs log length (crash with 5 in-flight losers)";
      header =
        [ "txns"; "stable log recs"; "redo applied"; "losers undone"; "rows after";
          "view consistent" ];
      rows = List.concat_map (fun n -> [ cell n; cell ~ckpt:true n ]) [ 200; 1000; 3000 ];
    }

(* --- E7: reader locking granularity -------------------------------------------------- *)

let e7 () =
  let cell locking =
    let spec =
      {
        Workload.default with
        seed = 7;
        txns_per_worker = 40;
        read_fraction = 0.5;
        reader_locking = locking;
        n_groups = 50;
        theta = 0.5;
      }
    in
    let r = Workload.run spec in
    let writers = r.Workload.committed - r.Workload.committed_readers in
    [
      S
        (match locking with
        | Workload.Key_range -> "key-range"
        | Workload.Coarse_table -> "table S lock"
        | Workload.Snapshot -> "mvcc snapshot");
      i r.Workload.committed;
      i r.Workload.committed_readers;
      i writers;
      i (metric r "lock.wait");
      i (metric r "lock.deadlock");
      f1 r.Workload.mean_latency;
      f1 r.Workload.p95_latency;
    ]
  in
  print_table
    {
      title =
        "E7  Serializable view readers vs writers: key-range locks vs coarse table locks";
      header =
        [ "reader locking"; "commits"; "readers"; "writers"; "lock waits";
          "deadlocks"; "lat mean"; "lat p95" ];
      rows = List.map cell [ Workload.Key_range; Workload.Coarse_table ];
    }

(* --- E8: group lifecycle churn --------------------------------------------------------- *)

let e8 () =
  let cell create_mode =
    let spec =
      {
        Workload.default with
        seed = 8;
        create_mode;
        mpl = 12;
        txns_per_worker = 40;
        ops_per_txn = 3;
        delete_fraction = 0.5;
        n_groups = 24;
        theta = 0.0;
        initial_rows = 0;
        gc_every = Some 5;
      }
    in
    let db, sales, views = Workload.setup spec in
    let r = Workload.run_on db sales views spec in
    let removed = Database.gc db in
    let zero_left =
      Group_gc.zero_count_rows
        (Database.Internal.view_rt db (Database.Internal.view_id (List.hd views)))
    in
    [
      S
        (match create_mode with
        | Maintain.System_txn -> "system txn"
        | Maintain.User_txn -> "user txn");
      i r.Workload.committed;
      i (metric r "view.group_create" + metric r "view.group_create_user");
      i (metric r "view.gc_removed" + removed);
      i zero_left;
      i (metric r "lock.wait");
      i (metric r "lock.deadlock");
      f1 r.Workload.p95_latency;
    ]
  in
  print_table
    {
      title =
        "E8  Group create/delete churn: system-transaction vs user-transaction creation";
      header =
        [ "creation"; "commits"; "creates"; "gc removed"; "zero rows left";
          "lock waits"; "deadlocks"; "lat p95" ];
      rows = List.map cell [ Maintain.System_txn; Maintain.User_txn ];
    }

(* --- E9: lock escalation --------------------------------------------------------------- *)

let e9 () =
  let cell threshold rows_n =
    let config =
      {
        Database.default_config with
        read_cost = 0;
        write_cost = 0;
        pool_capacity = 2048;
        escalation_threshold = threshold;
      }
    in
    let db = Database.create ~config () in
    let t =
      Database.create_table db ~name:"bulk"
        ~cols:
          [
            { Schema.name = "id"; ty = Value.TInt; nullable = false };
            { Schema.name = "v"; ty = Value.TInt; nullable = false };
          ]
    in
    Database.transact db (fun tx ->
        for k = 1 to rows_n do
          ignore (Table.insert db tx t [| Value.Int k; Value.Int k |])
        done);
    let m = Database.metrics db in
    [
      (match threshold with None -> S "off" | Some n -> i n);
      i rows_n;
      i (Metrics.get m "lock.acquire");
      i (Metrics.get m "lock.escalation");
    ]
  in
  print_table
    {
      title = "E9  Lock escalation: bulk-load lock footprint (single transaction)";
      header = [ "threshold"; "rows"; "lock acquisitions"; "escalations" ];
      rows =
        List.concat_map
          (fun n -> [ cell None n; cell (Some 100) n ])
          [ 1_000; 5_000; 20_000 ];
    }

(* --- E10: bounds reads vs blocking reads ------------------------------------------------- *)

let e10 () =
  let run mode =
    let db, t, v = sales_db [ [| Value.Int 0; Value.Int 1; Value.Int 1 |] ] in
    let m = Metrics.create () in
    let lat = Metrics.hist m "read_ticks" in
    let widths = ref [] in
    let reads = 60 in
    Sched.run ~seed:10 (fun () ->
        (* writers hammer group 1, holding E locks across yields *)
        for w = 1 to 6 do
          ignore
            (Sched.spawn (fun () ->
                 for k = 1 to 40 do
                   Database.transact db (fun tx ->
                       ignore
                         (Table.insert db tx t
                            [| Value.Int ((w * 1000) + k); Value.Int 1; Value.Int 1 |]);
                       Sched.yield ();
                       Sched.yield ())
                 done))
        done;
        (* one reader samples the hot group *)
        ignore
          (Sched.spawn (fun () ->
               for _ = 1 to reads do
                 let t0 = Sched.now () in
                 (match mode with
                 | `Blocking ->
                     Database.transact db (fun tx ->
                         ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]))
                 | `Bounds -> (
                     match Query.view_lookup_bounds db v [| Value.Int 1 |] with
                     | Some (lo, hi) ->
                         widths := (Value.to_float hi.(1) -. Value.to_float lo.(1)) :: !widths
                     | None -> ()));
                 Metrics.record lat (Sched.now () - t0);
                 Sched.yield ()
               done)))
    ;
    let cells = Metrics.hist_snapshot m "read_ticks" in
    (* summed in the order the widths were read *)
    let n, sum =
      List.fold_left (fun (n, sum) w -> (n + 1, sum +. w)) (0, 0.) (List.rev !widths)
    in
    [
      S (match mode with `Blocking -> "serializable lookup" | `Bounds -> "escrow bounds");
      i reads;
      f1 (Metrics.cells_mean cells);
      f1 (float_of_int (Metrics.percentile_cells cells 95.));
      f2 (if n = 0 then 0. else sum /. float_of_int n);
    ]
  in
  print_table
    {
      title = "E10  Reading a hot escrow group: blocking lookup vs bounds read";
      header = [ "reader mode"; "reads"; "lat mean (ticks)"; "lat p95"; "avg interval width" ];
      rows = [ run `Blocking; run `Bounds ];
    }

(* --- E11: commit path — per-commit force vs group commit vs async ----------------------- *)

(* Escrow removes the lock bottleneck on the hot aggregate rows, so with a
   private force per commit the 100-tick log force is the throughput
   ceiling; batching commits behind the coordinator amortizes it. *)
let e11 () =
  let mpls = [ 1; 4; 8; 16; 32 ] in
  let budget = 512 in
  let cell (mode_name, commit_mode) mpl =
    let r = Workload.run (closed_loop ~seed:11 ~budget ~commit_mode mpl) in
    let per_commit x = float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      S mode_name;
      i mpl;
      i r.Workload.committed;
      f2 r.Workload.throughput;
      i (metric r "log.force");
      f2 (per_commit (metric r "log.force"));
      f2 r.Workload.mean_batch;
      f1 (per_commit (metric r "commit.stall_ticks"));
    ]
  in
  print_table
    {
      title =
        "E11  Commit path: per-commit force vs group commit vs async (escrow, zipf 0.99, ~512 txns)";
      header =
        [ "commit mode"; "mpl"; "commits"; "tput/1k ticks"; "forces";
          "forces/commit"; "mean batch"; "stall/commit" ];
      rows =
        List.concat_map
          (fun m -> List.map (cell m) mpls)
          [ ("sync", Txn.Sync); ("group", group_commit); ("async", Txn.Async) ];
    };
  (* tracing overhead: the group-commit cell at the highest mpl, structured
     trace off vs on (events counted, then discarded). Tracing never touches
     the simulated clock, so tick throughput must be identical either way
     (the guard) and the cost is the event volume; its wall-clock cost is
     perfbench's bench.trace_overhead_frac. *)
  let mpl = List.fold_left max 1 mpls in
  let traced enabled =
    let spec = closed_loop ~seed:11 ~budget ~commit_mode:group_commit mpl in
    let db, sales, views = Workload.setup spec in
    let events = ref 0 in
    if enabled then begin
      let tr = Database.trace db in
      Ivdb_util.Trace.add_sink tr (fun _ -> incr events);
      Ivdb_util.Trace.set_enabled tr true
    end;
    let r = Workload.run_on db sales views spec in
    (r, !events)
  in
  let r_off, _ = traced false in
  let r_on, events = traced true in
  let off = f2 r_off.Workload.throughput and on = f2 r_on.Workload.throughput in
  Printf.printf "\ntracing overhead (group, mpl %d): off %s tput, on %s tput (%d events)\n"
    mpl (text off) (text on) events;
  assert_same_schedule "e11" [ "tput" ] [ "tput" ] [ ([ off ], [ on ]) ]

(* --- E12: recovery under injected faults ------------------------------------------------ *)

(* Run the workload under each fault mode, recover from the (injected or
   end-of-run) crash, and measure what recovery had to do. "rate" is the
   transient-error probability for the error rows, 0 for the crash rows.
   Every cell also re-checks invariant V1. *)
let e12 () =
  let spec =
    {
      (closed_loop ~seed:23 ~budget:384 8) with
      checkpoint_every = Some 10;
      config =
        { Workload.default.Workload.config with Database.pool_capacity = 64 };
    }
  in
  let cell (name, rate, fcfg) =
    let db, sales, views = Workload.setup spec in
    (* armed after setup: the preload is never the victim *)
    if Fault.enabled_in fcfg then Database.install_fault db fcfg;
    let r = Workload.run_on db sales views spec in
    let db' = Database.crash db in
    let get n = Metrics.get (Database.metrics db') n in
    let consistent =
      Workload.check_consistency db' (Database.view db' "sales_by_product_0")
    in
    [
      S name;
      f2 rate;
      i r.Workload.committed;
      S (if r.Workload.crashed then "yes" else "no");
      i (get "recovery.redo_applied");
      i (get "recovery.torn_pages");
      i (get "wal.torn_tail_dropped");
      i (get "recovery.losers");
      i (metric r "buffer.io_retry");
      S (string_of_bool consistent);
    ]
  in
  let n = Fault.no_faults in
  print_table
    {
      title = "E12  Recovery under injected faults (escrow, mpl 8, ckpt every 10)";
      header =
        [ "fault"; "rate"; "commits"; "crashed"; "redo"; "torn pg"; "tail drop";
          "losers"; "io retry"; "consistent" ];
      rows =
        List.map cell
          [
            ("none", 0., n);
            ( "err-0.05", 0.05,
              { n with fault_seed = 3; read_error_p = 0.05; write_error_p = 0.05 } );
            ( "err-0.20", 0.2,
              { n with fault_seed = 3; read_error_p = 0.2; write_error_p = 0.2 } );
            ("crash-write", 0., { n with crash_at_write = Some 5 });
            ( "torn-write", 0.,
              { n with fault_seed = 1; crash_at_write = Some 5; torn_writes = true } );
            ( "torn-tail", 0.,
              { n with fault_seed = 9; crash_at_force = Some 25; torn_tail = true } );
          ];
    }

(* --- E13: network serving layer ---------------------------------------------------------- *)

(* Throughput/latency of the wire-protocol server under a closed loop of
   loopback client connections, sync vs group commit, plus an overloaded
   cell where admission control sheds with Busy frames. Group commit
   finally earns its keep here: the batches come from genuinely
   independent client connections. Real TCP sockets are test_net's and
   perfbench sql-served's: their figures depend on kernel timing. *)
let e13 () =
  let budget = 256 in
  let cell (mode_name, commit_mode) ~mpl ~max_inflight =
    let server_config =
      { Server.default_config with max_inflight; busy_retry_ticks = 50 }
    in
    let r, _db =
      Net_workload.run_net ~transport:Net_workload.Loopback ~server_config
        (closed_loop ~seed:11 ~budget ~commit_mode mpl)
    in
    let per_commit x =
      float_of_int x /. float_of_int (max 1 r.Workload.committed)
    in
    [
      S "loopback"; S mode_name; i mpl; i max_inflight; i r.Workload.committed;
      f2 r.Workload.throughput; f1 r.Workload.p95_latency;
      f2 (per_commit (metric r "log.force")); f2 r.Workload.mean_batch;
      i (metric r "server.shed");
    ]
  in
  let sync = ("sync", Txn.Sync) in
  let group = ("group", group_commit) in
  let scaling =
    List.concat_map
      (fun mpl ->
        [ cell sync ~mpl ~max_inflight:64; cell group ~mpl ~max_inflight:64 ])
      [ 2; 4; 8; 16 ]
  in
  (* overload: twice as many clients as admission slots; shed > 0 and the
     run still completes because refused clients back off and retry *)
  let overload = [ cell group ~mpl:16 ~max_inflight:4 ] in
  print_table
    {
      title =
        "E13  Network serving: transport x commit mode x connections (escrow, zipf 0.99)";
      header =
        [ "transport"; "commit mode"; "clients"; "cap"; "commits"; "tput/1k ticks";
          "p95 lat"; "forces/commit"; "mean batch"; "shed" ];
      rows = scaling @ overload;
    }

(* --- E14: introspection overhead --------------------------------------------------------- *)

(* Cost of the live-introspection plumbing on the E13 closed loop: the rid
   correlation ids ride in every Exec frame unconditionally (wire v2), so
   the measurable knob is the slow-query log. threshold = None turns it
   off entirely; Some 0 is the worst case (every request is "slow": a
   bounded-queue push + a Slow_query trace event per statement). The log
   does no yields, so the simulated schedule must be identical (the guard
   after the table); its wall-clock cost is perfbench's. *)
let e14 () =
  let budget = 256 in
  let mpl = 8 in
  let cell name threshold =
    let server_config =
      { Server.default_config with slow_query_ticks = threshold }
    in
    let r, db =
      Net_workload.run_net ~server_config
        (closed_loop ~seed:11 ~budget ~commit_mode:group_commit mpl)
    in
    [
      S name;
      (match threshold with None -> S "-" | Some t -> i t);
      i mpl; i r.Workload.committed; i r.Workload.ticks;
      f2 r.Workload.throughput;
      i (Metrics.get (Database.metrics db) "server.slow_queries");
    ]
  in
  let header =
    [ "slow log"; "threshold"; "clients"; "commits"; "ticks"; "tput/1k ticks";
      "slow entries" ]
  in
  let on = [ cell "on (idle)" (Some 1_000_000); cell "on (worst)" (Some 0) ] in
  let off = cell "off" None in
  print_table
    {
      title =
        "E14  Introspection overhead: slow-query log on the E13 closed loop (loopback, group commit, escrow)";
      header;
      rows = off :: on;
    };
  assert_same_schedule "e14" header [ "ticks"; "tput/1k ticks" ]
    (List.map (fun r -> (off, r)) on)

(* --- E15: MVCC snapshot readers vs S-lock readers ---------------------------------------- *)

(* Build-breaking guard: a read-only transaction must never enter the
   lock manager or the WAL. Asserted on metric deltas across a snapshot
   that exercises every read path. *)
let assert_snapshot_lock_free () =
  let db, t, v =
    sales_db
      (List.init 20 (fun k ->
           [| Value.Int (k + 1); Value.Int ((k + 1) mod 5); Value.Int (k + 1) |]))
  in
  let m = Database.metrics db in
  let locks0 = Metrics.get m "lock.acquire" in
  let wal0 = Metrics.get m "log.append" in
  Database.transact db ~read_only:true (fun tx ->
      ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]);
      Seq.iter (fun _ -> ()) (Query.table_scan db (Some tx) t Query.Serializable);
      Seq.iter (fun _ -> ()) (Query.view_scan db (Some tx) v Query.Serializable));
  let locks = Metrics.get m "lock.acquire" - locks0 in
  let wal = Metrics.get m "log.append" - wal0 in
  if locks <> 0 || wal <> 0 then begin
    Printf.eprintf
      "FATAL: read-only transaction touched the lock manager or WAL (lock.acquire +%d, log.append +%d)\n"
      locks wal;
    exit 1
  end;
  Printf.printf "snapshot lock-free guard: ok (0 lock acquisitions, 0 WAL appends)\n%!"

(* The D14 payoff: at high MPL a read-heavy mix over a hot escrow view,
   with readers either taking the paper's per-key RangeS_S locks or running
   as lock-free MVCC snapshots. Snapshot readers never enter the lock
   manager, so reader throughput climbs with MPL instead of queueing
   behind writers' E locks, while writer commit throughput stays within
   noise of the locked baseline. Every run starts with the zero-lock guard
   above. *)
let e15 () =
  assert_snapshot_lock_free ();
  let budget = 768 in
  let cell reader_locking mpl =
    let r =
      Workload.run
        {
          (closed_loop ~seed:15 ~budget mpl) with
          read_fraction = 0.6;
          reader_locking;
        }
    in
    let writers = r.Workload.committed - r.Workload.committed_readers in
    let per_1k x = 1000. *. float_of_int x /. float_of_int (max 1 r.Workload.ticks) in
    [
      S
        (match reader_locking with
        | Workload.Key_range -> "s-lock key-range"
        | Workload.Coarse_table -> "table S lock"
        | Workload.Snapshot -> "mvcc snapshot");
      i mpl; i r.Workload.committed; i r.Workload.committed_readers;
      i writers;
      f2 (per_1k r.Workload.committed_readers);
      f2 (per_1k writers);
      i (metric r "lock.wait");
      i (metric r "lock.deadlock");
      f1 r.Workload.mean_latency;
      f1 r.Workload.p95_latency;
    ]
  in
  print_table
    {
      title =
        "E15  Snapshot readers vs key-range S-lock readers (escrow writers, zipf 0.99, 60% reads)";
      header =
        [ "reader mode"; "mpl"; "commits"; "readers"; "writers"; "reader tput";
          "writer tput"; "lock waits"; "deadlocks"; "lat mean"; "lat p95" ];
      rows =
        List.concat_map
          (fun mpl -> [ cell Workload.Key_range mpl; cell Workload.Snapshot mpl ])
          [ 8; 16; 32 ];
    }

(* --- E16: read replicas via WAL shipping ------------------------------------------------ *)

(* A follower attached over a second loopback connection streams the
   primary's WAL while the closed-loop workload runs. The interesting
   numbers: how far the replica trails the primary under write pressure
   (lag, in log records), what the attached follower costs the primary
   (commit throughput with vs without it), and how long after the last
   commit the replica takes to drain the residual lag. Every replicated
   cell ends with a bit-identical state-digest comparison against the
   primary — divergence is a correctness bug and kills the run. The guard
   after the table fails the run when a follower's mean lag reaches one
   ship batch: a follower applies each record as it arrives, so it should
   trail by less than the batch in flight. *)
let e16 () =
  let lags = ref [] in
  let spec_for = closed_loop ~seed:16 ~budget:256 ~commit_mode:group_commit in
  let solo mpl =
    let r, _db =
      Net_workload.run_net ~transport:Net_workload.Loopback (spec_for mpl)
    in
    [ S "no"; i mpl; i r.Workload.committed; f2 r.Workload.throughput ]
    @ List.init 6 (fun _ -> S "-")
  in
  let replicated mpl =
    let r, db, fdb, rep = Net_workload.run_replicated (spec_for mpl) in
    if
      Database.state_digest db <> Database.state_digest fdb
      || Database.replicated_lsn db <> Database.replicated_lsn fdb
    then begin
      Printf.eprintf
        "FATAL: replica diverged from primary (mpl %d): lsn %d vs %d, digest %s vs %s\n"
        mpl (Database.replicated_lsn db) (Database.replicated_lsn fdb)
        (Database.state_digest db) (Database.state_digest fdb);
      exit 1
    end;
    lags := (mpl, rep.Net_workload.lag_mean) :: !lags;
    [ S "yes"; i mpl; i r.Workload.committed; f2 r.Workload.throughput;
      i rep.Net_workload.lag_max; f2 rep.Net_workload.lag_mean;
      i rep.Net_workload.ship_batches; i rep.Net_workload.reconnects;
      i rep.Net_workload.catchup_ticks; S "match" ]
  in
  print_table
    {
      title =
        "E16  Read replica via WAL shipping: lag and primary overhead (escrow, group commit, zipf 0.99)";
      header =
        [ "follower"; "mpl"; "commits"; "tput/1k ticks"; "lag max"; "lag mean";
          "batches"; "reconnects"; "catchup"; "digest" ];
      rows = List.concat_map (fun mpl -> [ solo mpl; replicated mpl ]) [ 8; 16 ];
    };
  List.iter
    (fun (mpl, lag) ->
      if lag >= float_of_int Server.repl_batch_limit then begin
        Printf.eprintf
          "FATAL: e16: follower lag mean %.2f at mpl %d reaches one ship batch (%d records)\n"
          lag mpl Server.repl_batch_limit;
        exit 1
      end)
    (List.rev !lags);
  Printf.printf
    "e16 lag guard: ok (lag mean below one ship batch, %d records, in every follower row)\n%!"
    Server.repl_batch_limit

(* --- E17: failover — follower promotion under a primary crash --------------------------- *)

(* The replicated workload crashed at a chosen force point: the follower
   final-ships the dead primary's SURVIVING log image (Wal.crash applies
   any pending tear first), then promotes. Reported per crash point:
   losers rolled back, undo records appended, and the promotion latency
   in simulated ticks. Every cell ends with the zero-loss check — the
   promoted digest must equal single-node recovery of the same log — and
   a mismatch kills the run. *)
let e17 () =
  let spec =
    {
      Workload.default with
      seed = 7;
      mpl = 3;
      txns_per_worker = 6;
      ops_per_txn = 3;
      delete_fraction = 0.;
      n_groups = 5;
      theta = 0.8;
      initial_rows = 20;
      checkpoint_every = Some 3;
      config =
        { Workload.default.Workload.config with Database.pool_capacity = 8 };
    }
  in
  let n_forces =
    let db, _f, _committed, crashed =
      Workload.run_replicated_until_crash spec Fault.no_faults
    in
    if crashed then begin
      Printf.eprintf "FATAL: e17 counting run crashed\n";
      exit 1
    end;
    Fault.forces_seen (Database.fault_plan db)
  in
  let cell (name, fcfg) =
    let db, f, committed, crashed =
      Workload.run_replicated_until_crash spec fcfg
    in
    if not crashed then begin
      Printf.eprintf "FATAL: e17 %s: armed crash trigger did not fire\n" name;
      exit 1
    end;
    let dead = Wal.crash (Database.wal db) (Metrics.create ()) in
    let ticks = ref 0 in
    let promo = ref None in
    Sched.run ~seed:1 (fun () ->
        ignore (Workload.ship_wal dead f);
        let t0 = Sched.now () in
        let p = Database.promote f in
        ticks := Sched.now () - t0;
        promo := Some p);
    let p = Option.get !promo in
    (* zero-loss: the promoted follower must equal single-node recovery
       over the same surviving log *)
    let db' = Database.crash db in
    if Database.state_digest db' <> Database.state_digest f then begin
      Printf.eprintf
        "FATAL: e17 %s: promoted follower diverged from single-node recovery\n"
        name;
      exit 1
    end;
    [
      S name; i committed; i p.Database.losers_undone; i p.Database.undo_records;
      i !ticks; S "match";
    ]
  in
  let n = Fault.no_faults in
  let mid = max 1 (n_forces / 2) in
  let points =
    [
      ("clean-early", { n with crash_at_force = Some 1 });
      ("clean-mid", { n with crash_at_force = Some mid });
      ("clean-late", { n with crash_at_force = Some n_forces });
      ("torn-mid", { n with crash_at_force = Some mid; torn_tail = true });
    ]
  in
  print_table
    {
      title =
        "E17  Failover: follower promotion under primary crash (escrow, mpl 3, zipf 0.8)";
      header =
        [ "crash"; "commits"; "losers"; "undo"; "promote ticks"; "digest" ];
      rows = List.map cell points;
    }

(* --- E18: hash-partitioned shards, 2PC cross-shard commit ------------------- *)

(* Closed-loop scripted transactions through one coordinator over N
   loopback engine shards: per cell, throughput, prepare round-trips and
   the 2PC/local commit split; plus the crash smoke — crash the
   coordinator mid-protocol, power-cycle the cluster, recover, and fail
   the build if any transaction is left in doubt or any decision is lost
   or applied twice. *)

let e18_keys ~shards shard n =
  let rec go k acc remaining =
    if remaining = 0 then Array.of_list (List.rev acc)
    else if Coord.route_value ~shards (Value.Int k) = shard then
      go (k + 1) (k :: acc) (remaining - 1)
    else go (k + 1) acc remaining
  in
  go 0 [] n

(* [cross i] decides whether scripted transaction [i] spans two shards
   (an insert on each) or stays a single pinned insert. Every
   transaction that reaches COMMIT gets global id [i+1], and the keys it
   inserts are recorded so the crash smoke can audit decisions. With
   [read], a cross-shard transaction first reads, on a third shard, the
   row transaction [i - (shards - 2)] inserted there (a key no one
   inserts before that one exists): a read-only participant. *)
let e18_script ?(read = false) ~shards ~txns cross =
  let per_shard = Array.init shards (fun s -> e18_keys ~shards s (2 * txns)) in
  List.init txns (fun i ->
      let a = i mod shards in
      let stmt s slot qty =
        let k = per_shard.(s).((2 * i) + slot) in
        ( k,
          Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" k (i mod 5) qty
        )
      in
      let reads =
        if read && shards > 2 then
          let j = i - (shards - 2) in
          let k = per_shard.((a + 2) mod shards).(2 * if j >= 0 then j else i) in
          [ (k, Printf.sprintf "SELECT * FROM t WHERE k = %d" k) ]
        else []
      in
      if cross i && shards > 1 then
        reads @ [ stmt a 0 (i + 1); stmt ((a + 1) mod shards) 1 (10 * (i + 1)) ]
      else [ stmt a 0 (i + 1) ])

let e18_setup c =
  List.iter
    (fun s -> ignore (Coord.exec c s))
    [
      "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT NOT NULL)";
      "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
       USING ESCROW";
      (* DDL doesn't force the log on its own; make the schema durable
         before any armed crash point *)
      "CHECKPOINT";
    ]

(* Every scripted transaction through one coordinator session: BEGIN,
   its inserts, COMMIT. *)
let e18_run c script =
  List.iter
    (fun stmts ->
      ignore (Coord.exec c "BEGIN");
      List.iter (fun (_, s) -> ignore (Coord.exec c s)) stmts;
      ignore (Coord.exec c "COMMIT"))
    script

(* Set up the schema, then run [script]: its transaction count and the
   ticks it took. *)
let e18_timed c script =
  e18_setup c;
  let t0 = Sched.now () in
  e18_run c script;
  (List.length script, Sched.now () - t0)

(* [f] on one coordinator session over loopback shards [dbs], in its own
   scheduler run. A Fault.Crash_point escaping [f] skips the close, as the
   whole machine dying would. *)
let with_cluster ?metrics ?trace ~wal dbs f =
  Sched.run ~seed:11 (fun () ->
      Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
          let c = Coord.create ?metrics ?trace ~wal dialers in
          let r = f c in
          Coord.close c;
          r))

let indoubt dbs =
  Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs

(* Transactions per E18/E19 cell: enough that one is under 1% of it. *)
let cell_txns = 200

let e18_cell shards mix =
  let script =
    e18_script ~read:(mix = "cross+read") ~shards ~txns:cell_txns (fun _ ->
        mix <> "single")
  in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let (committed, ticks), stats =
    with_cluster ~wal:(Wal.create (Metrics.create ())) dbs (fun c ->
        let r = e18_timed c script in
        (r, Coord.stats c))
  in
  let tput = 1000. *. float_of_int committed /. float_of_int (max 1 ticks) in
  [
    i shards; S mix; i committed; f2 tput; i stats.Coord.prepares_sent;
    i stats.Coord.decides_sent; i stats.Coord.cross_shard_commits;
    i stats.Coord.single_shard_commits; i (indoubt dbs);
  ]

(* The decision audit: arm a coordinator crash mid-2PC on a 2-shard
   cluster, power-cycle, recover, then check every scripted transaction
   against the coordinator's logged decisions — a committed transaction's
   keys must each exist exactly once, an aborted or undecided one's not at
   all. Any in-doubt leftover, lost decision or double apply kills the
   run. *)
let e18_crash_smoke () =
  let shards = 2 in
  let script = e18_script ~shards ~txns:6 (fun _ -> true) in
  let run_workload ?crash_at dbs cwal =
    with_cluster ~wal:cwal dbs (fun c ->
        Coord.set_crash_at_action c crash_at;
        e18_setup c;
        e18_run c script;
        Coord.actions c)
  in
  let total =
    run_workload
      (Array.init shards (fun _ -> Database.create ()))
      (Wal.create (Metrics.create ()))
  in
  let crash_action = max 1 (total / 2) in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let cwal = Wal.create (Metrics.create ()) in
  let crashed =
    try
      ignore (run_workload ~crash_at:crash_action dbs cwal);
      false
    with Fault.Crash_point _ -> true
  in
  if not crashed then begin
    Printf.eprintf "FATAL: e18 smoke: armed coordinator crash did not fire\n";
    exit 1
  end;
  (* power loss: every shard recovers from its WAL, the coordinator from
     its decision log *)
  let dbs = Array.map Database.crash dbs in
  let cwal = Wal.crash cwal (Metrics.create ()) in
  let indoubt_at_crash = indoubt dbs in
  let listed =
    Array.to_list dbs
    |> List.concat_map (fun db ->
           match
             Ivdb_sql.Sql.exec (Ivdb_sql.Sql.session db) "SELECT gtxn FROM sys.indoubt"
           with
           | Ivdb_sql.Sql.Rows { rows; _ } -> rows
           | _ -> [])
    |> List.sort_uniq compare
  in
  let resolved = with_cluster ~wal:cwal dbs Coord.recover in
  let indoubt_after = indoubt dbs in
  if indoubt_after <> 0 then begin
    Printf.eprintf "FATAL: e18 smoke: %d transaction(s) left in doubt\n"
      indoubt_after;
    exit 1
  end;
  (* presumed abort logs only what recovery needs: a decision record is
     a commit (the key audit below fails on a logged decision whose keys
     are gone), and recovery resolves exactly the gtxns the shards listed
     in sys.indoubt after the crash *)
  let decided = Hashtbl.create 8 in
  Wal.iter_stable cwal (fun r ->
      match r.Ivdb_wal.Log_record.body with
      | Ivdb_wal.Log_record.Decision { gtxn } -> Hashtbl.replace decided gtxn ()
      | _ -> ());
  if resolved <> List.length listed then begin
    Printf.eprintf "FATAL: e18 smoke: recover resolved %d gtxn(s), sys.indoubt listed %d\n"
      resolved (List.length listed);
    exit 1
  end;
  (* one multiset of surviving keys across the cluster *)
  let count k =
    Array.fold_left
      (fun acc db ->
        let s = Ivdb_sql.Sql.session db in
        match Ivdb_sql.Sql.exec s (Printf.sprintf "SELECT k FROM t WHERE k = %d" k) with
        | Ivdb_sql.Sql.Rows { rows; _ } -> acc + List.length rows
        | _ -> acc)
      0 dbs
  in
  let lost = ref 0 and duplicated = ref 0 and committed_txns = ref 0 in
  List.iteri
    (fun idx stmts ->
      let gtxn = Printf.sprintf "coord:%d" (idx + 1) in
      let want = if Hashtbl.mem decided gtxn then 1 else 0 in
      if want = 1 then incr committed_txns;
      List.iter
        (fun (k, _) ->
          let n = count k in
          if n > want then incr duplicated else if n < want then incr lost)
        stmts)
    script;
  if !lost > 0 || !duplicated > 0 then begin
    Printf.eprintf "FATAL: e18 smoke: %d lost, %d duplicated decision(s)\n"
      !lost !duplicated;
    exit 1
  end;
  Printf.printf
    "e18 coordinator-crash smoke: crash at action %d/%d, %d committed, %d \
     in-doubt at crash, %d gtxn(s) listed and resolved, 0 lost / 0 duplicated\n"
    crash_action total !committed_txns indoubt_at_crash resolved

(* Build-breaking guard: an idle shard server costs the scheduler
   nothing, so a single-shard closed loop runs at the same throughput
   whatever the cluster size. A server that polls while idle (yields in
   its accept loop) charges each poll to the one global clock, and the
   single-shard rows drift apart as shards are added. *)
let e18_idle_shard_guard t =
  let cell = cell t.header in
  let single = List.filter (fun r -> cell r "mix" = S "single") t.rows in
  let shards = String.concat ", " (List.map (fun r -> text (cell r "shards")) single) in
  let tputs = List.map (fun r -> cell r "tput/1k ticks") single in
  match List.sort_uniq compare tputs with
  | [ tput ] ->
      Printf.printf "e18 idle-shard guard: ok (single-shard tput %s at %s shards)\n%!"
        (text tput) shards
  | _ ->
      Printf.eprintf "FATAL: e18: single-shard tput differs across %s shards: %s\n"
        shards (String.concat ", " (List.map exact tputs));
      exit 1

let e18 () =
  let t =
    {
      title =
        "E18  Sharding: 2PC cross-shard commit over hash partitions (escrow view, loopback)";
      header =
        [ "shards"; "mix"; "commits"; "tput/1k ticks"; "prepares"; "decides";
          "2pc"; "local"; "in-doubt" ];
      rows =
        List.concat_map
          (fun s ->
            if s = 1 then [ e18_cell s "single" ]
            else if s = 2 then [ e18_cell s "single"; e18_cell s "cross" ]
            else [ e18_cell s "single"; e18_cell s "cross"; e18_cell s "cross+read" ])
          [ 1; 2; 4 ];
    }
  in
  print_table t;
  e18_idle_shard_guard t;
  e18_crash_smoke ()

(* --- E19: cluster observability ----------------------------------------------------------- *)

(* The e18 cross-shard closed loop again, now with the coordinator's
   typed 2PC registry attached and — in the "on" cells — the
   gtxn-correlated trace streams (coordinator + every shard engine)
   enabled into a counting sink. Tracing never touches the virtual clock,
   so commits, throughput and the per-phase tick histograms the registry
   collected must be identical off/on (the guard after the table), and
   the cost is the event volume; its wall-clock cost is perfbench's
   bench.trace_overhead_frac. *)

let e19_cell shards traced =
  let script = e18_script ~shards ~txns:cell_txns (fun _ -> shards > 1) in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let metrics = Metrics.create () in
  let cwal = Wal.create metrics in
  let events = ref 0 in
  let trace = Ivdb_util.Trace.create ~clock:Sched.now ~fiber:Sched.self () in
  if traced then begin
    Ivdb_util.Trace.add_sink trace (fun _ -> incr events);
    Ivdb_util.Trace.set_enabled trace true;
    Array.iter
      (fun db ->
        let tr = Database.trace db in
        Ivdb_util.Trace.add_sink tr (fun _ -> incr events);
        Ivdb_util.Trace.set_enabled tr true)
      dbs
  end;
  let committed, ticks =
    with_cluster ~metrics ~trace ~wal:cwal dbs (fun c -> e18_timed c script)
  in
  let pcts name =
    let cells = Metrics.hist_snapshot metrics name in
    S
      (Printf.sprintf "%d/%d" (Metrics.percentile_cells cells 50.)
         (Metrics.percentile_cells cells 95.))
  in
  let tput = 1000. *. float_of_int committed /. float_of_int (max 1 ticks) in
  [
    i shards; S (if traced then "on" else "off"); i committed; f2 tput; i !events;
    pcts "coord.prepare.ticks"; pcts "coord.decide.ticks";
  ]

let e19_contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Build-breaking exporter smoke: drive a small cross-shard workload,
   scrape the coordinator's Metrics_http endpoint over a loopback HTTP
   round trip, and fail the build if any of the 2PC metric families is
   missing from the exposition. *)
let e19_exporter_smoke () =
  let shards = 2 in
  let script = e18_script ~shards ~txns:4 (fun _ -> true) in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let metrics = Metrics.create () in
  let body =
    with_cluster ~metrics ~wal:(Wal.create metrics) dbs (fun c ->
        e18_setup c;
        e18_run c script;
        let module Transport = Ivdb_transport.Transport in
        let net = Transport.Loopback.create () in
        let mlistener = Transport.Loopback.listener net in
        Ivdb_server.Metrics_http.serve metrics mlistener;
        let conn = Transport.Loopback.connect net in
        conn.Transport.write "GET /metrics HTTP/1.0\r\n\r\n";
        let chunk = Bytes.create 4096 in
        let acc = Buffer.create 4096 in
        let rec drain () =
          let n = conn.Transport.read chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes acc chunk 0 n;
            drain ()
          end
        in
        drain ();
        conn.Transport.close ();
        mlistener.Transport.stop ();
        Buffer.contents acc)
  in
  let required =
    [
      "ivdb_coord_votes_yes"; "ivdb_coord_commit_2pc";
      "ivdb_coord_commit_fast_path"; "ivdb_coord_prepare_ticks";
      "ivdb_coord_decision_force_ticks"; "ivdb_coord_decide_ticks";
      "ivdb_coord_indoubt"; "ivdb_log_force";
    ]
  in
  let missing = List.filter (fun f -> not (e19_contains body f)) required in
  if missing <> [] then begin
    Printf.eprintf "FATAL: e19 smoke: exporter is missing %s\n"
      (String.concat ", " missing);
    exit 1
  end;
  if not (e19_contains body "200 OK") then begin
    Printf.eprintf "FATAL: e19 smoke: exporter did not answer 200\n";
    exit 1
  end;
  Printf.printf
    "e19 exporter smoke: scraped %d bytes, all %d 2PC metric families \
     present\n"
    (String.length body) (List.length required)

let e19 () =
  let header =
    [ "shards"; "trace"; "commits"; "tput/1k ticks"; "events"; "prepare p50/p95";
      "decide p50/p95" ]
  in
  let pairs = List.map (fun s -> (e19_cell s false, e19_cell s true)) [ 1; 2; 4 ] in
  print_table
    {
      title =
        "E19  Cluster observability: per-phase 2PC metrics, trace on/off (loopback)";
      header;
      rows = List.concat_map (fun (off, on) -> [ off; on ]) pairs;
    };
  assert_same_schedule "e19" header
    [ "commits"; "tput/1k ticks"; "prepare p50/p95"; "decide p50/p95" ]
    pairs;
  e19_exporter_smoke ()

(* --- M0: bechamel micro-benchmarks ------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  (* shared fixtures, built once *)
  let h_metrics = Metrics.create () in
  let disk = Ivdb_storage.Disk.create ~read_cost:0 ~write_cost:0 h_metrics in
  let pool = Ivdb_storage.Bufpool.create disk ~capacity:1024 h_metrics in
  let wal = Wal.create h_metrics in
  Ivdb_storage.Bufpool.set_wal_force pool (fun lsn -> Wal.force wal (Int64.to_int lsn));
  let locks = Ivdb_lock.Lock_mgr.create h_metrics in
  let mgr = Txn.create_mgr ~wal ~locks ~pool h_metrics in
  let tree = Ivdb_btree.Btree.create mgr ~index_id:1 in
  let key k = Ivdb_relation.Key_codec.encode [| Value.Int k |] in
  Txn.system mgr (fun stx ->
      for k = 1 to 10_000 do
        Ivdb_btree.Btree.insert stx tree ~key:(key k) ~value:(Printf.sprintf "v%06d" k)
      done);
  let rng = Rng.create 99 in
  let sample_row =
    [| Value.Int 42; Value.Str "payload"; Value.Float 3.14; Value.Bool true |]
  in
  let sample_encoded = Row.encode sample_row in
  let def =
    {
      View_def.name = "m";
      group_cols = [| 0 |];
      aggs = [| View_def.Sum (Expr.Col 1) |];
      source = View_def.Single { table = 1; where = None };
    }
  in
  let stored = Ivdb_core.Aggregate.zero_row def in
  let delta =
    match Ivdb_core.Aggregate.delta_of_row def ~sign:1 [| Value.Int 1; Value.Int 5 |] with
    | Some (_, d) -> d
    | None -> assert false
  in
  let counter = ref 100_000 in
  (* two page images one 8-byte word apart, and a resident page to write *)
  let diff_before = Ivdb_storage.Page.alloc () in
  let diff_after = Bytes.copy diff_before in
  Bytes.set_int64_le diff_after 4096 1L;
  let upd_page = Ivdb_storage.Disk.alloc_page disk in
  (* an escrow view row's hot path: a same-size value overwritten in its
     leaf, alternating between two values so every update changes bytes *)
  let esc_key = key 5_000 in
  let esc_values = [| "v005000"; "w005000" |] in
  let tests =
    [
      Test.make ~name:"page_diff.compute (one 8-byte change)"
        (Staged.stage (fun () ->
             ignore
               (Ivdb_storage.Page_diff.compute ~before:diff_before ~after:diff_after)));
      Test.make ~name:"bufpool.update (8-byte write)"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Ivdb_storage.Bufpool.update pool upd_page (fun w ->
                    Ivdb_storage.Page_writer.set_u32 w 4096 (!counter land 0xFFFF);
                    Ivdb_storage.Page_writer.set_u32 w 4100 (!counter land 0xFFFF)))));
      Test.make ~name:"btree.update (escrow leaf value)"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Ivdb_btree.Btree.update_raw tree ~key:esc_key
                  ~value:esc_values.(!counter land 1))));
      Test.make ~name:"btree.search (10k)"
        (Staged.stage (fun () ->
             ignore (Ivdb_btree.Btree.search tree (key (1 + Rng.int rng 10_000)))));
      Test.make ~name:"btree.insert+delete"
        (Staged.stage (fun () ->
             incr counter;
             let k = key !counter in
             Ivdb_btree.Btree.insert_raw tree ~key:k ~value:"x" |> ignore;
             Ivdb_btree.Btree.delete_raw tree ~key:k |> ignore));
      Test.make ~name:"btree.next_key"
        (Staged.stage (fun () ->
             ignore (Ivdb_btree.Btree.next_key tree (key (Rng.int rng 10_000)))));
      Test.make ~name:"row.encode"
        (Staged.stage (fun () -> ignore (Row.encode sample_row)));
      Test.make ~name:"row.decode"
        (Staged.stage (fun () -> ignore (Row.decode sample_encoded)));
      Test.make ~name:"key_codec.encode"
        (Staged.stage (fun () ->
             ignore (Ivdb_relation.Key_codec.encode sample_row)));
      Test.make ~name:"lock.acquire+release"
        (Staged.stage (fun () ->
             Ivdb_lock.Lock_mgr.acquire locks ~txn:1 (Ivdb_lock.Lock_name.Table 9)
               Ivdb_lock.Lock_mode.S;
             Ivdb_lock.Lock_mgr.release_all locks ~txn:1));
      Test.make ~name:"escrow.apply_delta"
        (Staged.stage (fun () ->
             ignore (Ivdb_core.Aggregate.apply def stored delta)));
      Test.make ~name:"wal.append"
        (Staged.stage (fun () ->
             ignore (Wal.append wal ~txn:1 ~prev:0 Ivdb_wal.Log_record.Commit)));
      Test.make ~name:"sql.parse select"
        (Staged.stage (fun () ->
             ignore
               (Ivdb_sql.Sql_parser.parse
                  "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 3")));
      Test.make ~name:"log_record.encode"
        (Staged.stage
           (let r =
              {
                Ivdb_wal.Log_record.lsn = 1;
                txn = 7;
                prev = 0;
                body =
                  Ivdb_wal.Log_record.Update
                    {
                      redo = [ (3, [ (100, "0123456789abcdef") ]) ];
                      undo =
                        Ivdb_wal.Log_record.Undo_escrow
                          { view = 9; key = "k"; inverse = "xyz" };
                    };
              }
            in
            fun () -> ignore (Ivdb_wal.Log_record.encode r)));
    ]
  in
  (* no [stabilize]: compacting the heap before every sample, in a process
     holding the fixtures above, made small operations read 3-7x their
     plain-loop time in the same process (bufpool.read 197 ns against
     37 ns) *)
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.3) ~kde:None () in
  let rows =
    List.map
      (fun test ->
        let results =
          Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"g" [ test ])
        in
        Hashtbl.fold
          (fun name bench acc ->
            let ols =
              Analyze.one
                (Analyze.ols ~r_square:false ~bootstrap:0
                   ~predictors:[| Measure.run |])
                Instance.monotonic_clock bench
            in
            let ns =
              match Analyze.OLS.estimates ols with
              | Some (x :: _) -> x
              | _ -> nan
            in
            [ S name; f1 ns ] :: acc)
          results []
        |> List.hd)
      tests
  in
  print_table
    {
      title = "M0  Substrate micro-benchmarks (bechamel)";
      header = [ "operation"; "ns/op" ];
      rows;
    }

(* --- driver ------------------------------------------------------------------------------- *)

let series =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19);
  ]

let modes = series @ [ ("micro", micro) ]

let () =
  let chosen =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map snd series
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n modes with
            | Some f -> f
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" n
                  (String.concat ", " (List.map fst modes));
                exit 2)
          names
  in
  List.iter (fun f -> f ()) chosen
