(* Benchmark harness: regenerates every experiment table/figure of the
   reproduction (E1-E8, see DESIGN.md / EXPERIMENTS.md) plus the bechamel
   micro-benchmarks (M0).

   Usage: main.exe [e1|e2|...|e8|micro]...; no arguments runs everything. *)

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
module Zipf = Ivdb_util.Zipf
module Fault = Ivdb_storage.Fault
module Sched = Ivdb_sched.Sched

(* --- table printing -------------------------------------------------------- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell -> Printf.sprintf "%*s" (List.nth widths i) cell)
         row)
  in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows;
  flush stdout

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i = string_of_int

let strategy_name = Maintain.strategy_to_string

(* --- E1: read benefit of indexed views -------------------------------------- *)

(* Query latency: indexed-view point lookup vs aggregation on demand,
   growing the base table. The paper's motivation: the view turns an O(N)
   aggregation into an O(log N) lookup. *)
let e1 () =
  let rows_of n =
    let config =
      { Database.default_config with read_cost = 0; write_cost = 0; pool_capacity = 4096 }
    in
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
    let rng = Rng.create 7 in
    Database.transact db (fun tx ->
        for k = 1 to n do
          ignore
            (Table.insert db tx t
               [| Value.Int k; Value.Int (Rng.int rng 100); Value.Int (1 + Rng.int rng 9) |])
        done);
    let v =
      Database.create_view db ~name:"by_product" ~group_by:[ "product" ]
        ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
        ~source:(Database.From (t, None))
        ~strategy:Maintain.Escrow ()
    in
    let time_it iters f =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e6
    in
    let lookup_us =
      time_it 2000 (fun () ->
          ignore (Query.view_lookup db None v [| Value.Int (Rng.int rng 100) |]))
    in
    let ondemand_us =
      time_it (max 3 (20000 / n)) (fun () ->
          ignore (Query.on_demand_aggregate db None (Database.view_def db v)))
    in
    [ i n; f2 lookup_us; f2 ondemand_us; f1 (ondemand_us /. lookup_us) ]
  in
  print_table
    ~title:"E1  Indexed view vs on-demand aggregation (100 groups, point query)"
    ~header:[ "base rows"; "view lookup (us)"; "on-demand agg (us)"; "speedup" ]
    (List.map rows_of [ 1_000; 5_000; 20_000; 50_000 ])

(* --- E2: writer throughput under contention ---------------------------------- *)

let e2 () =
  let cell strategy mpl =
    let spec =
      {
        Workload.default with
        seed = 2;
        strategy;
        mpl;
        txns_per_worker = max 1 (256 / mpl);
        n_groups = 20;
        theta = 0.99;
        delete_fraction = 0.1;
      }
    in
    let r = Workload.run spec in
    let per_txn x = float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      strategy_name strategy;
      i mpl;
      i r.Workload.committed;
      f2 r.Workload.throughput;
      f2 (per_txn r.Workload.lock_waits);
      i r.Workload.deadlocks;
      i r.Workload.retries;
      f1 r.Workload.mean_latency;
      f1 r.Workload.p95_latency;
    ]
  in
  let mpls = [ 1; 2; 4; 8; 16; 32 ] in
  print_table
    ~title:
      "E2  Writer scalability on a hot skewed view (zipf 0.99 over 20 groups, ~256 txns)"
    ~header:
      [ "strategy"; "mpl"; "commits"; "tput/1k ticks"; "waits/txn"; "deadlocks";
        "retries"; "lat mean"; "lat p95" ]
    (List.concat_map
       (fun s -> List.map (cell s) mpls)
       [ Maintain.Exclusive; Maintain.Escrow ])

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
        delete_fraction = 0.1;
      }
    in
    let r = Workload.run spec in
    let per100 x = 100. *. float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    [
      strategy_name strategy;
      f2 theta;
      i r.Workload.committed;
      f2 (per100 r.Workload.deadlocks);
      f2 (per100 r.Workload.retries);
      f2 (per100 r.Workload.lock_waits);
      f1 r.Workload.p95_latency;
    ]
  in
  let thetas = [ 0.0; 0.5; 0.9; 0.99; 1.2 ] in
  print_table
    ~title:"E3  Conflict rate vs access skew (mpl 16, 50 groups)"
    ~header:
      [ "strategy"; "theta"; "commits"; "deadlocks/100"; "retries/100";
        "waits/100"; "lat p95" ]
    (List.concat_map
       (fun s -> List.map (cell s) thetas)
       [ Maintain.Exclusive; Maintain.Escrow ])

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
        ops_per_txn = 4;
        delete_fraction = 0.;
        n_views;
        initial_rows = 100;
        config = Database.default_config (* real I/O costs *);
      }
    in
    let r = Workload.run spec in
    let per_txn x = float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    let get n = match List.assoc_opt n r.Workload.metrics with Some v -> v | None -> 0 in
    [
      (if n_views = 0 then "none" else strategy_name strategy);
      i n_views;
      i r.Workload.committed;
      f1 (float_of_int r.Workload.ticks /. float_of_int (max 1 r.Workload.committed));
      f1 (per_txn (get "log.bytes"));
      f2 (per_txn (get "disk.read" + get "disk.write"));
    ]
  in
  let rows =
    cell Maintain.Escrow 0
    :: List.concat_map
         (fun s -> List.map (cell s) [ 1; 2; 4 ])
         [ Maintain.Escrow; Maintain.Deferred ]
  in
  print_table
    ~title:"E4  Writer-side cost of immediate vs deferred maintenance (mpl 1, 200 txns)"
    ~header:[ "strategy"; "views"; "commits"; "ticks/txn"; "log B/txn"; "IOs/txn" ]
    rows

(* --- E5: deferred refresh amortization -------------------------------------------- *)

let e5 () =
  let cell batch =
    let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
    let spec =
      { Workload.default with seed = 5; strategy = Maintain.Deferred; config }
    in
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
    let t0 = Unix.gettimeofday () in
    let applied = Database.transact db (fun tx -> Query.refresh db tx v) in
    let us = (Unix.gettimeofday () -. t0) *. 1e6 in
    let touched = Metrics.get m "view.exclusive_update" - touched_before in
    [
      i batch;
      i pending;
      i applied;
      i touched;
      f1 us;
      f2 (us /. float_of_int (max 1 applied));
    ]
  in
  print_table
    ~title:"E5  Deferred maintenance: refresh cost amortizes with batch size (20 groups)"
    ~header:
      [ "batch"; "staleness"; "deltas applied"; "view rows touched"; "refresh us";
        "us/delta" ]
    (List.map cell [ 1; 10; 100; 1000 ])

(* --- E6: recovery ------------------------------------------------------------------- *)

let e6 () =
  let cell ?(ckpt = false) txns =
    let spec =
      {
        Workload.default with
        seed = 6;
        strategy = Maintain.Escrow;
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
    let t0 = Unix.gettimeofday () in
    let db' = Database.crash db in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let m = Database.metrics db' in
    let rows_after = Table.row_count db' (Database.table db' "sales") in
    [
      (if ckpt then i txns ^ " +ckpt" else i txns);
      i (Metrics.get m "recovery.stable_records");
      i (Metrics.get m "recovery.redo_applied");
      i (Metrics.get m "recovery.losers");
      f2 ms;
      i rows_after;
      string_of_bool
        (Workload.check_consistency db' (Database.view db' "sales_by_product_0"));
    ]
  in
  print_table
    ~title:"E6  Restart recovery vs log length (crash with 5 in-flight losers)"
    ~header:
      [ "txns"; "stable log recs"; "redo applied"; "losers undone"; "recovery ms";
        "rows after"; "view consistent" ]
    (List.concat_map (fun n -> [ cell n; cell ~ckpt:true n ]) [ 200; 1000; 3000 ])

(* --- E7: reader locking granularity -------------------------------------------------- *)

let e7 () =
  let cell locking =
    let spec =
      {
        Workload.default with
        seed = 7;
        strategy = Maintain.Escrow;
        mpl = 8;
        txns_per_worker = 40;
        read_fraction = 0.5;
        reader_scan = false;
        reader_locking = locking;
        n_groups = 50;
        theta = 0.5;
      }
    in
    let r = Workload.run spec in
    let writers = r.Workload.committed - r.Workload.committed_readers in
    [
      (match locking with
      | Workload.Key_range -> "key-range"
      | Workload.Coarse_table -> "table S lock"
      | Workload.Snapshot -> "mvcc snapshot");
      i r.Workload.committed;
      i r.Workload.committed_readers;
      i writers;
      i r.Workload.lock_waits;
      i r.Workload.deadlocks;
      f1 r.Workload.mean_latency;
      f1 r.Workload.p95_latency;
    ]
  in
  print_table
    ~title:
      "E7  Serializable view readers vs writers: key-range locks vs coarse table locks"
    ~header:
      [ "reader locking"; "commits"; "readers"; "writers"; "lock waits";
        "deadlocks"; "lat mean"; "lat p95" ]
    (List.map cell [ Workload.Key_range; Workload.Coarse_table ])

(* --- E8: group lifecycle churn --------------------------------------------------------- *)

let e8 () =
  let cell create_mode =
    let spec =
      {
        Workload.default with
        seed = 8;
        strategy = Maintain.Escrow;
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
    let get n = match List.assoc_opt n r.Workload.metrics with Some v -> v | None -> 0 in
    [
      (match create_mode with
      | Maintain.System_txn -> "system txn"
      | Maintain.User_txn -> "user txn");
      i r.Workload.committed;
      i (get "view.group_create" + get "view.group_create_user");
      i (get "view.gc_removed" + removed);
      i zero_left;
      i r.Workload.lock_waits;
      i r.Workload.deadlocks;
      f1 r.Workload.p95_latency;
    ]
  in
  print_table
    ~title:"E8  Group create/delete churn: system-transaction vs user-transaction creation"
    ~header:
      [ "creation"; "commits"; "creates"; "gc removed"; "zero rows left";
        "lock waits"; "deadlocks"; "lat p95" ]
    (List.map cell [ Maintain.System_txn; Maintain.User_txn ])

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
    let t0 = Unix.gettimeofday () in
    Database.transact db (fun tx ->
        for k = 1 to rows_n do
          ignore (Table.insert db tx t [| Value.Int k; Value.Int k |])
        done);
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let m = Database.metrics db in
    [
      (match threshold with None -> "off" | Some n -> string_of_int n);
      i rows_n;
      i (Metrics.get m "lock.acquire");
      i (Metrics.get m "lock.escalation");
      f2 ms;
    ]
  in
  print_table
    ~title:"E9  Lock escalation: bulk-load lock footprint (single transaction)"
    ~header:[ "threshold"; "rows"; "lock acquisitions"; "escalations"; "wall ms" ]
    (List.concat_map
       (fun n -> [ cell None n; cell (Some 100) n ])
       [ 1_000; 5_000; 20_000 ])

(* --- E10: bounds reads vs blocking reads ------------------------------------------------- *)

let e10 () =
  let run mode =
    let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
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
      Database.create_view db ~name:"v" ~group_by:[ "product" ]
        ~aggs:[ View_def.Sum (Expr.col (Database.schema db t) "qty") ]
        ~source:(Database.From (t, None))
        ~strategy:Maintain.Escrow ()
    in
    Database.transact db (fun tx ->
        ignore (Table.insert db tx t [| Value.Int 0; Value.Int 1; Value.Int 1 |]));
    let lat = Ivdb_util.Stats.create () in
    let widths = Ivdb_util.Stats.create () in
    let reads = 60 in
    Ivdb_sched.Sched.run ~seed:10 (fun () ->
        (* writers hammer group 1, holding E locks across yields *)
        for w = 1 to 6 do
          ignore
            (Ivdb_sched.Sched.spawn (fun () ->
                 for k = 1 to 40 do
                   Database.transact db (fun tx ->
                       ignore
                         (Table.insert db tx t
                            [| Value.Int ((w * 1000) + k); Value.Int 1; Value.Int 1 |]);
                       Ivdb_sched.Sched.yield ();
                       Ivdb_sched.Sched.yield ())
                 done))
        done;
        (* one reader samples the hot group *)
        ignore
          (Ivdb_sched.Sched.spawn (fun () ->
               for _ = 1 to reads do
                 let t0 = Ivdb_sched.Sched.now () in
                 (match mode with
                 | `Blocking ->
                     Database.transact db (fun tx ->
                         ignore (Query.view_lookup db (Some tx) v [| Value.Int 1 |]))
                 | `Bounds -> (
                     match Query.view_lookup_bounds db v [| Value.Int 1 |] with
                     | Some (lo, hi) ->
                         Ivdb_util.Stats.add widths
                           (Value.to_float hi.(1) -. Value.to_float lo.(1))
                     | None -> ()));
                 Ivdb_util.Stats.add lat (float_of_int (Ivdb_sched.Sched.now () - t0));
                 Ivdb_sched.Sched.yield ()
               done)))
    ;
    let mean = Ivdb_util.Stats.mean lat in
    let p95 = if Ivdb_util.Stats.count lat = 0 then 0. else Ivdb_util.Stats.percentile lat 95. in
    let width = if Ivdb_util.Stats.count widths = 0 then 0. else Ivdb_util.Stats.mean widths in
    [
      (match mode with `Blocking -> "serializable lookup" | `Bounds -> "escrow bounds");
      i reads;
      f1 mean;
      f1 p95;
      f2 width;
    ]
  in
  print_table
    ~title:"E10  Reading a hot escrow group: blocking lookup vs bounds read"
    ~header:[ "reader mode"; "reads"; "lat mean (ticks)"; "lat p95"; "avg interval width" ]
    [ run `Blocking; run `Bounds ]

(* --- E12: recovery under injected faults ------------------------------------------------ *)

(* Run the workload under each fault mode, recover from the (injected or
   end-of-run) crash, and measure what recovery had to do. "rate" is the
   transient-error probability for the error rows, 0 for the crash rows;
   recovery time is wall clock. Every cell also re-checks invariant V1. *)
let fault_cells ~quick =
  let budget = if quick then 96 else 384 in
  let mpl = 8 in
  let spec =
    {
      Workload.default with
      seed = 23;
      strategy = Maintain.Escrow;
      mpl;
      txns_per_worker = max 1 (budget / mpl);
      delete_fraction = 0.1;
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
    let t0 = Unix.gettimeofday () in
    let db' = Database.crash db in
    let recov_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let get n = Metrics.get (Database.metrics db') n in
    let consistent =
      Workload.check_consistency db' (Database.view db' "sales_by_product_0")
    in
    let retries =
      match List.assoc_opt "buffer.io_retry" r.Workload.metrics with
      | Some v -> v
      | None -> 0
    in
    let row =
      [
        name;
        f2 rate;
        i r.Workload.committed;
        (if r.Workload.crashed then "yes" else "no");
        f2 recov_ms;
        i (get "recovery.redo_applied");
        i (get "recovery.torn_pages");
        i (get "wal.torn_tail_dropped");
        i (get "recovery.losers");
        i retries;
        string_of_bool consistent;
      ]
    in
    let json =
      Printf.sprintf
        {|    {"fault": "%s", "rate": %.2f, "committed": %d, "crashed": %b, "recovery_ms": %.3f, "redo_applied": %d, "torn_pages": %d, "torn_tail_dropped": %d, "losers": %d, "io_retries": %d, "consistent": %b}|}
        name rate r.Workload.committed r.Workload.crashed recov_ms
        (get "recovery.redo_applied") (get "recovery.torn_pages")
        (get "wal.torn_tail_dropped") (get "recovery.losers") retries consistent
    in
    (row, json)
  in
  let n = Fault.no_faults in
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
    ]

let e12_title = "E12  Recovery under injected faults (escrow, mpl 8, ckpt every 10)"

let e12_header =
  [ "fault"; "rate"; "commits"; "crashed"; "recov ms"; "redo"; "torn pg";
    "tail drop"; "losers"; "io retry"; "consistent" ]

let e12 () =
  let cells = fault_cells ~quick:false in
  print_table ~title:e12_title ~header:e12_header (List.map fst cells)

(* --- E11: commit path — per-commit force vs group commit vs async ----------------------- *)

(* Escrow removes the lock bottleneck on the hot aggregate rows, so with a
   private force per commit the 100-tick log force is the throughput
   ceiling; batching commits behind the coordinator amortizes it. Also
   emits machine-readable BENCH_commit.json for trend tracking. *)
(* --- E13: network serving layer ---------------------------------------------------------- *)

(* Throughput/latency of the wire-protocol server under a closed loop of
   client connections: loopback (deterministic) vs real TCP sockets, sync
   vs group commit, plus an overloaded cell where admission control sheds
   with Busy frames. Group commit finally earns its keep here: the batches
   come from genuinely independent client connections. *)
let e13_title =
  "E13  Network serving: transport x commit mode x connections (escrow, zipf 0.99)"

let e13_header =
  [ "transport"; "commit mode"; "clients"; "cap"; "commits"; "tput/1k ticks";
    "p95 lat"; "forces/commit"; "mean batch"; "shed" ]

let e13_cells ~quick =
  let module Server = Ivdb_server.Server in
  let module Net_workload = Ivdb_client.Net_workload in
  let budget = if quick then 64 else 256 in
  let cell (tname, transport) (mode_name, mode) ~mpl ~max_inflight =
    let spec =
      {
        Workload.default with
        seed = 11;
        strategy = Maintain.Escrow;
        mpl;
        txns_per_worker = max 1 (budget / mpl);
        n_groups = 20;
        theta = 0.99;
        delete_fraction = 0.1;
        config = { Workload.default.Workload.config with commit_mode = mode };
      }
    in
    let server_config =
      { Server.default_config with max_inflight; busy_retry_ticks = 50 }
    in
    let r, _db = Net_workload.run_net ~transport ~server_config spec in
    let get n =
      match List.assoc_opt n r.Workload.metrics with Some v -> v | None -> 0
    in
    let per_commit x =
      float_of_int x /. float_of_int (max 1 r.Workload.committed)
    in
    let row =
      [
        tname; mode_name; i mpl; i max_inflight; i r.Workload.committed;
        f2 r.Workload.throughput; f1 r.Workload.p95_latency;
        f2 (per_commit r.Workload.forces); f2 r.Workload.mean_batch;
        i (get "server.shed");
      ]
    in
    let json =
      Printf.sprintf
        {|    {"transport": "%s", "mode": "%s", "clients": %d, "max_inflight": %d, "committed": %d, "throughput_per_1k_ticks": %.3f, "p95_latency_ticks": %.1f, "forces_per_commit": %.4f, "mean_batch": %.2f, "shed": %d, "accepted": %d, "requests": %d, "wall_s": %.4f}|}
        tname mode_name mpl max_inflight r.Workload.committed
        r.Workload.throughput r.Workload.p95_latency
        (per_commit r.Workload.forces)
        r.Workload.mean_batch (get "server.shed") (get "server.accepted")
        (get "server.requests") r.Workload.wall_s
    in
    (row, json)
  in
  let sync = ("sync", Txn.Sync) in
  let group = ("group", Txn.Group { max_batch = 32; max_wait_ticks = 50 }) in
  let loopback = ("loopback", Net_workload.Loopback) in
  let tcp = ("tcp", Net_workload.Tcp) in
  let mpls = if quick then [ 4; 8 ] else [ 2; 4; 8; 16 ] in
  let scaling =
    List.concat_map
      (fun mpl ->
        [
          cell loopback sync ~mpl ~max_inflight:64;
          cell loopback group ~mpl ~max_inflight:64;
        ])
      mpls
  in
  let tcp_mpl = if quick then 4 else 8 in
  let tcp_cells =
    [
      cell tcp sync ~mpl:tcp_mpl ~max_inflight:64;
      cell tcp group ~mpl:tcp_mpl ~max_inflight:64;
    ]
  in
  (* overload: twice as many clients as admission slots; shed > 0 and the
     run still completes because refused clients back off and retry *)
  let overload = [ cell loopback group ~mpl:16 ~max_inflight:4 ] in
  scaling @ tcp_cells @ overload

let e13 () =
  let cells = e13_cells ~quick:false in
  print_table ~title:e13_title ~header:e13_header (List.map fst cells)

(* --- E14: introspection overhead --------------------------------------------------------- *)

(* Cost of the live-introspection plumbing on the E13 closed loop: the rid
   correlation ids ride in every Exec frame unconditionally (wire v2), so
   the measurable knob is the slow-query log. threshold = None turns it
   off entirely; Some 0 is the worst case (every request is "slow": a
   bounded-queue push + a Slow_query trace event per statement). The
   interesting result is the ticks column: the log does no yields, so the
   simulated schedule is identical and the overhead is wall-clock only. *)
let e14_title =
  "E14  Introspection overhead: slow-query log on the E13 closed loop (loopback, group commit, escrow)"

let e14_header =
  [ "slow log"; "threshold"; "clients"; "commits"; "ticks"; "tput/1k ticks";
    "slow entries"; "wall_s" ]

let e14_cells ~quick =
  let module Server = Ivdb_server.Server in
  let module Net_workload = Ivdb_client.Net_workload in
  let budget = if quick then 64 else 256 in
  let cell name threshold ~mpl =
    let spec =
      {
        Workload.default with
        seed = 11;
        strategy = Maintain.Escrow;
        mpl;
        txns_per_worker = max 1 (budget / mpl);
        n_groups = 20;
        theta = 0.99;
        delete_fraction = 0.1;
        config =
          {
            Workload.default.Workload.config with
            commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
          };
      }
    in
    let server_config =
      { Server.default_config with slow_query_ticks = threshold }
    in
    let r, db = Net_workload.run_net ~server_config spec in
    let slow = Metrics.get (Database.metrics db) "server.slow_queries" in
    let row =
      [
        name;
        (match threshold with None -> "-" | Some t -> string_of_int t);
        i mpl; i r.Workload.committed; i r.Workload.ticks;
        f2 r.Workload.throughput; i slow; Printf.sprintf "%.4f" r.Workload.wall_s;
      ]
    in
    let json =
      Printf.sprintf
        {|    {"slow_log": "%s", "threshold": %s, "clients": %d, "committed": %d, "ticks": %d, "throughput_per_1k_ticks": %.3f, "slow_entries": %d, "wall_s": %.4f}|}
        name
        (match threshold with None -> "null" | Some t -> string_of_int t)
        mpl r.Workload.committed r.Workload.ticks r.Workload.throughput slow
        r.Workload.wall_s
    in
    (row, json)
  in
  let mpl = if quick then 4 else 8 in
  [
    cell "off" None ~mpl;
    cell "on (idle)" (Some 1_000_000) ~mpl;
    cell "on (worst)" (Some 0) ~mpl;
  ]

let e14 () =
  let cells = e14_cells ~quick:false in
  print_table ~title:e14_title ~header:e14_header (List.map fst cells)

(* --- E15: MVCC snapshot readers vs S-lock readers ---------------------------------------- *)

(* The D14 payoff: at high MPL a read-heavy mix over a hot escrow view,
   with readers either taking the paper's per-key RangeS_S locks or running
   as lock-free MVCC snapshots. Snapshot readers never enter the lock
   manager, so reader throughput climbs with MPL instead of queueing
   behind writers' E locks, while writer commit throughput stays within
   noise of the locked baseline. *)
let e15_title =
  "E15  Snapshot readers vs key-range S-lock readers (escrow writers, zipf 0.99, 60% reads)"

let e15_header =
  [ "reader mode"; "mpl"; "commits"; "readers"; "writers"; "reader tput";
    "writer tput"; "lock waits"; "lat mean"; "lat p95" ]

let e15_cells ~quick =
  let budget = if quick then 128 else 768 in
  let cell locking mpl =
    let spec =
      {
        Workload.default with
        seed = 15;
        strategy = Maintain.Escrow;
        mpl;
        txns_per_worker = max 1 (budget / mpl);
        read_fraction = 0.6;
        reader_scan = false;
        reader_locking = locking;
        n_groups = 20;
        theta = 0.99;
        delete_fraction = 0.1;
      }
    in
    let r = Workload.run spec in
    let writers = r.Workload.committed - r.Workload.committed_readers in
    let per_1k x = 1000. *. float_of_int x /. float_of_int (max 1 r.Workload.ticks) in
    let name =
      match locking with
      | Workload.Key_range -> "s-lock key-range"
      | Workload.Coarse_table -> "table S lock"
      | Workload.Snapshot -> "mvcc snapshot"
    in
    let get n = match List.assoc_opt n r.Workload.metrics with Some v -> v | None -> 0 in
    let row =
      [
        name; i mpl; i r.Workload.committed; i r.Workload.committed_readers;
        i writers;
        f2 (per_1k r.Workload.committed_readers);
        f2 (per_1k writers);
        i r.Workload.lock_waits;
        f1 r.Workload.mean_latency;
        f1 r.Workload.p95_latency;
      ]
    in
    let json =
      Printf.sprintf
        {|    {"reader_mode": "%s", "mpl": %d, "committed": %d, "readers": %d, "writers": %d, "reader_tput_per_1k_ticks": %.3f, "writer_tput_per_1k_ticks": %.3f, "lock_waits": %d, "snapshot_begins": %d, "versions_pruned": %d, "mean_latency_ticks": %.1f, "p95_latency_ticks": %.1f}|}
        name mpl r.Workload.committed r.Workload.committed_readers writers
        (per_1k r.Workload.committed_readers)
        (per_1k writers) r.Workload.lock_waits
        (get "txn.snapshot_begin")
        (get "mvcc.versions_pruned")
        r.Workload.mean_latency r.Workload.p95_latency
    in
    (row, json)
  in
  let mpls = if quick then [ 8; 16 ] else [ 8; 16; 32 ] in
  List.concat_map
    (fun mpl -> [ cell Workload.Key_range mpl; cell Workload.Snapshot mpl ])
    mpls

let e15 () =
  let cells = e15_cells ~quick:false in
  print_table ~title:e15_title ~header:e15_header (List.map fst cells)

(* --- E16: read replicas via WAL shipping ------------------------------------------------ *)

(* A follower attached over a second loopback connection streams the
   primary's WAL while the closed-loop workload runs. The interesting
   numbers: how far the replica trails the primary under write pressure
   (lag, in log records), what the attached follower costs the primary
   (commit throughput with vs without it), and how long after the last
   commit the replica takes to drain the residual lag. Every replicated
   cell ends with a bit-identical state-digest comparison against the
   primary — divergence is a correctness bug and kills the run. *)
let e16_title =
  "E16  Read replica via WAL shipping: lag and primary overhead (escrow, group commit, zipf 0.99)"

let e16_header =
  [ "follower"; "mpl"; "commits"; "tput/1k ticks"; "lag max"; "lag mean";
    "batches"; "reconnects"; "catchup"; "digest" ]

let e16_cells ~quick =
  let module Net_workload = Ivdb_client.Net_workload in
  let budget = if quick then 64 else 256 in
  let spec_for mpl =
    {
      Workload.default with
      seed = 16;
      strategy = Maintain.Escrow;
      mpl;
      txns_per_worker = max 1 (budget / mpl);
      n_groups = 20;
      theta = 0.99;
      delete_fraction = 0.1;
      config =
        {
          Workload.default.Workload.config with
          commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
        };
    }
  in
  let solo mpl =
    let r, _db =
      Net_workload.run_net ~transport:Net_workload.Loopback (spec_for mpl)
    in
    let row =
      [ "no"; i mpl; i r.Workload.committed; f2 r.Workload.throughput;
        "-"; "-"; "-"; "-"; "-"; "-" ]
    in
    let json =
      Printf.sprintf
        {|    {"follower": false, "mpl": %d, "committed": %d, "throughput_per_1k_ticks": %.3f}|}
        mpl r.Workload.committed r.Workload.throughput
    in
    (row, json)
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
    let row =
      [ "yes"; i mpl; i r.Workload.committed; f2 r.Workload.throughput;
        i rep.Net_workload.lag_max; f2 rep.Net_workload.lag_mean;
        i rep.Net_workload.ship_batches; i rep.Net_workload.reconnects;
        i rep.Net_workload.catchup_ticks; "match" ]
    in
    let json =
      Printf.sprintf
        {|    {"follower": true, "mpl": %d, "committed": %d, "throughput_per_1k_ticks": %.3f, "lag_max_records": %d, "lag_mean_records": %.2f, "ship_batches": %d, "reconnects": %d, "catchup_ticks": %d, "digest_match": true}|}
        mpl r.Workload.committed r.Workload.throughput
        rep.Net_workload.lag_max rep.Net_workload.lag_mean
        rep.Net_workload.ship_batches rep.Net_workload.reconnects
        rep.Net_workload.catchup_ticks
    in
    (row, json)
  in
  let mpls = if quick then [ 8 ] else [ 8; 16 ] in
  List.concat_map (fun mpl -> [ solo mpl; replicated mpl ]) mpls

let e16 () =
  let cells = e16_cells ~quick:false in
  print_table ~title:e16_title ~header:e16_header (List.map fst cells)

(* --- E17: failover — follower promotion under a primary crash --------------------------- *)

(* The replicated workload crashed at a chosen force point: the follower
   final-ships the dead primary's SURVIVING log image (Wal.crash applies
   any pending tear first), then promotes. Reported per crash point: the
   log suffix past the follower's commit horizon, the buffered in-flight
   tail the promotion drained, losers rolled back, undo records appended,
   and the promotion latency in simulated ticks. Every cell ends with the
   zero-loss check — the promoted digest must equal single-node recovery
   of the same log — and a mismatch kills the run. *)
let e17_title =
  "E17  Failover: follower promotion under primary crash (escrow, mpl 3, zipf 0.8)"

let e17_header =
  [ "crash"; "commits"; "suffix"; "tail"; "losers"; "undo"; "promote ticks";
    "digest" ]

let e17_cells ~quick =
  let spec =
    {
      Workload.default with
      seed = 7;
      strategy = Maintain.Escrow;
      mpl = 3;
      txns_per_worker = (if quick then 3 else 6);
      ops_per_txn = 3;
      delete_fraction = 0.;
      n_groups = 5;
      theta = 0.8;
      initial_rows = 20;
      n_views = 1;
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
    let suffix = Wal.flushed_lsn dead - Database.replicated_lsn f in
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
    let row =
      [
        name; i committed; i suffix; i p.Database.tail_records;
        i p.Database.losers_undone; i p.Database.undo_records; i !ticks;
        "match";
      ]
    in
    let json =
      Printf.sprintf
        {|    {"crash": "%s", "committed": %d, "suffix_records": %d, "tail_records": %d, "losers_undone": %d, "undo_records": %d, "promote_ticks": %d, "digest_match": true}|}
        name committed suffix p.Database.tail_records p.Database.losers_undone
        p.Database.undo_records !ticks
    in
    (row, json)
  in
  let n = Fault.no_faults in
  let mid = max 1 (n_forces / 2) in
  let points =
    if quick then [ ("clean-mid", { n with crash_at_force = Some mid }) ]
    else
      [
        ("clean-early", { n with crash_at_force = Some 1 });
        ("clean-mid", { n with crash_at_force = Some mid });
        ("clean-late", { n with crash_at_force = Some n_forces });
        ("torn-mid",
         { n with crash_at_force = Some mid; torn_tail = true });
      ]
  in
  List.map cell points

let e17 () =
  let cells = e17_cells ~quick:false in
  print_table ~title:e17_title ~header:e17_header (List.map fst cells)

(* --- E18: hash-partitioned shards, 2PC cross-shard commit ------------------- *)

(* Closed-loop scripted transactions through one coordinator over N
   loopback engine shards: per cell, throughput, prepare round-trips and
   the 2PC/local commit split; plus the commit-quick crash smoke — crash
   the coordinator mid-protocol, power-cycle the cluster, recover, and
   fail the build if any transaction is left in doubt or any decision is
   lost or applied twice. *)

let e18_title =
  "E18  Sharding: 2PC cross-shard commit over hash partitions (escrow view, loopback)"

let e18_header =
  [ "shards"; "mix"; "commits"; "tput/1k ticks"; "prepares"; "2pc"; "local";
    "in-doubt" ]

module Coord = Ivdb_coord.Coord
module Server = Ivdb_server.Server

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
   inserts are recorded so the crash smoke can audit decisions. *)
let e18_script ~shards ~txns cross =
  let per_shard = Array.init shards (fun s -> e18_keys ~shards s (2 * txns)) in
  List.init txns (fun i ->
      let a = i mod shards in
      let stmt s slot qty =
        let k = per_shard.(s).((2 * i) + slot) in
        ( k,
          Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" k (i mod 5) qty
        )
      in
      if cross i && shards > 1 then
        [ stmt a 0 (i + 1); stmt ((a + 1) mod shards) 1 (10 * (i + 1)) ]
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

let e18_cell ~quick shards mix =
  let txns = if quick then 12 else 60 in
  let cross = match mix with "cross" -> fun _ -> true | _ -> fun _ -> false in
  let script = e18_script ~shards ~txns cross in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let cwal = Wal.create (Metrics.create ()) in
  let committed, ticks, stats =
    Sched.run ~seed:11 (fun () ->
        Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
            let c = Coord.create ~wal:cwal dialers in
            e18_setup c;
            let t0 = Sched.now () in
            e18_run c script;
            let r = (List.length script, Sched.now () - t0, Coord.stats c) in
            Coord.close c;
            r))
  in
  let indoubt =
    Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs
  in
  let tput = 1000. *. float_of_int committed /. float_of_int (max 1 ticks) in
  let row =
    [
      i shards; mix; i committed; f2 tput; i stats.Coord.prepares_sent;
      i stats.Coord.cross_shard_commits; i stats.Coord.single_shard_commits;
      i indoubt;
    ]
  in
  let json =
    Printf.sprintf
      {|    {"shards": %d, "mix": "%s", "committed": %d, "throughput_per_1k_ticks": %.3f, "prepares_sent": %d, "cross_shard_commits": %d, "single_shard_commits": %d, "indoubt": %d}|}
      shards mix committed tput stats.Coord.prepares_sent
      stats.Coord.cross_shard_commits stats.Coord.single_shard_commits indoubt
  in
  (row, json)

(* The commit-quick decision audit: arm a coordinator crash mid-2PC on a
   2-shard cluster, power-cycle, recover, then check every scripted
   transaction against the coordinator's logged decisions — a committed
   transaction's keys must each exist exactly once, an aborted or
   undecided one's not at all. Any in-doubt leftover, lost decision or
   double apply kills the run. *)
let e18_crash_smoke () =
  let shards = 2 in
  let txns = 6 in
  let script = e18_script ~shards ~txns (fun _ -> true) in
  (* a Fault.Crash_point escaping the run models the whole machine dying *)
  let run_workload ?(crash_at = None) dbs cwal =
    Sched.run ~seed:11 (fun () ->
        Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
            let c = Coord.create ~wal:cwal dialers in
            Coord.set_crash_at_action c crash_at;
            e18_setup c;
            e18_run c script;
            let n = Coord.actions c in
            Coord.close c;
            n))
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
      ignore (run_workload ~crash_at:(Some crash_action) dbs cwal);
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
  let indoubt_at_crash =
    Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs
  in
  Sched.run ~seed:11 (fun () ->
      Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
          let c = Coord.create ~wal:cwal dialers in
          ignore (Coord.recover c);
          Coord.close c));
  let indoubt_after =
    Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs
  in
  if indoubt_after <> 0 then begin
    Printf.eprintf "FATAL: e18 smoke: %d transaction(s) left in doubt\n"
      indoubt_after;
    exit 1
  end;
  let decided = Hashtbl.create 8 in
  Wal.iter_stable cwal (fun r ->
      match r.Ivdb_wal.Log_record.body with
      | Ivdb_wal.Log_record.Decision { gtxn; committed } ->
          Hashtbl.replace decided gtxn committed
      | _ -> ());
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
      let want =
        match Hashtbl.find_opt decided gtxn with Some true -> 1 | _ -> 0
      in
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
     in-doubt at crash, all resolved, 0 lost / 0 duplicated\n"
    crash_action total !committed_txns indoubt_at_crash;
  Printf.sprintf
    {|    {"smoke": "coord-crash", "crash_action": %d, "actions": %d, "txns": %d, "committed": %d, "indoubt_at_crash": %d, "indoubt_after_recovery": 0, "lost": 0, "duplicated": 0}|}
    crash_action total txns !committed_txns indoubt_at_crash

let e18_cells ~quick =
  let shard_counts = [ 1; 2; 4 ] in
  List.concat_map
    (fun s ->
      if s = 1 then [ e18_cell ~quick s "single" ]
      else [ e18_cell ~quick s "single"; e18_cell ~quick s "cross" ])
    shard_counts

let e18 () =
  let cells = e18_cells ~quick:false in
  print_table ~title:e18_title ~header:e18_header (List.map fst cells);
  ignore (e18_crash_smoke ())

(* --- E19: cluster observability ----------------------------------------------------------- *)

(* The e18 cross-shard closed loop again, now with the coordinator's
   typed 2PC registry attached and — in the "on" cells — the
   gtxn-correlated trace streams (coordinator + every shard engine)
   enabled into a counting sink. Simulated-tick throughput must be
   identical off/on (tracing never touches the virtual clock), so the
   interesting columns are event volume, wall-time delta, and the
   per-phase tick histograms the registry collected. *)

let e19_title =
  "E19  Cluster observability: per-phase 2PC metrics, trace on/off (loopback)"

let e19_header =
  [ "shards"; "trace"; "commits"; "tput/1k ticks"; "events";
    "prepare p50/p95"; "decide p50/p95"; "wall s" ]

let e19_cell ~quick shards traced =
  let txns = if quick then 12 else 60 in
  let cross = if shards > 1 then fun _ -> true else fun _ -> false in
  let script = e18_script ~shards ~txns cross in
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
  let wall0 = Unix.gettimeofday () in
  let committed, ticks =
    Sched.run ~seed:11 (fun () ->
        Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
            let c = Coord.create ~metrics ~trace ~wal:cwal dialers in
            e18_setup c;
            let t0 = Sched.now () in
            e18_run c script;
            let r = (List.length script, Sched.now () - t0) in
            Coord.close c;
            r))
  in
  let wall = Unix.gettimeofday () -. wall0 in
  let pcts name =
    let cells = Metrics.hist_snapshot metrics name in
    (Metrics.percentile_cells cells 50., Metrics.percentile_cells cells 95.)
  in
  let prep50, prep95 = pcts "coord.prepare.ticks" in
  let dec50, dec95 = pcts "coord.decide.ticks" in
  let tput = 1000. *. float_of_int committed /. float_of_int (max 1 ticks) in
  let onoff = if traced then "on" else "off" in
  let row =
    [
      i shards; onoff; i committed; f2 tput; i !events;
      Printf.sprintf "%d/%d" prep50 prep95;
      Printf.sprintf "%d/%d" dec50 dec95; Printf.sprintf "%.4f" wall;
    ]
  in
  let json =
    Printf.sprintf
      {|    {"shards": %d, "trace": "%s", "committed": %d, "throughput_per_1k_ticks": %.3f, "events": %d, "prepare_ticks_p50": %d, "prepare_ticks_p95": %d, "decide_ticks_p50": %d, "decide_ticks_p95": %d, "wall_s": %.4f}|}
      shards onoff committed tput !events prep50 prep95 dec50 dec95 wall
  in
  (row, json)

let e19_cells ~quick =
  List.concat_map
    (fun s -> [ e19_cell ~quick s false; e19_cell ~quick s true ])
    [ 1; 2; 4 ]

let e19_contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Build-breaking exporter smoke for the dune-runtest run: drive a small
   cross-shard workload, scrape the coordinator's Metrics_http endpoint
   over a loopback HTTP round trip, and fail the build if any of the 2PC
   metric families is missing from the exposition. *)
let e19_exporter_smoke () =
  let shards = 2 in
  let txns = 4 in
  let script = e18_script ~shards ~txns (fun _ -> true) in
  let dbs = Array.init shards (fun _ -> Database.create ()) in
  let metrics = Metrics.create () in
  let cwal = Wal.create metrics in
  let body =
    Sched.run ~seed:11 (fun () ->
        Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
            let c = Coord.create ~metrics ~wal:cwal dialers in
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
            Coord.close c;
            Buffer.contents acc))
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
    (String.length body) (List.length required);
  Printf.sprintf
    {|    {"smoke": "metrics-exporter", "txns": %d, "scraped_bytes": %d, "families_checked": %d, "missing": 0}|}
    txns (String.length body) (List.length required)

let e19 () =
  let cells = e19_cells ~quick:false in
  print_table ~title:e19_title ~header:e19_header (List.map fst cells);
  ignore (e19_exporter_smoke ())

(* Build-breaking guard for the dune-runtest smoke: a read-only transaction
   must never enter the lock manager or the WAL. Asserted on metric deltas
   across a snapshot that exercises every read path. *)
let assert_snapshot_lock_free () =
  let config = { Database.default_config with read_cost = 0; write_cost = 0 } in
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
      for k = 1 to 20 do
        ignore
          (Table.insert db tx t
             [| Value.Int k; Value.Int (k mod 5); Value.Int k |])
      done);
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

let commit_bench ~quick () =
  let modes =
    [
      ("sync", Txn.Sync);
      ("group", Txn.Group { max_batch = 32; max_wait_ticks = 50 });
      ("async", Txn.Async);
    ]
  in
  let mpls = if quick then [ 8; 16 ] else [ 1; 4; 8; 16; 32 ] in
  let budget = if quick then 128 else 512 in
  let cell (mode_name, mode) mpl =
    let spec =
      {
        Workload.default with
        seed = 11;
        strategy = Maintain.Escrow;
        mpl;
        txns_per_worker = max 1 (budget / mpl);
        n_groups = 20;
        theta = 0.99;
        delete_fraction = 0.1;
        config = { Workload.default.Workload.config with commit_mode = mode };
      }
    in
    let r = Workload.run spec in
    let get n = match List.assoc_opt n r.Workload.metrics with Some v -> v | None -> 0 in
    let per_commit x = float_of_int x /. float_of_int (max 1 r.Workload.committed) in
    let row =
      [
        mode_name;
        i mpl;
        i r.Workload.committed;
        f2 r.Workload.throughput;
        i r.Workload.forces;
        f2 (per_commit r.Workload.forces);
        f2 r.Workload.mean_batch;
        f1 (per_commit (get "commit.stall_ticks"));
      ]
    in
    let json =
      Printf.sprintf
        {|    {"mode": "%s", "mpl": %d, "committed": %d, "throughput_per_1k_ticks": %.3f, "forces": %d, "forces_per_commit": %.4f, "mean_batch": %.2f, "stall_ticks_per_commit": %.2f}|}
        mode_name mpl r.Workload.committed r.Workload.throughput
        r.Workload.forces
        (per_commit r.Workload.forces)
        r.Workload.mean_batch
        (per_commit (get "commit.stall_ticks"))
    in
    (row, json)
  in
  let cells = List.concat_map (fun m -> List.map (cell m) mpls) modes in
  (* tracing overhead: the group-commit cell at the highest mpl, structured
     trace off vs on (events counted, then discarded). Tick throughput is
     deterministic and must be identical either way — tracing never touches
     the simulated clock — so the interesting deltas are event volume and
     wall time. *)
  let trace_cell enabled =
    let mpl = List.fold_left max 1 mpls in
    let spec =
      {
        Workload.default with
        seed = 11;
        strategy = Maintain.Escrow;
        mpl;
        txns_per_worker = max 1 (budget / mpl);
        n_groups = 20;
        theta = 0.99;
        delete_fraction = 0.1;
        config =
          {
            Workload.default.Workload.config with
            commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
          };
      }
    in
    let db, sales, views = Workload.setup spec in
    let events = ref 0 in
    if enabled then begin
      let tr = Database.trace db in
      Ivdb_util.Trace.add_sink tr (fun _ -> incr events);
      Ivdb_util.Trace.set_enabled tr true
    end;
    let r = Workload.run_on db sales views spec in
    (mpl, r, !events)
  in
  let mpl_off, r_off, _ = trace_cell false in
  let _, r_on, events = trace_cell true in
  let trace_json =
    [
      Printf.sprintf
        {|    {"mode": "group", "mpl": %d, "trace": "off", "committed": %d, "throughput_per_1k_ticks": %.3f, "events": 0, "wall_s": %.4f}|}
        mpl_off r_off.Workload.committed r_off.Workload.throughput
        r_off.Workload.wall_s;
      Printf.sprintf
        {|    {"mode": "group", "mpl": %d, "trace": "on", "committed": %d, "throughput_per_1k_ticks": %.3f, "events": %d, "wall_s": %.4f}|}
        mpl_off r_on.Workload.committed r_on.Workload.throughput events
        r_on.Workload.wall_s;
    ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E11  Commit path: per-commit force vs group commit vs async (escrow, zipf 0.99, ~%d txns)"
         budget)
    ~header:
      [ "commit mode"; "mpl"; "commits"; "tput/1k ticks"; "forces";
        "forces/commit"; "mean batch"; "stall/commit" ]
    (List.map fst cells);
  Printf.printf
    "\ntracing overhead (group, mpl %d): off %.2f tput / %.3fs wall, on %.2f tput / %.3fs wall (%d events)\n"
    mpl_off r_off.Workload.throughput r_off.Workload.wall_s
    r_on.Workload.throughput r_on.Workload.wall_s events;
  (* the fault-recovery cells ride along: quick mode doubles as the
     fault-enabled smoke run invoked from the dune test runner *)
  let e12_cells = fault_cells ~quick in
  print_table ~title:e12_title ~header:e12_header (List.map fst e12_cells);
  (* the network-serving cells ride along too: quick mode doubles as the
     loopback+tcp server smoke run invoked from the dune test runner *)
  let e13_cells = e13_cells ~quick in
  print_table ~title:e13_title ~header:e13_header (List.map fst e13_cells);
  (* and the introspection-overhead cells: slow-query log off/idle/worst
     over the same loopback closed loop *)
  let e14_cells = e14_cells ~quick in
  print_table ~title:e14_title ~header:e14_header (List.map fst e14_cells);
  (* and the MVCC snapshot-reader cells, preceded by the build-breaking
     zero-lock guard for read-only transactions *)
  assert_snapshot_lock_free ();
  let e15_cells = e15_cells ~quick in
  print_table ~title:e15_title ~header:e15_header (List.map fst e15_cells);
  (* and the replication cells: quick mode doubles as the zero-divergence
     WAL-shipping smoke run (any digest mismatch exits non-zero) *)
  let e16_cells = e16_cells ~quick in
  print_table ~title:e16_title ~header:e16_header (List.map fst e16_cells);
  (* and the failover cells: quick mode doubles as the promote-under-crash
     zero-loss smoke run (digest divergence exits non-zero) *)
  let e17_cells = e17_cells ~quick in
  print_table ~title:e17_title ~header:e17_header (List.map fst e17_cells);
  (* and the sharding cells: quick mode doubles as the coordinator-crash
     decision-audit smoke run (lost/duplicated decisions exit non-zero) *)
  let e18_cells = e18_cells ~quick in
  print_table ~title:e18_title ~header:e18_header (List.map fst e18_cells);
  let e18_smoke_json = e18_crash_smoke () in
  (* and the cluster-observability cells: quick mode doubles as the
     coordinator-exporter smoke run (a missing 2PC metric family exits
     non-zero) *)
  let e19_cells = e19_cells ~quick in
  print_table ~title:e19_title ~header:e19_header (List.map fst e19_cells);
  let e19_smoke_json = e19_exporter_smoke () in
  let oc = open_out "BENCH_commit.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"commit\",\n  \"quick\": %b,\n  \"cells\": [\n%s\n  ],\n  \"e12_fault_recovery\": [\n%s\n  ],\n  \"e13_network\": [\n%s\n  ],\n  \"e14_introspection\": [\n%s\n  ],\n  \"e15_mvcc\": [\n%s\n  ],\n  \"e16_replication\": [\n%s\n  ],\n  \"e17_failover\": [\n%s\n  ],\n  \"e18_sharding\": [\n%s\n  ],\n  \"e19_cluster_observability\": [\n%s\n  ]\n}\n"
    quick
    (String.concat ",\n" (List.map snd cells @ trace_json))
    (String.concat ",\n" (List.map snd e12_cells))
    (String.concat ",\n" (List.map snd e13_cells))
    (String.concat ",\n" (List.map snd e14_cells))
    (String.concat ",\n" (List.map snd e15_cells))
    (String.concat ",\n" (List.map snd e16_cells))
    (String.concat ",\n" (List.map snd e17_cells))
    (String.concat ",\n" (List.map snd e18_cells @ [ e18_smoke_json ]))
    (String.concat ",\n" (List.map snd e19_cells @ [ e19_smoke_json ]));
  close_out oc;
  Printf.printf "wrote BENCH_commit.json (%d cells)\n%!"
    (List.length cells + List.length trace_json + List.length e12_cells
   + List.length e13_cells + List.length e14_cells + List.length e15_cells
   + List.length e16_cells + List.length e17_cells + List.length e18_cells
   + List.length e19_cells + 2)

let e11 () = commit_bench ~quick:false ()

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
  let stx = Txn.begin_system mgr in
  let key k = Ivdb_relation.Key_codec.encode [| Value.Int k |] in
  for k = 1 to 10_000 do
    Ivdb_btree.Btree.insert stx tree ~key:(key k) ~value:(Printf.sprintf "v%06d" k)
  done;
  Txn.commit mgr stx;
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
               (Ivdb_storage.Bufpool.update pool upd_page (fun p ->
                    Bytes.set_int64_le p 4096 (Int64.of_int !counter)))));
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
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
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
            [ name; f1 ns ] :: acc)
          results []
        |> List.hd)
      tests
  in
  print_table ~title:"M0  Substrate micro-benchmarks (bechamel)"
    ~header:[ "operation"; "ns/op" ] rows

(* --- driver ------------------------------------------------------------------------------- *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("micro", micro);
  ]

(* "commit-quick" is a cheap smoke variant of e11 invoked from the dune
   test runner; it is not part of the run-everything default. *)
let extra = [ ("commit-quick", fun () -> commit_bench ~quick:true ()) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n (experiments @ extra) with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" n
                  (String.concat ", "
                     (List.map fst experiments @ List.map fst extra));
                exit 2)
          names
  in
  List.iter (fun (_, f) -> f ()) chosen
