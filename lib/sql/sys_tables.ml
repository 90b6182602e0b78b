(* Built-in sys.* virtual tables: read-only projections of live engine
   state, resolved by name in the SQL layer before ordinary catalog
   lookup.

   Snapshot-at-a-tick semantics: each provider materializes its rows
   eagerly, in one scheduler step of the cooperative fiber model, so the
   result is a self-consistent picture of the engine at a single logical
   tick. No provider takes a lock, joins a wait queue, or triggers
   maintenance (deferred-view auto-refresh included) — introspection must
   be able to observe a contended or wedged engine without becoming a
   participant in the contention it is reporting. *)

module Database = Ivdb.Database
module Txn = Ivdb_txn.Txn
module Lock_mgr = Ivdb_lock.Lock_mgr
module Lock_name = Ivdb_lock.Lock_name
module Lock_mode = Ivdb_lock.Lock_mode
module Wal = Ivdb_wal.Wal
module Bufpool = Ivdb_storage.Bufpool
module Btree = Ivdb_btree.Btree
module Maintain = Ivdb_core.Maintain
module Aggregate = Ivdb_core.Aggregate
module Metrics = Ivdb_util.Metrics
module Value = Ivdb_relation.Value
module Row = Ivdb_relation.Row
module Sched = Ivdb_sched.Sched

let vint i = Value.Int i
let vstr s = Value.Str s
let vbool b = Value.Bool b
let vopt_str = function None -> Value.Null | Some s -> Value.Str s

let name_str name = Format.asprintf "%a" Lock_name.pp name

let status_str = function
  | Txn.Active -> "active"
  | Txn.Committed -> "committed"
  | Txn.Aborted -> "aborted"

(* --- providers ------------------------------------------------------------- *)

let transactions db ~self_txn =
  let now = Sched.now () in
  let row (i : Txn.info) =
    let ticks =
      match i.Txn.i_end_tick with
      | Some e -> e - i.Txn.i_begin_tick
      | None -> now - i.Txn.i_begin_tick
    in
    let mode =
      if i.Txn.i_snapshot <> None then "snapshot"
      else if i.Txn.i_system then "system"
      else "rw"
    in
    [|
      vint i.Txn.i_txn;
      vbool i.Txn.i_system;
      vstr mode;
      vstr (status_str i.Txn.i_status);
      vbool (self_txn = Some i.Txn.i_txn);
      vint i.Txn.i_begin_tick;
      vint ticks;
      vint i.Txn.i_locks;
      vint i.Txn.i_deltas;
      (match i.Txn.i_snapshot with Some s -> vint s | None -> Value.Null);
      vopt_str i.Txn.i_abort_reason;
    |]
  in
  let mgr = Database.mgr db in
  ( [
      "txn"; "system"; "mode"; "state"; "self"; "begin_tick"; "ticks"; "locks";
      "deltas"; "snapshot_tick"; "abort_reason";
    ],
    List.map row (Txn.active_info mgr) @ List.map row (Txn.recent_info mgr) )

let locks db =
  let rows =
    List.concat_map
      (fun (name, owners, _queue) ->
        List.map
          (fun (txn, mode) ->
            [| vstr (name_str name); vint txn; vstr (Lock_mode.to_string mode) |])
          owners)
      (Lock_mgr.dump (Database.locks db))
    |> List.sort compare
  in
  ([ "resource"; "txn"; "mode" ], rows)

let lock_waits db =
  let now = Sched.now () in
  let rows =
    List.map
      (fun (w : Lock_mgr.wait_info) ->
        let holder =
          match w.Lock_mgr.w_blockers with [] -> Value.Null | h :: _ -> vint h
        in
        [|
          vstr (name_str w.Lock_mgr.w_name);
          vint w.Lock_mgr.w_txn;
          vstr (Lock_mode.to_string w.Lock_mgr.w_mode);
          vbool w.Lock_mgr.w_convert;
          holder;
          vstr
            (String.concat ","
               (List.map string_of_int w.Lock_mgr.w_blockers));
          vint (now - w.Lock_mgr.w_since);
        |])
      (Lock_mgr.waits (Database.locks db))
  in
  ( [ "resource"; "waiter"; "mode"; "convert"; "holder"; "holders"; "wait_ticks" ],
    rows )

let views db =
  let rows =
    List.map
      (fun (name, strategy) ->
        let v = Database.view db name in
        let vid = Database.Internal.view_id v in
        let rt = Database.Internal.view_rt db vid in
        let total = ref 0 and zeros = ref 0 in
        Btree.iter rt.Maintain.tree (fun _ value ->
            incr total;
            if Aggregate.count_of (Row.decode value) = 0 then incr zeros);
        let s = rt.Maintain.vstats in
        [|
          vstr name;
          vint vid;
          vstr strategy;
          vint (!total - !zeros);
          vint !zeros;
          vint s.Maintain.v_deltas;
          vint s.Maintain.v_escrow;
          vint s.Maintain.v_exclusive;
          vint s.Maintain.v_deferred;
          vint s.Maintain.v_recomputes;
          vint s.Maintain.v_group_creates;
          vint s.Maintain.v_group_deletes;
          vint s.Maintain.v_gc_zero;
          vint s.Maintain.v_system_txns;
        |])
      (Database.list_views db)
  in
  ( [
      "view"; "id"; "strategy"; "groups"; "zero_groups"; "deltas"; "escrow";
      "exclusive"; "deferred"; "recomputes"; "group_creates"; "group_deletes";
      "gc_zero_groups"; "system_txns";
    ],
    rows )

let bufpool db =
  let pool = Database.pool db in
  let m = Database.metrics db in
  ( [
      "capacity"; "resident"; "dirty"; "hits"; "misses"; "evictions";
      "writebacks"; "overflows"; "io_retries";
    ],
    [
      [|
        vint (Bufpool.capacity pool);
        vint (Bufpool.resident pool);
        vint (List.length (Bufpool.dirty_page_table pool));
        vint (Metrics.get m "buffer.hit");
        vint (Metrics.get m "buffer.miss");
        vint (Metrics.get m "buffer.evict");
        vint (Metrics.get m "buffer.writeback");
        vint (Metrics.get m "buffer.overflow");
        vint (Metrics.get m "buffer.io_retry");
      |];
    ] )

let wal db =
  let w = Database.wal db in
  let m = Database.metrics db in
  ( [
      "first_lsn"; "last_lsn"; "flushed_lsn"; "records"; "retained_bytes";
      "stable_bytes"; "appends"; "forces";
    ],
    [
      [|
        vint (Wal.first_lsn w);
        vint (Wal.last_lsn w);
        vint (Wal.flushed_lsn w);
        vint (Wal.record_count w);
        vint (Wal.retained_byte_size w);
        vint (Wal.stable_byte_size w);
        vint (Metrics.get m "log.append");
        vint (Metrics.get m "log.force");
      |];
    ] )

let metrics db =
  ( [ "counter"; "value" ],
    List.map
      (fun (k, v) -> [| vstr k; vint v |])
      (Metrics.snapshot (Database.metrics db)) )

let metrics_hist db =
  ( [ "hist"; "count"; "total"; "mean"; "p50"; "p95"; "max" ],
    List.map
      (fun (name, cells) ->
        let count = List.fold_left (fun a (_, c) -> a + c) 0 cells in
        let total = List.fold_left (fun a (v, c) -> a + (v * c)) 0 cells in
        let mean =
          if count = 0 then 0. else float_of_int total /. float_of_int count
        in
        let vmax = List.fold_left (fun a (v, _) -> max a v) 0 cells in
        [|
          vstr name;
          vint count;
          vint total;
          Value.Float mean;
          vint (Metrics.percentile_cells cells 50.);
          vint (Metrics.percentile_cells cells 95.);
          vint vmax;
        |])
      (Metrics.hists (Database.metrics db)) )

(* One row describing this engine's slot in a hash-partitioned cluster;
   empty on an unsharded engine. The coordinator overrides the table per
   session with a cluster-wide view (one row per shard). *)
let shards_header =
  [ "shard"; "shards"; "role"; "partition"; "indoubt"; "last_decided" ]

let shards db =
  let rows =
    match Database.shard_info db with
    | None -> []
    | Some (self, n) ->
        [
          [|
            vint self;
            vint n;
            vstr "participant";
            vstr (Printf.sprintf "hash(pk) mod %d = %d" n self);
            vint (Database.indoubt_count db);
            vopt_str (Database.last_decided db);
          |];
        ]
  in
  (shards_header, rows)

(* One row per in-doubt global transaction: prepared here, still holding
   its locks until its coordinator's decision arrives. [txn] is the local
   transaction id, which joins to sys.locks and sys.transactions. *)
let indoubt db =
  ( [ "gtxn"; "txn" ],
    List.map (fun (g, txn) -> [| vstr g; vint txn |]) (Database.indoubt_gtxns db) )

(* Placeholders for the serving layer's tables: a local (non-networked)
   session has no server, so these resolve to their schema with zero rows;
   the server overrides them per session with live providers. *)
let server_sessions_header =
  [ "session"; "conn"; "state"; "in_txn"; "statements"; "last_rid" ]

let slow_queries_header = [ "rid"; "session"; "seq"; "ticks"; "tick"; "sql" ]

let replication_header =
  [
    "role";
    "peer";
    "state";
    "replicated_lsn";
    "flushed_lsn";
    "lag_records";
    "tick";
  ]

(* Coordinator-resident catalogs: a plain engine answers them with zero
   rows (it runs no global transactions of its own); the shard
   coordinator answers them locally from its 2PC state and fans
   sys.cluster_metrics out to every shard. *)
let gtxns_header =
  [ "gtxn"; "phase"; "participants"; "votes"; "ticks_in_phase"; "undelivered" ]

let coord_shards_header =
  [
    "shard";
    "addr";
    "last_contact";
    "prepares";
    "decides";
    "outstanding";
    "reconnects";
  ]

let cluster_metrics_header = [ "node"; "counter"; "value" ]

let names =
  [
    "sys.bufpool";
    "sys.cluster_metrics";
    "sys.coord_shards";
    "sys.gtxns";
    "sys.indoubt";
    "sys.lock_waits";
    "sys.locks";
    "sys.metrics";
    "sys.metrics_hist";
    "sys.replication";
    "sys.server_sessions";
    "sys.shards";
    "sys.slow_queries";
    "sys.transactions";
    "sys.views";
    "sys.wal";
  ]

let builtin db ~self_txn name =
  match name with
  | "sys.transactions" -> Some (transactions db ~self_txn)
  | "sys.locks" -> Some (locks db)
  | "sys.lock_waits" -> Some (lock_waits db)
  | "sys.views" -> Some (views db)
  | "sys.bufpool" -> Some (bufpool db)
  | "sys.wal" -> Some (wal db)
  | "sys.metrics" -> Some (metrics db)
  | "sys.metrics_hist" -> Some (metrics_hist db)
  | "sys.server_sessions" -> Some (server_sessions_header, [])
  | "sys.slow_queries" -> Some (slow_queries_header, [])
  | "sys.replication" -> Some (replication_header, [])
  | "sys.shards" -> Some (shards db)
  | "sys.indoubt" -> Some (indoubt db)
  | "sys.gtxns" -> Some (gtxns_header, [])
  | "sys.coord_shards" -> Some (coord_shards_header, [])
  | "sys.cluster_metrics" -> Some (cluster_metrics_header, [])
  | _ -> None
