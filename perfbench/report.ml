(* A run's metrics, computed from its rounds.

   The first rounds of a run each draw their own inputs, and tick-clock
   metrics pool them ([Load.pool]), so they are exact per seed; later
   rounds replay those inputs and must match them. Wall-clock metrics
   are medians over every round. *)

open Load

let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d
let median_of f xs = Sample.median (Sample.of_list (List.map f xs))
let txn_per_s r = float_of_int r.l.committed /. Refclock.seconds r.l.clock

(* What must repeat exactly when a round is replayed on the same inputs. *)
let fingerprint r =
  let s x = Sample.sum x in
  ( r.ticks,
    (r.l.attempted, r.l.committed, r.l.failed, r.l.stmts),
    (s r.l.writes, s r.l.reads, s r.l.db_commits, s r.l.coord_commits) )

(* The tail percentile of every latency. A run pools enough rounds that
   ten samples lie beyond it on every workload (sql-served, the smallest,
   has 1,600 writer transactions per run); the run checks it. *)
let tail = 0.99

let all_txns l = Sample.concat [ l.writes; l.reads ]

let end_to_end ~distinct rounds =
  let p = pool distinct in
  let q = Sample.tick_quantile in
  let txns = all_txns p.l in
  [
    Metric.v "setup_s" "s" (median_of (fun r -> Refclock.seconds r.setup) rounds);
    Metric.v "txn_per_s" "txn/s" (median_of txn_per_s rounds);
    Metric.v "txn_per_kticks" "txn/kticks"
      (float_of_int p.l.committed *. 1000. /. float_of_int p.ticks);
    Metric.v "commit_frac" "fraction" (per p.l.committed p.l.attempted);
    Metric.v "write_p50_ticks" "ticks" (q p.l.writes 0.5);
    Metric.v "write_p99_ticks" "ticks" (q p.l.writes tail);
    Metric.v "txn_p50_ticks" "ticks" (q txns 0.5);
    Metric.v "txn_p99_ticks" "ticks" (q txns tail);
    Metric.v "heap_live_mb" "MB"
      (median_of (fun r -> float_of_int (r.live_words * (Sys.word_size / 8)) /. 1e6) distinct);
  ]

(* --- the traced run ---------------------------------------------------------- *)

(* The layer a span's self time is charged to. *)
let layer = function
  | "txn.write" | "txn.read" -> "bench"
  | "db.transact" | "db.insert" | "db.delete" | "db.find" | "db.view_lookup" -> "db"
  | "lock.wait" -> "lock_wait"
  | "sql.parse" -> "sql_parse"
  | "client.exec" -> "client"
  | "server.service" -> "server"
  | "coord.exec" -> "coord"
  | "coord.shard_rpc" -> "shard_rpc"
  | other -> other

let layers =
  [ "bench"; "db"; "lock_wait"; "sql_parse"; "client"; "server"; "coord"; "shard_rpc" ]

(* The spans of one name: wall microseconds, ticks, and self wall
   microseconds. *)
type times = { us : Sample.t; ticks : Sample.t; self_us : Sample.t }

type traced = {
  tps : float;
  by_name : (string, times) Hashtbl.t;
  layer_ns : (string, int) Hashtbl.t;  (** self time per layer *)
  root_ns : int;
  spans : int;
  sum_error : float;
  unclosed : int;
}

let digest_trace r (a : Spans.analysis) =
  let by_name = Hashtbl.create 16 and layer_ns = Hashtbl.create 8 in
  let root_ns = ref 0 in
  Array.iter
    (fun (s : Spans.span) ->
      let x =
        match Hashtbl.find_opt by_name s.name with
        | Some x -> x
        | None ->
            let x = { us = Sample.create (); ticks = Sample.create (); self_us = Sample.create () } in
            Hashtbl.add by_name s.name x;
            x
      in
      Sample.add x.us (float_of_int (s.w1 - s.w0) /. 1e3);
      Sample.add_int x.ticks (s.t1 - s.t0);
      Sample.add x.self_us (float_of_int a.self_ns.(s.id) /. 1e3);
      if s.parent < 0 then root_ns := !root_ns + (s.w1 - s.w0);
      let k = layer s.name in
      Hashtbl.replace layer_ns k
        (a.self_ns.(s.id) + Option.value ~default:0 (Hashtbl.find_opt layer_ns k)))
    a.by_id;
  {
    tps = txn_per_s r;
    by_name;
    layer_ns;
    root_ns = !root_ns;
    spans = Array.length a.by_id;
    sum_error = a.worst_sum_error;
    unclosed = a.unclosed;
  }

(* --- per-layer metrics ----------------------------------------------------- *)

let per_layer ~distinct rounds traced =
  let p = pool distinct in
  let t = p.t and l = p.l in
  let c = count t in
  let txns = l.committed in
  let q = Sample.tick_quantile in
  (* a span name's samples, pooled over the traced replays *)
  let spans name pick quantile x =
    quantile
      (Sample.concat
         (List.filter_map
            (fun d -> Option.map pick (Hashtbl.find_opt d.by_name name))
            traced))
      x
  in
  let us name = spans name (fun x -> x.us) Sample.quantile
  and self_us name = spans name (fun x -> x.self_us) Sample.quantile
  and ticks name = spans name (fun x -> x.ticks) Sample.tick_quantile in
  let ref_ms =
    Sample.concat (List.map (fun r -> r.l.clock.Refclock.samples) rounds)
  in
  let ref_p50 = Sample.median ref_ms in
  let lock_wait = hist t "lock.wait_ticks" and batch = hist t "commit.batch" in
  let prepare = hist t "coord.prepare.ticks"
  and decision = hist t "coord.decision_force.ticks"
  and decide = hist t "coord.decide.ticks" in
  let coord_commits = c "coord.commit.2pc" + c "coord.commit.fast_path" in
  let sum f = List.fold_left (fun a d -> a + f d) 0 traced in
  [
    Metric.v "read_p50_ticks" "ticks" (q l.reads 0.5);
    Metric.v "read_p99_ticks" "ticks" (q l.reads tail);
    Metric.v "db.insert_us.p50" "us" (us "db.insert" 0.5);
    Metric.v "db.find_us.p50" "us" (us "db.find" 0.5);
    Metric.v "db.view_lookup_us.p50" "us" (us "db.view_lookup" 0.5);
    Metric.v "db.commit_ticks.p50" "ticks" (q l.db_commits 0.5);
    Metric.v "db.commit_ticks.p99" "ticks" (q l.db_commits tail);
    Metric.v "core.view_deltas_per_txn" "count" (per (c "view.delta") txns);
    Metric.v "core.escrow_updates_per_txn" "count" (per (c "view.escrow_update") txns);
    Metric.v "core.group_creates" "count" (float_of_int (c "view.group_create"));
    Metric.v "lock.acquires_per_txn" "count" (per (c "lock.acquire") txns);
    Metric.v "lock.waits_per_txn" "count" (per (c "lock.wait") txns);
    Metric.v "lock.wait_ticks.p50" "ticks" (q lock_wait 0.5);
    Metric.v "lock.wait_ticks.p99" "ticks" (q lock_wait tail);
    Metric.v "lock.deadlocks_per_ktxn" "count" (1000. *. per (c "lock.deadlock") txns);
    Metric.v "txn.retries_per_ktxn" "count"
      (1000. *. per (c "txn.retry" + l.retries) txns);
    Metric.v "txn.stall_ticks_per_commit" "ticks"
      (per (c "commit.stall_ticks") (c "txn.commit"));
    Metric.v "txn.batch_mean" "count" (Sample.mean batch);
    Metric.v "wal.appends_per_txn" "count" (per (c "log.append") txns);
    Metric.v "wal.bytes_per_txn" "bytes" (per (c "log.bytes") txns);
    Metric.v "wal.forces_per_txn" "count" (per (c "log.force") txns);
    Metric.v "buffer.hit_ratio" "fraction"
      (per (c "buffer.hit") (c "buffer.hit" + c "buffer.miss"));
    Metric.v "buffer.misses_per_txn" "count" (per (c "buffer.miss") txns);
    Metric.v "buffer.evictions_per_txn" "count" (per (c "buffer.evict") txns);
    Metric.v "buffer.hits_per_stmt" "count" (per (c "buffer.hit") l.stmts);
    Metric.v "disk.reads_per_txn" "count" (per (c "disk.read") txns);
    Metric.v "disk.writes_per_txn" "count" (per (c "disk.write") txns);
    Metric.v "sql.parse_us.p50" "us" (us "sql.parse" 0.5);
    Metric.v "sql.index_probes_per_stmt" "count" (per (c "sql.index_probe") l.stmts);
    Metric.v "server.service_us.p50" "us" (us "server.service" 0.5);
    Metric.v "server.service_us.p99" "us" (us "server.service" tail);
    Metric.v "server.service_ticks.p50" "ticks"
      (ticks "server.service" 0.5);
    Metric.v "server.service_ticks.p99" "ticks"
      (ticks "server.service" tail);
    Metric.v "wire.bytes_per_txn" "bytes" (per (c "wire.bytes") txns);
    Metric.v "wire.frames_per_txn" "count" (per (c "wire.frames") txns);
    Metric.v "client.exec_ticks.p50" "ticks" (ticks "client.exec" 0.5);
    Metric.v "client.exec_ticks.p99" "ticks" (ticks "client.exec" tail);
    (* the part of a client exec that no served request covers *)
    Metric.v "wire.overhead_us.p50" "us" (self_us "client.exec" 0.5);
    Metric.v "coord.prepare_ticks.p50" "ticks" (q prepare 0.5);
    Metric.v "coord.prepare_ticks.p99" "ticks" (q prepare tail);
    Metric.v "coord.decision_force_ticks.p50" "ticks" (q decision 0.5);
    Metric.v "coord.decide_ticks.p50" "ticks" (q decide 0.5);
    Metric.v "coord.decide_ticks.p99" "ticks" (q decide tail);
    Metric.v "coord.commit_ticks.p50" "ticks" (q l.coord_commits 0.5);
    Metric.v "coord.commit_ticks.p99" "ticks" (q l.coord_commits tail);
    Metric.v "coord.shard_rpc_ticks.p50" "ticks"
      (ticks "coord.shard_rpc" 0.5);
    Metric.v "coord.shard_rpc_ticks.p99" "ticks"
      (ticks "coord.shard_rpc" tail);
    Metric.v "coord.2pc_frac" "fraction" (per (c "coord.commit.2pc") coord_commits);
    Metric.v "coord.prepares_per_commit" "count" (per (c "coord.prepares") coord_commits);
    Metric.v "coord.log_forces_per_commit" "count"
      (per (c "coord.log.force") coord_commits);
    Metric.v "coord.exec_us.p50" "us" (us "coord.exec" 0.5);
    Metric.v "gc.alloc_words_per_txn" "words" (t.alloc_words /. float_of_int (max 1 txns));
    Metric.v "gc.major_per_ktxn" "count" (1000. *. per t.major_gcs txns);
    Metric.v "bench.ref_ms.p50" "ms" ref_p50;
    Metric.v "bench.ref_iqr_frac" "fraction"
      ((Sample.quantile ref_ms 0.75 -. Sample.quantile ref_ms 0.25) /. ref_p50);
    Metric.v "bench.trace_overhead_frac" "fraction"
      (1. -. (median_of (fun d -> d.tps) traced /. median_of txn_per_s rounds));
  ]
  @ List.map
      (fun k ->
        Metric.v ("self_share." ^ k) "fraction"
          (per
             (sum (fun d -> Option.value ~default:0 (Hashtbl.find_opt d.layer_ns k)))
             (sum (fun d -> d.root_ns))))
      layers
