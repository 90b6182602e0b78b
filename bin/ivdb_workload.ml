(* Command-line driver for the order-entry workload: explore the
   contention behaviour of the three maintenance strategies without
   writing any code.

   Examples:
     ivdb_workload --strategy exclusive --mpl 16 --theta 0.99
     ivdb_workload --strategy escrow --mpl 16 --theta 0.99 --verbose
     ivdb_workload --strategy deferred --reads 0.3 --check *)

module Workload = Ivdb.Workload
module Database = Ivdb.Database
module Query = Ivdb.Query
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Trace = Ivdb_util.Trace
module Metrics = Ivdb_util.Metrics
module Fault = Ivdb_storage.Fault
module Server = Ivdb_server.Server
module Client = Ivdb_client.Client
module Coord = Ivdb_coord.Coord
module Value = Ivdb_relation.Value
module Rng = Ivdb_util.Rng
module Zipf = Ivdb_util.Zipf

open Cmdliner

let strategy_conv =
  let parse = function
    | "exclusive" -> Ok Maintain.Exclusive
    | "escrow" -> Ok Maintain.Escrow
    | "deferred" -> Ok Maintain.Deferred
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Maintain.strategy_to_string s))

let create_mode_conv =
  let parse = function
    | "system" -> Ok Maintain.System_txn
    | "user" -> Ok Maintain.User_txn
    | s -> Error (`Msg (Printf.sprintf "unknown create mode %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf m ->
        Format.pp_print_string ppf
          (match m with Maintain.System_txn -> "system" | Maintain.User_txn -> "user") )

let commit_mode_conv =
  (* group[:BATCH[:WAIT]] exposes the coordinator's knobs *)
  let parse s =
    match String.split_on_char ':' s with
    | [ "sync" ] -> Ok Txn.Sync
    | [ "async" ] -> Ok Txn.Async
    | "group" :: rest -> (
        match rest with
        | [] -> Ok (Txn.Group { max_batch = 32; max_wait_ticks = 50 })
        | [ b ] -> (
            match int_of_string_opt b with
            | Some b -> Ok (Txn.Group { max_batch = b; max_wait_ticks = 50 })
            | None -> Error (`Msg (Printf.sprintf "bad batch size %S" b)))
        | [ b; w ] -> (
            match (int_of_string_opt b, int_of_string_opt w) with
            | Some b, Some w -> Ok (Txn.Group { max_batch = b; max_wait_ticks = w })
            | _ -> Error (`Msg (Printf.sprintf "bad group parameters %S" s)))
        | _ -> Error (`Msg (Printf.sprintf "bad group parameters %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "unknown commit mode %S" s))
  in
  let print ppf = function
    | Txn.Sync -> Format.pp_print_string ppf "sync"
    | Txn.Async -> Format.pp_print_string ppf "async"
    | Txn.Group { max_batch; max_wait_ticks } ->
        Format.fprintf ppf "group:%d:%d" max_batch max_wait_ticks
  in
  Arg.conv (parse, print)

let net_conv =
  let parse = function
    | "loopback" -> Ok Ivdb_client.Net_workload.Loopback
    | "tcp" -> Ok Ivdb_client.Net_workload.Tcp
    | s -> Error (`Msg (Printf.sprintf "unknown transport %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf t ->
        Format.pp_print_string ppf
          (match t with
          | Ivdb_client.Net_workload.Loopback -> "loopback"
          | Ivdb_client.Net_workload.Tcp -> "tcp") )

(* [f ()] and the wall-clock seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* The result block every shape prints: the loop's own figures, the
   counters of the run's registry window, and the run's [wall_s]. *)
let print_result strategy create_mode ~wall_s r =
  let get = Metrics.window_get r.Workload.window in
  let forces = get "log.force" in
  Printf.printf "strategy          %s (create: %s)\n"
    (Maintain.strategy_to_string strategy)
    (match create_mode with Maintain.System_txn -> "system txn" | Maintain.User_txn -> "user txn");
  Printf.printf "committed         %d (%d readers)\n" r.Workload.committed
    r.Workload.committed_readers;
  Printf.printf "gave up           %d\n" r.Workload.given_up;
  Printf.printf "retries           %d\n" (get "txn.retry");
  Printf.printf "deadlocks         %d\n" (get "lock.deadlock");
  Printf.printf "lock waits        %d\n" (get "lock.wait");
  Printf.printf "simulated ticks   %d\n" r.Workload.ticks;
  Printf.printf "throughput        %.2f txns / 1k ticks\n" r.Workload.throughput;
  Printf.printf "log forces        %d (%.2f per commit)\n" forces
    (if r.Workload.committed = 0 then 0.
     else float_of_int forces /. float_of_int r.Workload.committed);
  if r.Workload.mean_batch > 0. then
    Printf.printf "mean batch        %.2f commits per group force\n" r.Workload.mean_batch;
  Printf.printf "latency           mean %.1f, p95 %.1f ticks\n" r.Workload.mean_latency
    r.Workload.p95_latency;
  Printf.printf "wall time         %.3f s\n" wall_s

(* --verbose: every counter the run moved. *)
let print_counters r =
  Printf.printf "\ncounters:\n";
  List.iter
    (fun (k, v) -> if v <> 0 then Printf.printf "  %-28s %d\n" k v)
    r.Workload.window.Metrics.counters

(* The groups whose escrow view row disagrees with a fold of the base
   rows into per-group (count, sum), both read through coordinator
   fan-out; empty view groups a gc would reclaim are not divergence. *)
let view_vs_base c =
  let rows_of = function Ivdb_sql.Sql.Rows { rows; _ } -> rows | _ -> [] in
  let base = Hashtbl.create 64 in
  List.iter
    (fun (r : Value.t array) ->
      match (r.(1), r.(2)) with
      | Value.Str g, Value.Int q ->
          let n, s =
            match Hashtbl.find_opt base g with Some ns -> ns | None -> (0, 0)
          in
          Hashtbl.replace base g (n + 1, s + q)
      | _ -> ())
    (rows_of (Coord.exec c "SELECT * FROM t"));
  let diverged = ref 0 in
  List.iter
    (fun (r : Value.t array) ->
      match r with
      | [| Value.Str g; Value.Int n; sum |] ->
          let s = match sum with Value.Int s -> s | _ -> 0 in
          let expect = Hashtbl.find_opt base g in
          if expect <> Some (n, s) && not (n = 0 && expect = None) then
            incr diverged;
          Hashtbl.remove base g
      | _ -> incr diverged)
    (rows_of (Coord.exec c "SELECT * FROM v"));
  (* groups present in the base but missing from the view *)
  !diverged + Hashtbl.length base

(* The sharded path: a loopback cluster of [shards] engines behind one
   coordinator whose sessions are the closed loop's workers. A writer
   inserts --ops rows into view groups drawn from the worker's Zipf
   sampler, on one shard or spread over two per --cross-shard-pct;
   a reader fans out a view SELECT. Base keys are pre-partitioned per
   worker so the only contention is on the escrow view groups — the
   part 2PC has to get right — and the run ends with the global
   view-vs-base check. *)
let run_sharded ~shards ~cross_pct spec verbose =
  if shards < 1 then begin
    prerr_endline "--shards must be >= 1";
    exit 2
  end;
  let ops = spec.Workload.ops_per_txn in
  let dbs =
    Array.init shards (fun _ -> Database.create ~config:spec.Workload.config ())
  in
  (* per-shard pools of keys hashing to that shard, sliced per worker *)
  let per_worker = spec.Workload.txns_per_worker * ops in
  let pool =
    Array.init shards (fun s ->
        let rec go k acc remaining =
          if remaining = 0 then Array.of_list (List.rev acc)
          else if Coord.route_value ~shards (Value.Int k) = s then
            go (k + 1) (k :: acc) (remaining - 1)
          else go (k + 1) acc remaining
        in
        go 0 [] (spec.Workload.mpl * per_worker))
  in
  let session c0 w rng zipf =
    let c = Coord.session c0 in
    let idx = Array.make shards 0 in
    let take s =
      let k = pool.(s).(((w - 1) * per_worker) + idx.(s)) in
      idx.(s) <- idx.(s) + 1;
      k
    in
    let write () =
      let home = Rng.int rng shards in
      let cross = shards > 1 && Rng.int rng 100 < cross_pct in
      let legs =
        List.init ops (fun i ->
            let s = if cross && i land 1 = 1 then (home + 1) mod shards else home in
            (s, take s, 1 + Rng.int rng 9, Zipf.draw zipf rng))
        (* visit shards in ascending order so cross-engine lock waits
           cannot form a cycle no local deadlock detector sees *)
        |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
      in
      ignore (Coord.exec c "BEGIN");
      List.iter
        (fun (_, k, q, g) ->
          ignore
            (Coord.exec c (Printf.sprintf "INSERT INTO t VALUES (%d, 'g%d', %d)" k g q)))
        legs;
      ignore (Coord.exec c "COMMIT")
    in
    let txn ~reader =
      match if reader then ignore (Coord.exec c "SELECT * FROM v") else write () with
      | () -> true
      | exception (Coord.Coord_error _ | Client.Server_error _) ->
          (if Coord.in_transaction c then
             try ignore (Coord.exec c "ROLLBACK") with _ -> ());
          false
    in
    Some { Workload.txn; close = (fun () -> Coord.close c) }
  in
  (* the coordinator's registry is the run's: its decision log's forces
     are the result's log forces *)
  let metrics = Metrics.create () in
  let diverged = ref 0 and stats = ref None in
  let r, wall_s =
    timed @@ fun () ->
    Workload.closed_loop spec metrics ~on_commit:ignore (fun start ->
        Coord.loopback_cluster ~config:Server.default_config dbs (fun dialers ->
            let c0 = Coord.create ~metrics dialers in
            List.iter
              (fun s -> ignore (Coord.exec c0 s))
              [
                "CREATE TABLE t (k INT NOT NULL, grp TEXT NOT NULL, qty INT \
                 NOT NULL)";
                "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP \
                 BY grp USING ESCROW";
              ];
            let wait, _running = start (session c0) in
            wait ();
            diverged := view_vs_base c0;
            stats := Some (Coord.stats c0);
            Coord.close c0))
  in
  let st = Option.get !stats in
  let indoubt =
    Array.fold_left (fun acc db -> acc + Database.indoubt_count db) 0 dbs
  in
  Printf.printf "shards            %d (loopback cluster, %d coordinator \
                 sessions)\n"
    shards spec.Workload.mpl;
  Printf.printf "cross-shard mix   %d%% of writer transactions\n" cross_pct;
  print_result Maintain.Escrow Maintain.System_txn ~wall_s r;
  Printf.printf "2pc               %d cross-shard, %d local fast path; %d \
                 prepares, %d decides\n"
    st.Coord.cross_shard_commits st.Coord.single_shard_commits
    st.Coord.prepares_sent st.Coord.decides_sent;
  Printf.printf "in-doubt          %d\n" indoubt;
  if verbose then
    Array.iteri
      (fun i db ->
        let m = Database.metrics db in
        Printf.printf "  shard %d: %d request(s), %d prepared, %d commit(s)\n"
          i
          (Metrics.get m "server.requests")
          (Metrics.get m "shard.prepared")
          (Metrics.get m "txn.commit"))
      dbs;
  Printf.printf "consistency       view v vs base across shards: %s\n"
    (if !diverged = 0 then "MATCHES" else Printf.sprintf "DIVERGED (%d group(s))" !diverged);
  if !diverged > 0 || indoubt > 0 then exit 1

(* The closed-loop network path: same spec, but [mpl] client connections
   drive a server over the wire instead of in-process fibers. *)
let run_net net max_inflight spec strategy create_mode verbose check =
  let server_config = { Ivdb_server.Server.default_config with max_inflight } in
  let (r, db), wall_s =
    timed (fun () -> Ivdb_client.Net_workload.run_net ~transport:net ~server_config spec)
  in
  let get = Metrics.window_get r.Workload.window in
  Printf.printf "transport         %s (%d client connections)\n"
    (match net with
    | Ivdb_client.Net_workload.Loopback -> "loopback"
    | Ivdb_client.Net_workload.Tcp -> "tcp")
    spec.Workload.mpl;
  print_result strategy create_mode ~wall_s r;
  Printf.printf "server            accepted %d, shed %d, requests %d\n"
    (get "server.accepted") (get "server.shed") (get "server.requests");
  if verbose then print_counters r;
  if check then
    List.iter
      (fun (name, _) ->
        let v = Database.view db name in
        (match Database.view_strategy db v with
        | Maintain.Deferred ->
            Database.transact db (fun tx -> ignore (Query.refresh db tx v))
        | Maintain.Exclusive | Maintain.Escrow -> ());
        Printf.printf "consistency %-22s %b\n" name
          (Workload.check_consistency db v))
      (Database.list_views db)

(* The replicated network path: loopback clients against a primary with a
   follower applying the shipped WAL for the whole run. *)
let run_replicated max_inflight spec strategy create_mode verbose =
  let server_config = { Ivdb_server.Server.default_config with max_inflight } in
  let (r, db, fdb, rr), wall_s =
    timed (fun () -> Ivdb_client.Net_workload.run_replicated ~server_config spec)
  in
  let get = Metrics.window_get r.Workload.window in
  Printf.printf "transport         loopback + follower (%d client connections)\n"
    spec.Workload.mpl;
  print_result strategy create_mode ~wall_s r;
  Printf.printf "server            accepted %d, shed %d, requests %d\n"
    (get "server.accepted") (get "server.shed") (get "server.requests");
  Printf.printf "replication       %d batch(es), %d record(s) shipped, %d reconnect(s)\n"
    (get "server.repl.batches") (get "server.repl.records") rr.Ivdb_client.Net_workload.reconnects;
  Printf.printf "replica lag       max %d, mean %.1f records; catch-up %d ticks\n"
    rr.Ivdb_client.Net_workload.lag_max rr.Ivdb_client.Net_workload.lag_mean
    rr.Ivdb_client.Net_workload.catchup_ticks;
  let dp = Database.state_digest db and df = Database.state_digest fdb in
  Printf.printf "follower          lsn %d, state digest %s\n"
    (Database.replicated_lsn fdb)
    (if dp = df then "MATCHES primary" else "DIVERGED from primary");
  if verbose then print_counters r;
  if dp <> df then exit 1

let run seed groups theta mpl txns ops deletes reads scan coarse
    snapshot strategy create_mode commit_mode views initial gc_every
    checkpoint_every stats_interval trace_out verbose check net replica
    max_inflight shards cross_shard_pct fault_seed fault_read_p fault_write_p
    fault_crash_write fault_crash_force fault_torn_writes fault_torn_tail =
  let spec =
    {
      Workload.config = { Workload.default.Workload.config with Database.commit_mode };
      seed;
      n_groups = groups;
      theta;
      mpl;
      txns_per_worker = txns;
      ops_per_txn = ops;
      delete_fraction = deletes;
      read_fraction = reads;
      reader_scan = scan;
      reader_locking =
        (if snapshot then Workload.Snapshot
         else if coarse then Workload.Coarse_table
         else Workload.Key_range);
      strategy;
      create_mode;
      n_views = views;
      initial_rows = initial;
      gc_every;
      checkpoint_every;
      stats_interval;
    }
  in
  match (shards, net) with
  | Some n, _ ->
      run_sharded ~shards:n ~cross_pct:cross_shard_pct
        (* one view, no reporter: the coordinator's registry counts no
           engine commits *)
        { spec with n_views = 1; stats_interval = None }
        verbose
  | None, _ when replica ->
      run_replicated max_inflight spec strategy create_mode verbose
  | None, Some n -> run_net n max_inflight spec strategy create_mode verbose check
  | None, None ->
  let fcfg =
    {
      Fault.no_faults with
      fault_seed;
      read_error_p = fault_read_p;
      write_error_p = fault_write_p;
      crash_at_write = fault_crash_write;
      crash_at_force = fault_crash_force;
      torn_writes = fault_torn_writes;
      torn_tail = fault_torn_tail;
    }
  in
  let db, sales, views_l = Workload.setup spec in
  (* faults are armed after setup so the preload is never the victim:
     injection covers the measured phase only, like tracing *)
  if Fault.enabled_in fcfg then Database.install_fault db fcfg;
  (* tracing covers the measured phase only: enabled after setup/preload *)
  let profile = Trace.Profile.create () in
  let close_trace =
    match trace_out with
    | None -> fun () -> ()
    | Some path ->
        let tr = Database.trace db in
        let oc = open_out path in
        Trace.add_sink tr (fun r -> output_string oc (Trace.to_json r ^ "\n"));
        Trace.add_sink tr (Trace.Profile.sink profile);
        Trace.set_enabled tr true;
        fun () ->
          Trace.set_enabled tr false;
          close_out oc
  in
  let r, wall_s = timed (fun () -> Workload.run_on db sales views_l spec) in
  close_trace ();
  (* an injected crash point stopped the run: recover before reporting, as
     an operator would restart the server *)
  let db, views_l =
    if not r.Workload.crashed then (db, views_l)
    else begin
      let names = List.map (Database.view_name db) views_l in
      let db', recov_s = timed (fun () -> Database.crash db) in
      let m = Database.metrics db' in
      Printf.printf "injected crash fired; recovered in %.3f ms\n" (recov_s *. 1000.);
      Printf.printf "  stable records     %d\n" (Metrics.get m "recovery.stable_records");
      Printf.printf "  redo applied       %d\n" (Metrics.get m "recovery.redo_applied");
      Printf.printf "  torn pages reset   %d\n" (Metrics.get m "recovery.torn_pages");
      Printf.printf "  torn tail dropped  %d\n" (Metrics.get m "wal.torn_tail_dropped");
      Printf.printf "  losers rolled back %d\n" (Metrics.get m "recovery.losers");
      (db', List.map (Database.view db') names)
    end
  in
  print_result strategy create_mode ~wall_s r;
  (match trace_out with
  | None -> ()
  | Some path ->
      Printf.printf "\ntrace written to %s\n%s\n" path (Trace.Profile.render profile));
  if verbose then print_counters r;
  if check then begin
    List.iter
      (fun v ->
        (match Database.view_strategy db v with
        | Maintain.Deferred ->
            Database.transact db (fun tx -> ignore (Query.refresh db tx v))
        | Maintain.Exclusive | Maintain.Escrow -> ());
        Printf.printf "consistency %-22s %b\n" (Database.view_name db v)
          (Workload.check_consistency db v))
      views_l
  end

let cmd =
  let open Term in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let groups = Arg.(value & opt int 20 & info [ "groups" ] ~doc:"Distinct view groups.") in
  let theta = Arg.(value & opt float 0.99 & info [ "theta" ] ~doc:"Zipf skew (0 = uniform).") in
  let mpl = Arg.(value & opt int 8 & info [ "mpl" ] ~doc:"Concurrent workers.") in
  let txns = Arg.(value & opt int 50 & info [ "txns" ] ~doc:"Transactions per worker.") in
  let ops = Arg.(value & opt int 4 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let deletes =
    Arg.(value & opt float 0.1 & info [ "deletes" ] ~doc:"Per-op delete probability.")
  in
  let reads =
    Arg.(value & opt float 0. & info [ "reads" ] ~doc:"Per-txn reader probability.")
  in
  let scan = Arg.(value & flag & info [ "scan" ] ~doc:"Readers scan the view.") in
  let coarse =
    Arg.(value & flag & info [ "coarse" ] ~doc:"Readers use a table S lock (D4 ablation).")
  in
  let snapshot =
    Arg.(
      value & flag
      & info [ "snapshot" ]
          ~doc:"Readers use lock-free MVCC snapshot transactions.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Maintain.Escrow
      & info [ "strategy" ] ~doc:"View maintenance: exclusive | escrow | deferred.")
  in
  let create_mode =
    Arg.(
      value
      & opt create_mode_conv Maintain.System_txn
      & info [ "create-mode" ] ~doc:"Group creation: system | user (D3 ablation).")
  in
  let commit_mode =
    Arg.(
      value
      & opt commit_mode_conv Txn.Sync
      & info [ "commit-mode" ]
          ~doc:"Commit durability: sync | group[:BATCH[:WAIT]] | async (D9 ablation).")
  in
  let views = Arg.(value & opt int 1 & info [ "views" ] ~doc:"Indexed views on the table.") in
  let initial = Arg.(value & opt int 200 & info [ "initial" ] ~doc:"Preloaded rows.") in
  let gc_every =
    Arg.(value & opt (some int) None & info [ "gc-every" ] ~doc:"Run GC every N commits.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~doc:"Sharp checkpoint every N commits.")
  in
  let stats_interval =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats-interval" ]
          ~doc:"Print a one-line throughput / commit-p95 / lock-wait-p95 \
                summary every N simulated ticks during the measured phase \
                (works with and without --net).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:"Write the JSONL trace of the measured phase to $(docv) and \
                print a lock-wait / maintenance profile."
          ~docv:"FILE")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump all counters.") in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Verify view consistency afterwards.")
  in
  let net =
    Arg.(
      value
      & opt (some net_conv) None
      & info [ "net" ]
          ~doc:"Drive the workload through the network server instead of \
                in-process: loopback (deterministic in-memory transport) or \
                tcp (real sockets on 127.0.0.1). --mpl becomes the client \
                connection count; fault injection and --trace-out are \
                in-process features and do not apply.")
  in
  let replica =
    Arg.(
      value & flag
      & info [ "replica" ]
          ~doc:"Run the loopback network workload with a read replica \
                attached: a follower instance subscribes to the primary's \
                WAL stream and applies it while the clients run. Reports \
                replication lag and checks the follower's state digest \
                against the primary (non-zero exit on divergence).")
  in
  let max_inflight =
    Arg.(
      value & opt int 32
      & info [ "max-inflight" ]
          ~doc:"With --net: concurrent sessions the server admits before \
                shedding with Busy frames.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ]
          ~doc:"Run the closed-loop workload against a hash-partitioned \
                loopback cluster of N engines (built with --commit-mode) \
                behind one sharding coordinator: --mpl sessions on it each \
                run --txns transactions of --ops INSERTs into view groups \
                drawn per --groups/--theta (single- or cross-shard per \
                --cross-shard-pct, readers per --reads), then the escrow \
                view is checked against the base rows globally. Counters \
                and log forces are the coordinator's. --strategy, \
                --create-mode, --deletes, --views, --initial, --scan, \
                --coarse, --snapshot, --gc-every, --checkpoint-every, \
                --stats-interval, --trace-out and the fault knobs do not \
                apply.")
  in
  let cross_shard_pct =
    Arg.(
      value & opt int 30
      & info [ "cross-shard-pct" ]
          ~doc:"With --shards: percent of writer transactions that spread \
                their INSERTs over two shards (two-phase commit); the rest \
                stay on one shard and commit there.")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Fault-injection RNG seed.")
  in
  let fault_read_p =
    Arg.(
      value
      & opt float 0.
      & info [ "fault-read-error-p" ]
          ~doc:"Per-read transient I/O error probability (retried by the pool).")
  in
  let fault_write_p =
    Arg.(
      value
      & opt float 0.
      & info [ "fault-write-error-p" ]
          ~doc:"Per-write transient I/O error probability (retried by the pool).")
  in
  let fault_crash_write =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-crash-at-write" ]
          ~doc:"Crash on the N-th disk write of the measured phase, then recover.")
  in
  let fault_crash_force =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-crash-at-force" ]
          ~doc:"Crash on the N-th WAL force of the measured phase, then recover.")
  in
  let fault_torn_writes =
    Arg.(
      value & flag
      & info [ "fault-torn-writes" ]
          ~doc:"The crashing disk write persists only a prefix of the page.")
  in
  let fault_torn_tail =
    Arg.(
      value & flag
      & info [ "fault-torn-tail" ]
          ~doc:"The crashing WAL force persists only a byte prefix of the new \
                log region.")
  in
  Cmd.v
    (Cmd.info "ivdb_workload" ~doc:"Drive the ivdb order-entry workload")
    (const run $ seed $ groups $ theta $ mpl $ txns $ ops $ deletes $ reads
   $ scan $ coarse $ snapshot $ strategy $ create_mode
   $ commit_mode $ views $ initial
   $ gc_every $ checkpoint_every $ stats_interval $ trace_out $ verbose
   $ check $ net $ replica $ max_inflight $ shards $ cross_shard_pct
   $ fault_seed $ fault_read_p $ fault_write_p
   $ fault_crash_write $ fault_crash_force $ fault_torn_writes
   $ fault_torn_tail)

let () = exit (Cmd.eval cmd)
