(* Standalone ivdb network server: an in-memory engine behind the wire
   protocol on a TCP port, one cooperative session fiber per connection.

   Examples:
     ivdb_server --port 5433
     ivdb_server --port 0 --max-inflight 16 --commit-mode group
     ivdb_server --port 5434 --follow 127.0.0.1:5433
     ivdb_server --port 5433 --shard 0/2
   With --shard i/N the engine serves as shard i of an N-way
   hash-partitioned cluster: it maintains every view over the rows it
   holds, and honours the 2PC Prepare/Decide frames a sharding
   coordinator sends (sys.shards / the REPL .shards command show the
   identity).
   With --follow the engine starts as a read-only follower: a replica
   driver subscribes to the primary at HOST:PORT and applies its WAL
   continuously, while this server answers snapshot SELECTs (writes get
   E_read_only) that see every transaction committed in what it has
   applied. A follower is promoted to primary
   either by SIGUSR1 or by a Promote admin frame over the wire (the REPL
   .promote command): the driver stops, the replayed in-flight suffix is
   rolled back, and writes open. Stop with Ctrl-C (SIGINT): the server
   drains — open transactions may finish, new work is refused — then
   exits once every session closes. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Server = Ivdb_server.Server
module Replica = Ivdb_server.Replica
module Unix_transport = Ivdb_transport.Unix_transport
module Txn = Ivdb_txn.Txn
module Metrics = Ivdb_util.Metrics

open Cmdliner

let commit_mode_conv =
  let parse = function
    | "sync" -> Ok Txn.Sync
    | "async" -> Ok Txn.Async
    | "group" -> Ok (Txn.Group { max_batch = 32; max_wait_ticks = 50 })
    | s -> Error (`Msg (Printf.sprintf "unknown commit mode %S" s))
  in
  let print ppf = function
    | Txn.Sync -> Format.pp_print_string ppf "sync"
    | Txn.Async -> Format.pp_print_string ppf "async"
    | Txn.Group _ -> Format.pp_print_string ppf "group"
  in
  Arg.conv (parse, print)

let parse_shard_spec s =
  (* "i/N": this server is shard i of an N-shard cluster *)
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some shard, Some shards when shards > 0 && shard >= 0 && shard < shards
        ->
          Some (shard, shards)
      | _ -> None)

let run port max_inflight busy_retry commit_mode slow_query_ticks metrics_port
    init follow follow_name shard_spec =
  let upstream =
    match follow with
    | None -> None
    | Some addr -> (
        match Unix_transport.parse_host_port addr with
        | Some hp -> Some hp
        | None ->
            prerr_endline
              (Printf.sprintf "bad --follow address %S (want HOST:PORT)" addr);
            exit 2)
  in
  let shard =
    match shard_spec with
    | None -> None
    | Some spec -> (
        match parse_shard_spec spec with
        | Some _ when upstream <> None ->
            prerr_endline "--shard and --follow are mutually exclusive";
            exit 2
        | Some sp -> Some sp
        | None ->
            prerr_endline
              (Printf.sprintf "bad --shard spec %S (want I/N with 0 <= I < N)"
                 spec);
            exit 2)
  in
  let db =
    match upstream with
    | None -> Database.create ~config:{ Database.default_config with commit_mode } ()
    | Some _ -> Database.create_follower ()
  in
  (match shard with
  | None -> ()
  | Some (i, n) ->
      Ivdb_coord.Coord.configure_shard db ~shard:i ~shards:n;
      Printf.printf "serving as shard %d/%d (hash-partitioned cluster)\n" i n);
  (* optional schema/preload script, executed before the port opens *)
  (match init with
  | None -> ()
  | Some _ when upstream <> None ->
      prerr_endline "--init is meaningless on a follower (schema replicates)";
      exit 2
  | Some path ->
      let session = Ivdb_sql.Sql.session db in
      In_channel.with_open_text path (fun ic ->
          In_channel.input_lines ic
          |> List.iter (fun line ->
                 let line = String.trim line in
                 if line <> "" then ignore (Ivdb_sql.Sql.exec session line))));
  let stop = ref false in
  let promote_req = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> promote_req := true));
  Sched.run (fun () ->
      let listener, actual_port = Unix_transport.listen ~port () in
      let srv =
        Server.create
          ~config:
            {
              Server.default_config with
              max_inflight;
              busy_retry_ticks = busy_retry;
              slow_query_ticks;
            }
          db listener
      in
      let repl =
        match upstream with
        | None -> None
        | Some (host, uport) ->
            let r =
              Replica.create ~name:follow_name db
                (Unix_transport.dialer ~host ~port:uport ())
            in
            (* sys.replication serves the driver's follower row until
               promotion, the primary-shaped slot rows after; attaching
               also lets the Promote wire frame stop the driver *)
            Server.attach_replica srv r;
            Replica.spawn r;
            Printf.printf "following %s:%d as %S (read-only)\n" host uport
              follow_name;
            Some r
      in
      Server.serve srv;
      Printf.printf "ivdb_server listening on 127.0.0.1:%d (max %d sessions)\n"
        actual_port max_inflight;
      let stop_metrics =
        match metrics_port with
        | None -> fun () -> ()
        | Some p ->
            let mlistener, mport = Unix_transport.listen ~port:p () in
            Ivdb_server.Metrics_http.serve (Database.metrics db) mlistener;
            Printf.printf "metrics exposition on http://127.0.0.1:%d/metrics\n"
              mport;
            mlistener.Ivdb_transport.Transport.stop
      in
      flush stdout;
      (* supervise: sleep only when idle so an unloaded server does not
         spin, pure yields when sessions are active *)
      while not !stop do
        if !promote_req then begin
          promote_req := false;
          match repl with
          | Some r when Database.is_follower db ->
              Replica.stop r;
              while Replica.status r <> Replica.Stopped do
                Sched.yield ()
              done;
              let p = Database.promote db in
              Printf.printf
                "promoted to primary: %d in-flight transaction(s) rolled \
                 back (%d undo record(s))\n"
                p.Database.losers_undone p.Database.undo_records;
              flush stdout
          | _ ->
              prerr_endline "SIGUSR1 ignored: not a follower";
              flush stderr
        end;
        if Server.inflight srv = 0 then Unix.sleepf 0.001;
        Sched.yield ()
      done;
      print_endline "draining...";
      flush stdout;
      (* the exporter's accept fiber would otherwise outlive the drain
         and keep the scheduler running forever *)
      stop_metrics ();
      (match repl with Some r -> Replica.stop r | None -> ());
      Server.drain srv);
  let m = Database.metrics db in
  Printf.printf "served %d session(s), %d request(s), shed %d\n"
    (Metrics.get m "server.accepted")
    (Metrics.get m "server.requests")
    (Metrics.get m "server.shed");
  if upstream <> None then begin
    Printf.printf "replicated to LSN %d (%d batch(es), %d reconnect(s))\n"
      (Database.replicated_lsn db)
      (Metrics.get m "replica.batches")
      (Metrics.get m "replica.reconnects");
    if not (Database.is_follower db) then
      print_endline "exited as promoted primary"
  end

let cmd =
  let open Term in
  let port =
    Arg.(
      value & opt int 5433
      & info [ "port" ] ~doc:"TCP port on 127.0.0.1 (0 = kernel-assigned).")
  in
  let max_inflight =
    Arg.(
      value & opt int 32
      & info [ "max-inflight" ]
          ~doc:"Concurrent sessions before shedding with Busy.")
  in
  let busy_retry =
    Arg.(
      value & opt int 100
      & info [ "busy-retry" ] ~doc:"Backoff hint carried in Busy frames.")
  in
  let commit_mode =
    Arg.(
      value
      & opt commit_mode_conv Txn.Sync
      & info [ "commit-mode" ] ~doc:"Commit durability: sync | group | async.")
  in
  let slow_query_ticks =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-query-ticks" ]
          ~doc:"Record statements taking at least N simulated ticks in \
                sys.slow_queries (and as net.slow_query trace events).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ]
          ~doc:"Also serve the Prometheus text exposition of the metrics \
                registry over HTTP on this 127.0.0.1 port (0 = \
                kernel-assigned).")
  in
  let init =
    Arg.(
      value
      & opt (some string) None
      & info [ "init" ] ~docv:"FILE"
          ~doc:"SQL script (one statement per line) run before serving.")
  in
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"HOST:PORT"
          ~doc:
            "Start as a read-only follower of the ivdb_server at \
             $(docv): subscribe to its WAL stream and apply it \
             continuously. Writes to this server are refused with \
             E_read_only; SELECTs run as snapshots at the replicated \
             horizon.")
  in
  let follow_name =
    Arg.(
      value & opt string "replica"
      & info [ "follow-name" ] ~docv:"NAME"
          ~doc:
            "Replication slot name on the primary. Keep it stable across \
             restarts so the primary retains exactly the log this \
             follower still needs.")
  in
  let shard_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Serve as shard $(docv) of an N-way hash-partitioned cluster: \
             report the slot in sys.shards and accept 2PC Prepare/Decide \
             frames. All N servers must use the same N.")
  in
  Cmd.v
    (Cmd.info "ivdb_server" ~doc:"Serve ivdb over the wire protocol")
    (const run $ port $ max_inflight $ busy_retry $ commit_mode
   $ slow_query_ticks $ metrics_port $ init $ follow $ follow_name
   $ shard_spec)

let () = exit (Cmd.eval cmd)
