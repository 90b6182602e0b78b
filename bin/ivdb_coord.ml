(* Standalone sharding coordinator: the wire protocol on a TCP port in
   front of N ivdb_server --shard i/N processes.

   Example (a 2-shard cluster on one machine):
     ivdb_server --port 5434 --shard 0/2 &
     ivdb_server --port 5435 --shard 1/2 &
     ivdb_coord --port 5433 --shards 127.0.0.1:5434,127.0.0.1:5435 \
       --metrics-port 9433
     ivdb_repl --connect 127.0.0.1:5433     # .gtxns / .cluster work here

   Any wire client connected to the coordinator sees the whole cluster:
   DDL broadcasts, INSERTs split by partition, cross-shard COMMITs run
   presumed-abort 2PC, and the coordinator-resident catalogs
   (sys.gtxns, sys.coord_shards, sys.cluster_metrics) answer locally.
   Each connection is its own coordinator session with its own
   transaction; one that disconnects mid-transaction is rolled back.
   --metrics-port serves the coordinator registry's Prometheus
   exposition (per-phase 2PC tick histograms, vote and abort-cause
   counters, fast-path vs 2PC commits, in-doubt gauge); --trace-out
   streams the gtxn-correlated coordinator trace as JSONL. Stop with
   Ctrl-C: the listener drains, then the coordinator's commit, abort,
   prepare and decide totals are printed. *)

module Sched = Ivdb_sched.Sched
module Coord = Ivdb_coord.Coord
module Unix_transport = Ivdb_transport.Unix_transport
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace

open Cmdliner

let run port shards name metrics_port trace_out =
  let addrs =
    String.split_on_char ',' shards
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if addrs = [] then begin
    prerr_endline "--shards is required (comma-separated HOST:PORT list)";
    exit 2
  end;
  let dialers =
    addrs
    |> List.map (fun addr ->
           match Unix_transport.parse_host_port addr with
           | Some (host, p) -> Unix_transport.dialer ~host ~port:p ()
           | None ->
               prerr_endline
                 (Printf.sprintf "bad shard address %S (want HOST:PORT)" addr);
               exit 2)
    |> Array.of_list
  in
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  let coord = ref None in
  Sched.run (fun () ->
      let c = Coord.create ~name dialers in
      coord := Some c;
      let close_trace =
        match trace_out with
        | None -> fun () -> ()
        | Some path ->
            let tr = Coord.trace c in
            let oc = open_out path in
            Trace.add_sink tr (fun r ->
                output_string oc (Trace.to_json r ^ "\n"));
            Trace.set_enabled tr true;
            fun () ->
              Trace.set_enabled tr false;
              close_out oc
      in
      let listener, actual_port = Unix_transport.listen ~port () in
      let srv =
        Coord.server
          ~config:{ Ivdb_server.Server.default_config with name }
          c listener
      in
      Ivdb_server.Server.serve srv;
      Printf.printf "ivdb_coord %S listening on 127.0.0.1:%d (%d shard(s))\n"
        name actual_port (Coord.shard_count c);
      let stop_metrics =
        match metrics_port with
        | None -> fun () -> ()
        | Some p ->
            let mlistener, mport = Unix_transport.listen ~port:p () in
            Ivdb_server.Metrics_http.serve (Coord.metrics c) mlistener;
            Printf.printf "metrics exposition on http://127.0.0.1:%d/metrics\n"
              mport;
            mlistener.Ivdb_transport.Transport.stop
      in
      flush stdout;
      while not !stop do
        Unix.sleepf 0.001;
        Sched.yield ()
      done;
      print_endline "draining...";
      flush stdout;
      (* the exporter's accept fiber would otherwise outlive the drain
         and keep the scheduler running forever *)
      stop_metrics ();
      close_trace ();
      Ivdb_server.Server.drain srv;
      Coord.close c);
  match !coord with
  | None -> ()
  | Some c ->
      let s = Coord.stats c in
      Printf.printf
        "%d single-shard commit(s), %d cross-shard commit(s), %d abort(s), \
         %d prepare(s), %d decide(s)\n"
        s.Coord.single_shard_commits s.Coord.cross_shard_commits s.Coord.aborts
        s.Coord.prepares_sent s.Coord.decides_sent

let cmd =
  let open Term in
  let port =
    Arg.(
      value & opt int 5433
      & info [ "port" ] ~doc:"TCP port on 127.0.0.1 (0 = kernel-assigned).")
  in
  let shards =
    Arg.(
      value & opt string ""
      & info [ "shards" ] ~docv:"ADDRS"
          ~doc:
            "Comma-separated HOST:PORT list of the shard servers, in shard-id \
             order; each must run ivdb_server --shard i/N with i matching its \
             position here.")
  in
  let name =
    Arg.(
      value & opt string "coord"
      & info [ "name" ]
          ~doc:
            "Coordinator name: prefixes global transaction ids (NAME:n) and \
             is the server string in Welcome. Every coordinator on one set \
             of shards needs its own name: shards keep no memory of decided \
             gtxns, so they tell transactions apart only by these ids.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ]
          ~doc:
            "Also serve the Prometheus text exposition of the coordinator's \
             metrics registry (2PC phase histograms, vote/abort counters) \
             over HTTP on this 127.0.0.1 port (0 = kernel-assigned).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream the coordinator's gtxn-correlated trace (coord.route, \
             coord.prepare, coord.vote, coord.decision, coord.decide, \
             coord.fast_path) to $(docv) as JSONL.")
  in
  Cmd.v
    (Cmd.info "ivdb_coord"
       ~doc:"Serve a hash-partitioned ivdb cluster's coordinator over the wire")
    (const run $ port $ shards $ name $ metrics_port $ trace_out)

let () = exit (Cmd.eval cmd)
