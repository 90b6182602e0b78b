(* Interactive SQL shell over an in-memory ivdb instance, or — with
   --connect HOST:PORT or the .connect dot-command — a network client of
   a running ivdb_server.

   Extra dot-commands beyond SQL:
     .crash            simulate a crash and recover        (local only)
     .gc               run garbage collection              (local only)
     .trace on|off|show engine trace ring                  (local only)
     .stats            engine counters (sys.metrics)
     .locks            lock table and wait queue (sys.locks, sys.lock_waits)
     .sessions         server sessions (sys.server_sessions)
     .shards           shard identity and 2PC state (sys.shards)
     .gtxns            live/recent global transactions (sys.gtxns)
     .cluster          coordinator cluster view (sys.coord_shards,
                       sys.cluster_metrics) — needs a coordinator backend
     .replicas         replication slots / follower link (sys.replication)
     .promote          promote a follower server to primary (remote only)
     .drop-replica N   forget a detached replication slot  (remote only)
     .connect H:P      switch to a remote server
     .local            switch back to a fresh local instance
     .help             this text
     .quit             exit

   Run with: dune exec bin/ivdb_repl.exe
   or pipe a script: dune exec bin/ivdb_repl.exe < script.sql *)

module Sql = Ivdb_sql.Sql
module Database = Ivdb.Database
module Trace = Ivdb_util.Trace
module Wire = Ivdb_wire.Wire
module Client = Ivdb_client.Client

let help =
  {|statements: CREATE TABLE/INDEX/VIEW, INSERT, DELETE, UPDATE, SELECT,
            EXPLAIN [ANALYZE] SELECT, BEGIN, COMMIT, ROLLBACK, CHECKPOINT,
            SHOW TABLES/VIEWS/METRICS,
            SELECT * FROM sys.transactions|locks|lock_waits|views|bufpool|
                          wal|metrics|metrics_hist|server_sessions|
                          slow_queries|replication|shards
dot commands: .crash .gc .trace on|off|show .stats .locks .sessions .shards
              .gtxns .cluster .replicas .promote .drop-replica NAME
              .connect HOST:PORT .local .help .quit|}

(* the trace ring survives statements but not .crash (new instance, new trace) *)
let ring_capacity = 4096

type backend = Local of Sql.session | Remote of string * Client.t

let connect_remote addr =
  match Ivdb_transport.Unix_transport.parse_host_port addr with
  | None ->
      Printf.printf "bad address %S (want HOST:PORT)\n" addr;
      None
  | Some (host, port) -> (
      match
        Client.connect ~client:"ivdb_repl"
          (Ivdb_transport.Unix_transport.dialer ~host ~port ())
      with
      | cl ->
          Printf.printf "connected to %s (session %d)\n"
            (Client.server_name cl) (Client.session_id cl);
          Some (Remote (addr, cl))
      | exception Ivdb_transport.Transport.Refused ->
          Printf.printf "connection refused by %s\n" addr;
          None
      | exception Client.Server_busy _ ->
          Printf.printf "server at %s is at capacity, try again\n" addr;
          None
      | exception (Client.Disconnected m | Failure m) ->
          Printf.printf "connect failed: %s\n" m;
          None)

let () =
  let interactive = Unix.isatty Unix.stdin in
  let initial_backend =
    (* --connect HOST:PORT / --connect=HOST:PORT *)
    let argv = Array.to_list Sys.argv in
    let addr =
      let rec find = function
        | "--connect" :: a :: _ -> Some a
        | a :: rest ->
            let p = "--connect=" in
            if String.length a > String.length p
               && String.sub a 0 (String.length p) = p
            then Some (String.sub a (String.length p) (String.length a - String.length p))
            else find rest
        | [] -> None
      in
      find (List.tl argv)
    in
    match addr with
    | None -> Local (Sql.session (Database.create ()))
    | Some a -> (
        match connect_remote a with
        | Some b -> b
        | None -> exit 1)
  in
  if interactive then
    print_endline "ivdb SQL shell — .help for help, .quit to exit";
  let backend = ref initial_backend in
  let ring = ref None in
  let local_only name =
    match !backend with
    | Local _ -> true
    | Remote _ ->
        Printf.printf "%s works only on a local instance (.local to switch)\n"
          name;
        false
  in
  let session_of_local () =
    match !backend with Local s -> s | Remote _ -> assert false
  in
  let trace_cmd arg =
    if local_only ".trace" then begin
      let tr = Database.trace (Sql.db (session_of_local ())) in
      match arg with
      | "on" ->
          let r = Trace.Ring.create ~capacity:ring_capacity in
          ring := Some r;
          Trace.clear_sinks tr;
          Trace.add_sink tr (Trace.Ring.sink r);
          Trace.set_enabled tr true;
          Printf.printf "tracing on (last %d events kept)\n" ring_capacity
      | "off" ->
          Trace.set_enabled tr false;
          print_endline "tracing off"
      | "show" -> (
          match !ring with
          | None -> print_endline "tracing has not been turned on"
          | Some r ->
              List.iter
                (fun rec_ -> print_endline (Trace.to_json rec_))
                (Trace.Ring.contents r);
              Printf.printf "(%d of %d event(s))\n" (Trace.Ring.length r)
                (Trace.Ring.seen r))
      | _ -> print_endline "usage: .trace on|off|show"
    end
  in
  let switch_backend b =
    (match !backend with Remote (_, cl) -> Client.close cl | Local _ -> ());
    ring := None;
    backend := b
  in
  let exec_line line =
    match !backend with
    | Local s -> (
        try print_endline (Sql.render (Sql.exec s line)) with
        | Sql.Sql_error m -> Printf.printf "error: %s\n" m
        | Ivdb_sql.Sql_parser.Parse_error m -> Printf.printf "parse error: %s\n" m
        | Ivdb_sql.Sql_lexer.Lex_error m -> Printf.printf "lex error: %s\n" m
        | Database.Constraint_violation m ->
            Printf.printf "constraint violation: %s\n" m
        | Ivdb_txn.Txn.Conflict _ -> print_endline "error: deadlock victim, retry")
    | Remote (_, cl) -> (
        (* the server ships results as Sql.result frames, so rendering is
           byte-identical with the local path *)
        try print_endline (Sql.render (Client.exec cl line)) with
        | Client.Server_error { code; text; txn_open } ->
            Printf.printf "server error (%s%s): %s\n"
              (Wire.error_code_name code)
              (if txn_open then ", transaction still open" else "")
              text
        | Client.Server_busy { retry_ticks } ->
            Printf.printf "server busy, retry in ~%d ticks\n" retry_ticks
        | Client.Disconnected m -> Printf.printf "disconnected: %s\n" m)
  in
  let rec loop () =
    if interactive then begin
      (match !backend with
      | Local s ->
          print_string (if Sql.in_transaction s then "ivdb*> " else "ivdb> ")
      | Remote (addr, _) -> Printf.printf "ivdb@%s> " addr);
      flush stdout
    end;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        (if line = "" then ()
         else if line = ".quit" || line = ".exit" then begin
           (match !backend with Remote (_, cl) -> Client.close cl | Local _ -> ());
           exit 0
         end
         else if line = ".help" then print_endline help
         else if line = ".gc" then begin
           if local_only ".gc" then
             Printf.printf "gc reclaimed %d item(s)\n"
               (Database.gc (Sql.db (session_of_local ())))
         end
         else if line = ".crash" then begin
           if local_only ".crash" then begin
             let db' = Database.crash (Sql.db (session_of_local ())) in
             switch_backend (Local (Sql.session db'));
             print_endline "crashed and recovered"
           end
         end
         else if line = ".local" then begin
           switch_backend (Local (Sql.session (Database.create ())));
           print_endline "switched to a fresh local instance"
         end
         else if String.length line >= 8 && String.sub line 0 8 = ".connect" then begin
           let addr = String.trim (String.sub line 8 (String.length line - 8)) in
           if addr = "" then print_endline "usage: .connect HOST:PORT"
           else
             match connect_remote addr with
             | Some b -> switch_backend b
             | None -> ()
         end
         else if String.length line >= 6 && String.sub line 0 6 = ".trace" then
           trace_cmd (String.trim (String.sub line 6 (String.length line - 6)))
         (* introspection shortcuts: plain sys.* queries, so they work
            identically on a local instance and over .connect *)
         else if line = ".stats" then
           exec_line "SELECT * FROM sys.metrics"
         else if line = ".locks" then begin
           exec_line "SELECT * FROM sys.locks";
           exec_line "SELECT * FROM sys.lock_waits"
         end
         else if line = ".sessions" then
           exec_line "SELECT * FROM sys.server_sessions"
         else if line = ".shards" then
           exec_line "SELECT * FROM sys.shards"
         else if line = ".gtxns" then
           exec_line "SELECT * FROM sys.gtxns"
         else if line = ".cluster" then begin
           exec_line "SELECT * FROM sys.coord_shards";
           exec_line "SELECT * FROM sys.cluster_metrics"
         end
         else if line = ".replicas" then
           exec_line "SELECT * FROM sys.replication"
         else if line = ".promote" then begin
           match !backend with
           | Local _ ->
               print_endline
                 ".promote works only over .connect (a local instance is \
                  already a primary)"
           | Remote (_, cl) -> (
               try print_endline (Client.promote cl) with
               | Client.Server_error { code; text; _ } ->
                   Printf.printf "server error (%s): %s\n"
                     (Wire.error_code_name code) text
               | Client.Disconnected m -> Printf.printf "disconnected: %s\n" m)
         end
         else if String.length line >= 13 && String.sub line 0 13 = ".drop-replica"
         then begin
           let name =
             String.trim (String.sub line 13 (String.length line - 13))
           in
           if name = "" then print_endline "usage: .drop-replica NAME"
           else
             match !backend with
             | Local _ ->
                 print_endline
                   ".drop-replica works only over .connect (.local instances \
                    have no slots)"
             | Remote (_, cl) -> (
                 try print_endline (Client.drop_slot cl name) with
                 | Client.Server_error { code; text; _ } ->
                     Printf.printf "server error (%s): %s\n"
                       (Wire.error_code_name code) text
                 | Client.Disconnected m -> Printf.printf "disconnected: %s\n" m)
         end
         else
           match Ivdb_sql.Sql_lexer.tokenize line with
           | [ Ivdb_sql.Sql_lexer.Eof ] -> () (* comment-only line *)
           | _ | (exception Ivdb_sql.Sql_lexer.Lex_error _) -> exec_line line);
        loop ()
  in
  loop ()
