(* TCP transport. The cooperative scheduler has no notion of fd
   readiness, so in-run blocking is poll-and-yield: EAGAIN yields the
   fiber and retries. A global idle counter (reset by any successful
   I/O anywhere in the transport) escalates a long fruitless streak to
   a 0.2 ms sleep, bounding the idle-spin cost without a central
   poller; under load the counter never reaches the threshold, so the
   hot path stays syscall + yield. *)

module Sched = Ivdb_sched.Sched

(* consecutive would-block events across every socket of the process *)
let idle_polls = ref 0
let idle_threshold = 256

let would_block () =
  incr idle_polls;
  if !idle_polls >= idle_threshold then begin
    idle_polls := 0;
    Unix.sleepf 0.0002
  end;
  Sched.yield ()

let progressed () = idle_polls := 0

let next_id = ref 0

let conn_of_fd fd =
  let id = !next_id in
  incr next_id;
  let closed = ref false in
  let in_run = Sched.in_run () in
  if in_run then Unix.set_nonblock fd;
  let rec read buf off len =
    match Unix.read fd buf off len with
    | n ->
        progressed ();
        n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        would_block ();
        if !closed then 0 else read buf off len
    | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> 0
  in
  let rec write_all s off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n ->
          progressed ();
          write_all s (off + n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          would_block ();
          if not !closed then write_all s off
      | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> ()
  in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  { Transport.id; read; write = (fun s -> write_all s 0); close }

let listen ?(backlog = 64) ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  let actual_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> assert false
  in
  let stopped = ref false in
  (* the kernel holds the queue: poll it, yielding between fruitless
     polls like a read, until a connection arrives or [stop] closes the
     socket *)
  let rec accept () =
    if !stopped then None
    else
      match Unix.accept fd with
      | client, _ ->
          progressed ();
          Some (conn_of_fd client)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          would_block ();
          accept ()
      | exception Unix.Unix_error (EBADF, _, _) -> None
  in
  let stop () =
    if not !stopped then begin
      stopped := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  ({ Transport.accept; stop; stopped = (fun () -> !stopped) }, actual_port)

let dial ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () -> conn_of_fd fd
  | exception Unix.Unix_error (ECONNREFUSED, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise Transport.Refused

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port >= 0 -> Some (host, port)
      | _ -> None)

let dialer ?(host = "127.0.0.1") ~port () =
  {
    Transport.addr = Printf.sprintf "%s:%d" host port;
    dial = (fun () -> dial ~host ~port ());
  }
