(* Transport substrate for the wire protocol: the conn/listener records
   every layer above programs against, frame-granular I/O on top of
   them, and the deterministic in-memory loopback implementation.

   Blocking discipline: a conn's [read] and a listener's [accept] may
   suspend the calling fiber (loopback) or block the calling thread
   (unix sockets outside a scheduler run); they never spin without
   yielding. Everything else is non-blocking. *)

module Sched = Ivdb_sched.Sched
module Wire = Ivdb_wire.Wire

exception Refused
exception Corrupt of string

type conn = {
  id : int;
  read : bytes -> int -> int -> int;
  write : string -> unit;
  close : unit -> unit;
}

type listener = {
  accept : unit -> conn option;
  stop : unit -> unit;
  stopped : unit -> bool;
}

type dialer = { addr : string; dial : unit -> conn }

(* --- frame-granular I/O ---------------------------------------------------- *)

module Frame_io = struct
  type t = {
    c : conn;
    chunk : bytes;
    mutable rbuf : string; (* unconsumed framed bytes, frame-aligned at 0 *)
  }

  let create c = { c; chunk = Bytes.create 4096; rbuf = "" }
  let conn t = t.c
  let send t f = t.c.write (Wire.to_framed f)

  let rec recv t =
    match Wire.decode_framed t.rbuf ~pos:0 with
    | Wire.Frame (f, next) ->
        t.rbuf <- String.sub t.rbuf next (String.length t.rbuf - next);
        Some f
    | Wire.Corrupt m -> raise (Corrupt m)
    | Wire.Partial ->
        let n = t.c.read t.chunk 0 (Bytes.length t.chunk) in
        if n = 0 then
          if t.rbuf = "" then None
          else raise (Corrupt "connection closed inside a frame")
        else begin
          t.rbuf <- t.rbuf ^ Bytes.sub_string t.chunk 0 n;
          recv t
        end
end

(* --- deterministic loopback ------------------------------------------------ *)

module Loopback = struct
  (* One direction of a connection: a growable byte queue with at most
     one blocked reader. The reader suspends on empty; writer and close
     wake it. All inside one Sched.run, so ordering is seed-driven. *)
  type pipe = {
    mutable data : Bytes.t;
    mutable rpos : int; (* consumed prefix *)
    mutable wpos : int; (* filled prefix *)
    mutable closed : bool;
    mutable waiter : (unit -> unit) option;
  }

  let pipe () =
    { data = Bytes.create 256; rpos = 0; wpos = 0; closed = false; waiter = None }

  let wake p =
    match p.waiter with
    | None -> ()
    | Some w ->
        p.waiter <- None;
        w ()

  let pipe_write p s =
    if not p.closed then begin
      let n = String.length s in
      let avail = Bytes.length p.data - p.wpos in
      if n > avail then begin
        let live = p.wpos - p.rpos in
        let cap = max (2 * Bytes.length p.data) (live + n) in
        let fresh = Bytes.create cap in
        Bytes.blit p.data p.rpos fresh 0 live;
        p.data <- fresh;
        p.rpos <- 0;
        p.wpos <- live
      end;
      Bytes.blit_string s 0 p.data p.wpos n;
      p.wpos <- p.wpos + n;
      wake p
    end

  let rec pipe_read p buf off len =
    let live = p.wpos - p.rpos in
    if live > 0 then begin
      let n = min live len in
      Bytes.blit p.data p.rpos buf off n;
      p.rpos <- p.rpos + n;
      if p.rpos = p.wpos then begin
        p.rpos <- 0;
        p.wpos <- 0
      end;
      n
    end
    else if p.closed then 0
    else begin
      (* loopback blocking only makes sense under the scheduler; outside
         a run Sched.suspend raises Stuck, which is the right error *)
      Sched.suspend (fun wake _cancel -> p.waiter <- Some wake);
      pipe_read p buf off len
    end

  let pipe_close p =
    p.closed <- true;
    wake p

  type net = {
    backlog : int;
    mutable queue : conn list; (* oldest first *)
    mutable next_id : int;
    mutable l_stopped : bool;
    mutable acceptor : (unit -> unit) option; (* the fiber blocked in accept *)
  }

  let create ?(backlog = 16) () =
    { backlog; queue = []; next_id = 0; l_stopped = false; acceptor = None }

  let wake_acceptor net =
    match net.acceptor with
    | None -> ()
    | Some w ->
        net.acceptor <- None;
        w ()

  let endpoints net =
    let c2s = pipe () and s2c = pipe () in
    let close_both () =
      pipe_close c2s;
      pipe_close s2c
    in
    let id = net.next_id in
    net.next_id <- id + 1;
    let client =
      {
        id;
        read = pipe_read s2c;
        write = pipe_write c2s;
        close = close_both;
      }
    in
    let server =
      {
        id;
        read = pipe_read c2s;
        write = pipe_write s2c;
        close = close_both;
      }
    in
    (client, server)

  let connect net =
    if net.l_stopped || List.length net.queue >= net.backlog then raise Refused;
    let client, server = endpoints net in
    net.queue <- net.queue @ [ server ];
    wake_acceptor net;
    client

  let dialer net = { addr = "loopback"; dial = (fun () -> connect net) }

  let rec accept net =
    match net.queue with
    | c :: rest ->
        net.queue <- rest;
        Some c
    | [] when net.l_stopped -> None
    | [] ->
        Sched.suspend (fun wake _cancel -> net.acceptor <- Some wake);
        accept net

  let listener net =
    {
      accept = (fun () -> accept net);
      stop =
        (fun () ->
          net.l_stopped <- true;
          wake_acceptor net);
      stopped = (fun () -> net.l_stopped);
    }
end
