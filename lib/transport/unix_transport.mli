(** Real-socket transport: TCP behind a cooperative poll loop.

    Inside a {!Ivdb_sched.Sched.run}, sockets are non-blocking and a
    read or accept that would block yields to the scheduler and retries
    (an accept also returns [None] once the listener stops), backing
    off to a sub-millisecond sleep after a burst of fruitless polls so
    an idle server does not spin a core. Outside a run (a standalone
    client such as the REPL), sockets block the calling thread
    directly. Unlike {!Transport.Loopback}, socket readiness comes from
    the kernel, so runs over this transport are not seed-deterministic. *)

val listen :
  ?backlog:int -> port:int -> unit -> Transport.listener * int
(** Bind and listen on [127.0.0.1:port] ([port] = 0 lets the kernel pick);
    returns the listener and the actual port. [backlog] is the kernel
    accept queue (default 64). *)

val dialer : ?host:string -> port:int -> unit -> Transport.dialer
(** A named {!Transport.dialer} ("host:port") connecting to [host]
    (default 127.0.0.1); a dial raises {!Transport.Refused} when the peer
    refuses. *)

val parse_host_port : string -> (string * int) option
(** Parse a ["HOST:PORT"] command-line address; an empty host means
    127.0.0.1. [None] without a colon or with a port that is not a
    non-negative integer. *)
