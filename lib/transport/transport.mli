(** Byte transports under the ivdb wire protocol.

    A {!conn} is a bidirectional byte stream with blocking reads:
    "blocking" means suspending the calling fiber under
    {!Ivdb_sched.Sched} (cooperative, deterministic) or blocking the
    calling thread outside a scheduler run, depending on the transport.
    A {!listener} hands out server-side connections; its [accept] blocks
    the same way until a connection arrives or the listener stops, so a
    quiet server costs the scheduler nothing and a run whose only live
    fiber is an undrained server's accept loop ends in
    {!Ivdb_sched.Sched.Stuck}.

    Two implementations exist: the in-memory {!Loopback} (fully
    deterministic under a seeded scheduler run — the transport the test
    suite and crash/fault property tests use) and
    {!Unix_transport} (real sockets behind a cooperative poll loop). *)

exception Refused
(** Raised by a connect when the accept queue (listen backlog) is full
    or the listener has stopped — the transport-level load shed. *)

exception Corrupt of string
(** Raised by {!Frame_io.recv} when the stream violates the framing
    (bad checksum, impossible length, EOF inside a frame). The
    connection is unusable afterwards. *)

type conn = {
  id : int;  (** unique per transport instance; used in trace events *)
  read : bytes -> int -> int -> int;
      (** [read buf off len] blocks until at least one byte is
          available, returns the count copied, or 0 at EOF. *)
  write : string -> unit;
      (** Writes the whole string. Writing to a peer-closed connection
          is a silent no-op (the subsequent read observes EOF). *)
  close : unit -> unit;  (** idempotent *)
}

type listener = {
  accept : unit -> conn option;
      (** blocks until a connection is queued or the listener stops;
          [None] = stopped and nothing left queued *)
  stop : unit -> unit;
      (** refuse future connects and wake a blocked [accept];
          already-queued ones still accept *)
  stopped : unit -> bool;
}

type dialer = {
  addr : string;  (** human-readable peer address, for status/sys rows *)
  dial : unit -> conn;
      (** one connection attempt; raises {!Refused} when the peer
          refuses or the listener has stopped *)
}
(** A named connection factory — the single client-side interface: the
    SQL client, the REPL, and the replication stream all dial through
    one of these instead of each carrying an ad-hoc [unit -> conn]
    function. Build one with {!Loopback.dialer} or
    {!Unix_transport.dialer}. *)

(** Frame-granular I/O over a {!conn}: buffers the byte stream and
    yields only complete, checksum-verified {!Ivdb_wire.Wire} frames. *)
module Frame_io : sig
  type t

  val create : conn -> t
  val conn : t -> conn
  val send : t -> Ivdb_wire.Wire.frame -> unit

  val recv : t -> Ivdb_wire.Wire.frame option
  (** Blocks for a whole frame; [None] on clean EOF (no partial bytes
      buffered). Raises {!Corrupt} on a damaged stream. *)
end

(** Deterministic in-memory transport: connects and byte flow happen
    entirely inside one scheduler run, so a seed fully determines every
    interleaving — including server-side batching and shedding. *)
module Loopback : sig
  type net

  val create : ?backlog:int -> unit -> net
  (** [backlog] bounds the accept queue (default 16); a connect beyond
      it raises {!Refused}, like a kernel refusing a SYN. *)

  val listener : net -> listener
  (** Its [accept] suspends the calling fiber while the queue is empty;
      a connect or [stop] wakes it. At most one fiber may block in
      [accept] on one [net]. *)

  val connect : net -> conn
  (** Client-side endpoint; the matching server-side conn is queued for
      [accept]. Raises {!Refused} when the backlog is full or the
      listener stopped. *)

  val dialer : net -> dialer
  (** [connect] packaged as a {!dialer} (addr ["loopback"]). *)
end
