(** Structured engine trace events.

    Every significant engine transition (transaction lifecycle, lock
    traffic, WAL activity, buffer-pool churn, view maintenance, commit
    batching) can emit a tick-stamped, fiber-attributed {!record} to a set
    of pluggable sinks. Emission sits behind a single [enabled] boolean so
    the disabled cost on hot paths is one load and branch; call sites
    guard event construction with {!enabled} to avoid even the allocation.

    The clock and fiber-id providers are injected at {!create} time
    (the database wires them to the deterministic scheduler), so under a
    seeded run the event stream — including the JSONL rendering — is
    byte-identical across runs with the same seed. *)

type event =
  | Txn_begin of { txn : int; system : bool }
  | Txn_commit of { txn : int; system : bool }
  | Txn_abort of { txn : int }
  | Lock_acquire of { txn : int; name : string; mode : string }
  | Lock_wait of { txn : int; name : string; mode : string }
  | Lock_grant of { txn : int; name : string; mode : string }
  | Deadlock_victim of { txn : int }
  | Wal_append of { lsn : int; txn : int; bytes : int }
  | Wal_force of { lsn : int }
  | Buf_miss of { page : int }
  | Buf_evict of { page : int }
  | View_delta of { view : int; key : string; strategy : string }
  | Group_create of { view : int; key : string; system : bool }
  | Group_gc of { view : int; key : string }
  | Batch_flush of { batch : int; hi_lsn : int }
  | Fault_inject of { kind : string; arg : int }
      (** injected fault: [kind] names it (["io_error.read"],
          ["crash.write"], ["torn.write"], …), [arg] is the page id, force
          ordinal, or torn byte count as appropriate *)
  | Io_retry of { page : int; attempt : int }
      (** buffer pool retrying an I/O after a transient injected error *)
  | Net_accept of { conn : int }  (** server admitted a connection *)
  | Net_shed of { conn : int }
      (** admission control refused a connection with a [Busy] frame *)
  | Net_request of { conn : int; seq : int; rid : int; bytes : int }
      (** one wire request frame arrived ([bytes] = payload size; [rid] is
          the client-assigned correlation id carried in the Exec frame) *)
  | Net_response of { conn : int; seq : int; rid : int; frame : string; ticks : int }
      (** response sent; [frame] names the frame type, [ticks] the
          request's servicing time on the logical clock; [rid] matches the
          request's correlation id *)
  | Slow_query of { conn : int; seq : int; rid : int; ticks : int; sql : string }
      (** a statement exceeded the server's slow-query tick threshold;
          joins to the client call via [rid] *)
  | Net_close of { conn : int }  (** connection finished (either side) *)
  | Coord_route of { rid : int; shard : int; kind : string }
      (** coordinator dispatched one statement to [shard]; [kind] is the
          routing decision (["pin"], ["broadcast"], ["split"], ["sys"]);
          [rid] is the coordinator-assigned correlation id stamped on the
          forwarded Exec frame, so the shard-side [Net_request] /
          [Slow_query] events join back to this dispatch *)
  | Coord_fast_path of { rid : int; shard : int }
      (** single-participant commit: committed locally on [shard],
          skipping 2PC *)
  | Coord_prepare of { gtxn : string; rid : int; shard : int }
      (** Prepare sent to [shard] for global transaction [gtxn] *)
  | Coord_vote of { gtxn : string; shard : int; vote : string }
      (** [shard]'s prepare outcome: ["yes"], ["read-only"] (the shard
          committed its read-only part and needs no decision), ["no"]
          (shard voted to abort), or ["dead"] (line down — presumed No) *)
  | Coord_decision of { gtxn : string; committed : bool }
      (** the outcome: a commit is forced to the coordinator WAL first,
          unless every participant voted read-only *)
  | Coord_decide of { gtxn : string; rid : int; shard : int; committed : bool }
      (** Decide delivered to [shard] *)
  | Twopc_prepare of { conn : int; gtxn : string; rid : int; outcome : string }
      (** participant side of Prepare: [outcome] is ["prepared"]
          (a resend for a gtxn already in doubt included), ["read-only"]
          (committed on the spot) or ["no"];
          [rid] is the coordinator correlation id off the frame *)
  | Twopc_decide of {
      conn : int;
      gtxn : string;
      rid : int;
      committed : bool;
      outcome : string;
    }
      (** participant side of Decide: [outcome] is ["applied"],
          ["duplicate"] (a commit for a gtxn not in doubt), or
          ["presumed_abort"] (an abort for a gtxn not in doubt) *)

type record = {
  seq : int;  (** emission order, dense from 0 *)
  tick : int;  (** logical scheduler clock at emission *)
  fiber : int;  (** emitting fiber id (0 outside a scheduler run) *)
  event : event;
}

type sink = record -> unit

type t

val create : ?clock:(unit -> int) -> ?fiber:(unit -> int) -> unit -> t
(** Both providers default to [fun () -> 0]; traces start disabled with no
    sinks attached. *)

val enabled : t -> bool
(** Cheap guard for hot call sites:
    [if Trace.enabled tr then Trace.emit tr (...)]. *)

val set_enabled : t -> bool -> unit
val add_sink : t -> sink -> unit
val clear_sinks : t -> unit

val emit : t -> event -> unit
(** No-op when disabled; otherwise stamps and fans out to every sink in
    attachment order. *)

val event_name : event -> string
(** Stable dotted identifier, e.g. ["lock.wait"]. *)

val to_json : record -> string
(** One JSON object (no trailing newline), pure 7-bit ASCII: binary lock
    and group keys are [\uXXXX]-escaped, so the rendering is deterministic
    byte-for-byte. *)

(** Bounded in-memory sink: keeps the most recent [capacity] records,
    counting everything it ever saw. *)
module Ring : sig
  type ring

  val create : capacity:int -> ring
  (** Raises [Invalid_argument] if [capacity <= 0]. *)

  val sink : ring -> sink
  val seen : ring -> int
  (** Total records pushed, including overwritten ones. *)

  val length : ring -> int
  (** Records currently retained ([<= capacity]). *)

  val contents : ring -> record list
  (** Retained records, oldest first. *)
end

(** Streaming aggregation sink: per-lock wait latency, per-view
    maintenance counts, commit-path batching. Feed it as a sink during a
    run, then {!render} a deterministic text report. *)
module Profile : sig
  type p

  val create : unit -> p
  val sink : p -> sink
  val render : p -> string
end
