(** Group commit: batch the WAL forces of concurrently committing
    transactions behind a commit coordinator fiber.

    In [Group] mode a committing transaction appends its Commit record,
    enqueues here, and suspends; the coordinator collects waiters until
    [max_batch] of them are pending, [max_wait_ticks] simulated ticks
    have passed, or no other fiber is runnable
    ({!Ivdb_sched.Sched.runnable} is 0, so no further commit can enqueue
    first), issues one {!Ivdb_wal.Wal.force} up to the highest pending
    LSN, and wakes the whole batch. The force cost is amortized across the
    batch while the durability contract is unchanged: a transaction is
    acknowledged only after its commit record is stable.

    [Async] acknowledges immediately and flushes in the background — a
    crash may lose transactions whose commit already returned (bounded by
    the background flush window inside a scheduler run; unbounded outside
    one, where no coordinator can exist).

    Instrumented via {!Ivdb_util.Metrics}: [commit.batch] (batch-size
    histogram), [commit.group_force], [commit.batched_txns],
    [commit.forces_avoided], [commit.stall_ticks], [commit.sync_fallback],
    [commit.force_elided], [commit.async]. *)

type mode =
  | Sync  (** one private force per commit (the classic WAL rule) *)
  | Group of { max_batch : int; max_wait_ticks : int }
      (** batch until [max_batch] waiters, [max_wait_ticks] ticks, or
          no other fiber left to run.
          [max_batch] is a flush trigger, not a hard cap: commits that
          enqueue before the coordinator fiber gets scheduled ride the
          same force, so observed batches can exceed it. *)
  | Async  (** acknowledge before the force; weakest durability *)

type t

val create :
  wal:Ivdb_wal.Wal.t -> mode:mode -> ?trace:Ivdb_util.Trace.t -> Ivdb_util.Metrics.t -> t
(** [trace] defaults to a fresh disabled trace; when enabled each batched
    force emits one [commit.batch_flush] event. *)

val commit_durable : t -> lsn:Ivdb_wal.Log_record.lsn -> unit
(** Make the log stable up to [lsn] according to the configured mode. In
    [Group] mode inside a scheduler run this suspends the calling fiber
    until the coordinator's batched force covers [lsn]; outside a run it
    degrades to a synchronous force (fibers cannot suspend there). In
    [Async] mode it returns immediately. *)
