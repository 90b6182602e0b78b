(* Group commit: amortize the WAL force across concurrently committing
   transactions.

   Committers append their Commit record, enqueue here, and suspend; a
   coordinator fiber (spawned lazily on the first waiter — fibers only
   exist inside a Sched.run, so a permanent fiber would wedge the scheduler
   at exit) collects waiters until the batch is full, a tick deadline
   passes, or no other fiber is runnable, issues ONE force up to the
   highest pending LSN, and wakes every waiter. The third condition
   closes the batch the deadline would have closed, only sooner: with the
   run queue empty no fiber can reach commit before the coordinator
   itself acts, so yielding until the deadline only burns ticks. A
   transaction is acknowledged committed (its commit call returns) only
   after its LSN is flushed, so durability semantics match per-commit
   forcing exactly; only latency is traded for throughput.

   Async weakens that: the committer is acknowledged immediately and the
   coordinator flushes in the background, so a crash can lose transactions
   whose commit call already returned. *)

module Wal = Ivdb_wal.Wal
module Sched = Ivdb_sched.Sched
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace

type mode =
  | Sync
  | Group of { max_batch : int; max_wait_ticks : int }
  | Async

(* background flush window for Async mode: one force cost's worth of ticks *)
let async_wait_ticks = 100

type t = {
  wal : Wal.t;
  metrics : Metrics.t;
  trace : Trace.t;
  m_force_elided : Metrics.counter;
  m_group_force : Metrics.counter;
  m_batched_txns : Metrics.counter;
  m_forces_avoided : Metrics.counter;
  m_stall_ticks : Metrics.counter;
  h_batch : Metrics.hist;
  m_sync_fallback : Metrics.counter;
  m_async : Metrics.counter;
  mode : mode;
  mutable waiters : (unit -> unit) list; (* wake callbacks, newest first *)
  mutable n_pending : int; (* commits (waiting or async) since last force *)
  mutable pending_hi : Ivdb_wal.Log_record.lsn; (* highest LSN awaiting flush *)
  mutable coordinator_active : bool;
}

let create ~wal ~mode ?trace metrics =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  {
    wal;
    metrics;
    trace;
    m_force_elided = Metrics.counter metrics "commit.force_elided";
    m_group_force = Metrics.counter metrics "commit.group_force";
    m_batched_txns = Metrics.counter metrics "commit.batched_txns";
    m_forces_avoided = Metrics.counter metrics "commit.forces_avoided";
    m_stall_ticks = Metrics.counter metrics "commit.stall_ticks";
    h_batch = Metrics.hist metrics "commit.batch";
    m_sync_fallback = Metrics.counter metrics "commit.sync_fallback";
    m_async = Metrics.counter metrics "commit.async";
    mode;
    waiters = [];
    n_pending = 0;
    pending_hi = 0;
    coordinator_active = false;
  }

(* Force once up to the highest pending LSN and wake the whole batch. Runs
   inside the coordinator fiber; nothing yields between draining the queue
   and waking, so a batch is a consistent snapshot of the waiters. *)
let flush_batch t =
  let batch = t.n_pending in
  let hi = t.pending_hi in
  let waiters = List.rev t.waiters in
  t.waiters <- [];
  t.n_pending <- 0;
  if batch > 0 then begin
    (* a checkpoint or page writeback may have forced past us already *)
    if Wal.flushed_lsn t.wal < hi then Wal.force t.wal hi
    else Metrics.inc t.m_force_elided;
    Metrics.inc t.m_group_force;
    Metrics.inc_by t.m_batched_txns batch;
    Metrics.inc_by t.m_forces_avoided (batch - 1);
    Metrics.record t.h_batch batch;
    if Trace.enabled t.trace then
      Trace.emit t.trace (Trace.Batch_flush { batch; hi_lsn = hi });
    List.iter (fun wake -> wake ()) waiters
  end

let batch_params t =
  match t.mode with
  | Group { max_batch; max_wait_ticks } -> (max 1 max_batch, max 0 max_wait_ticks)
  | Async -> (max_int, async_wait_ticks)
  | Sync -> (1, 0)

let rec coordinator t =
  let max_batch, max_wait = batch_params t in
  let deadline = Sched.now () + max_wait in
  let rec collect () =
    if t.n_pending < max_batch && Sched.now () < deadline && Sched.runnable () > 0
    then begin
      Sched.yield ();
      collect ()
    end
  in
  collect ();
  flush_batch t;
  (* commits enqueued while we were collecting are already in the batch;
     the queue can only be non-empty here if a waker ran a new commit,
     which cannot happen without a yield — but be safe and loop *)
  if t.n_pending > 0 then coordinator t else t.coordinator_active <- false

let ensure_coordinator t =
  if not t.coordinator_active then begin
    t.coordinator_active <- true;
    ignore (Sched.spawn (fun () -> coordinator t))
  end

let enqueue t lsn =
  t.pending_hi <- max t.pending_hi lsn;
  t.n_pending <- t.n_pending + 1

let commit_durable t ~lsn =
  match t.mode with
  | Sync -> Wal.force t.wal lsn
  | Group _ ->
      if Wal.flushed_lsn t.wal < lsn then
        if not (Sched.in_run ()) then begin
          (* no fibers outside a scheduler run: degrade to a private force *)
          Metrics.inc t.m_sync_fallback;
          Wal.force t.wal lsn
        end
        else begin
          enqueue t lsn;
          (* spawn before suspending: the register callback runs on the
             scheduler's own stack, where effects cannot be performed *)
          ensure_coordinator t;
          let t0 = Sched.now () in
          Sched.suspend (fun wake _cancel -> t.waiters <- wake :: t.waiters);
          Metrics.inc_by t.m_stall_ticks (Sched.now () - t0)
        end
  | Async ->
      Metrics.inc t.m_async;
      if Wal.flushed_lsn t.wal < lsn then begin
        enqueue t lsn;
        (* acknowledged before the flush: a crash from here until the
           background force loses this transaction; outside a scheduler run
           nothing flushes at all until a checkpoint or page writeback *)
        if Sched.in_run () then ensure_coordinator t
      end
