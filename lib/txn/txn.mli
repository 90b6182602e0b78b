(** Transactions: strict two-phase locking, write-ahead logging, rollback
    by logical undo, and system transactions.

    A *system transaction* (Graefe's nested top-level action) performs a
    change that must commit independently of the invoking user transaction:
    B-tree structure modifications, creation of a missing view group row,
    garbage collection of zero-count rows. System transactions commit
    without forcing the log, hold no long-duration locks (the cooperative
    scheduler makes their body atomic), and are never rolled back by the
    user transaction's abort. *)

type mgr
type t

type status = Active | Committed | Aborted

type commit_mode = Group_commit.mode =
  | Sync  (** one private log force per commit *)
  | Group of { max_batch : int; max_wait_ticks : int }
      (** batched forces behind the commit coordinator fiber *)
  | Async  (** acknowledge before the force; weakest durability *)
(** How a user transaction's commit record is made durable; see
    {!Group_commit}. *)

exception Conflict of { txn : int; reason : string }
(** Raised out of a transaction body when the transaction has been chosen
    as a deadlock victim (or explicitly killed); the caller must run
    {!abort} and may then retry. *)

val create_mgr :
  ?commit_mode:commit_mode ->
  ?trace:Ivdb_util.Trace.t ->
  wal:Ivdb_wal.Wal.t ->
  locks:Ivdb_lock.Lock_mgr.t ->
  pool:Ivdb_storage.Bufpool.t ->
  Ivdb_util.Metrics.t ->
  mgr
(** [commit_mode] defaults to {!Sync}; [trace] to a fresh disabled trace.
    Transaction begin/commit/abort and batched commit flushes emit trace
    events when enabled. *)

val set_undo_exec : mgr -> (t -> Ivdb_wal.Log_record.logical_undo -> Ivdb_wal.Log_record.page_diffs) -> unit
(** Install the logical-undo executor (supplied by the access layer). It
    performs the inverse operation and returns the page diffs it produced;
    the rollback driver wraps them in a compensation record. *)

val add_end_hook : mgr -> (t -> status -> unit) -> unit
(** Register a callback invoked whenever a transaction finishes (commit or
    abort), before its locks are released. Used e.g. to retire a
    transaction's in-flight escrow deltas from the bounds registry. *)

val locks : mgr -> Ivdb_lock.Lock_mgr.t
val pool : mgr -> Ivdb_storage.Bufpool.t
val disk : mgr -> Ivdb_storage.Disk.t
val metrics : mgr -> Ivdb_util.Metrics.t
val trace : mgr -> Ivdb_util.Trace.t

val begin_txn : mgr -> t

val system : mgr -> (t -> 'a) -> 'a
(** [system mgr f] runs [f] in a fresh system transaction and commits it
    when [f] returns. On any exception but
    {!Ivdb_storage.Fault.Crash_point} it aborts the transaction (undoing
    what [f] logged with undo) and re-raises; a crash point propagates
    untouched, since nothing may run after it. *)

val begin_snapshot : mgr -> t
(** A lock-free read-only transaction: records the current MVCC commit
    stamp as its visibility cut and resolves every read against version
    chains (see {!Mvcc}) — it never touches the lock manager or the WAL.
    {!lock}, {!lock_instant} and {!log_update} raise [Invalid_argument] on
    it; {!commit} / {!abort} just unregister it (releasing its GC
    horizon). *)

val mvcc : mgr -> Mvcc.t
(** The manager's version-chain registry. *)

val id : t -> int
val last_lsn : t -> Ivdb_wal.Log_record.lsn

val snapshot_of : t -> int option
(** [Some stamp] iff the transaction is a {!begin_snapshot} reader. *)

val commit_stamp : t -> int option
(** The MVCC commit stamp, set during commit before the end hooks run —
    the escrow version-push hook reads it. [None] while active. *)

val lock : mgr -> t -> Ivdb_lock.Lock_name.t -> Ivdb_lock.Lock_mode.t -> unit
(** Blocking acquisition; converts a deadlock-victim verdict into
    {!Conflict}. *)

val lock_instant : mgr -> t -> Ivdb_lock.Lock_name.t -> Ivdb_lock.Lock_mode.t -> unit

val log_update :
  mgr -> t -> undo:Ivdb_wal.Log_record.logical_undo -> Ivdb_wal.Log_record.page_diffs -> unit
(** Append an update record and stamp the touched pages. Empty diff lists
    are skipped entirely. *)

val log_ddl : mgr -> t -> string -> unit

val commit : mgr -> t -> unit
(** User transactions make the log stable up to their commit record before
    being acknowledged — with a private force in {!Sync} mode, via the
    coordinator's batched force in {!Group} mode (the fiber suspends, still
    holding its locks, until the batch is flushed), or not at all in
    {!Async} mode. System and read-only transactions never force (their
    effects are redone from the log if needed and required no force for
    correctness). *)

val abort : mgr -> t -> unit
(** Roll back by walking the undo chain, logging compensation records;
    idempotent on already-finished transactions. *)

val prepare : mgr -> t -> gtxn:string -> [ `Prepared | `Read_only ]
(** 2PC phase 1. A transaction that logged nothing past its Begin record
    commits on the spot, with no force, releasing its locks, and answers
    [`Read_only]: it has no outcome left to wait for. Any other appends a
    [Prepare] record carrying the coordinator's global id and forces the
    log through it. It stays active and keeps all its locks; recovery
    classifies it as in-doubt, not a loser, until a decision settles it.
    The decision needs no record of its own: {!commit} or {!abort} writes
    the Commit or Abort record that states it. *)

type savepoint

val savepoint : t -> savepoint
(** Mark the current point in the transaction's undo chain. *)

val rollback_to : mgr -> t -> savepoint -> unit
(** Undo the transaction's work back to the savepoint (compensation
    records as in a full abort), keeping the transaction active and its
    locks held. Work undone includes escrow increments (inverse deltas).
    Raises [Invalid_argument] if the transaction is not active. *)

val rollback_tail : mgr -> t -> from:Ivdb_wal.Log_record.lsn -> unit
(** Recovery entry point: undo the transaction's chain starting at [from]
    (its last known LSN), writing CLRs, then log End. Used for loser
    transactions whose in-memory handle was rebuilt from the log. *)

val resurrect :
  mgr ->
  ?first_lsn:Ivdb_wal.Log_record.lsn ->
  id:int ->
  last_lsn:Ivdb_wal.Log_record.lsn ->
  unit ->
  t
(** Rebuild a transaction handle from the analysis pass. [first_lsn]
    (default [nil_lsn]) pins the log-truncation bound for a resurrected
    in-doubt transaction that may survive across checkpoints. *)

val checkpoint : mgr -> catalog:string -> unit
(** Fuzzy checkpoint: logs the transaction table, the dirty-page table, and
    the catalog snapshot, then forces the log. *)

(** {1 Introspection}

    Point-in-time transaction descriptions for [sys.transactions]. Active
    transactions are listed live; finished ones are remembered in a small
    bounded ring so a recent abort (and its reason) stays visible. *)

type info = {
  i_txn : int;
  i_system : bool;
  i_status : status;
  i_begin_tick : int;  (** scheduler tick at begin *)
  i_end_tick : int option;  (** [None] while active *)
  i_deltas : int;  (** view-maintenance deltas applied on its behalf *)
  i_locks : int;  (** locks held at snapshot time; 0 once finished *)
  i_snapshot : int option;
      (** the visibility stamp of a snapshot reader; [None] for
          read-write and system transactions *)
  i_abort_reason : string option;
}

val active_info : mgr -> info list
(** Sorted by txn id. Pure read — takes no locks. *)

val recent_info : mgr -> info list
(** Recently finished transactions, oldest first (bounded ring). *)

val note_delta : t -> unit
(** Count one view-maintenance delta against the transaction (called by
    the maintenance layer). *)

(** First LSN of every active transaction — a lower bound on how far undo
    may have to walk, hence on log truncation. *)
val active_first_lsns : mgr -> Ivdb_wal.Log_record.lsn list
val bump_txn_id : mgr -> int -> unit
