(** The embedded database engine: catalog, DDL, transactions, recovery.

    A [Database.t] owns a simulated disk, a buffer pool, a write-ahead log,
    a lock manager, and a transaction manager, wired together. Concurrent
    use happens inside {!Ivdb_sched.Sched.run}, with one fiber per session;
    single-threaded use needs no scheduler at all.

    {1 Typical use}
    {[
      let db = Database.create () in
      let sales =
        Database.create_table db ~name:"sales"
          ~cols:[ col "product" TInt; col "qty" TInt ]
      in
      let by_product =
        Database.create_view db ~name:"sales_by_product"
          ~group_by:[ "product" ]
          ~aggs:[ Count_star; Sum (Expr.col schema "qty") ]
          ~source:(Database.From (sales, None))
          ~strategy:Escrow
      in
      Database.transact db (fun tx ->
          ignore (Table.insert db tx sales [| Int 7; Int 3 |]));
      ...
    ]} *)

type t

type config = {
  pool_capacity : int;  (** buffer pool frames (default 512) *)
  read_cost : int;  (** simulated ticks per disk read (default 100) *)
  write_cost : int;  (** simulated ticks per disk write (default 100) *)
  txn_retries : int;  (** automatic retries after deadlock (default 10) *)
  escalation_threshold : int option;
      (** escalate a transaction's row locks on a table to one table lock
          after this many (default [None]: never) *)
  commit_mode : Ivdb_txn.Txn.commit_mode;
      (** how commits are made durable: per-commit force ([Sync], the
          default), batched forces behind the commit coordinator fiber
          ([Group]), or acknowledged-before-force ([Async]) *)
  fault : Ivdb_storage.Fault.config;
      (** deterministic fault injection armed at creation (default
          {!Ivdb_storage.Fault.no_faults}): transient I/O errors, torn
          writes, crash-at-the-n-th write/force *)
}

val default_config : config

type table
type view

val create : ?config:config -> unit -> t

(** {1 Replication roles}

    An engine is either a [Primary] — the ordinary read-write database —
    or a [Follower]: a read replica whose entire state is built by
    replaying the primary's stable log, shipped to it in batches. A
    follower appends nothing to its own log (its LSN space is a verbatim
    copy of the primary's), so every local write path is closed off. *)

type role = Primary | Follower

exception Read_only_replica
(** Raised by the write paths — read-write {!transact} /
    {!transact_result}, DDL, {!checkpoint} — when the engine is a
    [Follower]. Snapshot reads ({!transact} with [~read_only:true]) are
    always allowed. *)

val create_follower : ?config:config -> unit -> t
(** An empty engine in [Follower] role. It catches up by
    {!apply_replicated}-ing the primary's records from LSN 1 and serves
    lock-free snapshot reads at its applied horizon. *)

val is_follower : t -> bool

val apply_replicated : t -> Ivdb_wal.Log_record.t list -> unit
(** Accept one shipped batch on a follower. Each record is applied as it
    arrives: ingested into the local log under the primary's LSN, its
    page diffs replayed through the persistent
    {!Ivdb_recovery.Recovery.Redo} state, and committed DDL folded into
    the catalog and runtime at its Commit record. Open primary
    transactions are hidden the way the primary hides them: each Update
    records its before-image in [Mvcc] (or its escrow delta in the
    in-flight registry), and the transaction's Commit or End ends it, so
    a snapshot reader on this follower sees exactly the transactions
    whose Commit record it has applied. Records must chain densely from
    [{!replicated_lsn} + 1] — [Invalid_argument] otherwise, and on a
    [Primary]. *)

val replicated_lsn : t -> Ivdb_wal.Log_record.lsn
(** The follower's applied (and durable) horizon: the LSN of the last
    record it ingested, and the resume position for the next batch; 0
    when empty. On a primary, its flushed LSN. *)

type promotion = {
  losers_undone : int;  (** in-flight primary transactions rolled back *)
  undo_records : int;  (** undo operations (CLRs) the rollbacks executed *)
}

val promote : t -> promotion
(** Failover: turn this follower into a primary, in place. Reconstructs
    the in-flight transaction table by recovery analysis over the
    retained log, flips the role so write paths open, rolls every loser
    back through the logical-undo
    executor (appending CLRs to what is now this engine's own log), and
    takes a checkpoint — deliberately without truncating, so surviving
    replicas of the old primary can repoint here and resume from their
    applied horizons; the next ordinary {!checkpoint} resumes truncation.
    After return the engine is an ordinary [Primary]: {!transact} writes,
    DDL and {!checkpoint} all work, and new transaction ids are bumped
    past everything in the log. Raises [Invalid_argument] on a primary.
    The caller must have stopped the replication driver first. Counts
    [repl.promotions]; the undo work rides the usual [txn.recovery_undo]
    metric. *)

val state_digest : t -> string
(** Hex digest of the logical engine content: every table's live rows
    (order-independent) and every view's b-tree entries. A primary and a
    follower that have applied the same log prefix — equal
    {!replicated_lsn}, all records forced — digest identically; the
    replication property suite asserts exactly that. *)

val install_fault : t -> Ivdb_storage.Fault.config -> unit
(** Arm (or replace) the fault plan mid-life — lets tests set up the
    schema fault-free and inject only into the measured workload. A plan
    that fires freezes stable storage and raises
    {!Ivdb_storage.Fault.Crash_point}; follow with {!crash} to recover.
    While torn-write injection is armed, {!checkpoint} retains the full
    log (skips truncation) so a torn page can be rebuilt from scratch. *)

val fault_plan : t -> Ivdb_storage.Fault.t

(** {1 DDL}

    DDL statements are autocommitted: each is one system transaction
    that logs only redo and ends with its catalog record, and the catalog
    learns the object only once that transaction commits, so a statement
    that fails or crashes leaves nothing reachable. Tables, indexes and
    views share one namespace: a used name raises [Invalid_argument].
    DDL is not safe to run concurrently with DML. *)

val create_table :
  t -> name:string -> cols:Ivdb_relation.Schema.col list -> table

exception Constraint_violation of string
(** A uniqueness violation. Raised from DML (and from [create_index
    ~unique:true] when existing rows already collide); since it is a user
    error, {!transact} does not retry it. *)

val create_index : t -> ?unique:bool -> table -> col:string -> name:string -> unit
(** Secondary B-tree index on one column; backfills existing rows. Ordinary
    indexes key on (column value, rid); unique indexes key on the value
    alone and enforce uniqueness transactionally: an insert colliding with
    an uncommitted delete of the same value blocks until that transaction
    finishes, then either reuses the entry (deleter committed) or raises
    {!Constraint_violation} (deleter aborted). *)

type view_source =
  | From of table * Ivdb_relation.Expr.t option
      (** single table, optional WHERE *)
  | From_join of {
      left : table;
      right : table;
      left_col : string;
      right_col : string;
      where : Ivdb_relation.Expr.t option;
          (** residual predicate over the concatenated row; resolve columns
              against {!join_schema} *)
    }

val create_view :
  t ->
  ?create_mode:Ivdb_core.Maintain.create_mode ->
  ?refresh_threshold:int ->
  name:string ->
  group_by:string list ->
  aggs:Ivdb_core.View_def.agg list ->
  source:view_source ->
  strategy:Ivdb_core.Maintain.strategy ->
  unit ->
  view
(** Materializes the initial contents. Escrow and Deferred strategies
    require escrow-compatible aggregates (no MIN/MAX) — [Invalid_argument]
    otherwise. Join-view maintenance probes the other table through an
    index on its join column when one exists, falling back to a scan. *)

(** {1 Handles and schemas} *)

val table : t -> string -> table
val view : t -> string -> view
(** Raise [Not_found]. *)

val schema : t -> table -> Ivdb_relation.Schema.t

val join_schema : t -> table -> table -> Ivdb_relation.Schema.t
(** Concatenated schema used by join-view expressions (right-side duplicate
    names get an ["r."] prefix). *)

val list_tables : t -> string list

val indexed_columns : t -> table -> (string * string) list
(** (column name, index name) for each secondary index on the table. *)

(** (name, strategy) pairs. *)
val list_views : t -> (string * string) list
val view_name : t -> view -> string
val view_def : t -> view -> Ivdb_core.View_def.t
val view_strategy : t -> view -> Ivdb_core.Maintain.strategy
val view_refresh_threshold : t -> view -> int option

(** {1 Transactions} *)

type abort_reason =
  | Deadlock_victim
      (** chosen as a deadlock victim (a {!Ivdb_txn.Txn.Conflict}) and out
          of retries *)
  | User_abort of exn
      (** the transaction body raised; the exception is preserved *)
(** Why a {!transact_result} transaction ultimately failed (after all
    automatic retries). No lock wait in the engine times out — deadlocks
    are detected at block time — so there is no timeout reason. *)

val transact : t -> ?read_only:bool -> (Ivdb_txn.Txn.t -> 'a) -> 'a
(** Begin / run / commit, aborting on exception. A deadlock-victim
    {!Ivdb_txn.Txn.Conflict} aborts, yields, and retries (up to
    [config.txn_retries]); other exceptions abort and re-raise. After a
    commit that deleted rows, ghost slots are reclaimed by a system
    transaction. Counts [txn.retry]; exhausted retries count
    [txn.give_up]. Implemented on {!transact_result}'s retry loop — the
    terminal exception is re-raised unchanged.

    With [~read_only:true] the body runs in a lock-free snapshot
    transaction ({!Ivdb_txn.Txn.begin_snapshot}): every read resolves
    against MVCC version chains as of the begin stamp, no lock-manager or
    WAL traffic occurs, and any write attempt raises [Invalid_argument].
    Snapshot transactions never deadlock, so there is no retry loop. *)

val transact_result :
  t -> (Ivdb_txn.Txn.t -> 'a) -> ('a, abort_reason) result
(** Like {!transact}, but the terminal outcome is a value: [Error
    Deadlock_victim] when retries are exhausted by deadlock aborts, [Error
    (User_abort e)] when the body raised [e]. Never raises from the
    transaction machinery itself. *)

val rollback_to : t -> Ivdb_txn.Txn.t -> Ivdb_txn.Txn.savepoint -> unit
(** {!Ivdb_txn.Txn.rollback_to}, then the transaction's in-flight escrow
    deltas are rebuilt from its live log chain, so a snapshot (and the
    version its commit pushes) no longer subtracts a compensated delta.
    The transaction keeps its locks. *)

val checkpoint : t -> unit

(** {1 Sharding and two-phase commit (participant side)}

    A [Database.t] can act as one shard of a hash-partitioned cluster
    driven by {!Ivdb_coord.Coord}: {!set_shard} names its slot. A shard
    maintains every view over its own rows exactly as a single engine
    does; the coordinator combines the shards' partial view rows when a
    view is read. {!prepare_2pc} / {!decide_2pc} implement the participant
    half of 2PC: a prepared transaction's handle moves into an in-doubt
    table where it keeps every lock (across crashes, via recovery's
    in-doubt resurrection, which also restores its before-images so
    snapshots keep reading past its writes) until the coordinator's
    decision arrives. *)

val set_shard : t -> shard:int -> shards:int -> unit
(** Declare this engine shard [shard] of [shards]. [Invalid_argument] if
    out of range. *)

val shard_info : t -> (int * int) option
(** [(shard id, shard count)] once {!set_shard} ran; [None] on an
    unsharded engine. *)

val prepare_2pc :
  t -> Ivdb_txn.Txn.t -> gtxn:string -> [ `Prepared | `Read_only ]
(** 2PC phase 1: force a [Prepare] WAL record and move the transaction
    into the in-doubt table (it keeps all its locks; the caller must stop
    using the handle). A transaction that logged nothing commits instead,
    with no force, and answers [`Read_only] ({!Ivdb_txn.Txn.prepare}).
    Raises [Invalid_argument] if [gtxn] is already in doubt — callers
    check {!gtxn_status} first. *)

val gtxn_status : t -> string -> [ `Unknown | `Prepared ]
(** [`Prepared] while [gtxn] is in the in-doubt table, else [`Unknown].
    The shard keeps nothing about a gtxn once it is decided. *)

val decide_2pc :
  t -> gtxn:string -> committed:bool -> [ `Applied | `Duplicate | `Presumed_abort ]
(** 2PC phase 2: commit or roll back the prepared transaction; its
    Commit or Abort record is the logged decision. Idempotent without a
    per-gtxn memory: a gtxn that is not in doubt is answered by rule. A
    commit is [`Duplicate] (no-op): the coordinator decides commit only
    after this shard's forced Prepare, and a prepared gtxn leaves the
    in-doubt table only by being decided. An abort is [`Presumed_abort]
    (no-op): the shard never prepared it, or already rolled it back.
    The rule assumes gtxn ids are unique across every coordinator that
    uses this shard; the shard does not check it. *)

val indoubt_gtxns : t -> (string * int) list
(** Prepared-but-undecided transactions: (gtxn, local txn id), sorted —
    the rows of [sys.indoubt]. *)

val indoubt_count : t -> int

val last_decided : t -> string option
(** The most recently decided gtxn on this shard (for [sys.shards]). *)

(** {1 Crash and recovery} *)

val crash : t -> t
(** Simulate a crash and recover: volatile state (buffer pool, locks,
    unforced log tail) is lost; the returned instance is rebuilt from the
    stable log and disk — catalog restored, history repeated, losers rolled
    back — and ends with a checkpoint. The old handle must not be used
    again.

    On a [Follower] the recovery differs in three role-specific ways: redo
    restarts from the replica's own first retained LSN (the governing
    checkpoint's dirty-page table describes the {e primary's} disk, not
    this one's), in-flight primary transactions are {e not} rolled back
    (their CLRs or commits arrive later in the stream) but their
    before-images, escrow deltas and waiting DDL are rebuilt from their
    log chains, so snapshots still see only committed state, and no final
    checkpoint is taken (a follower appends nothing). The recovered
    follower resumes streaming at [{!replicated_lsn} + 1], the horizon it
    had ingested.

    On either role the WAL's replication retain floor
    ({!Ivdb_wal.Wal.set_retain_floor}) survives the restart — slots are
    durable state, so a primary's recovery checkpoint never truncates
    records a subscribed replica still needs. *)

(** {1 Maintenance} *)

val gc : t -> int
(** Run the garbage-collection system transactions: zero-count view rows,
    deferred-queue ghosts, base-table ghosts; also prunes MVCC version
    chains no live snapshot can still see. Returns items reclaimed.
    On a [Follower] this is a no-op returning 0 — gc runs system
    transactions, and reclamation replicates from the primary instead. *)

val metrics : t -> Ivdb_util.Metrics.t

val trace : t -> Ivdb_util.Trace.t
(** The engine-wide trace, shared by every subsystem of this instance and
    wired to the deterministic scheduler's clock and fiber ids. Disabled
    (and sink-less) by default: call {!Ivdb_util.Trace.add_sink} and
    {!Ivdb_util.Trace.set_enabled} to observe events. *)

val mgr : t -> Ivdb_txn.Txn.mgr
val locks : t -> Ivdb_lock.Lock_mgr.t
val wal : t -> Ivdb_wal.Wal.t
val pool : t -> Ivdb_storage.Bufpool.t

(** {1 Internal access — for the Table/Query modules and tests} *)

module Internal : sig
  type table_rt
  type index_rt

  val table_id : table -> int
  val view_id : view -> int
  val of_table_id : int -> table
  val table_rt : t -> int -> table_rt
  val rt_schema : table_rt -> Ivdb_relation.Schema.t
  val rt_heap : table_rt -> Ivdb_storage.Heap_file.t
  val rt_indexes : table_rt -> index_rt list
  val rt_dep_views : table_rt -> int list
  val ix_id : index_rt -> int
  val ix_col : index_rt -> int
  val ix_unique : index_rt -> bool
  val ix_tree : index_rt -> Ivdb_btree.Btree.t
  val view_rt : t -> int -> Ivdb_core.Maintain.runtime
  val inflight : t -> Ivdb_core.Inflight.t

  val ghost_entries : t -> int
  (** Transactions with ghosts noted: an entry ends with its transaction,
      so this is 0 whenever no transaction is open. *)

  (** Bump [table.insert] / [table.delete] / [query.on_demand_aggregate]. *)
  val note_insert : t -> unit
  val note_delete : t -> unit
  val note_on_demand_aggregate : t -> unit

  (** Row lock with escalation accounting; a covering table lock makes it
      a no-op. *)
  val lock_row :
    t -> Ivdb_txn.Txn.t -> int -> Ivdb_storage.Heap_file.rid -> Ivdb_lock.Lock_mode.t -> unit

  val note_ghost : t -> Ivdb_txn.Txn.t -> int -> Ivdb_storage.Heap_file.rid -> unit
  val note_index_ghost : t -> Ivdb_txn.Txn.t -> int -> string -> unit

  val index_entry_live : string -> string
  val index_entry_ghost_of : string -> string
  val index_entry_is_ghost : string -> bool

  val index_key :
    unique:bool -> Ivdb_relation.Value.t -> Ivdb_storage.Heap_file.rid -> string

  val heap_scan_rows :
    t ->
    Ivdb_txn.Txn.t option ->
    table ->
    (Ivdb_storage.Heap_file.rid * Ivdb_relation.Row.t) Seq.t
  (** Rows of a table with their rids, in rid order. With a transaction:
      IS on the table and [S] on every rid, collected to a fixpoint so a
      row moved to a new rid while the scan waited is still read; a
      snapshot transaction reads its snapshot without locks. *)

  val index_probe :
    t ->
    Ivdb_txn.Txn.t option ->
    table:int ->
    col:int ->
    Ivdb_relation.Value.t ->
    Ivdb_relation.Row.t Seq.t
  (** Rows with [col = value], via the column's index when one exists
      (scan fallback otherwise): under key-range locking with a
      transaction, lock-free at the snapshot with a snapshot transaction
      (index entries in range plus the table's version-chain rids,
      resolved at the snapshot and filtered). *)

  val index_probe_rids :
    t ->
    Ivdb_txn.Txn.t option ->
    table:int ->
    col:int ->
    Ivdb_relation.Value.t ->
    (Ivdb_storage.Heap_file.rid * Ivdb_relation.Row.t) Seq.t
  (** Like {!index_probe} but also yields each row's rid. *)

  val index_range_rids :
    t ->
    Ivdb_txn.Txn.t option ->
    table:int ->
    col:int ->
    lo:(Ivdb_relation.Value.t * bool) option ->
    hi:(Ivdb_relation.Value.t * bool) option ->
    (Ivdb_storage.Heap_file.rid * Ivdb_relation.Row.t) Seq.t
  (** Rows with [col] in the interval (bounds are (value, inclusive)
      pairs), via the column's index when one exists, locked or at the
      snapshot as {!index_probe}; filtered scan otherwise. *)

  val source_rows :
    t ->
    Ivdb_txn.Txn.t option ->
    Ivdb_core.View_def.t ->
    Ivdb_relation.Row.t Seq.t
  (** The rows the view's defining query ranges over (concatenated rows for
      a join), WHERE not applied. With a transaction, rows are read under
      [S] row locks. *)
end
