(** Transactional maintenance of an indexed view — the paper's core.

    Three strategies, compared throughout the benchmark suite:

    - {b Exclusive}: the textbook protocol. The writer takes an [X] key
      lock on the group's view row and read-modify-writes it. Correct, but
      every writer touching a hot group serializes behind that lock.

    - {b Escrow}: COUNT/SUM deltas commute, so the writer takes an [E]
      (increment) lock — compatible with other [E] locks — and applies the
      delta in place. Undo is logical (the inverse delta), because other
      transactions may have changed the same bytes since. Group creation
      and removal are delegated to system transactions: a missing group row
      is created empty (COUNT 0) by an immediately-committing system
      transaction, and rows whose count returns to 0 are left in place —
      logically absent — until {!Group_gc} reclaims them. This keeps the
      escrow path free of X locks entirely.

    - {b Deferred}: the delta is appended to the view's queue
      ({!Deferred}); the view itself is not touched. Readers either accept
      staleness or drain the queue first.

    Phantom protection: group creation under either immediate strategy
    takes an instant-duration [RangeI_N] on the next key, so it conflicts
    with serializable range scans ([RangeS_S]) but not with other
    inserts. *)

type strategy = Exclusive | Escrow | Deferred

val strategy_to_string : strategy -> string

type create_mode =
  | System_txn
      (** missing group rows are created empty by an immediately-committing
          system transaction (the paper's protocol) *)
  | User_txn
      (** ablation: create inside the user transaction under an X key lock *)

type stats
(** Typed handles to the [view.*] counters, resolved once per view: the
    maintenance hot path bumps refs instead of doing per-event hashtable
    lookups. Build with {!make_stats} against the database's metrics. *)

val make_stats : Ivdb_util.Metrics.t -> stats

type vstats = {
  mutable v_deltas : int;
  mutable v_exclusive : int;
  mutable v_escrow : int;
  mutable v_deferred : int;
  mutable v_recomputes : int;
  mutable v_group_creates : int;
  mutable v_group_deletes : int;
  mutable v_gc_zero : int;  (** zero-count rows reclaimed by {!Group_gc} *)
  mutable v_system_txns : int;
      (** system transactions run for this view (group creates + GC) *)
}
(** Per-view maintenance tallies behind [sys.views]. The typed {!stats}
    handles all land in engine-global counters; these are the same bumps
    kept per view. *)

val make_vstats : unit -> vstats

type runtime = {
  vid : int;  (** catalog id: lock namespace and undo-log view id *)
  def : View_def.t;
  tree : Ivdb_btree.Btree.t;
  strategy : strategy;
  create_mode : create_mode;
  inflight : Inflight.t;
      (** shared per-database registry of uncommitted escrow deltas,
          feeding bounds reads *)
  deferred : Deferred.t option;  (** present iff strategy is Deferred *)
  recompute_group : Ivdb_txn.Txn.t -> string -> Ivdb_relation.Row.t;
      (** recompute a group's aggregate row from base data (MIN/MAX
          retirement); supplied by the database layer *)
  stats : stats;  (** from {!make_stats} on the owning database's metrics *)
  vstats : vstats;  (** per-view tallies, from {!make_vstats} *)
}

val note_gc_removed : runtime -> unit
(** Count one zero-count group reclaimed ([view.gc_removed]). *)

val note_auto_refresh : runtime -> unit
(** Count one reader-paid deferred refresh ([view.auto_refresh]). *)

val note_refresh_deltas : runtime -> int -> unit
(** Count deltas drained by a deferred refresh ([view.refresh_deltas]). *)

val apply_delta :
  Ivdb_txn.Txn.mgr -> Ivdb_txn.Txn.t -> runtime -> key:string -> Aggregate.delta -> unit
(** Fold one group delta into the view under the runtime's strategy, with
    all locking and logging. Counts [view.delta], and per-strategy
    [view.escrow_update] / [view.exclusive_update] / [view.deferred_append];
    group creations count [view.group_create]. *)

val apply_delta_exclusive :
  Ivdb_txn.Txn.mgr -> Ivdb_txn.Txn.t -> runtime -> key:string -> Aggregate.delta -> unit
(** The exclusive protocol regardless of the runtime's strategy — used by
    the refresh transaction that drains a deferred queue. *)

val undo_escrow : runtime -> key:string -> inverse:string -> Ivdb_wal.Log_record.page_diffs
(** Logical undo executor for escrow updates: apply the encoded inverse
    delta to the group row, unlogged (the caller wraps the diffs in a
    compensation record). *)
