(** Deferred maintenance: writers append deltas to a side queue instead of
    touching the view; a refresh transaction folds the queue into the view.

    The queue is an ordinary logged heap file, so delta appends are
    transactional: an aborting writer's deltas are rolled back with it, and
    recovery preserves exactly the committed tail. Appends take no view
    locks at all — that is the point of the strategy. *)

type t

val create :
  Ivdb_txn.Txn.mgr -> queue_id:int -> t * Ivdb_wal.Log_record.page_diffs
(** [queue_id] names the queue in the lock and undo spaces (a catalog id).
    The returned diffs are the queue heap's initialization (caller logs them
    under its DDL transaction). *)

val attach : Ivdb_txn.Txn.mgr -> queue_id:int -> first_page:int -> t
val first_page : t -> int
val queue_id : t -> int

val append : Ivdb_txn.Txn.t -> t -> key:string -> Aggregate.delta -> unit
(** Logged under the writer's transaction; additive deltas only. *)

val pending : t -> int
(** Number of queued deltas — the view's staleness measure. *)

val drain :
  Ivdb_txn.Txn.t ->
  t ->
  apply:(key:string -> Aggregate.delta -> unit) ->
  int
(** Fold all queued deltas (combined per group) through [apply] and delete
    them from the queue, all under the caller's transaction. Returns the
    number of raw deltas consumed. *)

val heap : t -> Ivdb_storage.Heap_file.t
