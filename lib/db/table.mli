(** DML over base tables, with secondary-index maintenance and immediate
    (or deferred) propagation to every dependent indexed view — all inside
    the caller's transaction.

    Locking: writers take IX on the table and X on the touched row; index
    maintenance takes X on the affected index keys, with an instant
    RangeI_N on the gap for inserts. View maintenance locking is the
    strategy's business ({!Ivdb_core.Maintain}). *)

val insert :
  Database.t ->
  Ivdb_txn.Txn.t ->
  Database.table ->
  Ivdb_relation.Row.t ->
  Ivdb_storage.Heap_file.rid
(** Validates against the schema ([Invalid_argument] on mismatch). *)

val delete :
  Database.t -> Ivdb_txn.Txn.t -> Database.table -> Ivdb_storage.Heap_file.rid -> unit
(** Ghost-marks the row; the slot is physically reclaimed after commit.
    Raises [Not_found] if the rid is not live. *)

val update :
  Database.t ->
  Ivdb_txn.Txn.t ->
  Database.table ->
  Ivdb_storage.Heap_file.rid ->
  Ivdb_relation.Row.t ->
  Ivdb_storage.Heap_file.rid
(** Delete + insert; returns the row's new rid. *)

val delete_where :
  Database.t -> Ivdb_txn.Txn.t -> Database.table -> Ivdb_relation.Expr.t -> int
(** Delete every row satisfying the predicate; returns the count. *)

val row_count : Database.t -> Database.table -> int
(** Unlocked count of live rows. *)

val find :
  Database.t ->
  Ivdb_txn.Txn.t option ->
  Database.table ->
  col:string ->
  Ivdb_relation.Value.t ->
  (Ivdb_storage.Heap_file.rid * Ivdb_relation.Row.t) list
(** Rows whose column equals the value, with their current rids — through
    the column's index under key-range locking when one exists, a locked
    scan otherwise. The idiomatic way to address rows whose rid may have
    moved (updates relocate rows). *)
