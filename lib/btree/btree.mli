(** B+-trees over the buffer pool.

    Keys are unique, memcomparable byte strings (see
    {!Ivdb_relation.Key_codec}); values are opaque byte strings. The root
    page id is fixed for the lifetime of the tree (root splits move contents
    into fresh children), so the catalog entry never changes.

    Structure modifications (splits) run as *system transactions*: they
    commit immediately and independently of the invoking user transaction,
    log redo-only records, and hold no locks — the cooperative scheduler
    makes their body atomic. User-level insert/delete/update log physical
    redo plus logical undo under the user's transaction.

    A split makes room for one key. When that key sorts after every entry
    of the full node, the new right sibling takes only the last entry, so
    ascending inserts leave full nodes behind them; otherwise a rightmost
    leaf keeps about 90% of its bytes, and any other node splits at half.

    Concurrency note: cursors survive yields (lock waits) by key-based
    repositioning — a cursor remembers its last key and re-descends when the
    leaf changed under it. *)

exception Duplicate_key of string

type t

val create : Ivdb_txn.Txn.mgr -> index_id:int -> t
(** Allocates and formats the root (as an empty leaf) in a system
    transaction. *)

val attach : Ivdb_txn.Txn.mgr -> index_id:int -> root:int -> t
val root : t -> int

val search : t -> string -> string option

val insert :
  ?undo:Ivdb_wal.Log_record.logical_undo ->
  Ivdb_txn.Txn.t ->
  t ->
  key:string ->
  value:string ->
  unit
(** Logged under the transaction. Default undo deletes the entry; a DDL
    statement filling a tree no catalog entry reaches yet passes
    [No_undo]. Raises {!Duplicate_key}. Raises [Invalid_argument] when the
    entry exceeds {!Bt_node.max_entry}. *)

val delete : Ivdb_txn.Txn.t -> t -> key:string -> unit
(** Logical undo: re-insert the deleted value. Raises [Not_found]. *)

val update :
  ?undo:Ivdb_wal.Log_record.logical_undo ->
  Ivdb_txn.Txn.t ->
  t ->
  key:string ->
  value:string ->
  unit
(** Replace the value under [key]. Default undo restores the previous
    value; escrow maintenance overrides [undo] with an inverse-delta
    record. Raises [Not_found]. *)

val insert_raw : t -> key:string -> value:string -> Ivdb_wal.Log_record.page_diffs
val delete_raw : t -> key:string -> Ivdb_wal.Log_record.page_diffs
val update_raw : t -> key:string -> value:string -> Ivdb_wal.Log_record.page_diffs
(** Unlogged variants used by the logical-undo executor: they perform the
    change and return the diffs for the caller's compensation record.
    Splits they trigger still run (and log) as system transactions. *)

val next_key : t -> string -> (string * string) option
(** Smallest entry with key strictly greater — the next-key probe of
    key-range locking. *)

type cursor

val seek : t -> string -> (string * string * cursor) option
(** First entry with key [>=] the argument. *)

val cursor_next : t -> cursor -> (string * string * cursor) option

val iter : t -> (string -> string -> unit) -> unit
(** Full ascending scan (no locking — callers lock). *)

val vacuum : t -> int
(** Reclaim empty leaves and collapse empty interior levels, as a system
    transaction: lazy deletion leaves empty pages behind; this removes them
    from their parents, re-links the leaf chain, frees the pages, and
    collapses a separator-less root into its only child. Returns pages
    freed. The tree always keeps at least its root. *)
