(** Multi-version concurrency for read-only snapshot transactions.

    Version chains hang off logical object keys — [(obj, key)] where [obj]
    is a catalog id (table or index) and [key] is the heap rid payload or
    B-tree key — never off physical pages, so splits and slot reuse are
    invisible. Each committed entry [(stamp, value)] records the value that
    was current {e until} the commit with that stamp; a snapshot at stamp
    [S] therefore resolves a key to the entry with the {e smallest stamp
    greater than} [S], falling back to an in-flight writer's before-image,
    and finally to current storage.

    Commit stamps are a dedicated monotonic counter (not scheduler ticks):
    every committing transaction draws a fresh stamp, so two commits can
    never be simultaneous and a snapshot's visibility cut is unambiguous.

    Memory is bounded by installing committed entries {e only while at
    least one snapshot is live}: a fresh stamp exceeds every live snapshot,
    and an entry is only ever read by a snapshot older than it, so with no
    snapshots active the chains stay empty. Pending before-images exist
    only for in-flight writers and die with the transaction. *)

type t

(** How a snapshot read of [(obj, key)] resolves. *)
type resolution =
  | Committed of string option
      (** the value as of the snapshot, from a committed version;
          [None] = logically absent *)
  | Pending of string option
      (** before-image of the sole in-flight (lock-holding) writer — i.e.
          the committed value (escrow writers never record these) *)
  | Current  (** storage holds the snapshot value; caller reads it *)

val create : Ivdb_util.Metrics.t -> t
(** Registers [mvcc.versions_live] / [mvcc.versions_pruned]. *)

(** {1 Writer side} *)

val record_write : t -> txn:int -> obj:int -> key:string -> before:string option -> unit
(** Note an in-flight writer's before-image at its {e first} write of
    [(obj, key)] — later writes by the same transaction keep the original
    image. Escrow increments must not be recorded (their storage value
    includes other transactions' uncommitted deltas). *)

val commit_txn : t -> txn:int -> int
(** Allocate the transaction's commit stamp and promote its pending
    before-images to committed entries (only while a snapshot is live).
    Returns the stamp. *)

val abort_txn : t -> txn:int -> unit
(** Discard the transaction's pending before-images (storage was already
    restored by undo). *)

val push_committed : t -> obj:int -> key:string -> stamp:int -> string option -> unit
(** Install a committed entry directly — the escrow commit path, which
    reconstructs the pre-commit value from the in-flight delta registry.
    No-op while no snapshot is live, or if an entry with this stamp is
    already installed for the key. *)

(** {1 Reader side} *)

val begin_snapshot : t -> int
(** Register a snapshot at the current last-issued stamp and return it:
    commits with stamp [<=] the result are visible. *)

val release_snapshot : t -> int -> unit
(** Unregister (multiset semantics) and prune entries no snapshot can
    still read — all of them once the last snapshot drains. *)

val resolve : t -> obj:int -> key:string -> snap:int -> resolution

val keys_of_obj : t -> obj:int -> string list
(** Keys of [obj] that have a chain (committed entries or pending images)
    — snapshot scans union these with the keys physically present, so
    rows/groups deleted and reclaimed after the snapshot began are still
    seen. Unsorted. *)

(** {1 Maintenance / introspection} *)

val gc : t -> int
(** Prune every entry below the oldest live snapshot's horizon (all
    entries when no snapshot is live); returns entries pruned. Also runs
    automatically on {!release_snapshot}. *)

val snapshot_count : t -> int
