(** ARIES-style restart recovery.

    Three phases:
    + {b analysis} — scan from the last stable checkpoint: rebuild the
      transaction table (losers), the dirty-page table, the latest catalog
      snapshot plus the committed DDL after it, and the id high-water
      marks;
    + {b redo} — repeat history from the redo point: every logged page diff
      whose LSN exceeds the page's LSN is re-applied, winners and losers
      alike (escrow increments included);
    + {b undo} — driven by the caller ({!Ivdb_txn.Txn.rollback_tail} per
      loser), because logical undo needs the access layer (heaps, B-trees,
      view maintenance) which is itself rebuilt from the recovered catalog
      between redo and undo.

    The caller orchestrates: [analyze] → [redo] → rebuild catalog → install
    undo executor → [undo each loser] → checkpoint.

    Redo itself is resumable: the one-shot {!redo} is a thin driver over
    {!Redo}, a persistent replay state a replication follower keeps for
    its whole life, feeding it each shipped batch as it arrives instead
    of re-running analysis+redo per batch. *)

type indoubt_txn = {
  id_txn : int;  (** local transaction id *)
  id_gtxn : string;  (** coordinator's global transaction id *)
  id_first_lsn : Ivdb_wal.Log_record.lsn;  (** Begin LSN (truncation bound) *)
  id_last_lsn : Ivdb_wal.Log_record.lsn;
}

type analysis = {
  losers : (int * Ivdb_wal.Log_record.lsn) list;
      (** active, uncommitted transactions that are unprepared or whose
          abort decision is stable: (txn id, last LSN) *)
  dirty_pages : (int * Ivdb_wal.Log_record.lsn) list;  (** (page, recLSN) *)
  redo_start : Ivdb_wal.Log_record.lsn;
  catalog : string option;  (** snapshot from the governing checkpoint *)
  ddl : string list;
      (** payloads of the Ddl records after the snapshot whose transaction
          has a stable Commit, in log order: an uncommitted DDL logged
          only redo, so the catalog never learns of it *)
  max_page_id : int;
  max_txn_id : int;
  stable_records : int;
  indoubt : indoubt_txn list;
      (** stable Prepare, and neither a stable Commit nor a stable Abort
          after it: these hold their locks across restart until a
          coordinator decision is (re-)delivered. A prepared transaction
          with a stable Abort is in [losers] instead. *)
}

val analyze : Ivdb_wal.Wal.t -> analysis

type redo_result = {
  applied : int;  (** page diffs applied *)
  torn_pages : int list;  (** pages found torn, reset to fresh and replayed *)
}

(** Resumable redo state: repeat history one record at a time, in LSN
    order, across any number of batches. Holds only a resume position
    and a counter — idempotence comes from the pageLSN gate, so a
    follower that restarts simply re-creates the state at the end of its
    own recovery redo pass and continues. *)
module Redo : sig
  type t

  val create : Ivdb_storage.Bufpool.t -> next:Ivdb_wal.Log_record.lsn -> t
  (** [next] is the first LSN {!apply} will accept — for a fresh
      follower 1 ([Wal.first_lsn] of an empty log), after a restart
      [last_lsn + 1] of the recovered log. *)

  val apply : t -> Ivdb_wal.Log_record.t -> unit
  (** Apply one record: page diffs of [Update]/[Clr] records whose LSN
      exceeds the page's LSN are applied and stamped; other bodies only
      advance the position. Allocates pages the local disk has never
      seen. Raises [Invalid_argument] if the record's LSN is not exactly
      the one after the last applied — shipped batches must be dense and
      in order. *)

end

val redo : Ivdb_wal.Wal.t -> Ivdb_storage.Bufpool.t -> analysis -> redo_result
(** Repeat history. First sweeps the disk for torn pages (checksum
    mismatch from a write interrupted by the crash): each is reset to a
    fresh page, and replay then starts from the first retained LSN so the
    torn page's entire diff history is reapplied — sound because the
    database retains the full log while torn-write injection is armed.
    Also bumps the disk's allocation cursor past every page seen in the
    log. *)
