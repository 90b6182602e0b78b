(** Write-ahead log records.

    The logging discipline is ARIES-style *physiological*: redo information
    is physical (byte diffs against pages, applied by LSN comparison), undo
    information is logical (the inverse operation, re-executed through the
    access layer). Logical undo is what makes escrow locking sound: a loser
    transaction's increment of an aggregate must be compensated by a
    decrement, because other transactions may have since changed the same
    bytes under their own (compatible) increment locks. *)

type lsn = int

val nil_lsn : lsn
(** 0; valid LSNs start at 1. *)

type rid = Ivdb_storage.Heap_file.rid

(** Inverse operation recorded for undo. Table/index/view ids refer to the
    catalog; the owner of those ids supplies the undo executor. *)
type logical_undo =
  | No_undo  (** redo-only (system transactions, structure changes) *)
  | Undo_heap_insert of { table : int; rid : rid }
  | Undo_heap_delete of { table : int; rid : rid }
      (** deletion ghost-marks the record; undo revives the same rid *)
  | Undo_heap_update of { table : int; rid : rid; before : string }
  | Undo_bt_insert of { index : int; key : string }
  | Undo_bt_delete of { index : int; key : string; value : string }
  | Undo_bt_update of { index : int; key : string; before : string }
  | Undo_escrow of { view : int; key : string; inverse : string }
      (** [inverse] is the encoded delta that compensates the original. *)

type page_diffs = (int * Ivdb_storage.Page_diff.t) list

type body =
  | Begin of { system : bool }
  | Commit
  | Abort  (** rollback is starting; End follows when it completes *)
  | End
  | Update of { redo : page_diffs; undo : logical_undo }
  | Clr of { redo : page_diffs; undo_next : lsn }
      (** compensation: redo-only, chains rollback past the undone record *)
  | Checkpoint of {
      active : (int * lsn) list;  (** transaction table: (txn, lastLSN) *)
      dpt : (int * lsn) list;  (** dirty page table: (page, recLSN) *)
      catalog : string;  (** opaque catalog snapshot, restored by the owner *)
    }
  | Ddl of string  (** opaque catalog delta, replayed by the owner in order *)
  | Prepare of { gtxn : string }
      (** 2PC phase 1 on a participant: the transaction is fully forced
          and holds its locks until a decision arrives. [gtxn] is the
          coordinator's global id. *)
  | Decision of { gtxn : string }
      (** A coordinator's forced commit decision. Aborts are never
          logged (presumed abort), and a participant's decision is its
          own [Commit] or [Abort] record. *)
  | Gid_block of { last : string }
      (** A coordinator's forced reservation of global ids up to and
          including [last] ([name:n]); a restart resumes above it. *)

type t = { lsn : lsn; txn : int; prev : lsn; body : body }

val encode : t -> string
(** Binary serialization: length-framed fields, big-endian integers. *)

val encode_into : t -> (int -> bytes * int) -> int
(** [encode_into r room] writes {!encode}'s bytes for [r] in place and
    returns their length [n]: [room n] names the bytes and the offset
    with [n] free bytes to write them at. *)

val decodable : t -> bool
(** Whether {!decode_sub} accepts {!encode}'s output. It does not only when
    a page diff is not {!Ivdb_storage.Page_diff.well_formed}. *)

val decode_sub : bytes -> int -> int -> t
(** [decode_sub b pos len] decodes the [len] bytes at [pos], the inverse
    of {!encode}; raises [Invalid_argument] on malformed input. *)

val checkpoint_at : bytes -> int -> bool
(** Whether the encoding at the given offset is a [Checkpoint]. Every
    encoding starts [i32 lsn | i32 txn | i32 prev | u8 body tag]; this
    reads the tag in place, without decoding the body. *)

val pages_touched : t -> int list
