(** Slotted heap-page layout (record storage with stable slot numbers).

    {v
      0..12   common header (pageLSN, type Heap, checksum)
      13..16  next_page      17..18 nslots      19..20 free_end
      21..22  lowest empty slot (0xFFFF: none), so an insert finds its
              slot without walking the directory
      23..    slot directory (u16 per slot: 0 = empty, else cell offset,
              high bit set = ghost)
      cells grow downward from the page end: u16 length + record bytes
    v}

    Deletion turns a record into a {e ghost}: invisible to readers but
    still occupying its slot and bytes, so that transaction rollback can
    revive exactly the same rid. Ghosts are physically reclaimed later by a
    system transaction ({!free_ghost}).

    Mutators write through a {!Page_writer} (the one {!Bufpool.update}
    hands its callback), so the pool logs exactly the bytes they change;
    readers take the page bytes. *)

val init : Page_writer.t -> unit
(** Format a fresh page as an empty heap page. *)

val get_next : bytes -> int
val set_next : Page_writer.t -> int -> unit

val insert : Page_writer.t -> string -> int option
(** [insert page record] returns the slot, or [None] if the record does not
    fit even after compaction. The slot is the lowest empty one, else a new
    one past the directory's end. Ghost slots are not reused. Raises
    [Invalid_argument] if the record can never fit a page. *)

val delete : Page_writer.t -> int -> bool
(** Mark the slot as a ghost; [false] if not live. *)

val revive : Page_writer.t -> int -> bool
(** Undo a deletion: clear the ghost flag; [false] if the slot is not a
    ghost. *)

val free_ghost : Page_writer.t -> int -> bool
(** Physically reclaim a ghost slot; [false] if the slot is not a ghost. *)

val get : bytes -> int -> string option
(** Live records only. *)

val get_any : bytes -> int -> string option
(** Live or ghost. *)

val set : Page_writer.t -> int -> string -> bool
(** In-place overwrite of a live record of the same length. *)

val free_space : bytes -> int
(** Usable bytes for one more record, counting dead (not ghost) cell space
    reclaimable by compaction. *)

val iter : bytes -> (int -> string -> unit) -> unit
(** Live records, ascending slot order. *)

val iter_ghosts : bytes -> (int -> unit) -> unit
