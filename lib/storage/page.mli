(** Fixed-size page frames and the common page header.

    Every on-disk page starts with the same header:
    {v
      offset 0..7   pageLSN (i64, big-endian)
      offset 8      page type
      offset 9..12  checksum (u32, FNV-1a over the rest of the page)
    v}
    Layout beyond offset 13 belongs to the page's owner (heap page, B-tree
    node).

    The checksum field is only meaningful on the disk's stable image: the
    disk stamps it on write and verifies it on read, and it reads back as
    zero into the buffer pool. In-pool frames therefore always carry zero
    there, which keeps page diffs and saved before-values free of
    checksum noise. *)

val size : int
(** 8192 bytes. *)

val header_size : int
(** 13: first byte available to owners. *)

type ty = Free | Heap | Bt_leaf | Bt_interior

val alloc : unit -> bytes
(** Fresh zeroed page ([Free], LSN 0). *)

val get_lsn : bytes -> int64
val set_lsn : bytes -> int64 -> unit

val get_ty : bytes -> ty
val set_ty : Page_writer.t -> ty -> unit

val set_checksum : bytes -> int -> unit

val checksum : bytes -> int
(** FNV-1a over the whole page except the checksum field itself (so any
    torn or corrupted byte, pageLSN included, is detected). *)

val verifies : bytes -> bool
(** [get_checksum p = checksum p] — true for an image whose stamped
    checksum matches its contents. *)
