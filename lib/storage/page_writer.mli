(** The only way a page mutation writes its page.

    A writer records each byte range it writes, and the first time it
    writes a byte it saves that byte's before-value. {!Bufpool.update}
    hands one to its callback: the diff it logs covers only the recorded
    ranges ({!Page_diff.recorded}), and a callback that raises has only
    those ranges put back ({!restore}). A byte written any other way — for
    example through [Bytes] on {!page} — is neither logged nor restored.

    The page mutators ({!Page.set_ty}, {!Heap_page}, [Bt_node],
    {!Page_diff.apply}) take a writer; the readers take the page bytes. *)

type t

val on : bytes -> t
(** A writer on [page] with nothing recorded yet, and two buffers of its
    own as large as the page: the before-values and {!scratch}. *)

val reset : t -> bytes -> unit
(** Forget every recorded range and start recording writes to a new page
    of the same size. [Invalid_argument] on a page of another size. *)

val page : t -> bytes
(** The page being written, for reading. Do not write it directly. *)

val scratch : t -> bytes
(** A buffer as large as the page, for a mutator that must assemble bytes
    off the page before writing them (heap-page compaction). Its contents
    are undefined on entry; nothing is recorded for it. *)

val set_u8 : t -> int -> int -> unit
val set_u16 : t -> int -> int -> unit
(** Big-endian, as {!Ivdb_util.Bytes_util.set_u16}. *)

val set_u32 : t -> int -> int -> unit
(** Big-endian, as {!Ivdb_util.Bytes_util.set_u32}. *)

val blit_string : string -> int -> t -> int -> int -> unit
(** [blit_string src src_off w off len], as [Bytes.blit_string]. *)

val blit_bytes : bytes -> int -> t -> int -> int -> unit
(** [blit_bytes src src_off w off len], as [Bytes.blit]. *)

val blit : t -> int -> int -> int -> unit
(** [blit w src_off off len] copies [len] bytes within the page, from
    [src_off] to [off]; the two may overlap. *)

val range_count : t -> int
(** The recorded ranges, numbered [0 .. range_count w - 1] in ascending
    order: disjoint, and never abutting (a write next to a range extends
    it). *)

val range_start : t -> int -> int
val range_stop : t -> int -> int
(** Range [i] is [\[range_start w i, range_stop w i)]. *)

val saved : t -> bytes
(** Before-values: [Bytes.get (saved w) i] is the page's byte [i] as it was
    before the first recorded write to it, for [i] inside a recorded
    range. Bytes outside every range are unspecified. *)

val restore : t -> unit
(** Put every recorded range back to its before-values. The ranges stay
    recorded. *)
