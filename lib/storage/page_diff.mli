(** Byte-range diffs between two images of the same page.

    The engine logs *physiological* redo information: after mutating a page
    in the buffer pool, the changed byte ranges become the redo payload of
    the log record. Redo is then a pure page-level byte patch, independent
    of record semantics — it works uniformly for heap pages, B-tree nodes,
    and structure modifications. The pageLSN range at offsets 0..7 is
    excluded; the logger stamps it.

    A pool update diffs only the bytes its {!Page_writer} recorded
    ({!recorded}); a byte written to the page other than through the
    writer is neither logged nor restored. {!compute} is the same diff
    over the whole page. *)

type t = (int * string) list
(** [(offset, replacement bytes)] ranges: non-empty, ascending and
    non-overlapping, all inside [\[8, Page.size)]. *)

val compute : before:bytes -> after:bytes -> t
(** The byte ranges where [after] differs from [before], compared from
    offset 8 on (the pageLSN at 0..7 is ignored). Runs of changed bytes
    separated by fewer than 8 equal bytes merge into one range. Equal
    8-byte words are skipped a word at a time; the result is exactly what
    a byte-at-a-time comparison gives. *)

val recorded : Page_writer.t -> t
(** What {!compute} returns for the writer's page against its image
    before the first recorded write, found by comparing only the recorded
    ranges: its cost follows the bytes written, not the page size. *)

val apply : Page_writer.t -> t -> unit
(** Write each range through the writer (redo runs it inside
    {!Bufpool.update}, which logs nothing for it but stamps the page). *)

val is_empty : t -> bool

val byte_size : t -> int
(** Length of the encoding {!encode_into} writes. *)

val encode_into : t -> bytes -> int -> int
(** [encode_into d b pos] writes the encoding of [d] at [pos] and
    returns the position after it; [b] must have {!byte_size}[ d]
    bytes of room there. *)

val well_formed : t -> bool
(** Whether {!decode_sub} accepts the encoding: every range non-empty,
    in ascending order, disjoint and inside [\[8, Page.size)]. *)

val decode_sub : bytes -> int -> int -> t
(** [decode_sub b pos len] decodes the [len] bytes at [pos], the inverse
    of {!encode_into}. Raises [Invalid_argument] on a malformed encoding,
    and on ranges no diff has: an offset below 8 (it would overwrite the
    pageLSN), a zero length, a range past {!Page.size}, or ranges out of
    order or overlapping. Log records shipped to a replica are decoded
    here, so a bad range stops at decode, not inside redo. *)
