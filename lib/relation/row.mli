(** Rows and their storage serialization.

    The row codec is self-describing (each cell carries a tag), so heap
    records and B-tree payloads can be decoded without the schema. An
    integer cell takes the bytes its value needs (1, 2, 4 or 8, named by
    its tag), and the encoding is canonical: equal rows give equal bytes,
    and [decode] rejects any other spelling of a row. *)

type t = Value.t array

val encode : t -> string
val decode : string -> t
(** Raises [Invalid_argument] on malformed input: truncated, an unknown
    tag, or an integer stored wider than it needs. *)

val project : t -> int array -> t
(** [project row positions] picks cells by position. *)

val equal : t -> t -> bool
