(** Names of lockable resources, forming the granularity hierarchy
    database → table/index → row/key. *)

type t =
  | Database
  | Table of int  (** heap table or indexed view, by catalog id *)
  | Row of int * Ivdb_storage.Heap_file.rid  (** table id, record id *)
  | Key of int * string  (** index id, encoded key *)
  | Eof of int  (** the virtual +infinity key of an index: range locks past
                    the last real key attach here *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
