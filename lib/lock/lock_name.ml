type t =
  | Database
  | Table of int
  | Row of int * Ivdb_storage.Heap_file.rid
  | Key of int * string
  | Eof of int

let compare = Stdlib.compare

let pp ppf = function
  | Database -> Format.fprintf ppf "db"
  | Table t -> Format.fprintf ppf "table:%d" t
  | Row (t, rid) -> Format.fprintf ppf "row:%d%a" t Ivdb_storage.Heap_file.pp_rid rid
  | Key (i, k) -> Format.fprintf ppf "key:%d/%s" i (Ivdb_util.Bytes_util.hex k)
  | Eof i -> Format.fprintf ppf "eof:%d" i
