(** Column layout of a table, index, or view. *)

type col = { name : string; ty : Value.ty; nullable : bool }

type t

val make : col list -> t
(** Raises [Invalid_argument] on duplicate column names. *)

val cols : t -> col array

val index_of : t -> string -> int
(** Position of a column by name; raises [Not_found]. *)

val col_at : t -> int -> col

val validate : t -> Value.t array -> (unit, string) result
(** Checks arity, types, and null constraints of a candidate row. *)

val concat : t -> t -> t
(** Schema of the concatenation of two rows (for joins); duplicate names get
    a ["r."] prefix on the right side. *)
