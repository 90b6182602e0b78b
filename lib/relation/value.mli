(** Typed scalar values: the cell type of rows, keys, and expressions. *)

type ty = TInt | TFloat | TStr | TBool

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

exception Type_error of string
(** An operand of the wrong type: comparing a string with a number,
    adding booleans, and the like. Raised by {!compare}, {!add}, {!neg},
    {!div}, {!to_float} and {!Expr.eval}; the SQL layer reports it as a
    statement error. *)

val type_of : t -> ty option
(** [None] for [Null]. *)

val compare : t -> t -> int
(** SQL-flavoured total order with [Null] smallest; [Int] and [Float]
    compare numerically against each other; comparing other cross-type pairs
    raises {!Type_error}. *)

val equal : t -> t -> bool

val add : t -> t -> t
(** Numeric addition; [Null] absorbs. Raises {!Type_error} on
    non-numeric operands. *)

val neg : t -> t
(** Numeric negation; [Null] maps to [Null]. *)

val div : t -> t -> t
(** Numeric division; always yields [Float] (or [Null] when either operand
    is [Null] or the divisor is zero — SQL-style rather than raising). *)

val to_int : t -> int
(** Raises [Invalid_argument] unless [Int]. *)

val to_float : t -> float
(** Numeric coercion of [Int]/[Float]; raises {!Type_error} otherwise. *)

val pp_ty : Format.formatter -> ty -> unit
val to_string : t -> string
