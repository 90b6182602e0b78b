(** Scalar expressions over rows: the language of view definitions
    (aggregate arguments, WHERE predicates) and query filters. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of int  (** resolved column position *)
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** always float; NULL on division by zero *)
  | Neg of t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t

val col : Schema.t -> string -> t
(** Column reference by name; raises [Not_found]. *)

val int : int -> t
val bool : bool -> t

val eval : t -> Row.t -> Value.t
(** Comparisons involving NULL yield NULL (three-valued logic); [And]/[Or]
    follow Kleene semantics. An operand of the wrong type raises
    {!Value.Type_error}. *)

val eval_bool : t -> Row.t -> bool
(** Predicate evaluation: NULL counts as false (SQL WHERE semantics). *)
