(** Definitions of indexed views: grouped aggregates over one base table or
    a two-table equi-join.

    An indexed view is stored as a clustered B-tree: the key is the
    memcomparable encoding of the GROUP BY columns, the value the encoded
    aggregate row. Following the SQL Server rule that motivated it, every
    indexed view implicitly maintains COUNT( * ) — the row count is what
    decides when a group logically appears and disappears. *)

type agg =
  | Count_star
  | Count of Ivdb_relation.Expr.t  (** non-null count of the expression *)
  | Sum of Ivdb_relation.Expr.t
  | Min of Ivdb_relation.Expr.t
  | Max of Ivdb_relation.Expr.t

type source =
  | Single of { table : int; where : Ivdb_relation.Expr.t option }
  | Join of {
      left : int;
      right : int;
      left_col : int;  (** equi-join column position in the left schema *)
      right_col : int;
      where : Ivdb_relation.Expr.t option;
          (** residual predicate over the concatenated (left @ right) row *)
    }
      (** expressions and [group_cols] address the concatenated row *)

type t = {
  name : string;
  group_cols : int array;  (** positions into the source row *)
  aggs : agg array;
  source : source;
}

val escrow_compatible : t -> bool
(** True iff every aggregate is commutative (COUNT/SUM): MIN/MAX cannot be
    maintained under increment locks because deletions need a group
    recompute. *)

val tables_of : t -> int list
val where_of : t -> Ivdb_relation.Expr.t option

val group_key : t -> Ivdb_relation.Row.t -> string
(** Encoded GROUP BY key of a source row. *)
