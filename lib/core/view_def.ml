module Expr = Ivdb_relation.Expr
module Row = Ivdb_relation.Row
module Key_codec = Ivdb_relation.Key_codec

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type source =
  | Single of { table : int; where : Expr.t option }
  | Join of {
      left : int;
      right : int;
      left_col : int;
      right_col : int;
      where : Expr.t option;
    }

type t = {
  name : string;
  group_cols : int array;
  aggs : agg array;
  source : source;
}

let escrow_compatible t =
  Array.for_all
    (function Count_star | Count _ | Sum _ -> true | Min _ | Max _ -> false)
    t.aggs

let tables_of t =
  match t.source with
  | Single { table; _ } -> [ table ]
  | Join { left; right; _ } -> [ left; right ]

let where_of t =
  match t.source with Single { where; _ } -> where | Join { where; _ } -> where

let group_key t row = Key_codec.encode (Row.project row t.group_cols)
