(** Abstract syntax of the SQL dialect.

    The dialect covers what the engine implements: table/index/view DDL,
    single-table DML, SELECT over tables (with WHERE / ORDER BY / LIMIT),
    SELECT over indexed views, and on-the-fly GROUP BY aggregation.
    Indexed views are created with [CREATE VIEW ... USING ESCROW|
    EXCLUSIVE|DEFERRED]. *)

type lit =
  | L_int of int
  | L_float of float
  | L_string of string
  | L_bool of bool
  | L_null

type expr =
  | Lit of lit
  | Column of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Is_null of expr
  | Agg_ref of agg_expr
      (* aggregate used as a value — only meaningful in HAVING *)

and binop = Add | Sub | Mul | Div | Eq | Ne | Lt | Le | Gt | Ge | And | Or

and unop = Neg | Not

and agg_expr =
  | Count_star
  | Count of expr
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr

type select_item = Star | Col_item of string | Agg_item of agg_expr

type order_by = { ob_col : string; ob_desc : bool }

type select = {
  items : select_item list;
  from : string;
  join : (string * string * string) option;  (** table2, left col, right col *)
  where : expr option;
  group_by : string list;
  having : expr option;
  order : order_by option;
  limit : int option;
}

type col_def = { cd_name : string; cd_ty : Ivdb_relation.Value.ty; cd_nullable : bool }

type strategy = S_exclusive | S_escrow | S_deferred of int option
    (** deferred carries an optional refresh threshold *)

type stmt =
  | Create_table of { t_name : string; cols : col_def list }
  | Create_index of { i_name : string; on_table : string; col : string; unique : bool }
  | Create_view of { v_name : string; query : select; strat : strategy }
  | Insert of { into : string; rows : lit list list }
  | Delete of { from_t : string; where : expr option }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Select of select
  | Explain of select
  | Explain_analyze of select
  | Explain_write of stmt  (** [EXPLAIN UPDATE ...] / [EXPLAIN DELETE ...] *)
  | Begin of { read_only : bool }
  | Commit
  | Rollback
  | Savepoint of string
  | Rollback_to of string
  | Checkpoint
  | Show of [ `Tables | `Views | `Metrics ]
