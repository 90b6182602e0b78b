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
  join : (string * string * string) option;
  where : expr option;
  group_by : string list;
  having : expr option;
  order : order_by option;
  limit : int option;
}

type col_def = { cd_name : string; cd_ty : Ivdb_relation.Value.ty; cd_nullable : bool }

type strategy = S_exclusive | S_escrow | S_deferred of int option

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
  | Explain_write of stmt (* an UPDATE or DELETE *)
  | Begin of { read_only : bool }
  | Commit
  | Rollback
  | Savepoint of string
  | Rollback_to of string
  | Checkpoint
  | Show of [ `Tables | `Views | `Metrics ]

let pp_lit ppf = function
  | L_int i -> Format.fprintf ppf "%d" i
  | L_float f -> Format.fprintf ppf "%g" f
  | L_string s -> Format.fprintf ppf "'%s'" s
  | L_bool b -> Format.fprintf ppf "%b" b
  | L_null -> Format.fprintf ppf "NULL"

let rec pp_expr ppf = function
  | Lit l -> pp_lit ppf l
  | Column c -> Format.pp_print_string ppf c
  | Binop (op, a, b) ->
      let s =
        match op with
        | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Eq -> "=" | Ne -> "<>"
        | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | And -> "AND" | Or -> "OR"
      in
      Format.fprintf ppf "(%a %s %a)" pp_expr a s pp_expr b
  | Unop (Neg, a) -> Format.fprintf ppf "(-%a)" pp_expr a
  | Unop (Not, a) -> Format.fprintf ppf "(NOT %a)" pp_expr a
  | Is_null a -> Format.fprintf ppf "(%a IS NULL)" pp_expr a
  | Agg_ref a -> pp_agg ppf a

and pp_agg ppf = function
  | Count_star -> Format.fprintf ppf "COUNT(all)"
  | Count e -> Format.fprintf ppf "COUNT(%a)" pp_expr e
  | Sum e -> Format.fprintf ppf "SUM(%a)" pp_expr e
  | Min e -> Format.fprintf ppf "MIN(%a)" pp_expr e
  | Max e -> Format.fprintf ppf "MAX(%a)" pp_expr e
  | Avg e -> Format.fprintf ppf "AVG(%a)" pp_expr e
