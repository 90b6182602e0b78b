open Sql_ast
module L = Sql_lexer

exception Parse_error of string

type state = { mutable toks : L.token list; mutable depth : int }

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let peek st = match st.toks with [] -> L.Eof | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

(* [=] on tokens without the polymorphic compare: [eat] and [accept] run it
   at nearly every step of a parse. *)
let same_token (a : L.token) (b : L.token) =
  match (a, b) with
  | L.Kw x, L.Kw y | L.Ident x, L.Ident y | L.String x, L.String y | L.Sym x, L.Sym y ->
      String.equal x y
  | L.Int x, L.Int y -> Int.equal x y
  | L.Float x, L.Float y -> x = y
  | L.Eof, L.Eof -> true
  | _ -> false

let eat st t =
  if same_token (peek st) t then advance st
  else fail "expected %a, found %a" L.pp_token t L.pp_token (peek st)

let eat_kw st k = eat st (L.Kw k)

let accept st t =
  if same_token (peek st) t then begin
    advance st;
    true
  end
  else false

let ident st =
  match peek st with
  | L.Ident i ->
      advance st;
      i
  | t -> fail "expected identifier, found %a" L.pp_token t

let lparen_next st = match st.toks with _ :: L.Sym "(" :: _ -> true | _ -> false

(* A column reference. An aggregate word not followed by "(" names the
   column a view labels with it ("sum", "min", ...). *)
let column st =
  match peek st with
  | L.Kw ("COUNT" | "SUM" | "MIN" | "MAX" | "AVG" as k)
    when not (lparen_next st) ->
      advance st;
      String.lowercase_ascii k
  | _ -> ident st

let int_lit st =
  match peek st with
  | L.Int i ->
      advance st;
      i
  | t -> fail "expected integer, found %a" L.pp_token t

(* --- expressions: precedence OR < AND < NOT < cmp < add < mul < unary --- *)

(* How deep an expression may nest. Each parenthesis, aggregate argument,
   NOT, unary minus and each further term of an AND, OR or arithmetic
   chain is one level. The parser and every evaluator recurse over the
   tree, so deeper input is refused here rather than overflowing a stack
   later. *)
let max_depth = 1_000

let deepen st =
  if st.depth >= max_depth then
    fail "expression nested more than %d levels deep" max_depth;
  st.depth <- st.depth + 1

let nested st f =
  deepen st;
  let e = f st in
  st.depth <- st.depth - 1;
  e

let rec expr st = or_expr st

and or_expr st =
  let a = and_expr st in
  if accept st (L.Kw "OR") then Binop (Or, a, nested st or_expr) else a

and and_expr st =
  let a = not_expr st in
  if accept st (L.Kw "AND") then Binop (And, a, nested st and_expr) else a

and not_expr st =
  if accept st (L.Kw "NOT") then Unop (Not, nested st not_expr) else cmp_expr st

and cmp_expr st =
  let a = add_expr st in
  let op =
    match peek st with
    | L.Sym "=" -> Some Eq
    | L.Sym "<>" -> Some Ne
    | L.Sym "<" -> Some Lt
    | L.Sym "<=" -> Some Le
    | L.Sym ">" -> Some Gt
    | L.Sym ">=" -> Some Ge
    | _ -> None
  in
  match (op, peek st) with
  | Some op, _ ->
      advance st;
      Binop (op, a, add_expr st)
  | None, L.Kw "IS" ->
      advance st;
      let negated = accept st (L.Kw "NOT") in
      eat_kw st "NULL";
      if negated then Unop (Not, Is_null a) else Is_null a
  | None, _ -> a

(* a left-deep chain is as deep as it is long *)
and add_expr st =
  let base = st.depth in
  let rec go a =
    match peek st with
    | L.Sym "+" ->
        advance st;
        deepen st;
        go (Binop (Add, a, mul_expr st))
    | L.Sym "-" ->
        advance st;
        deepen st;
        go (Binop (Sub, a, mul_expr st))
    | _ ->
        st.depth <- base;
        a
  in
  go (mul_expr st)

and mul_expr st =
  let base = st.depth in
  let rec go a =
    match peek st with
    | L.Sym "*" ->
        advance st;
        deepen st;
        go (Binop (Mul, a, unary_expr st))
    | L.Sym "/" ->
        advance st;
        deepen st;
        go (Binop (Div, a, unary_expr st))
    | _ ->
        st.depth <- base;
        a
  in
  go (unary_expr st)

and unary_expr st =
  match peek st with
  | L.Sym "-" ->
      advance st;
      Unop (Neg, nested st unary_expr)
  | _ -> atom st

and atom st =
  match peek st with
  | L.Int i ->
      advance st;
      Lit (L_int i)
  | L.Float f ->
      advance st;
      Lit (L_float f)
  | L.String s ->
      advance st;
      Lit (L_string s)
  | L.Kw "TRUE" ->
      advance st;
      Lit (L_bool true)
  | L.Kw "FALSE" ->
      advance st;
      Lit (L_bool false)
  | L.Kw "NULL" ->
      advance st;
      Lit L_null
  | L.Sym "(" ->
      advance st;
      let e = nested st expr in
      eat st (L.Sym ")");
      e
  | L.Kw ("COUNT" | "SUM" | "MIN" | "MAX" | "AVG")
    when lparen_next st ->
      Agg_ref (agg_atom st)
  | L.Ident _ | L.Kw ("COUNT" | "SUM" | "MIN" | "MAX" | "AVG") -> Column (column st)
  | t -> fail "expected expression, found %a" L.pp_token t

and agg_atom st =
  match peek st with
  | L.Kw "COUNT" ->
      advance st;
      eat st (L.Sym "(");
      if accept st (L.Sym "*") then begin
        eat st (L.Sym ")");
        Count_star
      end
      else begin
        let e = nested st expr in
        eat st (L.Sym ")");
        Count e
      end
  | L.Kw "SUM" ->
      advance st;
      eat st (L.Sym "(");
      let e = nested st expr in
      eat st (L.Sym ")");
      Sum e
  | L.Kw "MIN" ->
      advance st;
      eat st (L.Sym "(");
      let e = nested st expr in
      eat st (L.Sym ")");
      Min e
  | L.Kw "MAX" ->
      advance st;
      eat st (L.Sym "(");
      let e = nested st expr in
      eat st (L.Sym ")");
      Max e
  | L.Kw "AVG" ->
      advance st;
      eat st (L.Sym "(");
      let e = nested st expr in
      eat st (L.Sym ")");
      Avg e
  | t -> fail "expected aggregate, found %a" L.pp_token t

(* --- literals (INSERT VALUES) ------------------------------------------- *)

let literal st =
  match peek st with
  | L.Int i ->
      advance st;
      L_int i
  | L.Float f ->
      advance st;
      L_float f
  | L.String s ->
      advance st;
      L_string s
  | L.Kw "TRUE" ->
      advance st;
      L_bool true
  | L.Kw "FALSE" ->
      advance st;
      L_bool false
  | L.Kw "NULL" ->
      advance st;
      L_null
  | L.Sym "-" -> (
      advance st;
      match peek st with
      | L.Int i ->
          advance st;
          L_int (-i)
      | L.Float f ->
          advance st;
          L_float (-.f)
      | t -> fail "expected number after -, found %a" L.pp_token t)
  | t -> fail "expected literal, found %a" L.pp_token t

let comma_sep st f =
  let rec go acc =
    let x = f st in
    if accept st (L.Sym ",") then go (x :: acc) else List.rev (x :: acc)
  in
  go []

(* --- SELECT --------------------------------------------------------------- *)

let select_item st =
  match peek st with
  | L.Sym "*" ->
      advance st;
      Star
  | L.Kw ("COUNT" | "SUM" | "MIN" | "MAX" | "AVG") when lparen_next st ->
      Agg_item (agg_atom st)
  | _ -> Col_item (column st)

let select_body st =
  let items = comma_sep st select_item in
  eat_kw st "FROM";
  let from = ident st in
  (* dotted source names (sys.transactions, ...) fold into one string; the
     tail may collide with a keyword (sys.views, sys.metrics), which the
     lexer uppercased — fold it back *)
  let from =
    if accept st (L.Sym ".") then
      let tail =
        match peek st with
        | L.Ident i ->
            advance st;
            i
        | L.Kw k ->
            advance st;
            String.lowercase_ascii k
        | t -> fail "expected identifier, found %a" L.pp_token t
      in
      from ^ "." ^ tail
    else from
  in
  let join =
    if accept st (L.Kw "JOIN") then begin
      let t2 = ident st in
      eat_kw st "ON";
      let a = ident st in
      eat st (L.Sym "=");
      let b = ident st in
      Some (t2, a, b)
    end
    else None
  in
  let where = if accept st (L.Kw "WHERE") then Some (expr st) else None in
  let group_by =
    if accept st (L.Kw "GROUP") then begin
      eat_kw st "BY";
      comma_sep st ident
    end
    else []
  in
  let having = if accept st (L.Kw "HAVING") then Some (expr st) else None in
  let order =
    if accept st (L.Kw "ORDER") then begin
      eat_kw st "BY";
      let c = column st in
      let desc = accept st (L.Kw "DESC") in
      if not desc then ignore (accept st (L.Kw "ASC"));
      Some { ob_col = c; ob_desc = desc }
    end
    else None
  in
  let limit = if accept st (L.Kw "LIMIT") then Some (int_lit st) else None in
  { items; from; join; where; group_by; having; order; limit }

(* --- statements ------------------------------------------------------------ *)

let col_type st =
  match peek st with
  | L.Kw "INT" ->
      advance st;
      Ivdb_relation.Value.TInt
  | L.Kw "FLOAT" ->
      advance st;
      Ivdb_relation.Value.TFloat
  | L.Kw "TEXT" ->
      advance st;
      Ivdb_relation.Value.TStr
  | L.Kw "BOOL" ->
      advance st;
      Ivdb_relation.Value.TBool
  | t -> fail "expected a type (INT | FLOAT | TEXT | BOOL), found %a" L.pp_token t

let col_def st =
  let cd_name = ident st in
  let cd_ty = col_type st in
  let cd_nullable =
    match peek st with
    | L.Kw "NOT" ->
        advance st;
        eat_kw st "NULL";
        false
    | L.Kw "NULL" ->
        advance st;
        true
    | _ -> true
  in
  { cd_name; cd_ty; cd_nullable }

let strategy st =
  if accept st (L.Kw "USING") then
    if accept st (L.Kw "ESCROW") then S_escrow
    else if accept st (L.Kw "EXCLUSIVE") then S_exclusive
    else if accept st (L.Kw "DEFERRED") then begin
      if accept st (L.Kw "REFRESH") then begin
        eat_kw st "THRESHOLD";
        S_deferred (Some (int_lit st))
      end
      else S_deferred None
    end
    else fail "expected ESCROW | EXCLUSIVE | DEFERRED after USING"
  else S_escrow

let rec statement st =
  match peek st with
  | L.Kw "CREATE" -> (
      advance st;
      match peek st with
      | L.Kw "TABLE" ->
          advance st;
          let t_name = ident st in
          eat st (L.Sym "(");
          let cols = comma_sep st col_def in
          eat st (L.Sym ")");
          Create_table { t_name; cols }
      | L.Kw "INDEX" | L.Kw "UNIQUE" ->
          let unique = accept st (L.Kw "UNIQUE") in
          eat_kw st "INDEX";
          let i_name = ident st in
          eat_kw st "ON";
          let on_table = ident st in
          eat st (L.Sym "(");
          let col = ident st in
          eat st (L.Sym ")");
          Create_index { i_name; on_table; col; unique }
      | L.Kw "VIEW" ->
          advance st;
          let v_name = ident st in
          eat_kw st "AS";
          eat_kw st "SELECT";
          let query = select_body st in
          let strat = strategy st in
          Create_view { v_name; query; strat }
      | t -> fail "expected TABLE, INDEX or VIEW after CREATE, found %a" L.pp_token t)
  | L.Kw "INSERT" ->
      advance st;
      eat_kw st "INTO";
      let into = ident st in
      eat_kw st "VALUES";
      let row st =
        eat st (L.Sym "(");
        let vs = comma_sep st literal in
        eat st (L.Sym ")");
        vs
      in
      let rows = comma_sep st row in
      Insert { into; rows }
  | L.Kw "DELETE" ->
      advance st;
      eat_kw st "FROM";
      let from_t = ident st in
      let where = if accept st (L.Kw "WHERE") then Some (expr st) else None in
      Delete { from_t; where }
  | L.Kw "UPDATE" ->
      advance st;
      let table = ident st in
      eat_kw st "SET";
      let set st =
        let c = ident st in
        eat st (L.Sym "=");
        let e = expr st in
        (c, e)
      in
      let sets = comma_sep st set in
      let where = if accept st (L.Kw "WHERE") then Some (expr st) else None in
      Update { table; sets; where }
  | L.Kw "SELECT" ->
      advance st;
      Select (select_body st)
  | L.Kw "EXPLAIN" -> (
      advance st;
      match peek st with
      | L.Kw ("UPDATE" | "DELETE") -> Explain_write (statement st)
      | _ ->
          if accept st (L.Kw "ANALYZE") then begin
            eat_kw st "SELECT";
            Explain_analyze (select_body st)
          end
          else begin
            eat_kw st "SELECT";
            Explain (select_body st)
          end)
  | L.Kw "BEGIN" ->
      advance st;
      if accept st (L.Kw "READ") then begin
        eat_kw st "ONLY";
        Begin { read_only = true }
      end
      else Begin { read_only = false }
  | L.Kw "COMMIT" ->
      advance st;
      Commit
  | L.Kw "ROLLBACK" ->
      advance st;
      if accept st (L.Kw "TO") then Rollback_to (ident st) else Rollback
  | L.Kw "SAVEPOINT" ->
      advance st;
      Savepoint (ident st)
  | L.Kw "CHECKPOINT" ->
      advance st;
      Checkpoint
  | L.Kw "SHOW" -> (
      advance st;
      match peek st with
      | L.Kw "TABLES" ->
          advance st;
          Show `Tables
      | L.Kw "VIEWS" ->
          advance st;
          Show `Views
      | L.Kw "METRICS" ->
          advance st;
          Show `Metrics
      | t -> fail "expected TABLES, VIEWS or METRICS, found %a" L.pp_token t)
  | t -> fail "expected a statement, found %a" L.pp_token t

let parse src =
  let st = { toks = L.tokenize src; depth = 0 } in
  let s = statement st in
  (match peek st with
  | L.Eof -> ()
  | t -> fail "trailing input: %a" L.pp_token t);
  s
