module A = Sql_ast
module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Txn = Ivdb_txn.Txn
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Row = Ivdb_relation.Row
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Sched = Ivdb_sched.Sched

exception Sql_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

type sys_provider = unit -> string list * Row.t list

type session = {
  sdb : Database.t;
  mutable txn : Txn.t option;
  mutable savepoints : (string * Txn.savepoint) list;
  mutable sys_ext : (string * sys_provider) list;
      (* environment-supplied sys.* tables (the server registers
         sys.server_sessions / sys.slow_queries here), shadowing the
         built-in resolution *)
  m_index_probe : Ivdb_util.Metrics.counter;
  m_index_range : Ivdb_util.Metrics.counter;
  m_view_match : Ivdb_util.Metrics.counter;
}

let session sdb =
  let m = Database.metrics sdb in
  {
    sdb;
    txn = None;
    savepoints = [];
    sys_ext = [];
    m_index_probe = Ivdb_util.Metrics.counter m "sql.index_probe";
    m_index_range = Ivdb_util.Metrics.counter m "sql.index_range";
    m_view_match = Ivdb_util.Metrics.counter m "sql.view_match";
  }

let db s = s.sdb
let in_transaction s = s.txn <> None

let add_sys_provider s name f =
  s.sys_ext <- (name, f) :: List.remove_assoc name s.sys_ext

(* 2PC participant hooks, driven by the server's Prepare/Decide frame
   handlers (and the coordinator's loopback shards). Preparing detaches
   the transaction handle from the session: it now belongs to the
   engine's in-doubt table, so a session death's rollback must not touch
   it — only the coordinator's decision (possibly after a crash and
   recovery) finishes it. A read-only transaction is already committed. *)
let prepare_2pc s ~gtxn =
  match s.txn with
  | None -> fail "prepare: no open transaction"
  | Some tx when Txn.snapshot_of tx <> None ->
      fail "prepare: cannot prepare a READ ONLY transaction"
  | Some tx ->
      let vote = Database.prepare_2pc s.sdb tx ~gtxn in
      s.txn <- None;
      s.savepoints <- [];
      vote

type result =
  | Rows of { header : string list; rows : Row.t list }
  | Affected of int
  | Message of string

(* --- binding ----------------------------------------------------------------- *)

let value_of_lit = function
  | A.L_int i -> Value.Int i
  | A.L_float f -> Value.Float f
  | A.L_string s -> Value.Str s
  | A.L_bool b -> Value.Bool b
  | A.L_null -> Value.Null

(* The one binder. [col] resolves a column name to its position in the
   row the expression is evaluated over; [agg] does the same for an
   aggregate, which only HAVING's row carries. *)
let bind_expr
    ?(agg = fun _ -> fail "aggregates are only allowed in the select list and HAVING")
    col (e : A.expr) : Expr.t =
  let rec bind (e : A.expr) : Expr.t =
    match e with
    | A.Lit l -> Expr.Const (value_of_lit l)
    | A.Column c -> Expr.Col (col c)
    | A.Agg_ref a -> Expr.Col (agg a)
    | A.Binop (op, a, b) -> (
        let a = bind a and b = bind b in
        match op with
        | A.Add -> Expr.Add (a, b)
        | A.Sub -> Expr.Sub (a, b)
        | A.Mul -> Expr.Mul (a, b)
        | A.Div -> Expr.Div (a, b)
        | A.Eq -> Expr.Cmp (Expr.Eq, a, b)
        | A.Ne -> Expr.Cmp (Expr.Ne, a, b)
        | A.Lt -> Expr.Cmp (Expr.Lt, a, b)
        | A.Le -> Expr.Cmp (Expr.Le, a, b)
        | A.Gt -> Expr.Cmp (Expr.Gt, a, b)
        | A.Ge -> Expr.Cmp (Expr.Ge, a, b)
        | A.And -> Expr.And (a, b)
        | A.Or -> Expr.Or (a, b))
    | A.Unop (A.Neg, a) -> Expr.Neg (bind a)
    | A.Unop (A.Not, a) -> Expr.Not (bind a)
    | A.Is_null a -> Expr.Is_null (bind a)
  in
  bind e

let schema_col schema c =
  try Schema.index_of schema c with Not_found -> fail "unknown column %s" c

let bind_schema schema = bind_expr (schema_col schema)

let bind_agg schema = function
  | A.Count_star -> View_def.Count_star
  | A.Count e -> View_def.Count (bind_schema schema e)
  | A.Sum e -> View_def.Sum (bind_schema schema e)
  | A.Min e -> View_def.Min (bind_schema schema e)
  | A.Max e -> View_def.Max (bind_schema schema e)
  | A.Avg _ ->
      fail
        "AVG cannot be stored in an indexed view: store SUM and COUNT instead          (AVG works in ad-hoc GROUP BY queries)"

let agg_label = function
  | A.Count_star -> "count(*)"
  | A.Count _ -> "count"
  | A.Sum _ -> "sum"
  | A.Min _ -> "min"
  | A.Max _ -> "max"
  | A.Avg _ -> "avg"

let is_sys_name from = String.length from > 4 && String.sub from 0 4 = "sys."

let is_grouped (q : A.select) =
  q.A.group_by <> []
  || List.exists (function A.Agg_item _ -> true | A.Star | A.Col_item _ -> false) q.A.items

let find_table s name =
  try Some (Database.table s.sdb name) with Not_found -> None

let find_view s name = try Some (Database.view s.sdb name) with Not_found -> None

(* Resolve the source of a select: table, join, or view. *)
type source =
  | Src_table of Database.table * Schema.t
  | Src_join of Database.table * Database.table * string * string * Schema.t
  | Src_view of Database.view

let resolve_source s (q : A.select) =
  match q.A.join with
  | Some (t2, lcol, rcol) -> (
      match (find_table s q.A.from, find_table s t2) with
      | Some left, Some right ->
          Src_join (left, right, lcol, rcol, Database.join_schema s.sdb left right)
      | _ -> fail "unknown table in join: %s / %s" q.A.from t2)
  | None -> (
      match find_table s q.A.from with
      | Some t -> Src_table (t, Database.schema s.sdb t)
      | None -> (
          match find_view s q.A.from with
          | Some v -> Src_view v
          | None -> fail "unknown table or view %s" q.A.from))

(* --- access planning ----------------------------------------------------------- *)

let rec conjuncts = function
  | A.Binop (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rebuild_conjunction = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc c -> A.Binop (A.And, acc, c)) e rest)

type access_plan =
  | Plan_scan of A.expr option
  | Plan_index_probe of {
      p_col : string;
      p_index : string;
      p_value : Value.t;
      p_residual : A.expr option;
    }
  | Plan_index_range of {
      r_col : string;
      r_index : string;
      r_lo : (Value.t * bool) option;
      r_hi : (Value.t * bool) option;
      r_residual : A.expr option;
    }

(* A conjunct of the form [col = literal] over an indexed column turns the
   scan into an index probe; everything else stays as a residual filter. *)
let plan_table_access s t (where : A.expr option) =
  match where with
  | None -> Plan_scan None
  | Some w -> (
      let cs = conjuncts w in
      let indexed = Database.indexed_columns s.sdb t in
      let probe =
        List.find_map
          (fun e ->
            match e with
            | A.Binop (A.Eq, A.Column c, A.Lit l)
            | A.Binop (A.Eq, A.Lit l, A.Column c)
              when List.mem_assoc c indexed ->
                Some (e, c, List.assoc c indexed, value_of_lit l)
            | _ -> None)
          cs
      in
      match probe with
      | Some (chosen, col, ix, v) ->
          Plan_index_probe
            {
              p_col = col;
              p_index = ix;
              p_value = v;
              p_residual = rebuild_conjunction (List.filter (fun e -> e != chosen) cs);
            }
      | None -> (
          (* inequality conjuncts over one indexed column become a range *)
          let bound_of e =
            match e with
            | A.Binop (op, A.Column c, A.Lit l) when List.mem_assoc c indexed ->
                let v = value_of_lit l in
                (match op with
                | A.Gt -> Some (e, c, `Lo (v, false))
                | A.Ge -> Some (e, c, `Lo (v, true))
                | A.Lt -> Some (e, c, `Hi (v, false))
                | A.Le -> Some (e, c, `Hi (v, true))
                | _ -> None)
            | A.Binop (op, A.Lit l, A.Column c) when List.mem_assoc c indexed ->
                let v = value_of_lit l in
                (match op with
                | A.Gt -> Some (e, c, `Hi (v, false)) (* lit > col == col < lit *)
                | A.Ge -> Some (e, c, `Hi (v, true))
                | A.Lt -> Some (e, c, `Lo (v, false))
                | A.Le -> Some (e, c, `Lo (v, true))
                | _ -> None)
            | _ -> None
          in
          let bounds = List.filter_map bound_of cs in
          match bounds with
          | [] -> Plan_scan (Some w)
          | (_, col, _) :: _ ->
              let mine, _ = List.partition (fun (_, c, _) -> c = col) bounds in
              let used = List.map (fun (e, _, _) -> e) mine in
              let lo =
                List.fold_left
                  (fun acc (_, _, b) ->
                    match b with
                    | `Lo (v, i) -> (
                        match acc with
                        | None -> Some (v, i)
                        | Some (v', _) when Value.compare v v' > 0 -> Some (v, i)
                        | acc -> acc)
                    | `Hi _ -> acc)
                  None mine
              in
              let hi =
                List.fold_left
                  (fun acc (_, _, b) ->
                    match b with
                    | `Hi (v, i) -> (
                        match acc with
                        | None -> Some (v, i)
                        | Some (v', _) when Value.compare v v' < 0 -> Some (v, i)
                        | acc -> acc)
                    | `Lo _ -> acc)
                  None mine
              in
              Plan_index_range
                {
                  r_col = col;
                  r_index = List.assoc col indexed;
                  r_lo = lo;
                  r_hi = hi;
                  r_residual =
                    rebuild_conjunction
                      (List.filter (fun e -> not (List.memq e used)) cs);
                }))

(* --- SELECT execution --------------------------------------------------------- *)

(* EXPLAIN ANALYZE accounting: operators append (label, counter) cells in
   execution order; [None] (the plain-SELECT case) makes both helpers free. *)
type op_stats = (string * int ref) list ref

let op_count (stats : op_stats option) label seq =
  match stats with
  | None -> seq
  | Some st ->
      let r = ref 0 in
      st := !st @ [ (label, r) ];
      Seq.map
        (fun x ->
          incr r;
          x)
        seq

let op_note (stats : op_stats option) label n =
  match stats with None -> () | Some st -> st := !st @ [ (label, ref n) ]

let order_limit (q : A.select) (header, rows) =
  let rows =
    match q.A.order with
    | None -> rows
    | Some { A.ob_col; ob_desc } -> (
        match List.find_index (String.equal ob_col) header with
        | None -> fail "ORDER BY column %s is not in the select list" ob_col
        | Some idx ->
            List.stable_sort
              (fun (a : Row.t) (b : Row.t) ->
                let c = Value.compare a.(idx) b.(idx) in
                if ob_desc then -c else c)
              rows)
  in
  let rows =
    match q.A.limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  Rows { header; rows }

(* EXPLAIN ANALYZE's count of the rows a SELECT returns *)
let returned stats r =
  (match r with
  | Rows { rows; _ } -> op_note stats "rows returned" (List.length rows)
  | Affected _ | Message _ -> ());
  r

(* The rows, with their rids, that a single-table statement reads through
   the plan [plan_table_access] chose: an index probe or range (key-range
   locked in a transaction, lock-free at a snapshot) and then the residual
   filter, or a scan and then the WHERE filter. SELECT, UPDATE and DELETE
   all read through here. *)
let plan_rows ?stats s txn t schema plan =
  let filter label where rows =
    match where with
    | None -> rows
    | Some w ->
        let pred = bind_schema schema w in
        op_count stats label (Seq.filter (fun (_, row) -> Expr.eval_bool pred row) rows)
  in
  let tid = Database.Internal.table_id t in
  match plan with
  | Plan_index_probe { p_col; p_value; p_residual; _ } ->
      Ivdb_util.Metrics.inc s.m_index_probe;
      Database.Internal.index_probe_rids s.sdb txn ~table:tid
        ~col:(Schema.index_of schema p_col) p_value
      |> op_count stats "index probe rows"
      |> filter "rows after residual filter" p_residual
  | Plan_index_range { r_col; r_lo; r_hi; r_residual; _ } ->
      Ivdb_util.Metrics.inc s.m_index_range;
      Database.Internal.index_range_rids s.sdb txn ~table:tid
        ~col:(Schema.index_of schema r_col) ~lo:r_lo ~hi:r_hi
      |> op_count stats "index range rows"
      |> filter "rows after residual filter" r_residual
  | Plan_scan where ->
      Database.Internal.heap_scan_rows s.sdb txn t
      |> op_count stats "seq scan rows"
      |> filter "rows after filter" where

(* plain row select over a table (or join), no grouping *)
let select_rows ?stats s txn (q : A.select) src =
  let schema, seq =
    match src with
    | Src_table (t, schema) ->
        ( schema,
          Seq.map snd
            (plan_rows ?stats s txn t schema (plan_table_access s t q.A.where)) )
    | Src_join (l, r, lcol, rcol, schema) ->
        let lc = Schema.index_of (Database.schema s.sdb l) lcol in
        let rc =
          Schema.index_of (Database.schema s.sdb r) rcol
        in
        let def =
          {
            View_def.name = "join";
            group_cols = [||];
            aggs = [||];
            source =
              View_def.Join
                {
                  left = Database.Internal.table_id l;
                  right = Database.Internal.table_id r;
                  left_col = lc;
                  right_col = rc;
                  where = None;
                };
          }
        in
        let rows =
          op_count stats "join rows" (Database.Internal.source_rows s.sdb txn def)
        in
        ( schema,
          match q.A.where with
          | None -> rows
          | Some w ->
              let pred = bind_schema schema w in
              op_count stats "rows after filter" (Seq.filter (Expr.eval_bool pred) rows)
        )
    | Src_view _ -> assert false
  in
  let positions, header =
    let cols = Schema.cols schema in
    let all = Array.to_list (Array.mapi (fun i c -> (i, c.Schema.name)) cols) in
    let of_item = function
      | A.Star -> all
      | A.Col_item c -> [ (schema_col schema c, c) ]
      | A.Agg_item _ -> fail "aggregates require GROUP BY"
    in
    let pairs = List.concat_map of_item q.A.items in
    (Array.of_list (List.map fst pairs), List.map snd pairs)
  in
  order_limit q (header, List.of_seq (Seq.map (fun r -> Row.project r positions) seq))
  |> returned stats

(* View matching: a grouped query whose source, WHERE and GROUP BY equal
   an existing immediate-maintenance indexed view — and whose aggregates
   are all derivable from the view's stored cells — is answered from the
   view instead of scanning the base tables. Returns, per requested stored
   aggregate, a function from the view's stored row to the cell. *)
let find_matching_view s (def : View_def.t) =
  List.find_map
    (fun (vname, _) ->
      let v = Database.view s.sdb vname in
      if Database.view_strategy s.sdb v = Maintain.Deferred then None
      else
        let vd = Database.view_def s.sdb v in
        if
          vd.View_def.source = def.View_def.source
          && vd.View_def.group_cols = def.View_def.group_cols
        then begin
          (* map each needed agg onto a stored cell of the view *)
          let stored = Array.to_list vd.View_def.aggs in
          let cell_of (a : View_def.agg) =
            match a with
            | View_def.Count_star -> Some 0 (* the implicit count *)
            | _ ->
                List.find_index (fun sa -> sa = a) stored
                |> Option.map (fun i -> i + 1)
          in
          let mapping = Array.map cell_of def.View_def.aggs in
          if Array.for_all Option.is_some mapping then
            Some (vname, v, Array.map Option.get mapping)
          else None
        end
        else None)
    (Database.list_views s.sdb)

(* grouped select over base data: build a view definition on the fly and
   aggregate on demand. AVG is computed at read time from SUM and COUNT
   (exactly the restriction real indexed views have). Returns the
   definition and each aggregate the query needs — the select list's,
   then those only HAVING mentions — with its evaluator over a stored row
   ([| count; slots... |]). *)
let plan_grouped s (q : A.select) src =
  let schema, source =
    match src with
    | Src_table (t, schema) ->
        (schema, View_def.Single { table = Database.Internal.table_id t; where = None })
    | Src_join (l, r, lcol, rcol, schema) ->
        ( schema,
          View_def.Join
            {
              left = Database.Internal.table_id l;
              right = Database.Internal.table_id r;
              left_col = Schema.index_of (Database.schema s.sdb l) lcol;
              right_col = Schema.index_of (Database.schema s.sdb r) rcol;
              where = None;
            } )
    | Src_view _ -> assert false
  in
  let where = Option.map (bind_schema schema) q.A.where in
  let source =
    match (source, where) with
    | View_def.Single x, w -> View_def.Single { x with where = w }
    | View_def.Join x, w -> View_def.Join { x with where = w }
  in
  let rec having_aggs (e : A.expr) =
    match e with
    | A.Agg_ref a -> [ a ]
    | A.Binop (_, a, b) -> having_aggs a @ having_aggs b
    | A.Unop (_, a) | A.Is_null a -> having_aggs a
    | A.Lit _ | A.Column _ -> []
  in
  let needed =
    let all =
      List.filter_map
        (function A.Agg_item a -> Some a | A.Star | A.Col_item _ -> None)
        q.A.items
      @ Option.fold ~none:[] ~some:having_aggs q.A.having
    in
    List.fold_left (fun acc a -> if List.mem a acc then acc else acc @ [ a ]) [] all
  in
  (* expand each needed aggregate into stored slots *)
  let internal = ref [] in
  let alloc agg_def =
    internal := !internal @ [ agg_def ];
    List.length !internal (* 1-based cell position after the implicit count *)
  in
  let evals =
    List.map
      (fun (a : A.agg_expr) ->
        let eval =
          match a with
          | A.Count_star -> fun (stored : Row.t) -> stored.(0)
          | A.Count e ->
              let i = alloc (View_def.Count (bind_schema schema e)) in
              fun stored -> stored.(i)
          | A.Sum e ->
              let i = alloc (View_def.Sum (bind_schema schema e)) in
              fun stored -> stored.(i)
          | A.Min e ->
              let i = alloc (View_def.Min (bind_schema schema e)) in
              fun stored -> stored.(i)
          | A.Max e ->
              let i = alloc (View_def.Max (bind_schema schema e)) in
              fun stored -> stored.(i)
          | A.Avg e ->
              let be = bind_schema schema e in
              let si = alloc (View_def.Sum be) in
              let ci = alloc (View_def.Count be) in
              fun stored -> Value.div stored.(si) stored.(ci)
        in
        (a, eval))
      needed
  in
  let def =
    {
      View_def.name = "adhoc";
      group_cols =
        Array.of_list
          (List.map
             (fun c ->
               try Schema.index_of schema c
               with Not_found -> fail "unknown GROUP BY column %s" c)
             q.A.group_by);
      aggs = Array.of_list !internal;
      source;
    }
  in
  (def, evals)

(* Each group becomes one row — its GROUP BY values, then every needed
   aggregate — and HAVING and the select list are bound over that row:
   HAVING filters it with WHERE's three-valued logic, the items project
   it. *)
let select_grouped ?stats s txn (q : A.select) src =
  let def, evals = plan_grouped s q src in
  let results =
    match find_matching_view s def with
    | Some (_, v, mapping) ->
        Ivdb_util.Metrics.inc s.m_view_match;
        let locking = if txn = None then Query.Dirty else Query.Serializable in
        Query.view_scan s.sdb txn v locking
        |> op_count stats "stored groups read"
        |> Seq.map (fun (group, stored) ->
               ( group,
                 Array.append [| stored.(0) |]
                   (Array.map (fun i -> stored.(i)) mapping) ))
        |> List.of_seq
    | None ->
        let results = Query.on_demand_aggregate s.sdb txn def in
        op_note stats "groups aggregated" (List.length results);
        results
  in
  let groups = List.length q.A.group_by in
  let col c =
    match List.find_index (String.equal c) q.A.group_by with
    | Some i -> i
    | None -> fail "column %s is not in GROUP BY" c
  in
  let agg a = groups + Option.get (List.find_index (fun (b, _) -> b = a) evals) in
  let rows =
    List.map
      (fun (group, stored) ->
        Array.append group (Array.of_list (List.map (fun (_, f) -> f stored) evals)))
      results
  in
  let rows =
    match q.A.having with
    | None -> rows
    | Some h -> List.filter (Expr.eval_bool (bind_expr ~agg col h)) rows
  in
  let items =
    match q.A.items with
    | [ A.Star ] ->
        List.map (fun c -> A.Col_item c) q.A.group_by
        @ List.map (fun (a, _) -> A.Agg_item a) evals
    | items -> items
  in
  let positions, header =
    List.split
      (List.map
         (function
           | A.Star -> fail "SELECT * mixed with other items is not supported"
           | A.Col_item c -> (col c, c)
           | A.Agg_item a -> (agg a, agg_label a))
         items)
  in
  let positions = Array.of_list positions in
  order_limit q (header, List.map (fun r -> Row.project r positions) rows)
  |> returned stats

(* The access-plan line EXPLAIN prints for a single-table SELECT, UPDATE
   or DELETE. *)
let describe_access from plan =
  let residual = function None -> "" | Some _ -> " with residual filter" in
  match plan with
  | Plan_scan None -> Printf.sprintf "seq scan on %s" from
  | Plan_scan (Some _) -> Printf.sprintf "seq scan on %s with filter" from
  | Plan_index_probe { p_col; p_index; p_value; p_residual } ->
      Printf.sprintf "index probe on %s.%s via %s (= %s)%s" from p_col p_index
        (Value.to_string p_value) (residual p_residual)
  | Plan_index_range { r_col; r_index; r_lo; r_hi; r_residual } ->
      let bound = function
        | None -> "unbounded"
        | Some (v, incl) ->
            Printf.sprintf "%s %s" (Value.to_string v)
              (if incl then "inclusive" else "exclusive")
      in
      Printf.sprintf "index range scan on %s.%s via %s [%s .. %s]%s" from r_col
        r_index (bound r_lo) (bound r_hi) (residual r_residual)

let describe_plan s (q : A.select) =
  let src = if is_sys_name q.A.from then None else Some (resolve_source s q) in
  let join_text lcol rcol =
    Printf.sprintf "%s JOIN %s ON %s = %s" q.A.from
      (match q.A.join with Some (t2, _, _) -> t2 | None -> "?")
      lcol rcol
  in
  let access =
    match src with
    | None ->
        Printf.sprintf "system table scan on %s (engine state snapshot, no locks)"
          q.A.from
    | Some (Src_view _) ->
        Printf.sprintf "view scan on %s (stored groups, no recomputation)" q.A.from
    | Some ((Src_table _ | Src_join _) as src) when is_grouped q -> (
        match find_matching_view s (fst (plan_grouped s q src)) with
        | Some (vname, _, _) ->
            Printf.sprintf "answered from indexed view %s (stored groups)" vname
        | None -> (
            match src with
            | Src_join (_, _, lcol, rcol, _) ->
                "on-demand aggregation over " ^ join_text lcol rcol
            | _ -> Printf.sprintf "on-demand aggregation over seq scan on %s" q.A.from))
    | Some (Src_join (_, _, lcol, rcol, _)) -> "hash join " ^ join_text lcol rcol
    | Some (Src_table (t, _)) -> describe_access q.A.from (plan_table_access s t q.A.where)
  in
  let order =
    match (q.A.order, src) with
    | None, _ -> []
    | Some { A.ob_col; ob_desc = false }, Some (Src_table (t, _))
      when (match plan_table_access s t q.A.where with
           | Plan_index_range { r_col; _ } -> r_col = ob_col
           | Plan_index_probe _ | Plan_scan _ -> false) ->
        [ Printf.sprintf "order by %s satisfied by index order" ob_col ]
    | Some o, _ ->
        [ Printf.sprintf "sort by %s%s" o.A.ob_col (if o.A.ob_desc then " desc" else "") ]
  in
  let limit = Option.to_list (Option.map (Printf.sprintf "limit %d") q.A.limit) in
  String.concat "\n" ((access :: order) @ limit)

(* An indexed view's stored groups as a relation: the GROUP BY columns,
   the implicit COUNT( * ) unless the definition lists it explicitly, then
   each aggregate under its label. A label that occurs once names its
   column. A repeated one is qualified, so every column has a name of its
   own: by the aggregate's argument column when no other aggregate of the
   label has the same one (sum_a, sum_b), else by its position among the
   aggregate columns (count_1, count_2). *)
let view_relation ?stats s txn v =
  let def = Database.view_def s.sdb v in
  let src_schema =
    match def.View_def.source with
    | View_def.Single { table; _ } ->
        Database.schema s.sdb (Database.Internal.of_table_id table)
    | View_def.Join { left; right; _ } ->
        Database.join_schema s.sdb
          (Database.Internal.of_table_id left)
          (Database.Internal.of_table_id right)
  in
  let group_names =
    Array.to_list
      (Array.map
         (fun pos -> (Schema.col_at src_schema pos).Schema.name)
         def.View_def.group_cols)
  in
  let explicit_count =
    Array.exists (function View_def.Count_star -> true | _ -> false) def.View_def.aggs
  in
  let aggs =
    (if explicit_count then [] else [ View_def.Count_star ])
    @ Array.to_list def.View_def.aggs
  in
  let label_arg (a : View_def.agg) =
    match a with
    | View_def.Count_star -> ("count(*)", None)
    | View_def.Count e -> ("count", Some e)
    | View_def.Sum e -> ("sum", Some e)
    | View_def.Min e -> ("min", Some e)
    | View_def.Max e -> ("max", Some e)
  in
  let labelled = List.map label_arg aggs in
  let occurrences p = List.length (List.filter p labelled) in
  let agg_names =
    List.mapi
      (fun i (label, arg) ->
        if occurrences (fun (l, _) -> l = label) = 1 then label
        else
          match arg with
          | Some (Expr.Col pos) when occurrences (( = ) (label, arg)) = 1 ->
              label ^ "_" ^ (Schema.col_at src_schema pos).Schema.name
          | Some _ -> label ^ "_" ^ string_of_int (i + 1)
          | None -> "count_" ^ string_of_int (i + 1))
      labelled
  in
  let project_aggs stored =
    if explicit_count then Array.sub stored 1 (Array.length stored - 1) else stored
  in
  let locking = if txn = None then Query.Dirty else Query.Serializable in
  ( group_names @ agg_names,
    Query.view_scan s.sdb txn v locking
    |> op_count stats "stored groups read"
    |> Seq.map (fun (g, a) -> Array.append g (project_aggs a))
    |> List.of_seq )

(* One view's rows from several partitions, combined by group key: the
   aggregates distribute over a union of partitions by the kind that
   begins the name view_relation gives each column, with NULL as the
   identity. *)
let combine_view_rows ~groups header rows =
  let kind l = match String.index_opt l '_' with Some i -> String.sub l 0 i | None -> l in
  let kinds = Array.of_list (List.map kind header) in
  let combine j a b =
    match (kinds.(j), a, b) with
    | _, Value.Null, v | _, v, Value.Null -> v
    | ("count(*)" | "count" | "sum"), a, b -> Value.add a b
    | "min", a, b -> if Value.compare a b <= 0 then a else b
    | "max", a, b -> if Value.compare a b >= 0 then a else b
    | _, _, _ -> fail "cannot combine view column %s" (List.nth header j)
  in
  let by_key (a : Row.t) (b : Row.t) =
    let rec from i =
      if i = groups then 0
      else match Value.compare a.(i) b.(i) with 0 -> from (i + 1) | c -> c
    in
    from 0
  in
  List.fold_left
    (fun acc (r : Row.t) ->
      match acc with
      | prev :: rest when by_key prev r = 0 ->
          Array.mapi (fun j v -> if j < groups then v else combine j v r.(j)) prev
          :: rest
      | _ -> r :: acc)
    [] (List.stable_sort by_key rows)
  |> List.rev

(* --- sys.* virtual tables ----------------------------------------------------- *)

(* Resolve a sys.* name to its header and (already materialized) rows:
   session-registered providers first (the server injects live
   sys.server_sessions / sys.slow_queries per connection), then the
   built-ins over the session's database. *)
let resolve_sys s name =
  match List.assoc_opt name s.sys_ext with
  | Some f -> Some (f ())
  | None ->
      Sys_tables.builtin s.sdb ~self_txn:(Option.map Txn.id s.txn) name

(* An operand of the wrong type anywhere in a statement is the
   statement's error, reported like any other. *)
let type_errors f x = try f x with Value.Type_error m -> fail "type error: %s" m

(* A SELECT over an already-materialized (header, rows) relation — an
   indexed view's groups, a sys.* table, the coordinator's catalogs and
   combined views: WHERE, projection by column name, ORDER BY / LIMIT.
   Columns are identified only by header name. *)
let select_over (q : A.select) (header, rows) =
  let what = if is_sys_name q.A.from then "system table" else "view" in
  if q.A.join <> None then fail "joins over a %s are not supported" what;
  if is_grouped q then fail "GROUP BY and aggregates over a %s are not supported" what;
  let col c =
    match List.find_index (String.equal c) header with
    | Some i -> i
    | None -> fail "unknown %s column %s" what c
  in
  let rows =
    match q.A.where with
    | None -> rows
    | Some w ->
        let agg _ = fail "aggregates are not allowed in a %s WHERE" what in
        type_errors (List.filter (Expr.eval_bool (bind_expr ~agg col w))) rows
  in
  match q.A.items with
  | [ A.Star ] -> order_limit q (header, rows)
  | items ->
      let names =
        List.map
          (function
            | A.Col_item c -> c
            | A.Star | A.Agg_item _ ->
                fail "SELECT * mixed with other items is not supported")
          items
      in
      let positions = Array.of_list (List.map col names) in
      order_limit q (names, List.map (fun r -> Row.project r positions) rows)

let run_select ?stats s txn q =
  if is_sys_name q.A.from then (
    match resolve_sys s q.A.from with
    | None ->
        fail "unknown system table %s (available: %s)" q.A.from
          (String.concat ", " Sys_tables.names)
    | Some (header, rows) ->
        op_note stats "sys rows materialized" (List.length rows);
        returned stats (select_over q (header, rows)))
  else
    match resolve_source s q with
    | Src_view v -> returned stats (select_over q (view_relation ?stats s txn v))
    | src when is_grouped q -> select_grouped ?stats s txn q src
    | src -> select_rows ?stats s txn q src

(* A bare SELECT outside a transaction runs as an auto-snapshot: a
   lock-free read-only transaction resolving against version chains, so it
   sees a commit-consistent state at zero locking cost (it used to read
   dirty). Results are materialized lists, safe to return after the
   snapshot is released. sys.* tables read engine state directly. *)
let run_select_auto ?stats s q =
  if is_sys_name q.A.from then run_select ?stats s None q
  else
    match s.txn with
    | Some _ as txn -> run_select ?stats s txn q
    | None ->
        Database.transact s.sdb ~read_only:true (fun tx ->
            run_select ?stats s (Some tx) q)

(* EXPLAIN ANALYZE: the plan describe_plan would print, then actually run
   the query, reporting per-operator row counts plus the engine-level costs
   (index probes, lock waits, buffer traffic, simulated ticks) the execution
   incurred. Inside an open transaction it reads serializably — and takes
   the same locks the bare SELECT would. *)
let explain_analyze s (q : A.select) =
  let metrics = Database.metrics s.sdb in
  let plan = describe_plan s q in
  let before = Ivdb_util.Metrics.capture metrics in
  let t0 = Sched.now () in
  let stats : op_stats = ref [] in
  ignore (run_select_auto ~stats s q);
  let ticks = Sched.now () - t0 in
  let get =
    Ivdb_util.Metrics.window_get
      (Ivdb_util.Metrics.window_diff ~before ~after:(Ivdb_util.Metrics.capture metrics))
  in
  let b = Buffer.create 256 in
  let line fmt = Format.kasprintf (fun str -> Buffer.add_string b (str ^ "\n")) fmt in
  Buffer.add_string b plan;
  Buffer.add_char b '\n';
  List.iter (fun (label, r) -> line "%s: %d" label !r) !stats;
  line "index probes: %d point, %d range" (get "sql.index_probe")
    (get "sql.index_range");
  line "lock waits: %d" (get "lock.wait");
  line "buffer: %d hits, %d misses" (get "buffer.hit") (get "buffer.miss");
  line "ticks: %d" ticks;
  Message (String.trim (Buffer.contents b))

(* --- DML --------------------------------------------------------------------- *)

(* A write statement is atomic. In an open transaction it runs behind a
   savepoint, and an error rolls it back to there, so a statement that
   fails part-way (a unique violation on its second row) leaves nothing
   behind while the statements before it stand. A lock conflict is left
   to the caller, which aborts the whole transaction, and so is an
   injected crash, after which nothing may run. *)
let with_txn s f =
  match s.txn with
  | Some tx when Txn.snapshot_of tx <> None ->
      fail "cannot write in a READ ONLY transaction"
  | Some tx -> (
      let sp = Txn.savepoint tx in
      try f tx with
      | (Txn.Conflict _ | Ivdb_storage.Fault.Crash_point _) as e -> raise e
      | e ->
          Database.rollback_to s.sdb tx sp;
          raise e)
  | None -> Database.transact s.sdb f

let run_insert s ~into ~rows =
  match find_table s into with
  | None -> fail "unknown table %s" into
  | Some t ->
      with_txn s (fun tx ->
          List.iter
            (fun lits ->
              let row = Array.of_list (List.map value_of_lit lits) in
              try ignore (Table.insert s.sdb tx t row)
              with Invalid_argument m -> fail "%s" m)
            rows);
      Affected (List.length rows)

(* UPDATE and DELETE: the table, its schema and the bound WHERE, checked
   before a transaction is opened. *)
let dml_target s name where =
  match find_table s name with
  | None -> fail "unknown table %s" name
  | Some t ->
      let schema = Database.schema s.sdb t in
      let pred = match where with Some w -> bind_schema schema w | None -> Expr.bool true in
      (t, schema, pred)

(* A write statement's victims, read through the SELECT planner — an index
   probe or range under key-range locking when the WHERE allows one — with
   the full WHERE applied as a filter. All are collected before the first
   write, so a row the statement moves (an UPDATE re-inserts it at a new
   rid, perhaps into the range being read) is written exactly once. *)
let dml_victims s tx t schema where pred =
  plan_rows s (Some tx) t schema (plan_table_access s t where)
  |> Seq.filter (fun (_, row) -> Expr.eval_bool pred row)
  |> List.of_seq

let run_delete s ~from_t ~where =
  let t, schema, pred = dml_target s from_t where in
  with_txn s (fun tx ->
      let victims = dml_victims s tx t schema where pred in
      List.iter (fun (rid, _) -> Table.delete s.sdb tx t rid) victims;
      Affected (List.length victims))

let run_update s ~table ~sets ~where =
  let t, schema, pred = dml_target s table where in
  let sets =
    List.map
      (fun (c, e) ->
        let pos =
          try Schema.index_of schema c with Not_found -> fail "unknown column %s" c
        in
        (pos, bind_schema schema e))
      sets
  in
  with_txn s (fun tx ->
      let victims = dml_victims s tx t schema where pred in
      (* every new row is computed and checked before the first write: a
         SET of the wrong type fails the statement with no row touched *)
      let updates =
        List.map
          (fun (rid, row) ->
            let row' = Array.copy row in
            List.iter (fun (pos, e) -> row'.(pos) <- Expr.eval e row) sets;
            (match Schema.validate schema row' with Ok () -> () | Error m -> fail "%s" m);
            (rid, row'))
          victims
      in
      List.iter (fun (rid, row') -> ignore (Table.update s.sdb tx t rid row')) updates;
      Affected (List.length victims))

(* EXPLAIN UPDATE / EXPLAIN DELETE: the access plan the statement's
   victims are read through. *)
let explain_write s (w : A.stmt) =
  match w with
  | A.Update { table = name; where; _ } | A.Delete { from_t = name; where } ->
      let t, _, _ = dml_target s name where in
      Message (describe_access name (plan_table_access s t where))
  | _ -> fail "EXPLAIN supports SELECT, UPDATE and DELETE"

(* --- DDL --------------------------------------------------------------------- *)

let run_create_view s ~v_name ~(query : A.select) ~strat =
  let strategy, threshold =
    match strat with
    | A.S_exclusive -> (Maintain.Exclusive, None)
    | A.S_escrow -> (Maintain.Escrow, None)
    | A.S_deferred t -> (Maintain.Deferred, t)
  in
  if query.A.group_by = [] then fail "CREATE VIEW requires GROUP BY";
  let aggs_ast =
    List.filter_map
      (function
        | A.Agg_item a -> Some a
        | A.Col_item _ -> None
        | A.Star -> fail "SELECT * is not allowed in CREATE VIEW")
      query.A.items
  in
  (* selected plain columns must be the group columns *)
  List.iter
    (function
      | A.Col_item c when not (List.mem c query.A.group_by) ->
          fail "view column %s must appear in GROUP BY" c
      | _ -> ())
    query.A.items;
  let source, schema =
    match query.A.join with
    | None -> (
        match find_table s query.A.from with
        | Some t -> (Database.From (t, None), Database.schema s.sdb t)
        | None -> fail "unknown table %s" query.A.from)
    | Some (t2, lcol, rcol) -> (
        match (find_table s query.A.from, find_table s t2) with
        | Some l, Some r ->
            ( Database.From_join
                { left = l; right = r; left_col = lcol; right_col = rcol; where = None },
              Database.join_schema s.sdb l r )
        | _ -> fail "unknown table in join")
  in
  let source =
    match (source, query.A.where) with
    | Database.From (t, None), Some w -> Database.From (t, Some (bind_schema schema w))
    | Database.From_join j, Some w ->
        Database.From_join { j with where = Some (bind_schema schema w) }
    | src, _ -> src
  in
  let v =
    try
      Database.create_view s.sdb ?refresh_threshold:threshold ~name:v_name
        ~group_by:query.A.group_by
        ~aggs:(List.map (bind_agg schema) aggs_ast)
        ~source ~strategy ()
    with Invalid_argument m -> fail "%s" m
  in
  ignore v;
  Message (Printf.sprintf "view %s created (%s)" v_name
             (Maintain.strategy_to_string strategy))

(* --- driver ------------------------------------------------------------------- *)

let exec_stmt s (stmt : A.stmt) =
  match stmt with
  | A.Create_table { t_name; cols } ->
      let cols =
        List.map
          (fun (c : A.col_def) ->
            { Schema.name = c.A.cd_name; ty = c.A.cd_ty; nullable = c.A.cd_nullable })
          cols
      in
      let t =
        try Database.create_table s.sdb ~name:t_name ~cols
        with Invalid_argument m -> fail "%s" m
      in
      ignore t;
      Message (Printf.sprintf "table %s created" t_name)
  | A.Create_index { i_name; on_table; col; unique } -> (
      match find_table s on_table with
      | None -> fail "unknown table %s" on_table
      | Some t ->
          (try Database.create_index s.sdb ~unique t ~col ~name:i_name with
          | Not_found -> fail "unknown column %s" col
          | Database.Constraint_violation m | Invalid_argument m -> fail "%s" m);
          Message
            (Printf.sprintf "%sindex %s created"
               (if unique then "unique " else "")
               i_name))
  | A.Create_view { v_name; query; strat } -> run_create_view s ~v_name ~query ~strat
  | A.Insert { into; rows } -> run_insert s ~into ~rows
  | A.Delete { from_t; where } -> run_delete s ~from_t ~where
  | A.Update { table; sets; where } -> run_update s ~table ~sets ~where
  | A.Select q -> run_select_auto s q
  | A.Explain q -> Message (describe_plan s q)
  | A.Explain_analyze q -> explain_analyze s q
  | A.Explain_write w -> explain_write s w
  | A.Begin { read_only } ->
      if s.txn <> None then fail "transaction already open";
      if read_only then begin
        s.txn <- Some (Txn.begin_snapshot (Database.mgr s.sdb));
        Message "read-only transaction started (snapshot)"
      end
      else begin
        (* a read-write BEGIN allocates a txn directly from the manager,
           bypassing Database.transact — re-assert the replica guard here
           so a follower never opens a transaction that could write *)
        if Database.is_follower s.sdb then raise Database.Read_only_replica;
        s.txn <- Some (Txn.begin_txn (Database.mgr s.sdb));
        Message "transaction started"
      end
  | A.Commit -> (
      match s.txn with
      | None -> fail "no open transaction"
      | Some tx ->
          Txn.commit (Database.mgr s.sdb) tx;
          s.txn <- None;
          s.savepoints <- [];
          Message "committed")
  | A.Rollback -> (
      match s.txn with
      | None -> fail "no open transaction"
      | Some tx ->
          Txn.abort (Database.mgr s.sdb) tx;
          s.txn <- None;
          s.savepoints <- [];
          Message "rolled back")
  | A.Savepoint name -> (
      match s.txn with
      | None -> fail "SAVEPOINT requires an open transaction"
      | Some tx when Txn.snapshot_of tx <> None ->
          fail "SAVEPOINT is meaningless in a READ ONLY transaction"
      | Some tx ->
          s.savepoints <- (name, Txn.savepoint tx) :: s.savepoints;
          Message (Printf.sprintf "savepoint %s" name))
  | A.Rollback_to name -> (
      match s.txn with
      | None -> fail "ROLLBACK TO requires an open transaction"
      | Some tx -> (
          match List.assoc_opt name s.savepoints with
          | None -> fail "unknown savepoint %s" name
          | Some sp ->
              Database.rollback_to s.sdb tx sp;
              (* savepoints taken after the target are gone *)
              let rec keep = function
                | [] -> []
                | (n, p) :: rest -> if n = name then (n, p) :: rest else keep rest
              in
              s.savepoints <- keep s.savepoints;
              Message (Printf.sprintf "rolled back to %s" name)))
  | A.Checkpoint ->
      Database.checkpoint s.sdb;
      Message "checkpoint complete"
  | A.Show `Tables ->
      Rows
        {
          header = [ "table" ];
          rows = List.map (fun n -> [| Value.Str n |]) (Database.list_tables s.sdb);
        }
  | A.Show `Views ->
      Rows
        {
          header = [ "view"; "strategy" ];
          rows =
            List.map
              (fun (n, strat) -> [| Value.Str n; Value.Str strat |])
              (Database.list_views s.sdb);
        }
  | A.Show `Metrics ->
      Rows
        {
          header = [ "counter"; "value" ];
          rows =
            List.map
              (fun (k, v) -> [| Value.Str k; Value.Int v |])
              (Ivdb_util.Metrics.snapshot (Database.metrics s.sdb));
        }

let exec s input = type_errors (exec_stmt s) (Sql_parser.parse input)

let render = function
  | Affected n -> Printf.sprintf "%d row(s) affected" n
  | Message m -> m
  | Rows { header; rows } ->
      let cells =
        header :: List.map (fun r -> Array.to_list (Array.map Value.to_string r)) rows
      in
      let ncols = List.length header in
      let width c =
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 cells
      in
      let widths = List.init ncols width in
      let line row =
        String.concat " | "
          (List.mapi (fun i cell -> Printf.sprintf "%-*s" (List.nth widths i) cell) row)
      in
      let sep = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
      String.concat "\n"
        ((line header :: sep :: List.map line (List.tl cells))
        @ [ Printf.sprintf "(%d rows)" (List.length rows) ])
