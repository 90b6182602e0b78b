module Sql = Ivdb_sql.Sql
module Parser = Ivdb_sql.Sql_parser
module Lexer = Ivdb_sql.Sql_lexer
module A = Ivdb_sql.Sql_ast
module Database = Ivdb.Database
module Value = Ivdb_relation.Value

let check = Alcotest.check

let config = { Database.default_config with read_cost = 0; write_cost = 0 }

let fresh () = Sql.session (Database.create ~config ())

let exec s sql = Sql.exec s sql

let rows_of s sql =
  match exec s sql with
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let header_of s sql =
  match exec s sql with
  | Sql.Rows { header; _ } -> header
  | _ -> Alcotest.fail "expected rows"

let affected s sql =
  match exec s sql with
  | Sql.Affected n -> n
  | _ -> Alcotest.fail "expected affected count"

let ints row = Array.to_list (Array.map Value.to_int row)

(* Statements over [t (k INT, g TEXT, x INT)] whose operands have the
   wrong type. *)
let ill_typed =
  [
    "SELECT * FROM t WHERE k AND 1";
    "SELECT * FROM t WHERE g + 1 > 2";
    "SELECT * FROM t WHERE g = 1";
    "SELECT * FROM t WHERE NOT x";
    "SELECT * FROM t WHERE -g = 'a'";
    "UPDATE t SET x = g + 1";
    "UPDATE t SET x = 'text'";
    "SELECT g, COUNT(*) FROM t GROUP BY g HAVING g + 1 > 0";
    "SELECT g, SUM(g) FROM t GROUP BY g";
  ]

(* --- lexer ------------------------------------------------------------------ *)

let test_lexer () =
  let toks = Lexer.tokenize "SELECT a, 'it''s' FROM t WHERE x <= 2.5 -- c" in
  check Alcotest.int "token count" 11 (List.length toks);
  Alcotest.(check bool) "string escape" true
    (List.exists (function Lexer.String "it's" -> true | _ -> false) toks);
  Alcotest.(check bool) "float" true
    (List.exists (function Lexer.Float 2.5 -> true | _ -> false) toks);
  Alcotest.check_raises "bad char" (Lexer.Lex_error "unexpected character '@'")
    (fun () -> ignore (Lexer.tokenize "a @ b"))

(* --- lexer vs oracle ------------------------------------------------------------ *)

(* The lexer as it was before the keyword table, kept unchanged as the
   reference the table-driven one must agree with. *)
module Oracle = struct
  type token = Lexer.token =
    | Kw of string
    | Ident of string
    | Int of int
    | Float of float
    | String of string
    | Sym of string
    | Eof

  exception Lex_error = Lexer.Lex_error

  let keywords =
    [
      "CREATE"; "TABLE"; "INDEX"; "VIEW"; "ON"; "AS"; "SELECT"; "FROM"; "WHERE";
      "GROUP"; "BY"; "ORDER"; "LIMIT"; "DESC"; "ASC"; "JOIN"; "INSERT"; "INTO";
      "VALUES"; "DELETE"; "UPDATE"; "SET"; "AND"; "OR"; "NOT"; "NULL"; "IS";
      "TRUE"; "FALSE"; "COUNT"; "SUM"; "MIN"; "MAX"; "INT"; "FLOAT"; "TEXT";
      "BOOL"; "USING"; "ESCROW"; "EXCLUSIVE"; "DEFERRED"; "REFRESH"; "THRESHOLD";
      "BEGIN"; "COMMIT"; "ROLLBACK"; "CHECKPOINT"; "SHOW"; "TABLES"; "VIEWS";
      "METRICS"; "EXPLAIN"; "ANALYZE"; "AVG"; "HAVING"; "SAVEPOINT"; "TO";
      "UNIQUE"; "READ"; "ONLY";
    ]

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let tokenize src =
    let n = String.length src in
    let pos = ref 0 in
    let toks = ref [] in
    let push t = toks := t :: !toks in
    while !pos < n do
      let c = src.[!pos] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = ';' then incr pos
      else if c = '-' && !pos + 1 < n && src.[!pos + 1] = '-' then begin
        (* line comment *)
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done
      end
      else if is_ident_start c then begin
        let start = !pos in
        while !pos < n && is_ident src.[!pos] do
          incr pos
        done;
        let word = String.sub src start (!pos - start) in
        let upper = String.uppercase_ascii word in
        if List.mem upper keywords then push (Kw upper)
        else push (Ident (String.lowercase_ascii word))
      end
      else if is_digit c then begin
        let start = !pos in
        while !pos < n && (is_digit src.[!pos] || src.[!pos] = '.') do
          incr pos
        done;
        let num = String.sub src start (!pos - start) in
        if String.contains num '.' then push (Float (float_of_string num))
        else push (Int (int_of_string num))
      end
      else if c = '\'' then begin
        incr pos;
        let buf = Buffer.create 16 in
        let rec go () =
          if !pos >= n then raise (Lex_error "unterminated string literal")
          else if src.[!pos] = '\'' then
            if !pos + 1 < n && src.[!pos + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              pos := !pos + 2;
              go ()
            end
            else incr pos
          else begin
            Buffer.add_char buf src.[!pos];
            incr pos;
            go ()
          end
        in
        go ();
        push (String (Buffer.contents buf))
      end
      else begin
        let two = if !pos + 1 < n then String.sub src !pos 2 else "" in
        match two with
        | "<>" | "<=" | ">=" | "!=" ->
            push (Sym (if two = "!=" then "<>" else two));
            pos := !pos + 2
        | _ -> (
            match c with
            | '(' | ')' | ',' | '*' | '=' | '<' | '>' | '+' | '-' | '.' | '/' ->
                push (Sym (String.make 1 c));
                incr pos
            | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c)))
      end
    done;
    List.rev (Eof :: !toks)
end

let qtest = QCheck_alcotest.to_alcotest

let keywords =
  [ "CREATE"; "TABLE"; "SELECT"; "FROM"; "WHERE"; "IS"; "NULL"; "COUNT"; "AVG";
    "CHECKPOINT"; "EXCLUSIVE"; "TO"; "ONLY"; "USING"; "ESCROW"; "LIMIT" ]

(* One lexeme of random text, including the ones the lexer rejects. *)
let gen_piece =
  let open QCheck.Gen in
  let mixed_case w =
    map
      (fun flips ->
        String.mapi
          (fun i c ->
            if List.nth flips (i mod List.length flips) then Char.lowercase_ascii c else c)
          w)
      (list_size (int_range 1 4) bool)
  in
  let word_char = oneofl [ 'a'; 'q'; 'Z'; '_'; '0'; '9' ] in
  let digits = string_size ~gen:(char_range '0' '9') (int_range 1 4) in
  frequency
    [
      (4, oneofl keywords >>= mixed_case);
      (* near misses: a keyword's prefix, or the keyword run on *)
      ( 2,
        oneofl keywords >>= fun k ->
        oneof
          [ map (fun i -> String.sub k 0 i) (int_range 1 (String.length k)); return (k ^ "_1") ]
        >>= mixed_case );
      ( 3,
        map2
          (fun c rest -> String.make 1 c ^ rest)
          (oneofl [ 'a'; 'T'; '_' ])
          (string_size ~gen:word_char (int_bound 4)) );
      (2, digits);
      (1, map2 (fun a b -> a ^ "." ^ b) digits (oneofl [ ""; "5"; "25" ]));
      ( 1,
        oneofl
          [ "1.2.3"; "1..2"; "99999999999999999999"; "4611686018427387903";
            "4611686018427387904" ] );
      (2, map (fun s -> "'" ^ s ^ "'") (oneofl [ ""; "x"; "it''s"; "''"; "a b"; "--"; "SELECT" ]));
      (1, oneofl [ "'unterminated"; "'x''"; "-- note\n"; "--" ]);
      ( 3,
        oneofl
          [ "("; ")"; ","; "*"; "="; "<"; ">"; "+"; "-"; "."; "/"; "<>"; "<="; ">="; "!="; "!"; ";" ]
      );
      (1, map (String.make 1) char);
    ]

let gen_text =
  let open QCheck.Gen in
  map
    (fun parts -> String.concat "" (List.concat_map (fun (p, sep) -> [ p; sep ]) parts))
    (list_size (int_bound 12) (pair gen_piece (oneofl [ " "; ""; "\n"; "\t" ])))

let lex f src =
  match f src with
  | toks -> `Toks toks
  | exception Lexer.Lex_error m -> `Lex_error m
  | exception Failure _ -> `Failure

let prop_lexer_matches_oracle =
  QCheck.Test.make ~name:"lexer matches the oracle" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_text)
    (fun src ->
      match (lex Oracle.tokenize src, lex Lexer.tokenize src) with
      | `Toks a, `Toks b -> a = b
      | `Lex_error a, `Lex_error b -> String.equal a b
      (* the oracle lets a malformed number escape as Failure *)
      | `Failure, `Lex_error m -> String.starts_with ~prefix:"malformed number" m
      | _ -> false)

let test_malformed_numbers () =
  List.iter
    (fun lit ->
      Alcotest.check_raises lit
        (Lexer.Lex_error (Printf.sprintf "malformed number %S" lit))
        (fun () -> ignore (Parser.parse ("SELECT * FROM t WHERE k = " ^ lit))))
    [ "1.2.3"; "1..2"; "99999999999999999999" ];
  check Alcotest.bool "max_int still lexes" true
    (Lexer.tokenize "4611686018427387903" = [ Lexer.Int max_int; Lexer.Eof ])

(* --- parser ------------------------------------------------------------------ *)

let test_parse_select () =
  match Parser.parse "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 3" with
  | A.Select q ->
      check Alcotest.int "items" 2 (List.length q.A.items);
      Alcotest.(check bool) "where" true (q.A.where <> None);
      Alcotest.(check bool) "order desc" true
        (match q.A.order with Some o -> o.A.ob_desc | None -> false);
      check Alcotest.(option int) "limit" (Some 3) q.A.limit
  | _ -> Alcotest.fail "not a select"

(* The WHERE expression of [SELECT * FROM t WHERE cond]. *)
let parse_where cond =
  match Parser.parse ("SELECT * FROM t WHERE " ^ cond) with
  | A.Select { A.where = Some e; _ } -> e
  | _ -> Alcotest.failf "%s: not a filtered select" cond

let test_parse_precedence () =
  (* a = 1 OR b = 2 AND c = 3  ==  a=1 OR (b=2 AND c=3) *)
  match parse_where "a = 1 OR b = 2 AND c = 3" with
  | A.Binop (A.Or, _, A.Binop (A.And, _, _)) -> ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_arith_precedence () =
  match parse_where "x = 1 + 2 * 3" with
  | A.Binop (A.Eq, _, A.Binop (A.Add, A.Lit (A.L_int 1), A.Binop (A.Mul, _, _))) -> ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_view () =
  (match
     Parser.parse
       "CREATE VIEW v AS SELECT p, COUNT(*), SUM(q) FROM t GROUP BY p USING \
        DEFERRED REFRESH THRESHOLD 10"
   with
  | A.Create_view { strat = A.S_deferred (Some 10); query; _ } ->
      check Alcotest.(list string) "group by" [ "p" ] query.A.group_by
  | _ -> Alcotest.fail "bad view parse");
  (* a view's aggregate columns are named by their labels *)
  match Parser.parse "SELECT * FROM v WHERE sum > 3 ORDER BY sum DESC" with
  | A.Select
      {
        where = Some (A.Binop (A.Gt, A.Column "sum", _));
        order = Some { ob_col = "sum"; _ };
        _;
      } ->
      ()
  | _ -> Alcotest.fail "aggregate word as a view column"

let test_parse_errors () =
  Alcotest.(check bool) "trailing" true
    (match Parser.parse "SELECT a FROM t t2" with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "missing from" true
    (match Parser.parse "SELECT a" with
    | exception Parser.Parse_error _ -> true
    | _ -> false)

(* Nesting deeper than the parser's bound is a parse error, not a stack
   overflow; nesting within it parses. *)
let test_parse_depth () =
  let refused what sql =
    Alcotest.(check bool) what true
      (match Parser.parse sql with
      | exception Parser.Parse_error _ -> true
      | _ -> false)
  in
  let n = 200_000 in
  let where body = "SELECT * FROM t WHERE " ^ body in
  refused "200,000 parentheses"
    (where (String.make n '(' ^ "k = 1" ^ String.make n ')'));
  refused "200,000-term OR chain"
    (where (String.concat " OR " (List.init n (Printf.sprintf "k = %d"))));
  refused "200,000-term AND chain"
    (where (String.concat " AND " (List.init n (Printf.sprintf "k = %d"))));
  refused "200,000 NOTs" (where (String.concat "" (List.init n (fun _ -> "NOT ")) ^ "k"));
  refused "200,000 unary minuses" (where (String.make n '-' ^ "k > 0"));
  refused "200,000-term sum" (where ("k" ^ String.concat "" (List.init n (fun _ -> " + 1")) ^ " > 0"));
  let deep = 900 in
  match
    Parser.parse
      (where (String.make deep '(' ^ "k = 1" ^ String.make deep ')'))
  with
  | A.Select _ -> ()
  | _ -> Alcotest.fail "900 parentheses should parse"

(* --- adversarial input --------------------------------------------------------- *)

let valid_statements =
  [
    "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 3";
    "SELECT grp, COUNT ( * ) , SUM ( qty ) FROM t GROUP BY grp HAVING SUM ( qty ) > 1";
    "SELECT * FROM sys.views WHERE x IS NOT NULL OR y <> -2.5";
    "SELECT grp FROM v JOIN u ON a = b WHERE count > 0 ORDER BY sum ASC";
    "UPDATE sales SET qty = qty + 1 , note = 'it''s' WHERE id = 1234";
    "DELETE FROM t WHERE NOT ( a <= 1 ) AND b / 2 >= 3 * c";
    "INSERT INTO t VALUES ( 1 , 'x' , TRUE , NULL ) , ( -2 , 'y' , FALSE , 1.5 )";
    "CREATE TABLE t ( id INT NOT NULL , v FLOAT , s TEXT NULL , b BOOL )";
    "CREATE UNIQUE INDEX t_id ON t ( id )";
    "CREATE VIEW v AS SELECT grp , MIN ( x ) , AVG ( x ) FROM t GROUP BY grp USING DEFERRED \
     REFRESH THRESHOLD 10";
    "EXPLAIN ANALYZE SELECT * FROM t WHERE id = 7";
    "EXPLAIN UPDATE t SET qty = 1 WHERE id = 7";
    "BEGIN READ ONLY"; "ROLLBACK TO sp"; "SAVEPOINT sp"; "SHOW METRICS"; "CHECKPOINT";
  ]

(* A valid statement broken at the token level (its tokens are
   space-separated): truncated, two tokens swapped, or one doubled. *)
let gen_mutated =
  let open QCheck.Gen in
  oneofl valid_statements >>= fun stmt ->
  let toks = Array.of_list (String.split_on_char ' ' stmt) in
  let n = Array.length toks in
  let joined a = String.concat " " (Array.to_list a) in
  oneof
    [
      map (fun k -> String.sub stmt 0 k) (int_bound (String.length stmt));
      map (fun k -> joined (Array.sub toks 0 k)) (int_bound n);
      map2
        (fun i j ->
          let a = Array.copy toks in
          a.(i) <- toks.(j);
          a.(j) <- toks.(i);
          joined a)
        (int_bound (n - 1)) (int_bound (n - 1));
      map
        (fun i -> joined (Array.concat [ Array.sub toks 0 (i + 1); Array.sub toks i (n - i) ]))
        (int_bound (n - 1));
    ]

let test_corpus_parses () =
  List.iter (fun src -> ignore (Parser.parse src)) valid_statements

let prop_parse_errors_only =
  QCheck.Test.make ~name:"bad input raises only Parse_error or Lex_error" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneof [ string_size (int_bound 40); gen_mutated; gen_text ]))
    (fun src ->
      match Parser.parse src with
      | _ -> true
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true)

(* --- end to end ---------------------------------------------------------------- *)

let setup_sales () =
  let s = fresh () in
  ignore (exec s "CREATE TABLE sales (id INT NOT NULL, product TEXT NOT NULL, qty INT NOT NULL)");
  ignore
    (exec s
       "INSERT INTO sales VALUES (1, 'apple', 3), (2, 'pear', 2), (3, 'apple', 4), \
        (4, 'fig', 9)");
  s

let test_select_where_order_limit () =
  let s = setup_sales () in
  let rows = rows_of s "SELECT id, qty FROM sales WHERE qty >= 3 ORDER BY qty DESC LIMIT 2" in
  check Alcotest.(list (list int)) "rows" [ [ 4; 9 ]; [ 3; 4 ] ] (List.map ints rows)

let test_select_star_header () =
  let s = setup_sales () in
  check Alcotest.(list string) "header" [ "id"; "product"; "qty" ]
    (header_of s "SELECT * FROM sales")

let test_group_by_adhoc () =
  let s = setup_sales () in
  let rows = rows_of s "SELECT product, COUNT(*), SUM(qty) FROM sales GROUP BY product" in
  let by_product =
    List.map
      (fun r -> (Value.to_string r.(0), Value.to_int r.(1), Value.to_int r.(2)))
      rows
  in
  Alcotest.(check bool) "apple row" true (List.mem ("\"apple\"", 2, 7) by_product);
  Alcotest.(check bool) "fig row" true (List.mem ("\"fig\"", 1, 9) by_product)

let test_indexed_view_via_sql () =
  let s = setup_sales () in
  ignore
    (exec s
       "CREATE VIEW by_product AS SELECT product, COUNT(*), SUM(qty) FROM sales GROUP \
        BY product USING ESCROW");
  (* maintained incrementally *)
  ignore (exec s "INSERT INTO sales VALUES (5, 'pear', 10)");
  let rows = rows_of s "SELECT * FROM by_product WHERE product = 'pear'" in
  check Alcotest.int "one group" 1 (List.length rows);
  let r = List.hd rows in
  check Alcotest.int "count" 2 (Value.to_int r.(1));
  check Alcotest.int "sum" 12 (Value.to_int r.(2));
  (* the view equals the on-demand aggregation *)
  let view = rows_of s "SELECT * FROM by_product" in
  let adhoc = rows_of s "SELECT product, COUNT(*), SUM(qty) FROM sales GROUP BY product" in
  check Alcotest.int "same groups" (List.length adhoc) (List.length view)

let test_update_maintains_view () =
  let s = setup_sales () in
  ignore
    (exec s
       "CREATE VIEW v AS SELECT product, SUM(qty) FROM sales GROUP BY product USING \
        EXCLUSIVE");
  check Alcotest.int "updated" 2 (affected s "UPDATE sales SET qty = qty + 1 WHERE product = 'apple'");
  let rows = rows_of s "SELECT * FROM v WHERE product = 'apple'" in
  check Alcotest.int "sum" 9 (Value.to_int (List.hd rows).(2))

let test_delete_with_view () =
  let s = setup_sales () in
  ignore (exec s "CREATE VIEW v AS SELECT product, SUM(qty) FROM sales GROUP BY product USING ESCROW");
  check Alcotest.int "deleted" 2 (affected s "DELETE FROM sales WHERE product = 'apple'");
  let rows = rows_of s "SELECT * FROM v" in
  check Alcotest.int "apple gone" 2 (List.length rows)

let test_txn_control () =
  let s = setup_sales () in
  ignore (exec s "BEGIN");
  Alcotest.(check bool) "in txn" true (Sql.in_transaction s);
  ignore (exec s "INSERT INTO sales VALUES (9, 'kiwi', 1)");
  ignore (exec s "ROLLBACK");
  check Alcotest.int "rolled back" 0
    (List.length (rows_of s "SELECT id FROM sales WHERE product = 'kiwi'"));
  ignore (exec s "BEGIN");
  ignore (exec s "INSERT INTO sales VALUES (9, 'kiwi', 1)");
  ignore (exec s "COMMIT");
  check Alcotest.int "committed" 1
    (List.length (rows_of s "SELECT id FROM sales WHERE product = 'kiwi'"))

let test_deferred_view_sql () =
  let s = setup_sales () in
  ignore
    (exec s
       "CREATE VIEW v AS SELECT product, SUM(qty) FROM sales GROUP BY product USING \
        DEFERRED REFRESH THRESHOLD 0");
  ignore (exec s "INSERT INTO sales VALUES (10, 'plum', 5)");
  (* threshold 0: the first transactional reader refreshes *)
  ignore (exec s "BEGIN");
  let rows = rows_of s "SELECT * FROM v WHERE product = 'plum'" in
  ignore (exec s "COMMIT");
  check Alcotest.int "auto-refreshed" 1 (List.length rows)

let test_join_select () =
  let s = fresh () in
  ignore (exec s "CREATE TABLE o (oid INT NOT NULL, cust TEXT NOT NULL)");
  ignore (exec s "CREATE TABLE i (order_id INT NOT NULL, amt INT NOT NULL)");
  ignore (exec s "INSERT INTO o VALUES (1, 'ada'), (2, 'bob')");
  ignore (exec s "INSERT INTO i VALUES (1, 10), (1, 20), (2, 5)");
  let rows =
    rows_of s "SELECT cust, SUM(amt) FROM o JOIN i ON oid = order_id GROUP BY cust"
  in
  let find c =
    List.find_map
      (fun r -> if Value.to_string r.(0) = c then Some (Value.to_int r.(1)) else None)
      rows
  in
  check Alcotest.(option int) "ada" (Some 30) (find "\"ada\"");
  check Alcotest.(option int) "bob" (Some 5) (find "\"bob\"")

let test_sql_errors () =
  let s = setup_sales () in
  let expect_error sql =
    match exec s sql with
    | exception Sql.Sql_error _ -> ()
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected an error for %s" sql
  in
  expect_error "SELECT nope FROM sales";
  expect_error "SELECT * FROM nope";
  expect_error "INSERT INTO sales VALUES (1)";
  expect_error "INSERT INTO sales VALUES ('x', 'y', 'z')";
  expect_error "CREATE VIEW v AS SELECT product, MIN(qty) FROM sales GROUP BY product USING ESCROW";
  expect_error "COMMIT";
  (* errors inside a txn leave it open *)
  ignore (exec s "BEGIN");
  expect_error "SELECT nope FROM sales";
  Alcotest.(check bool) "txn still open" true (Sql.in_transaction s);
  ignore (exec s "ROLLBACK")

let test_show_and_metrics () =
  let s = setup_sales () in
  ignore (exec s "CREATE VIEW v AS SELECT product, SUM(qty) FROM sales GROUP BY product USING ESCROW");
  check Alcotest.int "tables" 1 (List.length (rows_of s "SHOW TABLES"));
  check Alcotest.int "views" 1 (List.length (rows_of s "SHOW VIEWS"));
  Alcotest.(check bool) "metrics nonempty" true (rows_of s "SHOW METRICS" <> []);
  match exec s "CHECKPOINT" with
  | Sql.Message _ -> ()
  | _ -> Alcotest.fail "checkpoint message"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_explain_analyze () =
  let s = setup_sales () in
  ignore (exec s "CREATE INDEX ix_product ON sales (product)");
  (match exec s "EXPLAIN ANALYZE SELECT * FROM sales WHERE product = 'apple' AND qty > 3" with
  | Sql.Message m ->
      Alcotest.(check bool) "plan first" true (String.sub m 0 11 = "index probe");
      Alcotest.(check bool) "probe rows" true (contains m "index probe rows: 2");
      Alcotest.(check bool) "residual rows" true
        (contains m "rows after residual filter: 1");
      Alcotest.(check bool) "rows returned" true (contains m "rows returned: 1");
      Alcotest.(check bool) "probe counter" true
        (contains m "index probes: 1 point, 0 range");
      Alcotest.(check bool) "lock waits" true (contains m "lock waits: 0");
      Alcotest.(check bool) "ticks" true (contains m "ticks: ")
  | _ -> Alcotest.fail "expected analyze text");
  (* grouped query: on-demand aggregation reports the group count *)
  (match exec s "EXPLAIN ANALYZE SELECT product, COUNT( * ) FROM sales GROUP BY product" with
  | Sql.Message m ->
      Alcotest.(check bool) "aggregation plan" true (contains m "on-demand aggregation");
      Alcotest.(check bool) "groups" true (contains m "groups aggregated: 3");
      Alcotest.(check bool) "group rows" true (contains m "rows returned: 3")
  | _ -> Alcotest.fail "expected analyze text");
  (* the same query answered from a matching view counts stored groups *)
  ignore
    (exec s
       "CREATE VIEW by_product AS SELECT product, COUNT( * ) FROM sales GROUP BY product USING ESCROW");
  match exec s "EXPLAIN ANALYZE SELECT product, COUNT( * ) FROM sales GROUP BY product" with
  | Sql.Message m ->
      Alcotest.(check bool) "view plan" true
        (contains m "answered from indexed view by_product");
      Alcotest.(check bool) "stored groups" true (contains m "stored groups read: 3")
  | _ -> Alcotest.fail "expected analyze text"

let test_explain_and_probe () =
  let s = setup_sales () in
  ignore (exec s "CREATE INDEX ix_product ON sales (product)");
  (match exec s "EXPLAIN SELECT * FROM sales WHERE product = 'apple' AND qty > 3" with
  | Sql.Message m ->
      Alcotest.(check bool) "probe plan" true
        (String.length m > 0
        && String.sub m 0 11 = "index probe"
        &&
        let has_residual =
          String.split_on_char '\n' m
          |> List.exists (fun l ->
                 List.exists
                   (fun w -> w = "residual")
                   (String.split_on_char ' ' l))
        in
        has_residual)
  | _ -> Alcotest.fail "expected plan text");
  (* the probe path returns the same rows as a scan *)
  let probe = rows_of s "SELECT id FROM sales WHERE product = 'apple' AND qty > 3" in
  check Alcotest.(list (list int)) "probe rows" [ [ 3 ] ] (List.map ints probe);
  Alcotest.(check bool) "probe metric" true
    (Ivdb_util.Metrics.get (Database.metrics (Sql.db s)) "sql.index_probe" >= 1);
  (match exec s "EXPLAIN SELECT * FROM sales WHERE qty > 3" with
  | Sql.Message m ->
      Alcotest.(check bool) "scan plan" true (String.sub m 0 8 = "seq scan")
  | _ -> Alcotest.fail "expected plan text")

let test_avg_and_having () =
  let s = setup_sales () in
  let rows =
    rows_of s
      "SELECT product, AVG(qty) FROM sales GROUP BY product HAVING COUNT(*) > 1"
  in
  (* only apple has 2 rows; avg qty = 3.5 *)
  check Alcotest.int "one group" 1 (List.length rows);
  let r = List.hd rows in
  check Alcotest.string "group" "\"apple\"" (Value.to_string r.(0));
  check (Alcotest.float 1e-9) "avg" 3.5 (Value.to_float r.(1));
  (* HAVING over an aggregate not in the select list *)
  let rows =
    rows_of s "SELECT product FROM sales GROUP BY product HAVING SUM(qty) >= 7"
  in
  check Alcotest.int "two groups" 2 (List.length rows);
  (* AVG in an indexed view is rejected with the SQL Server-style hint *)
  (match
     exec s "CREATE VIEW v AS SELECT product, AVG(qty) FROM sales GROUP BY product USING ESCROW"
   with
  | exception Sql.Sql_error m ->
      Alcotest.(check bool) "helpful error" true
        (String.length m > 0 && String.exists (fun c -> c = 'S') m)
  | _ -> Alcotest.fail "AVG view should be rejected")

(* HAVING uses WHERE's three-valued logic: a NULL aggregate satisfies
   neither a comparison nor its negation. *)
let test_having_null () =
  let s = fresh () in
  ignore (exec s "CREATE TABLE t (k INT NOT NULL, g TEXT NOT NULL, x INT)");
  ignore (exec s "INSERT INTO t VALUES (1, 'a', 1), (2, 'a', 5), (3, 'b', NULL), (4, 'c', 2)");
  let groups sql = List.map (fun (r : Value.t array) -> Value.to_string r.(0)) (rows_of s sql) in
  let q h = "SELECT g, MAX(x) FROM t GROUP BY g HAVING " ^ h ^ " ORDER BY g" in
  check Alcotest.(list string) "MAX(x) < 3" [ "\"c\"" ] (groups (q "MAX(x) < 3"));
  check Alcotest.(list string) "NOT MAX(x) < 3" [ "\"a\"" ] (groups (q "NOT MAX(x) < 3"));
  check Alcotest.(list string) "MAX(x) IS NULL" [ "\"b\"" ] (groups (q "MAX(x) IS NULL"));
  check Alcotest.(list string) "WHERE agrees" [ "\"c\"" ]
    (groups "SELECT g, MAX(x) FROM t WHERE x < 3 AND g <> 'a' GROUP BY g");
  check Alcotest.(list string) "arithmetic over aggregates" [ "\"a\"" ]
    (groups (q "SUM(x) * 2 - MIN(x) > 10 OR MIN(x) = 0"))

(* A view on one engine answers projection, WHERE, ORDER BY and LIMIT
   like any relation. *)
let test_view_projection () =
  let s = fresh () in
  ignore (exec s "CREATE TABLE t (k INT NOT NULL, g TEXT NOT NULL, x INT)");
  ignore
    (exec s
       "CREATE VIEW v AS SELECT g, COUNT(*), SUM(x), MAX(x) FROM t GROUP BY g \
        USING EXCLUSIVE");
  ignore (exec s "INSERT INTO t VALUES (1, 'a', 1), (2, 'a', 5), (3, 'b', NULL), (4, 'c', 2)");
  check Alcotest.(list string) "SELECT g FROM v" [ "g" ] (header_of s "SELECT g FROM v");
  check Alcotest.(list string) "groups" [ "\"a\""; "\"b\""; "\"c\"" ]
    (List.map (fun (r : Value.t array) -> Value.to_string r.(0)) (rows_of s "SELECT g FROM v"));
  check Alcotest.(list string) "labels project" [ "max"; "g" ]
    (header_of s "SELECT max, g FROM v");
  check
    Alcotest.(list (list string))
    "WHERE, ORDER BY, LIMIT"
    [ [ "6"; "\"a\"" ] ]
    (List.map
       (fun r -> Array.to_list (Array.map Value.to_string r))
       (rows_of s "SELECT sum, g FROM v WHERE sum > 1 ORDER BY sum DESC LIMIT 1"));
  let refused sql =
    match exec s sql with
    | exception Sql.Sql_error m ->
        Alcotest.(check bool) (sql ^ ": " ^ m) false (contains m "sys.")
    | _ -> Alcotest.failf "expected an error for %s" sql
  in
  refused "SELECT g, COUNT(*) FROM v GROUP BY g";
  refused "SELECT nope FROM v";
  refused "SELECT * FROM v WHERE SUM(x) > 1"

(* An operand of the wrong type is the statement's error; the session
   and its transaction carry on. *)
let test_type_errors () =
  let s = fresh () in
  ignore (exec s "CREATE TABLE t (k INT NOT NULL, g TEXT NOT NULL, x INT)");
  ignore (exec s "INSERT INTO t VALUES (1, 'a', 1)");
  ignore (exec s "BEGIN");
  List.iter
    (fun sql ->
      (match exec s sql with
      | exception Sql.Sql_error _ -> ()
      | _ -> Alcotest.failf "expected an error for %s" sql);
      Alcotest.(check bool) (sql ^ ": txn still open") true (Sql.in_transaction s))
    ill_typed;
  ignore (exec s "COMMIT");
  check Alcotest.int "rows intact" 1 (List.length (rows_of s "SELECT * FROM t WHERE x = 1"))

(* The same predicate as HAVING over the base table and as WHERE over a
   view holding the same aggregates gives the same groups, NULL
   aggregates included: one evaluator behind both. [u] has no view, so
   its GROUP BY aggregates on demand; [v] is maintained over [t], which
   holds the same rows. *)
let gen_having_where =
  let open QCheck.Gen in
  let pair f (a, b) (c, d) = (f a c, f b d) in
  let term =
    oneofl
      [ ("SUM(x)", "sum"); ("MIN(x)", "min"); ("MAX(x)", "max"); ("COUNT(x)", "count"); ("g", "g") ]
  in
  let const = map (fun i -> (string_of_int i, string_of_int i)) (int_range (-5) 40) in
  let operand = frequency [ (3, term); (2, const); (1, return ("NULL", "NULL")) ] in
  let arith =
    frequency [ (3, operand); (1, map2 (pair (Printf.sprintf "%s + %s")) operand operand) ]
  in
  let cmp =
    oneofl [ "<"; "<="; "="; "<>"; ">"; ">=" ] >>= fun op ->
    map2 (pair (fun a b -> Printf.sprintf "%s %s %s" a op b)) arith arith
  in
  let atom =
    frequency
      [ (4, cmp); (1, map (fun (a, b) -> (a ^ " IS NULL", b ^ " IS NULL")) term) ]
  in
  fix
    (fun self n ->
      if n = 0 then atom
      else
        frequency
          [
            (3, atom);
            (1, map (fun (a, b) -> ("NOT (" ^ a ^ ")", "NOT (" ^ b ^ ")")) (self (n - 1)));
            ( 2,
              oneofl [ "AND"; "OR" ] >>= fun op ->
              map2
                (pair (fun a b -> Printf.sprintf "(%s %s %s)" a op b))
                (self (n - 1)) (self (n - 1)) );
          ])
    3

let gen_null_rows =
  let open QCheck.Gen in
  list_size (int_bound 24)
    (triple (int_bound 3) (opt ~ratio:0.7 (int_range (-5) 20)) bool)

let prop_having_matches_view =
  QCheck.Test.make ~name:"GROUP BY ... HAVING p = SELECT * FROM view WHERE p" ~count:300
    (QCheck.make
       ~print:(fun (rows, (h, w)) ->
         Printf.sprintf "%d rows; HAVING %s; WHERE %s" (List.length rows) h w)
       QCheck.Gen.(pair gen_null_rows gen_having_where))
    (fun (rows, (having, where)) ->
      let s = fresh () in
      let aggs = "g, COUNT(*), COUNT(x), SUM(x), MIN(x), MAX(x)" in
      List.iter
        (fun sql -> ignore (exec s sql))
        [
          "CREATE TABLE t (k INT NOT NULL, g INT NOT NULL, x INT)";
          "CREATE TABLE u (k INT NOT NULL, g INT NOT NULL, x INT)";
          "CREATE VIEW v AS SELECT " ^ aggs ^ " FROM t GROUP BY g USING EXCLUSIVE";
        ];
      List.iteri
        (fun k (g, x, _) ->
          let x = Option.fold ~none:"NULL" ~some:string_of_int x in
          List.iter
            (fun tbl ->
              ignore (exec s (Printf.sprintf "INSERT INTO %s VALUES (%d, %d, %s)" tbl k g x)))
            [ "t"; "u" ])
        rows;
      (* a deleted row exercises MIN/MAX retirement in the view *)
      List.iteri
        (fun k (_, _, gone) ->
          if gone then
            List.iter
              (fun tbl -> ignore (exec s (Printf.sprintf "DELETE FROM %s WHERE k = %d" tbl k)))
              [ "t"; "u" ])
        rows;
      let base =
        Sql.render
          (exec s
             (Printf.sprintf "SELECT %s FROM u GROUP BY g HAVING %s ORDER BY g" aggs having))
      in
      let view =
        Sql.render (exec s (Printf.sprintf "SELECT * FROM v WHERE %s ORDER BY g" where))
      in
      if base <> view then
        QCheck.Test.fail_reportf "HAVING gave\n%s\nthe view gave\n%s" base view;
      true)

let test_division () =
  let s = setup_sales () in
  let rows = rows_of s "SELECT id FROM sales WHERE qty * 2 > 17 ORDER BY id" in
  check Alcotest.(list (list int)) "filter with mul" [ [ 4 ] ] (List.map ints rows);
  (* division by zero yields NULL, which fails the predicate *)
  let rows = rows_of s "SELECT id FROM sales WHERE qty / 0 > 0" in
  check Alcotest.int "div by zero rows" 0 (List.length rows)

let test_sql_savepoints () =
  let s = setup_sales () in
  ignore (exec s "BEGIN");
  ignore (exec s "INSERT INTO sales VALUES (20, 'kiwi', 1)");
  ignore (exec s "SAVEPOINT leg1");
  ignore (exec s "INSERT INTO sales VALUES (21, 'kiwi', 2)");
  ignore (exec s "SAVEPOINT leg2");
  ignore (exec s "INSERT INTO sales VALUES (22, 'kiwi', 3)");
  ignore (exec s "ROLLBACK TO leg2");
  ignore (exec s "INSERT INTO sales VALUES (23, 'kiwi', 4)");
  ignore (exec s "ROLLBACK TO leg1");
  ignore (exec s "COMMIT");
  let rows = rows_of s "SELECT id FROM sales WHERE product = 'kiwi'" in
  check Alcotest.(list (list int)) "only pre-savepoint survives" [ [ 20 ] ]
    (List.map ints rows);
  (* savepoint without txn fails *)
  match exec s "SAVEPOINT nope" with
  | exception Sql.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected error"

(* A write statement that fails inside BEGIN leaves nothing behind, not
   even the rows it wrote before failing, and the statements before it
   survive COMMIT. *)
let test_statement_atomic_in_txn () =
  let s = fresh () in
  List.iter
    (fun q -> ignore (exec s q))
    [
      "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)";
      "CREATE UNIQUE INDEX t_id ON t (id)";
      "CREATE VIEW tv AS SELECT v, COUNT(*), SUM(id) FROM t GROUP BY v USING ESCROW";
      "INSERT INTO t VALUES (1, 10), (2, 20)";
      "BEGIN";
      "INSERT INTO t VALUES (5, 50)";
    ];
  let fails sql =
    match exec s sql with
    | exception (Database.Constraint_violation _ | Sql.Sql_error _) -> ()
    | _ -> Alcotest.failf "expected %S to fail" sql
  in
  fails "INSERT INTO t VALUES (3, 30), (2, 40)";
  fails "UPDATE t SET id = 2 WHERE id = 1";
  Alcotest.(check bool) "transaction still open" true (Sql.in_transaction s);
  ignore (exec s "COMMIT");
  check
    Alcotest.(list (list int))
    "only the statements that succeeded" [ [ 1; 10 ]; [ 2; 20 ]; [ 5; 50 ] ]
    (List.map ints (rows_of s "SELECT id, v FROM t ORDER BY id"));
  check Alcotest.int "one id-2 row through the index" 1
    (List.length (rows_of s "SELECT * FROM t WHERE id = 2"));
  Alcotest.(check bool) "view matches the base" true
    (Ivdb.Workload.check_consistency (Sql.db s) (Database.view (Sql.db s) "tv"))

let test_unique_index_sql () =
  let s = setup_sales () in
  ignore (exec s "CREATE UNIQUE INDEX pk ON sales (id)");
  (match exec s "INSERT INTO sales VALUES (1, 'dup', 1)" with
  | exception Sql.Sql_error _ -> Alcotest.fail "should be Constraint_violation"
  | exception Database.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  (* non-duplicates still insert *)
  ignore (exec s "INSERT INTO sales VALUES (99, 'ok', 1)");
  check Alcotest.int "row count" 5
    (List.length (rows_of s "SELECT id FROM sales"))

(* A DDL statement that fails part-way ends its system transaction: none
   stays active, the next checkpoint truncates the log past the
   statement's records, and a restart after later committed work
   recovers every row. *)
let test_failed_ddl_leaves_nothing () =
  List.iter
    (fun ddl ->
      let s = fresh () in
      ignore (exec s "CREATE TABLE t (g INT NOT NULL, s TEXT)");
      ignore (exec s "INSERT INTO t VALUES (1, 'x'), (1, 'y')");
      (match exec s ddl with
      | exception Sql.Sql_error _ -> ()
      | _ -> Alcotest.failf "%s succeeded" ddl);
      let wal col =
        match rows_of s ("SELECT " ^ col ^ " FROM sys.wal") with
        | [ [| v |] ] -> Value.to_int v
        | _ -> Alcotest.fail "sys.wal: one row"
      in
      let failed_upto = wal "last_lsn" in
      check Alcotest.int (ddl ^ ": no active transaction") 0
        (List.length (rows_of s "SELECT txn FROM sys.transactions WHERE state = 'active'"));
      ignore (exec s "INSERT INTO t VALUES (2, 'z')");
      ignore (exec s "CHECKPOINT");
      Alcotest.(check bool) (ddl ^ ": log truncated past it") true
        (wal "first_lsn" > failed_upto);
      let s' = Sql.session (Database.crash (Sql.db s)) in
      check Alcotest.int (ddl ^ ": rows recovered") 3
        (List.length (rows_of s' "SELECT * FROM t")))
    [
      "CREATE UNIQUE INDEX t_g ON t (g)";
      "CREATE VIEW v AS SELECT g, SUM(s) FROM t GROUP BY g";
    ]

(* Tables, indexes and views share one namespace: a second object under a
   used name is refused, so no column gets two trees and no table shadows
   a view. *)
let test_one_namespace () =
  let s = fresh () in
  ignore (exec s "CREATE TABLE t (k INT NOT NULL, g INT NOT NULL)");
  ignore (exec s "CREATE INDEX ix ON t (k)");
  ignore (exec s "CREATE VIEW v AS SELECT g, COUNT(*) FROM t GROUP BY g");
  let refused s sql =
    match exec s sql with
    | exception Sql.Sql_error m ->
        check Alcotest.bool (sql ^ ": names the clash") true
          (List.exists (fun n -> m = Printf.sprintf "name %s is already in use" n) [ "t"; "ix"; "v" ])
    | _ -> Alcotest.failf "%s succeeded" sql
  in
  List.iter (refused s)
    [
      "CREATE INDEX ix ON t (k)";
      "CREATE INDEX ix ON t (g)";
      "CREATE TABLE v (k INT NOT NULL)";
      "CREATE TABLE t (k INT NOT NULL)";
      "CREATE TABLE ix (k INT NOT NULL)";
      "CREATE INDEX v ON t (g)";
      "CREATE VIEW t AS SELECT g, COUNT(*) FROM t GROUP BY g";
      "CREATE VIEW ix AS SELECT g, COUNT(*) FROM t GROUP BY g";
    ];
  let db = Sql.db s in
  check Alcotest.(list (pair string string)) "one tree on k" [ ("k", "ix") ]
    (Database.indexed_columns db (Database.table db "t"));
  ignore (exec s "INSERT INTO t VALUES (1, 7), (2, 7)");
  check Alcotest.(list (list int)) "v is the view" [ [ 7; 2 ] ]
    (List.map ints (rows_of s "SELECT * FROM v"));
  (* restart rebuilds the same namespace *)
  let s' = Sql.session (Database.crash db) in
  List.iter (refused s') [ "CREATE INDEX ix ON t (k)"; "CREATE TABLE v (k INT NOT NULL)" ]

let test_view_matching () =
  let s = setup_sales () in
  ignore
    (exec s
       "CREATE VIEW by_product AS SELECT product, COUNT(*), SUM(qty) FROM sales         GROUP BY product USING ESCROW");
  let plan sql =
    match exec s ("EXPLAIN " ^ sql) with
    | Sql.Message m -> m
    | _ -> Alcotest.fail "plan"
  in
  let matched sql =
    String.length (plan sql) >= 8 && String.sub (plan sql) 0 8 = "answered"
  in
  (* exact match: answered from the view *)
  Alcotest.(check bool) "sum matches" true
    (matched "SELECT product, SUM(qty) FROM sales GROUP BY product");
  Alcotest.(check bool) "count(*) matches" true
    (matched "SELECT product, COUNT(*) FROM sales GROUP BY product");
  (* different grouping or underivable aggregate: fall back *)
  Alcotest.(check bool) "different group no match" false
    (matched "SELECT id, COUNT(*) FROM sales GROUP BY id");
  Alcotest.(check bool) "min no match" false
    (matched "SELECT product, MIN(qty) FROM sales GROUP BY product");
  (* results agree between the two paths *)
  let from_view = rows_of s "SELECT product, SUM(qty) FROM sales GROUP BY product" in
  let m0 = Ivdb_util.Metrics.get (Database.metrics (Sql.db s)) "sql.view_match" in
  Alcotest.(check bool) "match metric" true (m0 >= 1);
  let adhoc = rows_of s "SELECT product, MIN(qty), SUM(qty) FROM sales GROUP BY product" in
  List.iter2
    (fun v a ->
      check Alcotest.string "group agrees" (Value.to_string v.(0)) (Value.to_string a.(0));
      check Alcotest.int "sum agrees" (Value.to_int v.(1)) (Value.to_int a.(2)))
    from_view adhoc

let test_index_range_plan () =
  let s = setup_sales () in
  ignore (exec s "CREATE INDEX ix_qty ON sales (qty)");
  (match exec s "EXPLAIN SELECT id FROM sales WHERE qty > 2 AND qty <= 4" with
  | Sql.Message m ->
      Alcotest.(check bool) "range plan" true
        (String.length m >= 16 && String.sub m 0 16 = "index range scan")
  | _ -> Alcotest.fail "plan");
  let rows = rows_of s "SELECT id FROM sales WHERE qty > 2 AND qty <= 4 ORDER BY id" in
  check Alcotest.(list (list int)) "range rows" [ [ 1 ]; [ 3 ] ] (List.map ints rows);
  Alcotest.(check bool) "metric" true
    (Ivdb_util.Metrics.get (Database.metrics (Sql.db s)) "sql.index_range" >= 1)

let test_render () =
  let s = setup_sales () in
  let out = Sql.render (exec s "SELECT id FROM sales ORDER BY id LIMIT 2") in
  Alcotest.(check bool) "contains rows" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.exists (fun l -> String.trim l = "1"))

let test_order_by_index () =
  let s = setup_sales () in
  ignore (exec s "CREATE INDEX ix_qty ON sales (qty)");
  (match exec s "EXPLAIN SELECT qty FROM sales WHERE qty > 0 ORDER BY qty" with
  | Sql.Message m ->
      Alcotest.(check bool) "order satisfied by index" true
        (String.split_on_char '\n' m
        |> List.exists (fun l ->
               String.length l >= 8 && String.sub l 0 8 = "order by"))
  | _ -> Alcotest.fail "plan");
  let rows = rows_of s "SELECT qty FROM sales WHERE qty > 0 ORDER BY qty" in
  check Alcotest.(list (list int)) "index order" [ [ 2 ]; [ 3 ]; [ 4 ]; [ 9 ] ]
    (List.map ints rows)

let test_concurrent_sessions () =
  (* two SQL sessions on one database, interleaved by the scheduler:
     serializable isolation shows through the SQL surface *)
  let db = Database.create ~config () in
  let mk () = Sql.session db in
  let boot = mk () in
  ignore (exec boot "CREATE TABLE accts (id INT NOT NULL, bal INT NOT NULL)");
  ignore (exec boot "CREATE INDEX ix ON accts (id)");
  ignore (exec boot "INSERT INTO accts VALUES (1, 100), (2, 100)");
  let trace = ref [] in
  Ivdb_sched.Sched.run ~policy:Ivdb_sched.Sched.Fifo (fun () ->
      ignore
        (Ivdb_sched.Sched.spawn (fun () ->
             let s1 = mk () in
             ignore (exec s1 "BEGIN");
             ignore (exec s1 "UPDATE accts SET bal = bal - 10 WHERE id = 1");
             trace := `S1_updated :: !trace;
             Ivdb_sched.Sched.yield ();
             Ivdb_sched.Sched.yield ();
             ignore (exec s1 "COMMIT");
             trace := `S1_committed :: !trace));
      ignore
        (Ivdb_sched.Sched.spawn (fun () ->
             Ivdb_sched.Sched.yield ();
             let s2 = mk () in
             ignore (exec s2 "BEGIN");
             (* serializable read of the row s1 is updating: blocks *)
             let rows = rows_of s2 "SELECT bal FROM accts WHERE id = 1" in
             trace := `S2_read (Value.to_int (List.hd rows).(0)) :: !trace;
             ignore (exec s2 "COMMIT"))));
  (match List.rev !trace with
  | [ `S1_updated; `S1_committed; `S2_read v ] ->
      check Alcotest.int "reader saw committed value" 90 v
  | _ -> Alcotest.fail "unexpected interleaving")

(* --- point DML through the planner ------------------------------------------- *)

module Sched = Ivdb_sched.Sched
module Txn = Ivdb_txn.Txn

let metric s name = Ivdb_util.Metrics.get (Database.metrics (Sql.db s)) name

let setup_ids ?(index = "CREATE UNIQUE INDEX t_id ON t (id)") n =
  let s = fresh () in
  ignore (exec s "CREATE TABLE t (id INT NOT NULL, qty INT NOT NULL)");
  ignore (exec s index);
  ignore
    (exec s
       ("INSERT INTO t VALUES "
       ^ String.concat ", "
           (List.init n (fun i -> Printf.sprintf "(%d, %d)" (i + 1) (i + 1)))));
  s

(* Two sessions each add 1 to rows k = a and k = b in one transaction, in
   opposite orders, yielding between the two UPDATEs; deadlock victims
   retry. Returns the final (k, qty) rows and every UPDATE's count. *)
let increment_both ~indexed ~seed =
  let db = Database.create ~config () in
  let boot = Sql.session db in
  ignore (exec boot "CREATE TABLE t (k INT NOT NULL, qty INT NOT NULL)");
  if indexed then ignore (exec boot "CREATE INDEX t_k ON t (k)");
  ignore (exec boot "INSERT INTO t VALUES (1, 0), (2, 0)");
  let counts = ref [] in
  Sched.run ~seed (fun () ->
      let wait, _ =
        Sched.spawn_group 2 (fun w ->
            let a, b = if w = 1 then (1, 2) else (2, 1) in
            let s = Sql.session db in
            let bump k =
              affected s (Printf.sprintf "UPDATE t SET qty = qty + 1 WHERE k = %d" k)
            in
            let rec attempt () =
              match
                ignore (exec s "BEGIN");
                let n1 = bump a in
                Sched.yield ();
                let n2 = bump b in
                ignore (exec s "COMMIT");
                [ n1; n2 ]
              with
              | ns -> counts := ns @ !counts
              | exception Txn.Conflict _ ->
                  ignore (exec s "ROLLBACK");
                  attempt ()
            in
            attempt ())
      in
      wait ());
  (List.map ints (rows_of boot "SELECT k, qty FROM t ORDER BY k"), !counts)

(* Regression: an UPDATE that waited on a row another UPDATE moved to a new
   rid used to wake on the empty old slot, affect 0 rows and lose the
   increment — with the index (probe) and without it (scan). *)
let test_no_lost_update () =
  List.iter
    (fun indexed ->
      for seed = 1 to 20 do
        let final, counts = increment_both ~indexed ~seed in
        let what = Printf.sprintf "%s, seed %d" (if indexed then "index" else "scan") seed in
        check Alcotest.(list (list int)) ("both increments land: " ^ what)
          [ [ 1; 2 ]; [ 2; 2 ] ] final;
        check Alcotest.(list int) ("every UPDATE hits its row: " ^ what)
          [ 1; 1; 1; 1 ] counts
      done)
    [ true; false ]

(* A point UPDATE or DELETE on an indexed column locks only its key and
   gap, so it runs past another session's uncommitted write to a
   different row instead of waiting for it. *)
let test_point_dml_does_not_wait () =
  let s0 = setup_ids 10 in
  let db = Sql.db s0 in
  let waits0 = metric s0 "lock.wait" in
  let trace = ref [] in
  Sched.run ~policy:Sched.Fifo (fun () ->
      ignore
        (Sched.spawn (fun () ->
             let a = Sql.session db in
             ignore (exec a "BEGIN");
             ignore (exec a "UPDATE t SET qty = 0 WHERE id = 8");
             trace := `A_wrote :: !trace;
             for _ = 1 to 5 do
               Sched.yield ()
             done;
             ignore (exec a "COMMIT");
             trace := `A_committed :: !trace));
      ignore
        (Sched.spawn (fun () ->
             Sched.yield ();
             let b = Sql.session db in
             check Alcotest.int "update" 1
               (affected b "UPDATE t SET qty = qty + 10 WHERE id = 2");
             check Alcotest.int "delete" 1 (affected b "DELETE FROM t WHERE id = 4");
             trace := `B_done :: !trace)));
  Alcotest.(check bool) "B finished while A held its locks" true
    (List.rev !trace = [ `A_wrote; `B_done; `A_committed ]);
  check Alcotest.int "no lock waits" 0 (metric s0 "lock.wait" - waits0);
  check Alcotest.(list (list int)) "final"
    [ [ 1; 1 ]; [ 2; 12 ]; [ 3; 3 ]; [ 5; 5 ]; [ 6; 6 ];
      [ 7; 7 ]; [ 8; 0 ]; [ 9; 9 ]; [ 10; 10 ] ]
    (List.map ints (rows_of s0 "SELECT id, qty FROM t ORDER BY id"))

let test_point_dml_residual () =
  let s = setup_ids 6 in
  let probes0 = metric s "sql.index_probe" in
  check Alcotest.int "residual rejects" 0
    (affected s "UPDATE t SET qty = 0 WHERE id = 2 AND qty > 3");
  check Alcotest.int "residual accepts" 1
    (affected s "UPDATE t SET qty = 0 WHERE id = 5 AND qty > 3");
  check Alcotest.int "delete residual rejects" 0
    (affected s "DELETE FROM t WHERE id = 3 AND qty < 3");
  check Alcotest.int "delete residual accepts" 1
    (affected s "DELETE FROM t WHERE qty > 3 AND id = 4");
  check Alcotest.int "each statement probed" 4 (metric s "sql.index_probe" - probes0);
  check Alcotest.(list (list int)) "rows"
    [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ]; [ 5; 0 ]; [ 6; 6 ] ]
    (List.map ints (rows_of s "SELECT id, qty FROM t ORDER BY id"))

(* Victims are collected before the first write: rows moved into the
   range being read are not updated again. *)
let test_range_update_once () =
  List.iter
    (fun index ->
      let s = setup_ids ~index 10 in
      let ranges0 = metric s "sql.index_range" in
      check Alcotest.int "affected" 5 (affected s "UPDATE t SET id = id + 100 WHERE id > 5");
      check Alcotest.int "range counted" 1 (metric s "sql.index_range" - ranges0);
      check Alcotest.(list (list int)) ("ids: " ^ index)
        [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 106 ]; [ 107 ]; [ 108 ]; [ 109 ]; [ 110 ] ]
        (List.map ints (rows_of s "SELECT id FROM t ORDER BY id"));
      check Alcotest.int "range delete" 5 (affected s "DELETE FROM t WHERE id >= 100");
      check Alcotest.int "rows left" 5 (List.length (rows_of s "SELECT id FROM t")))
    [ "CREATE UNIQUE INDEX t_id ON t (id)"; "CREATE INDEX t_id ON t (id)" ]

let test_explain_write () =
  let s = setup_ids 10 in
  let plan sql = match exec s sql with Sql.Message m -> m | _ -> Alcotest.fail "plan" in
  check Alcotest.string "update probe" "index probe on t.id via t_id (= 7)"
    (plan "EXPLAIN UPDATE t SET qty = 1 WHERE id = 7");
  check Alcotest.string "delete residual"
    "index probe on t.id via t_id (= 7) with residual filter"
    (plan "EXPLAIN DELETE FROM t WHERE id = 7 AND qty > 1");
  check Alcotest.string "update range"
    "index range scan on t.id via t_id [5 exclusive .. unbounded]"
    (plan "EXPLAIN UPDATE t SET id = id + 100 WHERE id > 5");
  check Alcotest.string "delete scan" "seq scan on t with filter"
    (plan "EXPLAIN DELETE FROM t WHERE qty = 3");
  check Alcotest.string "delete all" "seq scan on t" (plan "EXPLAIN DELETE FROM t");
  check Alcotest.string "select agrees" (plan "EXPLAIN SELECT * FROM t WHERE id = 7")
    (plan "EXPLAIN UPDATE t SET qty = 1 WHERE id = 7");
  check Alcotest.int "nothing written" 10 (List.length (rows_of s "SELECT id FROM t"));
  Alcotest.(check bool) "unknown table" true
    (try
       ignore (exec s "EXPLAIN DELETE FROM nope");
       false
     with Sql.Sql_error _ -> true)

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer;
          Alcotest.test_case "malformed numbers" `Quick test_malformed_numbers;
          qtest prop_lexer_matches_oracle;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select" `Quick test_parse_select;
          Alcotest.test_case "bool precedence" `Quick test_parse_precedence;
          Alcotest.test_case "arith precedence" `Quick test_parse_arith_precedence;
          Alcotest.test_case "create view" `Quick test_parse_view;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "nesting depth is bounded" `Quick test_parse_depth;
          Alcotest.test_case "mutation corpus parses" `Quick test_corpus_parses;
          qtest prop_parse_errors_only;
        ] );
      ( "execution",
        [
          Alcotest.test_case "select/where/order/limit" `Quick
            test_select_where_order_limit;
          Alcotest.test_case "select * header" `Quick test_select_star_header;
          Alcotest.test_case "ad-hoc group by" `Quick test_group_by_adhoc;
          Alcotest.test_case "indexed view" `Quick test_indexed_view_via_sql;
          Alcotest.test_case "update maintains view" `Quick test_update_maintains_view;
          Alcotest.test_case "delete with view" `Quick test_delete_with_view;
          Alcotest.test_case "txn control" `Quick test_txn_control;
          Alcotest.test_case "deferred view" `Quick test_deferred_view_sql;
          Alcotest.test_case "join aggregate" `Quick test_join_select;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "show/metrics" `Quick test_show_and_metrics;
          Alcotest.test_case "explain + index probe" `Quick test_explain_and_probe;
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
          Alcotest.test_case "avg + having" `Quick test_avg_and_having;
          Alcotest.test_case "having follows WHERE's NULL rules" `Quick test_having_null;
          Alcotest.test_case "view projection" `Quick test_view_projection;
          Alcotest.test_case "ill-typed expressions are errors" `Quick test_type_errors;
          qtest prop_having_matches_view;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "savepoints" `Quick test_sql_savepoints;
          Alcotest.test_case "unique index" `Quick test_unique_index_sql;
          Alcotest.test_case "failed DDL leaves nothing" `Quick
            test_failed_ddl_leaves_nothing;
          Alcotest.test_case "one namespace" `Quick test_one_namespace;
          Alcotest.test_case "statement atomic in txn" `Quick
            test_statement_atomic_in_txn;
          Alcotest.test_case "view matching" `Quick test_view_matching;
          Alcotest.test_case "index range plan" `Quick test_index_range_plan;
          Alcotest.test_case "concurrent sessions" `Quick test_concurrent_sessions;
          Alcotest.test_case "order by index" `Quick test_order_by_index;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "point dml",
        [
          Alcotest.test_case "no lost update" `Quick test_no_lost_update;
          Alcotest.test_case "does not wait on other rows" `Quick
            test_point_dml_does_not_wait;
          Alcotest.test_case "residual conjuncts" `Quick test_point_dml_residual;
          Alcotest.test_case "range update writes each row once" `Quick
            test_range_update_once;
          Alcotest.test_case "explain update/delete" `Quick test_explain_write;
        ] );
    ]
