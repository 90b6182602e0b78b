module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Row = Ivdb_relation.Row
module Key_codec = Ivdb_relation.Key_codec
module Expr = Ivdb_relation.Expr

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Value --------------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (Value.Int min_int) < 0);
  Alcotest.(check bool) "int/float mix" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.check_raises "cross-type"
    (Value.Type_error "cannot compare values of different types")
    (fun () -> ignore (Value.compare (Value.Int 1) (Value.Str "x")))

let test_value_arith () =
  check Alcotest.int "int add" 7 (Value.to_int (Value.add (Value.Int 3) (Value.Int 4)));
  Alcotest.(check bool) "null absorbs" true (Value.add Value.Null (Value.Int 1) = Value.Null);
  check (Alcotest.float 1e-9) "mixed add" 4.5 (Value.to_float (Value.add (Value.Int 2) (Value.Float 2.5)));
  check Alcotest.int "neg" (-3) (Value.to_int (Value.neg (Value.Int 3)))

(* --- Schema -------------------------------------------------------------- *)

let sample_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.TInt; nullable = false };
      { Schema.name = "name"; ty = Value.TStr; nullable = false };
      { Schema.name = "score"; ty = Value.TFloat; nullable = true };
    ]

let test_schema_basic () =
  check Alcotest.int "arity" 3 (Array.length (Schema.cols sample_schema));
  check Alcotest.int "index_of" 1 (Schema.index_of sample_schema "name");
  Alcotest.check_raises "dup column" (Invalid_argument "Schema.make: duplicate column a")
    (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "a"; ty = Value.TInt; nullable = false };
             { Schema.name = "a"; ty = Value.TInt; nullable = false };
           ]))

let test_schema_validate () =
  let ok = Schema.validate sample_schema [| Value.Int 1; Value.Str "x"; Value.Null |] in
  Alcotest.(check bool) "valid row" true (ok = Ok ());
  let bad_null = Schema.validate sample_schema [| Value.Null; Value.Str "x"; Value.Null |] in
  Alcotest.(check bool) "null rejected" true (Result.is_error bad_null);
  let bad_ty = Schema.validate sample_schema [| Value.Int 1; Value.Int 2; Value.Null |] in
  Alcotest.(check bool) "type rejected" true (Result.is_error bad_ty);
  let bad_arity = Schema.validate sample_schema [| Value.Int 1 |] in
  Alcotest.(check bool) "arity rejected" true (Result.is_error bad_arity)

let test_schema_concat_renames () =
  let s2 =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.TInt; nullable = false };
        { Schema.name = "qty"; ty = Value.TInt; nullable = false };
      ]
  in
  let j = Schema.concat sample_schema s2 in
  check Alcotest.int "arity" 5 (Array.length (Schema.cols j));
  check Alcotest.int "renamed right id" 3 (Schema.index_of j "r.id")

(* --- Row codec ------------------------------------------------------------ *)

(* Each integer width's boundaries and their neighbours. *)
let int_edges =
  List.concat_map
    (fun b -> [ b - 1; b; b + 1; -b - 1; -b; -b + 1 ])
    [ 0; 127; 128; 32_767; 32_768; 1 lsl 31; (1 lsl 31) - 1 ]
  @ [ min_int; min_int + 1; max_int; max_int - 1 ]

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) small_signed_int;
        map (fun i -> Value.Int i) (oneofl int_edges);
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e6);
        map (fun s -> Value.Str s) (string_size (int_bound 40));
        map (fun b -> Value.Bool b) bool;
        return Value.Null;
      ])

let row_gen = QCheck.Gen.(map Array.of_list (list_size (int_bound 8) value_gen))

let show_row r = "[" ^ String.concat "; " (Array.to_list (Array.map Value.to_string r)) ^ "]"
let row_arb = QCheck.make ~print:show_row row_gen

let prop_row_roundtrip =
  QCheck.Test.make ~name:"row encode/decode roundtrip" ~count:500 row_arb
    (fun row -> Row.equal row (Row.decode (Row.encode row)))

let test_row_project () =
  let r = [| Value.Int 1; Value.Str "a"; Value.Bool true |] in
  Alcotest.(check bool) "projection" true
    (Row.equal (Row.project r [| 2; 0 |]) [| Value.Bool true; Value.Int 1 |])

let prop_row_canonical =
  QCheck.Test.make ~name:"row encoding is canonical" ~count:500 row_arb (fun row ->
      let s = Row.encode row in
      Row.encode (Row.decode s) = s)

(* An integer cell takes the narrowest of 1, 2, 4 or 8 bytes. *)
let test_row_int_widths () =
  List.iter
    (fun (v, bytes) ->
      check Alcotest.int (Printf.sprintf "%d" v) (2 + 1 + bytes)
        (String.length (Row.encode [| Value.Int v |])))
    [
      (0, 1); (127, 1); (-128, 1); (128, 2); (-129, 2); (32_767, 2); (-32_768, 2);
      (32_768, 4); (-32_769, 4); ((1 lsl 31) - 1, 4); (-(1 lsl 31), 4);
      (1 lsl 31, 8); (-(1 lsl 31) - 1, 8); (max_int, 8); (min_int, 8);
    ]

let test_row_decode_garbage () =
  let malformed what s =
    Alcotest.check_raises what (Invalid_argument "Row.decode: malformed row") (fun () ->
        ignore (Row.decode s))
  in
  malformed "garbage" "\001\002zzz";
  let s = Row.encode [| Value.Int 300; Value.Str "ab"; Value.Float 1.5 |] in
  for n = 0 to String.length s - 1 do
    malformed (Printf.sprintf "truncated to %d" n) (String.sub s 0 n)
  done;
  malformed "trailing byte" (s ^ "\000");
  malformed "unknown tag" "\000\001i\000\000\000\000\000\000\000\005";
  malformed "5 in two bytes" "\000\0012\000\005";
  malformed "-1 in four bytes" "\000\0014\255\255\255\255";
  malformed "300 in eight bytes" "\000\0018\000\000\000\000\000\000\001\044";
  malformed "past the int range" "\000\0018\127\255\255\255\255\255\255\255";
  malformed "bool byte 2" "\000\001b\002"

(* --- Key codec ------------------------------------------------------------ *)

(* rows with matching cell types per position, as schemas guarantee *)
let typed_pair_gen =
  QCheck.Gen.(
    let cell_pair =
      oneof
        [
          map2 (fun a b -> (Value.Int a, Value.Int b)) small_signed_int small_signed_int;
          map2
            (fun a b -> (Value.Float a, Value.Float b))
            (float_bound_inclusive 1e6) (float_bound_inclusive 1e6);
          map2
            (fun a b -> (Value.Str a, Value.Str b))
            (string_size (int_bound 20))
            (string_size (int_bound 20));
          map2 (fun a b -> (Value.Bool a, Value.Bool b)) bool bool;
          return (Value.Null, Value.Null);
        ]
    in
    map
      (fun l -> (Array.of_list (List.map fst l), Array.of_list (List.map snd l)))
      (list_size (int_range 1 5) cell_pair))

let typed_pair_arb =
  QCheck.make
    ~print:(fun (a, b) -> show_row a ^ " / " ^ show_row b)
    typed_pair_gen

let sign x = if x < 0 then -1 else if x > 0 then 1 else 0

(* The order keys must keep: lexicographic by [Value.compare], a shorter
   prefix first. *)
let row_compare a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let prop_key_order_preserving =
  QCheck.Test.make ~name:"key encoding preserves order" ~count:1000 typed_pair_arb
    (fun (a, b) ->
      sign (String.compare (Key_codec.encode a) (Key_codec.encode b))
      = sign (row_compare a b))

let prop_key_roundtrip =
  QCheck.Test.make ~name:"key encode/decode roundtrip" ~count:500 typed_pair_arb
    (fun (a, _) -> Row.equal a (Key_codec.decode (Key_codec.encode a)))

let test_key_nul_strings () =
  let a = [| Value.Str "a\000b" |] and b = [| Value.Str "a\000c" |] in
  Alcotest.(check bool) "embedded NUL ordering" true
    (String.compare (Key_codec.encode a) (Key_codec.encode b) < 0);
  Alcotest.(check bool) "roundtrip" true
    (Row.equal a (Key_codec.decode (Key_codec.encode a)))

let test_key_prefix_vs_longer () =
  (* "ab" < "ab\000" in value space; encoding must agree *)
  let a = [| Value.Str "ab" |] and b = [| Value.Str "ab\000" |] in
  Alcotest.(check bool) "prefix sorts first" true
    (String.compare (Key_codec.encode a) (Key_codec.encode b) < 0)

let test_key_successor () =
  let k = Key_codec.encode [| Value.Int 5 |] in
  let s = Key_codec.successor k in
  Alcotest.(check bool) "successor greater" true (String.compare s k > 0);
  let k6 = Key_codec.encode [| Value.Int 6 |] in
  Alcotest.(check bool) "successor below next int" true (String.compare s k6 <= 0)

(* --- Expr ------------------------------------------------------------------ *)

let row = [| Value.Int 10; Value.Str "abc"; Value.Float 2.5; Value.Null |]

let test_expr_eval_arith () =
  let e = Expr.Add (Expr.Col 0, Expr.Mul (Expr.int 2, Expr.int 3)) in
  check Alcotest.int "10+2*3" 16 (Value.to_int (Expr.eval e row))

let test_expr_cmp_and_3vl () =
  let lt = Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.int 20) in
  Alcotest.(check bool) "10<20" true (Expr.eval_bool lt row);
  let with_null = Expr.Cmp (Expr.Eq, Expr.Col 3, Expr.int 1) in
  Alcotest.(check bool) "NULL = 1 is not true" false (Expr.eval_bool with_null row);
  let or_true = Expr.Or (with_null, Expr.bool true) in
  Alcotest.(check bool) "NULL OR true" true (Expr.eval_bool or_true row);
  let and_null = Expr.And (with_null, Expr.bool true) in
  Alcotest.(check bool) "NULL AND true not true" false (Expr.eval_bool and_null row);
  let isn = Expr.Is_null (Expr.Col 3) in
  Alcotest.(check bool) "is null" true (Expr.eval_bool isn row)

let test_expr_col_by_name () =
  let e = Expr.col sample_schema "score" in
  check (Alcotest.float 1e-9) "resolved" 2.5 (Value.to_float (Expr.eval e row))

let () =
  Alcotest.run "relation"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "arith" `Quick test_value_arith;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "validate" `Quick test_schema_validate;
          Alcotest.test_case "concat renames" `Quick test_schema_concat_renames;
        ] );
      ( "row",
        [
          qtest prop_row_roundtrip;
          qtest prop_row_canonical;
          Alcotest.test_case "int widths" `Quick test_row_int_widths;
          Alcotest.test_case "project" `Quick test_row_project;
          Alcotest.test_case "decode garbage" `Quick test_row_decode_garbage;
        ] );
      ( "key-codec",
        [
          qtest prop_key_order_preserving;
          qtest prop_key_roundtrip;
          Alcotest.test_case "NUL strings" `Quick test_key_nul_strings;
          Alcotest.test_case "prefix order" `Quick test_key_prefix_vs_longer;
          Alcotest.test_case "successor" `Quick test_key_successor;
        ] );
      ( "expr",
        [
          Alcotest.test_case "arith" `Quick test_expr_eval_arith;
          Alcotest.test_case "3VL" `Quick test_expr_cmp_and_3vl;
          Alcotest.test_case "col by name" `Quick test_expr_col_by_name;
        ] );
    ]
