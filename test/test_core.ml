(* Unit tests for the core aggregate delta algebra, view definitions and
   the in-flight delta registry — the paper's arithmetic, isolated. *)

module View_def = Ivdb_core.View_def
module Aggregate = Ivdb_core.Aggregate
module Inflight = Ivdb_core.Inflight
module Value = Ivdb_relation.Value
module Expr = Ivdb_relation.Expr
module Row = Ivdb_relation.Row

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* source rows: (group, x nullable, y float) *)
let def ?(aggs = [| View_def.Sum (Expr.Col 1) |]) ?where () =
  {
    View_def.name = "t";
    group_cols = [| 0 |];
    aggs;
    source = View_def.Single { table = 1; where };
  }

let row g x = [| Value.Int g; x; Value.Float 1.5 |]

(* --- View_def --------------------------------------------------------------- *)

let test_view_def_basics () =
  let d = def () in
  Alcotest.(check bool) "escrow ok" true (View_def.escrow_compatible d);
  let dm = def ~aggs:[| View_def.Min (Expr.Col 1) |] () in
  Alcotest.(check bool) "min not escrow" false (View_def.escrow_compatible dm);
  check Alcotest.int "stored arity" 2 (Array.length (Aggregate.zero_row d));
  check Alcotest.(list int) "tables" [ 1 ] (View_def.tables_of d);
  (* group keys are the memcomparable encoding of the group columns *)
  Alcotest.(check bool) "group key ordering" true
    (String.compare
       (View_def.group_key d (row 1 (Value.Int 0)))
       (View_def.group_key d (row 2 (Value.Int 0)))
    < 0)

(* --- delta computation --------------------------------------------------------- *)

let test_delta_signs () =
  let d = def () in
  let key_pos, plus = Option.get (Aggregate.delta_of_row d ~sign:1 (row 3 (Value.Int 7))) in
  let key_neg, minus = Option.get (Aggregate.delta_of_row d ~sign:(-1) (row 3 (Value.Int 7))) in
  check Alcotest.string "same group key" key_pos key_neg;
  check Alcotest.int "insert count" 1 plus.Aggregate.dcount;
  check Alcotest.int "delete count" (-1) minus.Aggregate.dcount;
  (match (plus.Aggregate.daggs.(0), minus.Aggregate.daggs.(0)) with
  | Aggregate.Add (Value.Int 7), Aggregate.Add (Value.Int -7) -> ()
  | _ -> Alcotest.fail "sum deltas wrong");
  (* negation is the inverse *)
  Alcotest.(check bool) "negate" true (Aggregate.negate plus = minus)

let test_delta_where_filter () =
  let pred = Expr.Cmp (Expr.Gt, Expr.Col 1, Expr.int 5) in
  let d = def ~where:pred () in
  Alcotest.(check bool) "rejected row contributes nothing" true
    (Aggregate.delta_of_row d ~sign:1 (row 1 (Value.Int 3)) = None);
  Alcotest.(check bool) "accepted row contributes" true
    (Aggregate.delta_of_row d ~sign:1 (row 1 (Value.Int 9)) <> None)

let test_null_deltas () =
  let d =
    def ~aggs:[| View_def.Count (Expr.Col 1); View_def.Sum (Expr.Col 1) |] ()
  in
  let _, delta = Option.get (Aggregate.delta_of_row d ~sign:1 (row 1 Value.Null)) in
  (* NULL: row counted by the star count, ignored by COUNT(x) and SUM(x) *)
  check Alcotest.int "count(*)" 1 delta.Aggregate.dcount;
  (match delta.Aggregate.daggs with
  | [| Aggregate.Add (Value.Int 0); Aggregate.Add (Value.Int 0) |] -> ()
  | _ -> Alcotest.fail "NULL handling wrong")

let test_apply_and_zero () =
  let d = def () in
  let z = Aggregate.zero_row d in
  check Alcotest.int "zero count" 0 (Aggregate.count_of z);
  let _, delta = Option.get (Aggregate.delta_of_row d ~sign:1 (row 1 (Value.Int 4))) in
  (match Aggregate.apply d z delta with
  | `Ok r ->
      check Alcotest.int "count" 1 (Aggregate.count_of r);
      check Alcotest.int "sum" 4 (Value.to_int r.(1))
  | `Recompute -> Alcotest.fail "additive never recomputes");
  (* shape mismatch is rejected *)
  let bad = { delta with Aggregate.daggs = [||] } in
  Alcotest.(check bool) "shape mismatch" true
    (match Aggregate.apply d z bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_minmax_retire () =
  let d = def ~aggs:[| View_def.Min (Expr.Col 1) |] () in
  let stored = [| Value.Int 2; Value.Int 5 |] in
  (* retiring a non-extremum is absorbed *)
  let retire v = { Aggregate.dcount = -1; daggs = [| Aggregate.Retire v |] } in
  (match Aggregate.apply d stored (retire (Value.Int 9)) with
  | `Ok r -> check Alcotest.int "min unchanged" 5 (Value.to_int r.(1))
  | `Recompute -> Alcotest.fail "non-extremum should not recompute");
  (* retiring the minimum forces recomputation *)
  (match Aggregate.apply d stored (retire (Value.Int 5)) with
  | `Recompute -> ()
  | `Ok _ -> Alcotest.fail "extremum retirement must recompute");
  (* considering a smaller candidate lowers the minimum *)
  let consider v = { Aggregate.dcount = 1; daggs = [| Aggregate.Consider v |] } in
  match Aggregate.apply d stored (consider (Value.Int 1)) with
  | `Ok r -> check Alcotest.int "new min" 1 (Value.to_int r.(1))
  | `Recompute -> Alcotest.fail "consider never recomputes"

let test_combine () =
  let d = def () in
  let delta v =
    snd (Option.get (Aggregate.delta_of_row d ~sign:1 (row 1 (Value.Int v))))
  in
  (match Aggregate.combine (delta 3) (delta 4) with
  | Some c -> (
      check Alcotest.int "count" 2 c.Aggregate.dcount;
      match c.Aggregate.daggs.(0) with
      | Aggregate.Add (Value.Int 7) -> ()
      | _ -> Alcotest.fail "sum combine")
  | None -> Alcotest.fail "additive should combine");
  let non_add = { Aggregate.dcount = 1; daggs = [| Aggregate.Consider (Value.Int 1) |] } in
  Alcotest.(check bool) "non-additive refuses" true
    (Aggregate.combine (delta 1) non_add = None)

let prop_delta_codec_roundtrip =
  QCheck.Test.make ~name:"additive delta encode/decode roundtrip" ~count:300
    QCheck.(pair small_signed_int (list_of_size (QCheck.Gen.int_bound 4) small_signed_int))
    (fun (c, sums) ->
      let delta =
        {
          Aggregate.dcount = c;
          daggs = Array.of_list (List.map (fun v -> Aggregate.Add (Value.Int v)) sums);
        }
      in
      Aggregate.decode (Aggregate.encode delta) = delta)

let prop_apply_negate_identity =
  QCheck.Test.make ~name:"apply then apply-negated restores" ~count:300
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let d = def () in
      let base = [| Value.Int (abs a); Value.Int b |] in
      let delta =
        snd (Option.get (Aggregate.delta_of_row d ~sign:1 (row 1 (Value.Int a))))
      in
      match Aggregate.apply d base delta with
      | `Ok mid -> (
          match Aggregate.apply d mid (Aggregate.negate delta) with
          | `Ok r -> Row.equal r base
          | `Recompute -> false)
      | `Recompute -> false)

let test_fold_rows () =
  let d = def () in
  let rows = List.to_seq [ row 1 (Value.Int 2); row 1 (Value.Int 5); row 1 Value.Null ] in
  let r = Aggregate.fold_rows d rows in
  check Alcotest.int "count" 3 (Aggregate.count_of r);
  check Alcotest.int "sum skips null" 7 (Value.to_int r.(1))

(* --- Inflight registry ----------------------------------------------------------- *)

let test_inflight_registry () =
  let reg = Inflight.create () in
  let delta c = { Aggregate.dcount = c; daggs = [| Aggregate.Add (Value.Int c) |] } in
  Inflight.record reg ~txn:1 ~vid:10 ~key:"a" (delta 1);
  Inflight.record reg ~txn:2 ~vid:10 ~key:"a" (delta 2);
  Inflight.record reg ~txn:1 ~vid:10 ~key:"b" (delta 3);
  check Alcotest.int "two pending on a" 2 (List.length (Inflight.pending reg ~vid:10 ~key:"a"));
  let pending_count () =
    List.length (Inflight.pending reg ~vid:10 ~key:"a")
    + List.length (Inflight.pending reg ~vid:10 ~key:"b")
  in
  check Alcotest.int "total" 3 (pending_count ());
  Inflight.drop_txn reg ~txn:1;
  check Alcotest.int "one left on a" 1 (List.length (Inflight.pending reg ~vid:10 ~key:"a"));
  check Alcotest.int "b cleared" 0 (List.length (Inflight.pending reg ~vid:10 ~key:"b"));
  Inflight.drop_txn reg ~txn:2;
  check Alcotest.int "empty" 0 (pending_count ());
  check Alcotest.(list (pair int string)) "no keys left" [] (Inflight.keys_of_txn reg ~txn:2)

let test_inflight_bounds_math () =
  let d = def () in
  let stored = [| Value.Int 3; Value.Int 30 |] in
  let delta c s = { Aggregate.dcount = c; daggs = [| Aggregate.Add (Value.Int s) |] } in
  let lo, hi = Inflight.bounds d stored [ delta 1 10; delta (-1) (-5) ] in
  (* stored already includes both deltas; outcomes over abort subsets *)
  check Alcotest.int "lo sum" 20 (Value.to_int lo.(1));
  check Alcotest.int "hi sum" 35 (Value.to_int hi.(1));
  check Alcotest.int "lo count" 2 (Value.to_int lo.(0));
  check Alcotest.int "hi count" 4 (Value.to_int hi.(0));
  (* no pending: point interval *)
  let lo, hi = Inflight.bounds d stored [] in
  Alcotest.(check bool) "point" true (Row.equal lo stored && Row.equal hi stored)

let () =
  Alcotest.run "core"
    [
      ("view-def", [ Alcotest.test_case "basics" `Quick test_view_def_basics ]);
      ( "deltas",
        [
          Alcotest.test_case "signs and negate" `Quick test_delta_signs;
          Alcotest.test_case "where filter" `Quick test_delta_where_filter;
          Alcotest.test_case "NULL handling" `Quick test_null_deltas;
          Alcotest.test_case "apply and zero" `Quick test_apply_and_zero;
          Alcotest.test_case "min/max retire" `Quick test_minmax_retire;
          Alcotest.test_case "combine" `Quick test_combine;
          Alcotest.test_case "fold_rows" `Quick test_fold_rows;
          qtest prop_delta_codec_roundtrip;
          qtest prop_apply_negate_identity;
        ] );
      ( "inflight",
        [
          Alcotest.test_case "registry" `Quick test_inflight_registry;
          Alcotest.test_case "bounds math" `Quick test_inflight_bounds_math;
        ] );
    ]
