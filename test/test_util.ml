module Rng = Ivdb_util.Rng
module Zipf = Ivdb_util.Zipf
module Metrics = Ivdb_util.Metrics
module B = Ivdb_util.Bytes_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a max_int = Rng.int b max_int then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_float_range () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

(* --- Zipf --------------------------------------------------------------- *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~theta:0. in
  let r = Rng.create 3 in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let k = Zipf.draw z r in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 1600 && c < 2400))
    counts

let test_zipf_skew_orders_heads () =
  let z = Zipf.create ~n:100 ~theta:1.2 in
  let r = Rng.create 4 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let k = Zipf.draw z r in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "head dominates" true (counts.(0) > counts.(50) * 5);
  Alcotest.(check bool) "monotone-ish" true (counts.(0) >= counts.(1))

let test_zipf_bounds () =
  let z = Zipf.create ~n:7 ~theta:0.99 in
  let r = Rng.create 13 in
  for _ = 1 to 1000 do
    let k = Zipf.draw z r in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 7)
  done

(* --- Summary statistics over histogram cells ---------------------------- *)

(* The (value, count) cells of a histogram fed [values]. *)
let cells_of values =
  let m = Metrics.create () in
  let h = Metrics.hist m "h" in
  List.iter (Metrics.record h) values;
  Metrics.hist_snapshot m "h"

let test_stats_basic () =
  let cells = cells_of [ 1; 2; 3; 4; 5 ] in
  check (Alcotest.float 1e-9) "mean" 3. (Metrics.cells_mean cells);
  check Alcotest.int "count" 5 (List.fold_left (fun n (_, c) -> n + c) 0 cells);
  check Alcotest.int "min" 1 (Metrics.percentile_cells cells 0.);
  check Alcotest.int "max" 5 (Metrics.percentile_cells cells 100.)

let test_stats_percentile () =
  let cells = cells_of (List.init 100 (fun i -> i + 1)) in
  check Alcotest.int "p50" 50 (Metrics.percentile_cells cells 50.);
  check Alcotest.int "p99" 99 (Metrics.percentile_cells cells 99.);
  check Alcotest.int "p100" 100 (Metrics.percentile_cells cells 100.)

let test_stats_empty () =
  let cells = cells_of [] in
  check (Alcotest.float 1e-9) "mean of empty" 0. (Metrics.cells_mean cells);
  check Alcotest.int "percentile of empty" 0 (Metrics.percentile_cells cells 50.)

(* Two populations summarised together: their cells concatenated. *)
let test_stats_merge () =
  let cells = cells_of [ 1; 2 ] @ cells_of [ 3; 4 ] in
  check Alcotest.int "count" 4 (List.fold_left (fun n (_, c) -> n + c) 0 cells);
  check (Alcotest.float 1e-9) "mean" 2.5 (Metrics.cells_mean cells);
  check Alcotest.int "p25 uses both" 1 (Metrics.percentile_cells cells 25.)

(* --- Metrics ------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m "a");
  Metrics.inc_by (Metrics.counter m "a") 4;
  Metrics.inc (Metrics.counter m "b");
  check Alcotest.int "a" 5 (Metrics.get m "a");
  check Alcotest.int "b" 1 (Metrics.get m "b");
  check Alcotest.int "absent" 0 (Metrics.get m "zzz")

let test_metrics_diff () =
  let m = Metrics.create () in
  Metrics.inc_by (Metrics.counter m "x") 3;
  let before = Metrics.snapshot m in
  Metrics.inc_by (Metrics.counter m "x") 2;
  Metrics.inc (Metrics.counter m "y");
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  check Alcotest.int "x delta" 2 (List.assoc "x" d);
  check Alcotest.int "y delta" 1 (List.assoc "y" d)

(* counters first registered between the two snapshots (a server started
   mid-run) must report their full value; counters only on the before
   side count down to zero *)
let test_metrics_diff_mid_run_registration () =
  let m = Metrics.create () in
  Metrics.inc_by (Metrics.counter m "pre") 3;
  let before = Metrics.snapshot m in
  Metrics.inc_by (Metrics.counter m "pre") 1;
  Metrics.inc_by (Metrics.counter m "server.accepted") 7;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  check Alcotest.int "pre delta" 1 (List.assoc "pre" d);
  check Alcotest.int "late counter reports full value" 7
    (List.assoc "server.accepted" d);
  let d2 = Metrics.diff ~before:[ ("gone", 5) ] ~after:[] in
  check Alcotest.int "before-only counts down" (-5) (List.assoc "gone" d2);
  (* unsorted hand-built snapshots work too *)
  let d3 =
    Metrics.diff
      ~before:[ ("b", 1); ("a", 2) ]
      ~after:[ ("a", 5); ("c", 1); ("b", 1) ]
  in
  check
    Alcotest.(list (pair string int))
    "sorted union" [ ("a", 3); ("c", 1) ]
    (List.filter (fun (_, v) -> v <> 0) d3)

let test_metrics_typed_handles () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hot" in
  Metrics.inc c;
  Metrics.inc_by c 4;
  check Alcotest.int "handle value" 5 (Metrics.get m "hot");
  check Alcotest.int "name lookup sees it" 5 (Metrics.get m "hot");
  (* every handle resolved for one name shares its cell *)
  Metrics.inc (Metrics.counter m "hot");
  check Alcotest.int "one cell" 6 (Metrics.get m "hot");
  let h = Metrics.hist m "sizes" in
  Metrics.record h 3;
  Metrics.record h 3;
  Metrics.record (Metrics.hist m "sizes") 5;
  check
    Alcotest.(list (pair int int))
    "hist snapshot" [ (3, 2); (5, 1) ]
    (Metrics.hist_snapshot m "sizes")

let test_metrics_hists_and_pp_deterministic () =
  let m = Metrics.create () in
  Metrics.record (Metrics.hist m "zz") 1;
  Metrics.record (Metrics.hist m "aa") 2;
  check
    Alcotest.(list string)
    "hists sorted by name" [ "aa"; "zz" ]
    (List.map fst (Metrics.hists m));
  let d = Metrics.hist_diff ~before:[ (1, 2); (2, 1) ] ~after:[ (1, 2); (2, 3); (5, 1) ] in
  check Alcotest.(list (pair int int)) "hist diff drops zero deltas" [ (2, 2); (5, 1) ] d;
  (* the exposition is independent of registration order *)
  let m2 = Metrics.create () in
  Metrics.record (Metrics.hist m2 "aa") 2;
  Metrics.record (Metrics.hist m2 "zz") 1;
  Metrics.inc (Metrics.counter m "k");
  Metrics.inc (Metrics.counter m2 "k");
  check Alcotest.string "exposition deterministic" (Metrics.to_prometheus m)
    (Metrics.to_prometheus m2)

let test_metrics_window () =
  let m = Metrics.create () in
  let c = Metrics.counter m "n" and h = Metrics.hist m "h" in
  Metrics.inc c;
  Metrics.record h 1;
  let before = Metrics.capture m in
  Metrics.inc_by c 2;
  Metrics.record h 1;
  Metrics.record h 3;
  (* registered inside the window: reported in full *)
  Metrics.record (Metrics.hist m "late") 7;
  Metrics.inc (Metrics.counter m "late_n");
  let w = Metrics.window_diff ~before ~after:(Metrics.capture m) in
  check Alcotest.int "counter delta" 2 (Metrics.window_get w "n");
  check Alcotest.int "late counter" 1 (Metrics.window_get w "late_n");
  check Alcotest.int "absent counter" 0 (Metrics.window_get w "nope");
  check Alcotest.(list (pair int int)) "hist delta" [ (1, 1); (3, 1) ]
    (Metrics.window_cells w "h");
  check Alcotest.(list (pair int int)) "late hist" [ (7, 1) ]
    (Metrics.window_cells w "late");
  check Alcotest.(list (pair int int)) "absent hist" [] (Metrics.window_cells w "nope");
  check
    Alcotest.(list (pair string int))
    "counters are the counter diff"
    (Metrics.diff ~before:before.Metrics.counters ~after:(Metrics.snapshot m))
    w.Metrics.counters

let test_metrics_hist_mean_empty () =
  let m = Metrics.create () in
  let h = Metrics.hist m "empty" in
  (* the guard: a histogram nobody recorded into means 0., not NaN *)
  let mean name = Metrics.cells_mean (Metrics.hist_snapshot m name) in
  check (Alcotest.float 1e-9) "empty mean" 0. (mean "empty");
  check (Alcotest.float 1e-9) "absent mean" 0. (mean "nope");
  Metrics.record h 4;
  Metrics.record h 8;
  check (Alcotest.float 1e-9) "mean" 6. (mean "empty")

let test_metrics_percentile_cells () =
  check Alcotest.int "empty" 0 (Metrics.percentile_cells [] 95.);
  let cells = [ (1, 50); (10, 45); (100, 5) ] in
  check Alcotest.int "p50" 1 (Metrics.percentile_cells cells 50.);
  check Alcotest.int "p95" 10 (Metrics.percentile_cells cells 95.);
  check Alcotest.int "p99" 100 (Metrics.percentile_cells cells 99.);
  check Alcotest.int "p0 clamps to first" 1 (Metrics.percentile_cells cells 0.);
  check Alcotest.int "p100" 100 (Metrics.percentile_cells cells 100.);
  check Alcotest.int "single" 7 (Metrics.percentile_cells [ (7, 1) ] 95.)

let test_metrics_to_prometheus () =
  let m = Metrics.create () in
  Metrics.inc_by (Metrics.counter m "txn.commit") 3;
  Metrics.inc (Metrics.counter m "lock.wait");
  let h = Metrics.hist m "server.request.ticks" in
  Metrics.record h 1;
  Metrics.record h 1;
  Metrics.record h 5;
  let text = Metrics.to_prometheus m in
  let has sub =
    let n = String.length sub and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter family" true
    (has "# TYPE ivdb_txn_commit counter");
  Alcotest.(check bool) "counter value" true (has "ivdb_txn_commit 3");
  Alcotest.(check bool) "hist family" true
    (has "# TYPE ivdb_server_request_ticks histogram");
  (* buckets are cumulative, capped with +Inf, and sum/count close out *)
  Alcotest.(check bool) "bucket le=1" true
    (has "ivdb_server_request_ticks_bucket{le=\"1\"} 2");
  Alcotest.(check bool) "bucket le=5" true
    (has "ivdb_server_request_ticks_bucket{le=\"5\"} 3");
  Alcotest.(check bool) "bucket +Inf" true
    (has "ivdb_server_request_ticks_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "sum" true (has "ivdb_server_request_ticks_sum 7");
  Alcotest.(check bool) "count" true (has "ivdb_server_request_ticks_count 3");
  (* deterministic: same registry contents in another order, same text *)
  let m2 = Metrics.create () in
  let h2 = Metrics.hist m2 "server.request.ticks" in
  Metrics.record h2 5;
  Metrics.inc (Metrics.counter m2 "lock.wait");
  Metrics.record h2 1;
  Metrics.record h2 1;
  Metrics.inc_by (Metrics.counter m2 "txn.commit") 3;
  check Alcotest.string "exposition deterministic" text (Metrics.to_prometheus m2)

(* --- Bytes_util ---------------------------------------------------------- *)

let test_bytes_roundtrip () =
  let b = Bytes.create 32 in
  B.set_u16 b 0 0xBEEF;
  check Alcotest.int "u16" 0xBEEF (B.get_u16 b 0);
  B.set_u32 b 2 0xDEADBEEF;
  check Alcotest.int "u32" 0xDEADBEEF (B.get_u32 b 2)

let test_compare_sub () =
  let a = Bytes.of_string "abcdef" and b = Bytes.of_string "abcxyz" in
  Alcotest.(check bool) "equal prefix" true (B.compare_sub a 0 3 b 0 3 = 0);
  Alcotest.(check bool) "lt" true (B.compare_sub a 0 6 b 0 6 < 0);
  Alcotest.(check bool) "prefix shorter" true (B.compare_sub a 0 2 a 0 3 < 0)

let prop_u16_roundtrip =
  QCheck.Test.make ~name:"u16 roundtrip" ~count:200
    QCheck.(int_bound 0xFFFF)
    (fun v ->
      let b = Bytes.create 2 in
      B.set_u16 b 0 v;
      B.get_u16 b 0 = v)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform at theta 0" `Quick test_zipf_uniform;
          Alcotest.test_case "skew favours head" `Quick test_zipf_skew_orders_heads;
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
          Alcotest.test_case "diff mid-run registration" `Quick
            test_metrics_diff_mid_run_registration;
          Alcotest.test_case "typed handles" `Quick test_metrics_typed_handles;
          Alcotest.test_case "hists + deterministic pp" `Quick
            test_metrics_hists_and_pp_deterministic;
          Alcotest.test_case "window" `Quick test_metrics_window;
          Alcotest.test_case "hist mean guards empty" `Quick
            test_metrics_hist_mean_empty;
          Alcotest.test_case "percentile over cells" `Quick
            test_metrics_percentile_cells;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_to_prometheus;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "compare_sub" `Quick test_compare_sub;
          qtest prop_u16_roundtrip;
        ] );
    ]
