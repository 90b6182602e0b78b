module Wal = Ivdb_wal.Wal
module LR = Ivdb_wal.Log_record
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- record codec ---------------------------------------------------------- *)

let rid_gen =
  QCheck.Gen.(
    map2
      (fun p s -> { Ivdb_storage.Heap_file.rpage = p; rslot = s })
      (int_bound 100000) (int_bound 500))

let str_gen = QCheck.Gen.(string_size (int_bound 64))

(* only shapes a page diff can have, which is all that
   [Page_diff.decode] accepts: non-empty, ascending, disjoint ranges from
   offset 8 on *)
let diff_gen =
  QCheck.Gen.(
    map
      (fun runs ->
        let _, ranges =
          List.fold_left
            (fun (floor, acc) (gap, s) ->
              let off = floor + gap in
              (off + String.length s, (off, s) :: acc))
            (8, []) runs
        in
        List.rev ranges)
      (list_size (int_bound 4)
         (pair (int_bound 0x3FF) (string_size (int_range 1 32)))))

let redo_gen =
  QCheck.Gen.(
    list_size (int_bound 3) (map2 (fun p d -> (p, d)) (int_bound 100000) diff_gen))

let undo_gen =
  QCheck.Gen.(
    oneof
      [
        return LR.No_undo;
        map2 (fun t r -> LR.Undo_heap_insert { table = t; rid = r }) (int_bound 99) rid_gen;
        map2 (fun t r -> LR.Undo_heap_delete { table = t; rid = r }) (int_bound 99) rid_gen;
        map3
          (fun t r b -> LR.Undo_heap_update { table = t; rid = r; before = b })
          (int_bound 99) rid_gen str_gen;
        map2 (fun i k -> LR.Undo_bt_insert { index = i; key = k }) (int_bound 99) str_gen;
        map3
          (fun i k v -> LR.Undo_bt_delete { index = i; key = k; value = v })
          (int_bound 99) str_gen str_gen;
        map3
          (fun i k b -> LR.Undo_bt_update { index = i; key = k; before = b })
          (int_bound 99) str_gen str_gen;
        map3
          (fun v k d -> LR.Undo_escrow { view = v; key = k; inverse = d })
          (int_bound 99) str_gen str_gen;
      ])

let body_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> LR.Begin { system = s }) bool;
        return LR.Commit;
        return LR.Abort;
        return LR.End;
        map2 (fun redo undo -> LR.Update { redo; undo }) redo_gen undo_gen;
        map2 (fun redo n -> LR.Clr { redo; undo_next = n }) redo_gen (int_bound 1000);
        map3
          (fun active dpt catalog -> LR.Checkpoint { active; dpt; catalog })
          (list_size (int_bound 4) (pair (int_bound 999) (int_bound 999)))
          (list_size (int_bound 4) (pair (int_bound 999) (int_bound 999)))
          str_gen;
        map (fun s -> LR.Ddl s) str_gen;
      ])

let record_gen =
  QCheck.Gen.(
    map3
      (fun lsn txn body -> { LR.lsn; txn; prev = max 0 (lsn - 1); body })
      (int_range 1 100000) (int_bound 1000) body_gen)

let record_arb =
  QCheck.make ~print:(fun r -> Format.asprintf "%a" LR.pp r) record_gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"log record encode/decode roundtrip" ~count:500 record_arb
    (fun r -> LR.decode (LR.encode r) = r)

let prop_byte_size_exact =
  QCheck.Test.make ~name:"byte_size equals encoded length" ~count:200 record_arb
    (fun r -> LR.byte_size r = String.length (LR.encode r))

let test_decode_garbage () =
  Alcotest.check_raises "garbage" (Invalid_argument "Log_record.decode: malformed record")
    (fun () -> ignore (LR.decode "\000\000\000\001junk"));
  Alcotest.check_raises "trailing bytes"
    (Invalid_argument "Log_record.decode: malformed record") (fun () ->
      let ok = LR.encode { LR.lsn = 1; txn = 1; prev = 0; body = LR.Commit } in
      ignore (LR.decode (ok ^ "x")))

let test_decode_frames_stops_at_bad_diff () =
  (* a shipped record whose page diff no update could produce (offset 0
     would overwrite the pageLSN in redo) ends the
     batch at decode: the receiver keeps only the records before it *)
  let w = Wal.create (Metrics.create ()) in
  let update diff = LR.Update { redo = [ (3, diff) ]; undo = LR.No_undo } in
  let good = Wal.append w ~txn:1 ~prev:0 (update [ (100, "ok") ]) in
  let bad = Wal.append w ~txn:1 ~prev:good (update [ (0, "lsn") ]) in
  ignore (Wal.append w ~txn:1 ~prev:bad LR.Commit);
  Wal.force w (Wal.last_lsn w);
  let payload = Wal.serialize_range w ~from:good ~upto:(Wal.last_lsn w) in
  let recs = Wal.decode_frames ~first_lsn:good payload in
  Alcotest.(check (list int)) "only the first record" [ good ]
    (List.map (fun r -> r.LR.lsn) recs);
  Alcotest.(check bool) "and it decodes whole" true (List.hd recs = Wal.get w good)

(* --- wal mechanics ----------------------------------------------------------- *)

let make () = Wal.create (Metrics.create ())

let test_append_get () =
  let w = make () in
  let l1 = Wal.append w ~txn:1 ~prev:0 (LR.Begin { system = false }) in
  let l2 = Wal.append w ~txn:1 ~prev:l1 LR.Commit in
  check Alcotest.int "dense lsns" (l1 + 1) l2;
  check Alcotest.int "last" l2 (Wal.last_lsn w);
  Alcotest.(check bool) "get" true ((Wal.get w l1).LR.body = LR.Begin { system = false });
  Alcotest.check_raises "lsn 0" (Invalid_argument "Wal.get: LSN out of range")
    (fun () -> ignore (Wal.get w 0))

let test_force_semantics () =
  let m = Metrics.create () in
  let w = Wal.create m in
  let l1 = Wal.append w ~txn:1 ~prev:0 LR.Commit in
  check Alcotest.int "nothing flushed" 0 (Wal.flushed_lsn w);
  Wal.force w l1;
  check Alcotest.int "flushed" l1 (Wal.flushed_lsn w);
  Wal.force w l1;
  (* group commit: second force is a no-op *)
  check Alcotest.int "one force" 1 (Metrics.get m "log.force");
  (* forcing beyond the end clamps *)
  Wal.force w 999;
  check Alcotest.int "clamped" l1 (Wal.flushed_lsn w)

let test_crash_keeps_stable_prefix () =
  let w = make () in
  let l1 = Wal.append w ~txn:1 ~prev:0 LR.Commit in
  Wal.force w l1;
  let _l2 = Wal.append w ~txn:2 ~prev:0 LR.Abort in
  let w' = Wal.crash w (Metrics.create ()) in
  check Alcotest.int "tail lost" l1 (Wal.last_lsn w');
  check Alcotest.int "flushed preserved" l1 (Wal.flushed_lsn w')

let test_checkpoint_tracking () =
  let w = make () in
  check Alcotest.int "no ckpt" 0 (Wal.last_checkpoint_lsn w);
  let c1 =
    Wal.append w ~txn:0 ~prev:0 (LR.Checkpoint { active = []; dpt = []; catalog = "x" })
  in
  (* unforced checkpoints are not visible *)
  check Alcotest.int "unforced invisible" 0 (Wal.last_checkpoint_lsn w);
  Wal.force w c1;
  check Alcotest.int "visible after force" c1 (Wal.last_checkpoint_lsn w)

let test_truncation () =
  let w = make () in
  let lsns =
    List.init 10 (fun k -> Wal.append w ~txn:(k + 1) ~prev:0 LR.Commit)
  in
  Wal.force w (Wal.last_lsn w);
  Wal.truncate_before w 5;
  check Alcotest.int "first retained" 5 (Wal.first_lsn w);
  check Alcotest.int "count" 6 (Wal.record_count w);
  Alcotest.check_raises "truncated lsn" (Invalid_argument "Wal.get: LSN out of range")
    (fun () -> ignore (Wal.get w 4));
  Alcotest.(check bool) "boundary readable" true ((Wal.get w 5).LR.txn = 5);
  (* appends continue with globally monotonic LSNs *)
  let next = Wal.append w ~txn:99 ~prev:0 LR.Abort in
  check Alcotest.int "monotonic" (List.nth lsns 9 + 1) next;
  (* crash keeps the truncation base *)
  Wal.force w next;
  let w' = Wal.crash w (Metrics.create ()) in
  check Alcotest.int "base survives crash" 5 (Wal.first_lsn w');
  check Alcotest.int "tail survives" next (Wal.last_lsn w');
  (* recovery-style scan sees only retained records *)
  let seen = ref 0 in
  Wal.iter_stable w' (fun _ -> incr seen);
  check Alcotest.int "scan count" 7 !seen

let test_truncation_clamped_to_flushed () =
  let w = make () in
  let l1 = Wal.append w ~txn:1 ~prev:0 LR.Commit in
  Wal.force w l1;
  let l2 = Wal.append w ~txn:2 ~prev:0 LR.Commit in
  (* cannot truncate past the stable prefix *)
  Wal.truncate_before w (l2 + 10);
  check Alcotest.int "kept the unflushed tail" l2 (Wal.last_lsn w);
  check Alcotest.int "first = flushed + 1" (l1 + 1) (Wal.first_lsn w)

let test_stable_bytes_accounting () =
  let w = make () in
  let l1 = Wal.append w ~txn:1 ~prev:0 LR.Commit in
  Wal.force w l1;
  check Alcotest.int "exact byte accounting"
    (LR.byte_size (Wal.get w l1))
    (Wal.stable_byte_size w)

(* --- torn tail --------------------------------------------------------------- *)

(* A forced log with records of several shapes and sizes, so frame
   boundaries fall at irregular offsets. Record 4 is a checkpoint. *)
let torn_fixture () =
  let w = make () in
  let add txn body = ignore (Wal.append w ~txn ~prev:0 body) in
  add 1 (LR.Begin { system = false });
  add 1 (LR.Update { redo = [ (3, [ (100, "abcdef") ]) ]; undo = LR.No_undo });
  add 1 LR.Commit;
  add 0 (LR.Checkpoint { active = []; dpt = [ (3, 2) ]; catalog = "cat" });
  add 0 (LR.Ddl "create table t");
  Wal.force w (Wal.last_lsn w);
  w

let ckpt_lsn = 4

let test_torn_tail_sweep () =
  let w = torn_fixture () in
  let stream = Wal.serialize_range w ~from:(Wal.first_lsn w) ~upto:(Wal.flushed_lsn w) in
  let n = Wal.last_lsn w in
  (* bounds.(l) = byte offset at which record l's frame ends *)
  let bounds = Array.make (n + 1) 0 in
  for l = 1 to n do
    bounds.(l) <- bounds.(l - 1) + 8 + LR.byte_size (Wal.get w l)
  done;
  check Alcotest.int "stream length = sum of frames" bounds.(n)
    (String.length stream);
  for cut = 0 to String.length stream do
    Wal.set_torn_tail w cut;
    let m = Metrics.create () in
    let w' = Wal.crash w m in
    (* the longest prefix of records whose frames fit entirely in [cut]
       bytes survives; a partial frame and everything after it are gone *)
    let expected = ref 0 in
    for l = 1 to n do
      if bounds.(l) <= cut then expected := l
    done;
    check Alcotest.int (Printf.sprintf "retained prefix (cut %d)" cut)
      !expected (Wal.last_lsn w');
    check Alcotest.int (Printf.sprintf "flushed (cut %d)" cut) !expected
      (Wal.flushed_lsn w');
    for l = 1 to !expected do
      Alcotest.(check bool)
        (Printf.sprintf "record %d intact (cut %d)" l cut)
        true
        (Wal.get w' l = Wal.get w l)
    done;
    (* a torn checkpoint record must not be half-believed *)
    check Alcotest.int (Printf.sprintf "ckpt visibility (cut %d)" cut)
      (if !expected >= ckpt_lsn then ckpt_lsn else 0)
      (Wal.last_checkpoint_lsn w');
    check Alcotest.int (Printf.sprintf "drop count (cut %d)" cut)
      (n - !expected)
      (Metrics.get m "wal.torn_tail_dropped")
  done

let test_crash_roundtrips_codec () =
  (* even without a tear, [crash] rebuilds the log from the framed byte
     stream — every retained record has survived encode/decode *)
  let w = torn_fixture () in
  let w' = Wal.crash w (Metrics.create ()) in
  check Alcotest.int "all records retained" (Wal.last_lsn w) (Wal.last_lsn w');
  for l = 1 to Wal.last_lsn w do
    Alcotest.(check bool)
      (Printf.sprintf "record %d roundtrips" l)
      true
      (Wal.get w' l = Wal.get w l)
  done

let prop_torn_tail_prefix =
  QCheck.Test.make ~name:"torn tail keeps exactly the complete-frame prefix"
    ~count:100
    QCheck.(
      make
        Gen.(
          pair (list_size (int_range 1 8) body_gen) (int_bound 1000)))
    (fun (bodies, cut_raw) ->
      let w = make () in
      List.iteri (fun i b -> ignore (Wal.append w ~txn:(i + 1) ~prev:0 b)) bodies;
      Wal.force w (Wal.last_lsn w);
      let stream = Wal.serialize_range w ~from:(Wal.first_lsn w) ~upto:(Wal.flushed_lsn w) in
      let cut = cut_raw mod (String.length stream + 1) in
      Wal.set_torn_tail w cut;
      let w' = Wal.crash w (Metrics.create ()) in
      let ok = ref true in
      let off = ref 0 in
      let expected = ref 0 in
      for l = 1 to Wal.last_lsn w do
        off := !off + 8 + LR.byte_size (Wal.get w l);
        if !off <= cut then expected := l
      done;
      ok := Wal.last_lsn w' = !expected;
      for l = 1 to min !expected (Wal.last_lsn w') do
        if Wal.get w' l <> Wal.get w l then ok := false
      done;
      !ok)

(* --- golden log bytes ------------------------------------------------------ *)

(* A fixed-seed escrow run whose view B-tree splits 11 times and whose
   heap pages are compacted 12 times (deletes, ghost reclamation by gc,
   then inserts into the freed room). Its log, every record encoded, hashes to
   the digest the engine produced when every page update still diffed a
   whole-page pre-image: how diffs are taken must not change one byte of
   any log payload. *)
let golden_spec =
  {
    Ivdb.Workload.default with
    seed = 5;
    n_groups = 3000;
    theta = 0.5;
    mpl = 4;
    txns_per_worker = 40;
    delete_fraction = 0.3;
    gc_every = Some 4;
    initial_rows = 1500;
  }

let test_golden_log_bytes () =
  let db, sales, views = Ivdb.Workload.setup golden_spec in
  let r = Ivdb.Workload.run_on db sales views golden_spec in
  check Alcotest.int "committed" 160 r.committed;
  check Alcotest.int "view B-tree splits" 11
    (Metrics.get (Ivdb.Database.metrics db) "btree.split");
  let wal = Ivdb.Database.wal db in
  Wal.force wal (Wal.last_lsn wal);
  let buf = Buffer.create (1 lsl 20) in
  Wal.iter_stable wal (fun rc -> Buffer.add_string buf (LR.encode rc));
  check Alcotest.int "log bytes" 927142 (Buffer.length buf);
  check Alcotest.string "log digest" "b6182bf237e952ad79800d538a680b16"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          qtest prop_codec_roundtrip;
          qtest prop_byte_size_exact;
          Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
          Alcotest.test_case "decode_frames stops at a bad page diff" `Quick
            test_decode_frames_stops_at_bad_diff;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append/get" `Quick test_append_get;
          Alcotest.test_case "force semantics" `Quick test_force_semantics;
          Alcotest.test_case "crash keeps stable prefix" `Quick
            test_crash_keeps_stable_prefix;
          Alcotest.test_case "checkpoint tracking" `Quick test_checkpoint_tracking;
          Alcotest.test_case "stable byte accounting" `Quick
            test_stable_bytes_accounting;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "truncation clamped" `Quick
            test_truncation_clamped_to_flushed;
        ] );
      ( "golden",
        [
          Alcotest.test_case "escrow run's log bytes are unchanged" `Quick
            test_golden_log_bytes;
        ] );
      ( "torn tail",
        [
          Alcotest.test_case "byte-granularity tear sweep" `Quick
            test_torn_tail_sweep;
          Alcotest.test_case "crash roundtrips codec" `Quick
            test_crash_roundtrips_codec;
          qtest prop_torn_tail_prefix;
        ] );
    ]
