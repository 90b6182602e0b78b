module Btree = Ivdb_btree.Btree
module Bt_node = Ivdb_btree.Bt_node
module Txn = Ivdb_txn.Txn
module Key_codec = Ivdb_relation.Key_codec
module Value = Ivdb_relation.Value
module Rng = Ivdb_util.Rng
module Harness = Ivdb_test_support.Harness
module Bufpool = Ivdb_storage.Bufpool

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make_tree () =
  let h = Harness.make ~pool_capacity:256 () in
  (h, Btree.create h.Harness.mgr ~index_id:1)

let ikey i = Key_codec.encode [| Value.Int i |]

(* In-place Fisher-Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let entry_count t =
  let n = ref 0 in
  Btree.iter t (fun _ _ -> incr n);
  !n

(* Levels from the root down to the leftmost leaf. *)
let height h t =
  let rec go pid acc =
    match
      Bufpool.read h.Harness.pool pid (fun p ->
          if Bt_node.is_leaf p then None else Some (Bt_node.child_at p 0))
    with
    | None -> acc
    | Some c -> go c (acc + 1)
  in
  go (Btree.root t) 1

(* --- basics ---------------------------------------------------------------- *)

let test_empty_tree () =
  let h, t = make_tree () in
  check Alcotest.(option string) "search empty" None (Btree.search t (ikey 1));
  Alcotest.(check bool) "no min" true (Option.is_none (Btree.seek t ""));
  check Alcotest.int "count" 0 (entry_count t);
  check Alcotest.int "height" 1 (height h t)

let test_insert_search_delete () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  Btree.insert tx t ~key:(ikey 5) ~value:"five";
  Btree.insert tx t ~key:(ikey 3) ~value:"three";
  Btree.insert tx t ~key:(ikey 7) ~value:"seven";
  check Alcotest.(option string) "find 3" (Some "three") (Btree.search t (ikey 3));
  check Alcotest.(option string) "find 7" (Some "seven") (Btree.search t (ikey 7));
  check Alcotest.(option string) "miss" None (Btree.search t (ikey 4));
  Btree.delete tx t ~key:(ikey 3);
  check Alcotest.(option string) "deleted" None (Btree.search t (ikey 3));
  Alcotest.check_raises "delete missing" Not_found (fun () ->
      Btree.delete tx t ~key:(ikey 3));
  Txn.commit h.Harness.mgr tx

let test_duplicate_key () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  Btree.insert tx t ~key:(ikey 1) ~value:"a";
  Alcotest.check_raises "dup" (Btree.Duplicate_key (ikey 1)) (fun () ->
      Btree.insert tx t ~key:(ikey 1) ~value:"b");
  Txn.commit h.Harness.mgr tx

let test_update_in_place () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  Btree.insert tx t ~key:(ikey 1) ~value:"aaaa";
  Btree.update tx t ~key:(ikey 1) ~value:"bbbb";
  check Alcotest.(option string) "same size" (Some "bbbb") (Btree.search t (ikey 1));
  Btree.update tx t ~key:(ikey 1) ~value:"a-much-longer-value";
  check Alcotest.(option string) "resized" (Some "a-much-longer-value")
    (Btree.search t (ikey 1));
  Alcotest.check_raises "update missing" Not_found (fun () ->
      Btree.update tx t ~key:(ikey 9) ~value:"x");
  Txn.commit h.Harness.mgr tx

let test_entry_too_large () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  Alcotest.check_raises "oversize" (Invalid_argument "Btree: entry exceeds max size")
    (fun () -> Btree.insert tx t ~key:(ikey 1) ~value:(String.make Bt_node.max_entry 'v'));
  Txn.commit h.Harness.mgr tx

(* --- volume / splits -------------------------------------------------------- *)

let test_bulk_ascending () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  let n = 5000 in
  for i = 1 to n do
    Btree.insert tx t ~key:(ikey i) ~value:(Printf.sprintf "v%d" i)
  done;
  Txn.commit h.Harness.mgr tx;
  check Alcotest.int "count" n (entry_count t);
  Alcotest.(check bool) "tree grew" true (height h t >= 2);
  check Alcotest.(option string) "first" (Some "v1") (Btree.search t (ikey 1));
  check Alcotest.(option string) "last" (Some ("v" ^ string_of_int n))
    (Btree.search t (ikey n));
  (* ordered iteration *)
  let prev = ref "" in
  Btree.iter t (fun k _ ->
      assert (String.compare !prev k < 0);
      prev := k)

let test_bulk_random_with_deletes () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  let rng = Rng.create 2024 in
  let keys = Array.init 3000 (fun i -> i * 2) in
  shuffle rng keys;
  Array.iter (fun i -> Btree.insert tx t ~key:(ikey i) ~value:(string_of_int i)) keys;
  (* delete one third *)
  Array.iteri (fun idx i -> if idx mod 3 = 0 then Btree.delete tx t ~key:(ikey i)) keys;
  Txn.commit h.Harness.mgr tx;
  check Alcotest.int "count" 2000 (entry_count t);
  Array.iteri
    (fun idx i ->
      let expect = if idx mod 3 = 0 then None else Some (string_of_int i) in
      assert (Btree.search t (ikey i) = expect))
    keys

let test_variable_size_entries () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  let rng = Rng.create 77 in
  let payload i = String.make (1 + Rng.int rng 1500) (Char.chr (65 + (i mod 26))) in
  let entries = List.init 300 (fun i -> (ikey i, payload i)) in
  List.iter (fun (k, v) -> Btree.insert tx t ~key:k ~value:v) entries;
  Txn.commit h.Harness.mgr tx;
  List.iter (fun (k, v) -> assert (Btree.search t k = Some v)) entries

(* --- ordered access ---------------------------------------------------------- *)

let test_next_key () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  List.iter (fun i -> Btree.insert tx t ~key:(ikey i) ~value:(string_of_int i)) [ 10; 20; 30 ];
  Txn.commit h.Harness.mgr tx;
  let next k = Option.map fst (Btree.next_key t k) in
  check Alcotest.(option string) "after 10" (Some (ikey 20)) (next (ikey 10));
  check Alcotest.(option string) "after 15" (Some (ikey 20)) (next (ikey 15));
  check Alcotest.(option string) "after 30" None (next (ikey 30));
  check Alcotest.(option string) "before all" (Some (ikey 10)) (next (ikey 0))

let test_cursor_scan () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 500 do
    Btree.insert tx t ~key:(ikey i) ~value:(string_of_int i)
  done;
  Txn.commit h.Harness.mgr tx;
  let rec collect acc = function
    | None -> List.rev acc
    | Some (k, _, c) -> collect (k :: acc) (Btree.cursor_next t c)
  in
  let keys = collect [] (Btree.seek t (ikey 100)) in
  check Alcotest.int "scan length" 401 (List.length keys);
  check Alcotest.string "starts at 100" (ikey 100) (List.hd keys)

let test_cursor_survives_modification () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 100 do
    Btree.insert tx t ~key:(ikey (2 * i)) ~value:"x"
  done;
  (* start scanning, then mutate the tree, then continue *)
  let first = Btree.seek t (ikey 0) in
  let _, _, c = Option.get first in
  for i = 0 to 100 do
    (* odd keys inserted mid-scan *)
    Btree.insert tx t ~key:(ikey ((2 * i) + 1)) ~value:"y"
  done;
  let rec count acc cur =
    match Btree.cursor_next t cur with None -> acc | Some (_, _, c') -> count (acc + 1) c'
  in
  (* every original key after the first must still be visited *)
  Alcotest.(check bool) "sees at least the original tail" true (count 0 c >= 99);
  Txn.commit h.Harness.mgr tx

(* --- vacuum -------------------------------------------------------------------- *)

let test_vacuum_reclaims_empty_tree () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 4000 do
    Btree.insert tx t ~key:(ikey i) ~value:(Printf.sprintf "%08d" i)
  done;
  Txn.commit h.Harness.mgr tx;
  Alcotest.(check bool) "grew" true (height h t >= 2);
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 4000 do
    Btree.delete tx t ~key:(ikey i)
  done;
  Txn.commit h.Harness.mgr tx;
  let freed = Btree.vacuum t in
  Alcotest.(check bool) "freed pages" true (freed > 5);
  check Alcotest.int "collapsed to a single leaf" 1 (height h t);
  check Alcotest.int "empty" 0 (entry_count t);
  (* the tree is still fully usable *)
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 100 do
    Btree.insert tx t ~key:(ikey i) ~value:"again"
  done;
  Txn.commit h.Harness.mgr tx;
  check Alcotest.int "works after vacuum" 100 (entry_count t)

let test_vacuum_preserves_contents () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  let rng = Rng.create 31 in
  let keep = Hashtbl.create 64 in
  for i = 1 to 3000 do
    Btree.insert tx t ~key:(ikey i) ~value:(string_of_int i)
  done;
  for i = 1 to 3000 do
    if Rng.float rng < 0.9 then Btree.delete tx t ~key:(ikey i)
    else Hashtbl.replace keep i ()
  done;
  Txn.commit h.Harness.mgr tx;
  ignore (Btree.vacuum t);
  check Alcotest.int "survivors" (Hashtbl.length keep) (entry_count t);
  Hashtbl.iter
    (fun i () -> assert (Btree.search t (ikey i) = Some (string_of_int i)))
    keep;
  (* ordered iteration (the leaf chain was re-linked) *)
  let prev = ref "" in
  Btree.iter t (fun k _ ->
      assert (String.compare !prev k < 0);
      prev := k);
  (* vacuum is idempotent *)
  check Alcotest.int "second vacuum frees nothing" 0 (Btree.vacuum t)

let test_vacuum_survives_crash () =
  let h, t = make_tree () in
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 2000 do
    Btree.insert tx t ~key:(ikey i) ~value:"x"
  done;
  for i = 1 to 1990 do
    Btree.delete tx t ~key:(ikey i)
  done;
  Txn.commit h.Harness.mgr tx;
  ignore (Btree.vacuum t);
  (* redo must rebuild the vacuumed structure *)
  Ivdb_wal.Wal.force h.Harness.wal (Ivdb_wal.Wal.last_lsn h.Harness.wal);
  let h' = Ivdb_test_support.Harness.crash h ~pool_capacity:256 in
  let analysis = Ivdb_recovery.Recovery.analyze h'.Harness.wal in
  ignore (Ivdb_recovery.Recovery.redo h'.Harness.wal h'.Harness.pool analysis);
  let t' = Btree.attach h'.Harness.mgr ~index_id:1 ~root:(Btree.root t) in
  check Alcotest.int "entries after crash" 10 (entry_count t');
  assert (Btree.search t' (ikey 1995) = Some "x")

module SM = Map.Make (String)

(* --- split points ------------------------------------------------------------ *)

let read h pid f = Bufpool.read h.Harness.pool pid f

let rec leftmost_leaf h pid =
  match read h pid (fun p -> if Bt_node.is_leaf p then None else Some (Bt_node.child_at p 0)) with
  | None -> pid
  | Some c -> leftmost_leaf h c

(* The leaves in chain order, from the leftmost. *)
let leaf_chain h t =
  let rec go pid acc =
    let next = read h pid Bt_node.get_aux in
    if next = 0 then List.rev (pid :: acc) else go next (pid :: acc)
  in
  go (leftmost_leaf h (Btree.root t)) []

(* The tree's shape agrees with [expect], its entries in key order: keys
   sorted within each node, every separator bounding its children, and a
   leaf chain that visits the leaves of a left-to-right walk, each once. *)
let well_formed h t expect =
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
    | _ -> true
  in
  let within lo hi k = String.compare lo k <= 0 && (hi = None || String.compare k (Option.get hi) < 0) in
  let rec walk pid lo hi =
    if read h pid Bt_node.is_leaf then begin
      let cells = read h pid Bt_node.leaf_cells in
      let keys = List.map fst cells in
      if not (sorted keys && List.for_all (within lo hi) keys) then
        QCheck.Test.fail_reportf "leaf %d out of order or bounds" pid;
      [ (pid, cells) ]
    end
    else begin
      let child0, seps = read h pid Bt_node.interior_cells in
      let keys = List.map fst seps in
      if not (sorted keys && List.for_all (within lo hi) keys) then
        QCheck.Test.fail_reportf "interior %d out of order or bounds" pid;
      let rec children lo c = function
        | [] -> walk c lo hi
        | (k, c') :: rest -> walk c lo (Some k) @ children k c' rest
      in
      children lo child0 seps
    end
  in
  let leaves = walk (Btree.root t) "" None in
  List.map fst leaves = leaf_chain h t && List.concat_map snd leaves = expect

(* Ascending keys leave every leaf but the last at least 90% full. *)
let test_ascending_fill () =
  let h, t = make_tree () in
  let capacity = read h (Btree.root t) Bt_node.free_space in
  let tx = Txn.begin_txn h.Harness.mgr in
  for i = 1 to 5000 do
    Btree.insert tx t ~key:(ikey i) ~value:(Printf.sprintf "v%d" i)
  done;
  Txn.commit h.Harness.mgr tx;
  let leaves = leaf_chain h t in
  Alcotest.(check bool) "several leaves" true (List.length leaves > 5);
  List.iteri
    (fun i pid ->
      let fill = 1. -. (float (read h pid Bt_node.free_space) /. float capacity) in
      if i < List.length leaves - 1 && fill < 0.9 then
        Alcotest.failf "leaf %d of %d is %.0f%% full" i (List.length leaves) (100. *. fill))
    leaves

(* Insert orders that meet each split rule: ascending, descending, random,
   and ids drawn in order by eight writers that insert them out of order.
   Values vary in size, and some updates grow them, so a split can also
   make room for a key already in its node. *)
let prop_split_orders =
  QCheck.Test.make ~name:"split orders keep the tree well formed" ~count:24
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, order) ->
      let h, t = make_tree () in
      let rng = Rng.create seed in
      let n = 1500 in
      let ids =
        match order with
        | 0 -> Array.init n (fun i -> i)
        | 1 -> Array.init n (fun i -> n - i)
        | 2 ->
            let a = Array.init n (fun i -> i) in
            shuffle rng a;
            a
        | _ ->
            let a = Array.init n (fun i -> i) in
            for i = 0 to n - 2 do
              let j = min (n - 1) (i + Rng.int rng 8) in
              let x = a.(i) in
              a.(i) <- a.(j);
              a.(j) <- x
            done;
            a
      in
      let tx = Txn.begin_txn h.Harness.mgr in
      let model = ref SM.empty in
      Array.iter
        (fun i ->
          let v = String.make (1 + Rng.int rng 60) 'v' in
          Btree.insert tx t ~key:(ikey i) ~value:v;
          model := SM.add (ikey i) v !model;
          if Rng.int rng 10 = 0 then begin
            let k, _ = SM.choose !model in
            let v = String.make (1 + Rng.int rng 200) 'u' in
            Btree.update tx t ~key:k ~value:v;
            model := SM.add k v !model
          end)
        ids;
      Txn.commit h.Harness.mgr tx;
      well_formed h t (SM.bindings !model))

(* --- model-based property ----------------------------------------------------- *)

let prop_model =
  QCheck.Test.make ~name:"btree vs Map model" ~count:60 QCheck.small_int (fun seed ->
      let h, t = make_tree () in
      let tx = Txn.begin_txn h.Harness.mgr in
      let rng = Rng.create seed in
      let model = ref SM.empty in
      for _ = 1 to 400 do
        let k = ikey (Rng.int rng 120) in
        match Rng.int rng 4 with
        | 0 -> (
            let v = string_of_int (Rng.int rng 1000) in
            match SM.find_opt k !model with
            | Some _ -> (
                try
                  Btree.insert tx t ~key:k ~value:v;
                  assert false
                with Btree.Duplicate_key _ -> ())
            | None ->
                Btree.insert tx t ~key:k ~value:v;
                model := SM.add k v !model)
        | 1 -> (
            match SM.find_opt k !model with
            | Some _ ->
                Btree.delete tx t ~key:k;
                model := SM.remove k !model
            | None -> ( try Btree.delete tx t ~key:k with Not_found -> ()))
        | 2 -> (
            let v = string_of_int (Rng.int rng 1000) in
            match SM.find_opt k !model with
            | Some _ ->
                Btree.update tx t ~key:k ~value:v;
                model := SM.add k v !model
            | None -> ( try Btree.update tx t ~key:k ~value:v with Not_found -> ()))
        | _ -> assert (Btree.search t k = SM.find_opt k !model)
      done;
      Txn.commit h.Harness.mgr tx;
      (* final: full contents equal, in order *)
      let actual = ref [] in
      Btree.iter t (fun k v -> actual := (k, v) :: !actual);
      List.rev !actual = SM.bindings !model)

let () =
  Alcotest.run "btree"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty_tree;
          Alcotest.test_case "insert/search/delete" `Quick test_insert_search_delete;
          Alcotest.test_case "duplicate key" `Quick test_duplicate_key;
          Alcotest.test_case "update" `Quick test_update_in_place;
          Alcotest.test_case "entry too large" `Quick test_entry_too_large;
        ] );
      ( "volume",
        [
          Alcotest.test_case "bulk ascending" `Quick test_bulk_ascending;
          Alcotest.test_case "random with deletes" `Quick test_bulk_random_with_deletes;
          Alcotest.test_case "variable-size entries" `Quick test_variable_size_entries;
        ] );
      ( "ordered",
        [
          Alcotest.test_case "next_key" `Quick test_next_key;
          Alcotest.test_case "cursor scan" `Quick test_cursor_scan;
          Alcotest.test_case "cursor survives modification" `Quick
            test_cursor_survives_modification;
        ] );
      ( "vacuum",
        [
          Alcotest.test_case "reclaims empty tree" `Quick test_vacuum_reclaims_empty_tree;
          Alcotest.test_case "preserves contents" `Quick test_vacuum_preserves_contents;
          Alcotest.test_case "survives crash" `Quick test_vacuum_survives_crash;
        ] );
      ( "splits",
        [
          Alcotest.test_case "ascending inserts fill leaves" `Quick test_ascending_fill;
          qtest prop_split_orders;
        ] );
      ("model", [ qtest prop_model ]);
    ]
