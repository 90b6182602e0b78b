module Page = Ivdb_storage.Page
module Page_diff = Ivdb_storage.Page_diff
module Page_writer = Ivdb_storage.Page_writer
module Disk = Ivdb_storage.Disk
module Bufpool = Ivdb_storage.Bufpool
module Heap_page = Ivdb_storage.Heap_page
module Heap_file = Ivdb_storage.Heap_file
module Bt_node = Ivdb_btree.Bt_node
module Metrics = Ivdb_util.Metrics
module Rng = Ivdb_util.Rng
module B = Ivdb_util.Bytes_util
module Harness = Ivdb_test_support.Harness

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let disk_read d id =
  let buf = Bytes.create Page.size in
  Disk.read_into d id buf;
  buf

(* Header fields read at the offsets page.mli and heap_page.mli document. *)
let checksum_field p = B.get_u32 p 9
let nslots p = B.get_u16 p 17

(* [Page_diff.decode] of the encoded diff, as the log codec runs them. *)
let diff_roundtrip d =
  let b = Bytes.create (Page_diff.byte_size d) in
  ignore (Page_diff.encode_into d b 0);
  Page_diff.decode_sub b 0 (Bytes.length b)

(* --- Page ----------------------------------------------------------------- *)

let test_page_header () =
  let p = Page.alloc () in
  check Alcotest.int "size" 8192 Page.size;
  Alcotest.(check bool) "starts free" true (Page.get_ty p = Page.Free);
  Page.set_ty (Page_writer.on p) Page.Heap;
  Page.set_lsn p 123L;
  Alcotest.(check bool) "type" true (Page.get_ty p = Page.Heap);
  check Alcotest.int64 "lsn" 123L (Page.get_lsn p)

(* --- Page_diff ------------------------------------------------------------ *)

let test_diff_empty () =
  let a = Page.alloc () in
  let d = Page_diff.compute ~before:a ~after:(Bytes.copy a) in
  Alcotest.(check bool) "no diff" true (Page_diff.is_empty d)

let test_diff_ignores_lsn () =
  let a = Page.alloc () in
  let b = Bytes.copy a in
  Page.set_lsn b 999L;
  Alcotest.(check bool) "lsn excluded" true
    (Page_diff.is_empty (Page_diff.compute ~before:a ~after:b))

let prop_diff_apply =
  QCheck.Test.make ~name:"apply(compute(a,b)) recovers b" ~count:200
    QCheck.(pair int int)
    (fun (seed, nmut) ->
      let rng = Rng.create seed in
      let nmut = 1 + (abs nmut mod 50) in
      let a = Page.alloc () in
      (* random original content *)
      for _ = 0 to 200 do
        Bytes.set a (8 + Rng.int rng (Page.size - 8)) (Char.chr (Rng.int rng 256))
      done;
      let b = Bytes.copy a in
      for _ = 1 to nmut do
        Bytes.set b (8 + Rng.int rng (Page.size - 8)) (Char.chr (Rng.int rng 256))
      done;
      let d = Page_diff.compute ~before:a ~after:b in
      let d' = diff_roundtrip d in
      let restored = Bytes.copy a in
      Page_diff.apply (Page_writer.on restored) d';
      Bytes.sub restored 8 (Page.size - 8) = Bytes.sub b 8 (Page.size - 8))

(* Oracle for [Page_diff.compute]: one byte at a time, no word skipping,
   the same rule that merges runs fewer than 8 equal bytes apart. *)
let bytewise_diff ~before ~after =
  let n = Bytes.length before in
  let ranges = ref [] in
  let i = ref 8 in
  while !i < n do
    if Bytes.get before !i <> Bytes.get after !i then begin
      let start = !i in
      let last_diff = ref !i in
      incr i;
      let continue = ref true in
      while !continue && !i < n do
        if Bytes.get before !i <> Bytes.get after !i then begin
          last_diff := !i;
          incr i
        end
        else if !i - !last_diff < 8 then incr i
        else continue := false
      done;
      ranges := (start, Bytes.sub_string after start (!last_diff - start + 1)) :: !ranges
    end
    else incr i
  done;
  List.rev !ranges

let prop_diff_matches_bytewise =
  QCheck.Test.make ~name:"compute = byte-at-a-time reference" ~count:500
    QCheck.(pair int (int_bound 3))
    (fun (seed, shape) ->
      let rng = Rng.create seed in
      let a = Page.alloc () in
      for _ = 0 to 200 do
        Bytes.set a (8 + Rng.int rng (Page.size - 8)) (Char.chr (Rng.int rng 256))
      done;
      let b = Bytes.copy a in
      (* change the byte at [off] to any other value *)
      let flip off =
        if off < Page.size then
          Bytes.set b off
            (Char.chr ((Char.code (Bytes.get a off) + 1 + Rng.int rng 255) land 255))
      in
      (match shape with
      | 0 -> () (* identical pages *)
      | 1 ->
          (* word and page edges: the first compared byte, both sides of a
             word boundary, the last word and the last byte *)
          List.iter
            (fun off -> if Rng.int rng 2 = 0 then flip off)
            [ 8; 15; 16; Page.size - 8; Page.size - 1 ];
          flip [| 8; 15; 16; Page.size - 8; Page.size - 1 |].(Rng.int rng 5)
      | 2 ->
          (* runs separated by gaps of 7, 8 and 9 equal bytes: the first
             merges, the others split (merge_gap = 8); some start near
             the end of the page *)
          let off =
            ref (if Rng.int rng 2 = 0 then 8 + Rng.int rng 64 else Page.size - 48 + Rng.int rng 16)
          in
          for _ = 1 to 1 + Rng.int rng 6 do
            let len = 1 + Rng.int rng 5 in
            for k = 0 to len - 1 do
              flip (!off + k)
            done;
            off := !off + len + [| 7; 8; 9 |].(Rng.int rng 3)
          done
      | _ ->
          for _ = 1 to 1 + Rng.int rng 50 do
            flip (8 + Rng.int rng (Page.size - 8))
          done);
      Page.set_lsn b (Int64.of_int (Rng.int rng 1_000_000));
      Page_diff.compute ~before:a ~after:b = bytewise_diff ~before:a ~after:b)

let test_diff_decode_rejects () =
  (* [encode] writes whatever it is given; [decode] takes only what
     [compute] can produce *)
  let rejects name d =
    Alcotest.check_raises name (Invalid_argument "Page_diff.decode: malformed diff")
      (fun () -> ignore (diff_roundtrip d))
  in
  rejects "offset 0 (the pageLSN)" [ (0, "x") ];
  rejects "offset 7, overlapping the type byte" [ (7, "ab") ];
  rejects "past the page end" [ (Page.size - 1, "ab") ];
  rejects "zero length" [ (100, "") ];
  rejects "unsorted" [ (200, "a"); (100, "b") ];
  rejects "overlapping" [ (100, "abc"); (102, "d") ];
  rejects "repeated offset" [ (100, "a"); (100, "b") ];
  let edges = [ (8, "a"); (Page.size - 1, "z") ] in
  Alcotest.(check (list (pair int string)))
    "page edges accepted" edges
    (diff_roundtrip edges)

(* --- Disk ------------------------------------------------------------------ *)

let test_disk_rw () =
  let m = Metrics.create () in
  let d = Disk.create ~read_cost:0 ~write_cost:0 m in
  let id = Disk.alloc_page d in
  let p = Page.alloc () in
  Bytes.set p 100 'Z';
  Disk.write d id p;
  Bytes.set p 100 'Y';
  (* mutation after write must not leak into the stable copy *)
  let q = disk_read d id in
  check Alcotest.char "stable copy" 'Z' (Bytes.get q 100);
  check Alcotest.int "reads counted" 1 (Metrics.get m "disk.read");
  check Alcotest.int "writes counted" 1 (Metrics.get m "disk.write")

let test_disk_unwritten_vs_bogus () =
  let m = Metrics.create () in
  let d = Disk.create ~read_cost:0 ~write_cost:0 m in
  (* allocated but never flushed: legitimate (e.g. crash beat the first
     write-back) — reads as zeroes, counted separately *)
  let id = Disk.alloc_page d in
  let q = disk_read d id in
  Alcotest.(check bool) "zeroed" true (Bytes.for_all (fun c -> c = '\000') q);
  check Alcotest.int "unwritten counted" 1 (Metrics.get m "disk.read_unwritten");
  (* never-allocated id: a dangling reference — no page is fabricated
     for it *)
  Alcotest.check_raises "bogus id rejected"
    (Invalid_argument "Disk.read: page 999 was never allocated") (fun () ->
      ignore (disk_read d 999));
  check Alcotest.int "bogus counted" 1 (Metrics.get m "disk.read_bogus")

let test_disk_checksum_roundtrip () =
  let m = Metrics.create () in
  let d = Disk.create ~read_cost:0 ~write_cost:0 m in
  let id = Disk.alloc_page d in
  let p = Page.alloc () in
  Page.set_lsn p 42L;
  Bytes.set p 4000 'Q';
  Disk.write d id p;
  Alcotest.(check bool) "stored image verifies" false (Disk.is_torn d id);
  let q = disk_read d id in
  (* the checksum lives only on the stable image: the pool-facing copy
     reads back with the field zeroed and is byte-equal to what was
     written *)
  check Alcotest.int "checksum field zero" 0 (checksum_field q);
  Alcotest.(check bool) "image equal" true (Bytes.equal p q)

(* --- Heap_page -------------------------------------------------------------- *)

let test_heap_page_insert_get_delete () =
  let p = Page.alloc () in
  let w = Page_writer.on p in
  Heap_page.init w;
  let s1 = Heap_page.insert w "hello" and s2 = Heap_page.insert w "world!" in
  check Alcotest.(option int) "slot 0" (Some 0) s1;
  check Alcotest.(option int) "slot 1" (Some 1) s2;
  check Alcotest.(option string) "get 0" (Some "hello") (Heap_page.get p 0);
  Alcotest.(check bool) "delete" true (Heap_page.delete w 0);
  check Alcotest.(option string) "ghosted" None (Heap_page.get p 0);
  check Alcotest.(option string) "ghost bytes retained" (Some "hello")
    (Heap_page.get_any p 0);
  Alcotest.(check bool) "double delete" false (Heap_page.delete w 0);
  (* a ghost slot is not reused... *)
  check Alcotest.(option int) "ghost slot skipped" (Some 2) (Heap_page.insert w "again");
  (* ...until revived or reclaimed *)
  Alcotest.(check bool) "revive" true (Heap_page.revive w 0);
  check Alcotest.(option string) "revived" (Some "hello") (Heap_page.get p 0);
  Alcotest.(check bool) "delete again" true (Heap_page.delete w 0);
  Alcotest.(check bool) "free ghost" true (Heap_page.free_ghost w 0);
  check Alcotest.(option int) "slot reused after reclaim" (Some 0)
    (Heap_page.insert w "reuse")

let test_heap_page_fill_and_compact () =
  let p = Page.alloc () in
  let w = Page_writer.on p in
  Heap_page.init w;
  let record = String.make 100 'x' in
  let inserted = ref 0 in
  (try
     while Heap_page.insert w record <> None do
       incr inserted
     done
   with _ -> ());
  Alcotest.(check bool) "fills ~78 records" true (!inserted >= 75 && !inserted <= 82);
  (* ghost-delete then reclaim every other record; a large record must then
     fit via compaction *)
  for i = 0 to (!inserted - 1) / 2 do
    ignore (Heap_page.delete w (2 * i));
    ignore (Heap_page.free_ghost w (2 * i))
  done;
  let big = String.make 2000 'y' in
  Alcotest.(check bool) "compaction reclaims" true (Heap_page.insert w big <> None)

let test_heap_page_set_in_place () =
  let p = Page.alloc () in
  let w = Page_writer.on p in
  Heap_page.init w;
  ignore (Heap_page.insert w "abcde");
  Alcotest.(check bool) "same-size set" true (Heap_page.set w 0 "vwxyz");
  check Alcotest.(option string) "updated" (Some "vwxyz") (Heap_page.get p 0);
  Alcotest.(check bool) "size-change rejected" false (Heap_page.set w 0 "toolong!")

let test_heap_page_too_large () =
  let p = Page.alloc () in
  let w = Page_writer.on p in
  Heap_page.init w;
  Alcotest.check_raises "oversize record"
    (Invalid_argument "Heap_page.insert: record too large") (fun () ->
      ignore (Heap_page.insert w (String.make 8300 'x')))

(* model-based: page behaves like an int->string table *)
let prop_heap_page_model =
  QCheck.Test.make ~name:"heap page vs model" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let p = Page.alloc () in
      let w = Page_writer.on p in
      Heap_page.init w;
      let model = Hashtbl.create 32 in
      for _ = 1 to 300 do
        match Rng.int rng 3 with
        | 0 ->
            let len = 1 + Rng.int rng 50 in
            let r = String.make len (Char.chr (97 + Rng.int rng 26)) in
            (match Heap_page.insert w r with
            | Some slot ->
                assert (not (Hashtbl.mem model slot));
                Hashtbl.replace model slot r
            | None -> ())
        | 1 ->
            let slots = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
            (match slots with
            | [] -> ()
            | _ ->
                let s = List.nth slots (Rng.int rng (List.length slots)) in
                assert (Heap_page.delete w s);
                assert (Heap_page.free_ghost w s);
                Hashtbl.remove model s)
        | _ ->
            let n = nslots p in
            if n > 0 then begin
              let s = Rng.int rng n in
              let expect = Hashtbl.find_opt model s in
              assert (Heap_page.get p s = expect)
            end
      done;
      Hashtbl.fold (fun s r ok -> ok && Heap_page.get p s = Some r) model true)

(* [insert] takes the lowest empty slot from the page header instead of
   walking the directory; the walk stays here as the oracle. Every step's
   recorded diff is also applied to a replica page, and the two swap
   roles now and then, so the header survives redo as well: random
   inserts (of sizes that force compaction once deletes and ghost
   reclamation leave dead cells), deletes, revivals and reclamations. *)
let lowest_empty p =
  let n = nslots p in
  let rec go i = if i >= n || Heap_page.get_any p i = None then i else go (i + 1) in
  go 0

let prop_heap_page_lowest_empty =
  QCheck.Test.make ~name:"insert takes the lowest empty slot" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let fresh () =
        let p = Page.alloc () in
        let w = Page_writer.on p in
        Heap_page.init w;
        (p, w)
      in
      let (p, w), (r, wr) = (fresh (), fresh ()) in
      let cur = ref (p, w) and other = ref (r, wr) in
      for step = 1 to 400 do
        let p, w = !cur and r, wr = !other in
        Page_writer.reset w p;
        let slot () = Rng.int rng (max 1 (nslots p)) in
        (match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 -> (
            let expect = lowest_empty p in
            match Heap_page.insert w (String.make (Rng.int rng 300) (Char.chr (97 + step mod 26))) with
            | Some s when s <> expect ->
                QCheck.Test.fail_reportf "step %d: slot %d, lowest empty %d" step s expect
            | Some _ | None -> ())
        | 4 | 5 -> ignore (Heap_page.delete w (slot ()))
        | 6 -> ignore (Heap_page.revive w (slot ()))
        | _ -> ignore (Heap_page.free_ghost w (slot ())));
        Page_writer.reset wr r;
        Page_diff.apply wr (Page_diff.recorded w);
        if not (Bytes.equal (Bytes.sub p 8 (Page.size - 8)) (Bytes.sub r 8 (Page.size - 8)))
        then QCheck.Test.fail_reportf "step %d: replica differs" step;
        if Rng.int rng 8 = 0 then begin
          cur := (r, wr);
          other := (p, w)
        end
      done;
      true)

(* --- Bufpool ----------------------------------------------------------------- *)

let set_char w off c = Page_writer.set_u8 w off (Char.code c)

let make_pool ?(capacity = 4) () =
  let m = Metrics.create () in
  let d = Disk.create ~read_cost:0 ~write_cost:0 m in
  let pool = Bufpool.create d ~capacity m in
  let forced = ref [] in
  Bufpool.set_wal_force pool (fun lsn -> forced := lsn :: !forced);
  (m, d, pool, forced)

let test_bufpool_hit_miss () =
  let m, d, pool, _ = make_pool () in
  let id = Disk.alloc_page d in
  Bufpool.read pool id (fun _ -> ());
  Bufpool.read pool id (fun _ -> ());
  check Alcotest.int "one miss" 1 (Metrics.get m "buffer.miss");
  check Alcotest.int "one hit" 1 (Metrics.get m "buffer.hit")

let test_bufpool_update_stamp_flush () =
  let _, d, pool, forced = make_pool () in
  let id = Disk.alloc_page d in
  let (), diff = Bufpool.update pool id (fun w -> set_char w 100 'A') in
  Alcotest.(check bool) "diff captured" false (Page_diff.is_empty diff);
  Bufpool.stamp pool id 7L;
  Bufpool.flush_all pool;
  Alcotest.(check bool) "wal forced before flush" true (List.mem 7L !forced);
  let stable = disk_read d id in
  check Alcotest.char "flushed content" 'A' (Bytes.get stable 100);
  check Alcotest.int64 "flushed lsn" 7L (Page.get_lsn stable)

let test_bufpool_eviction_respects_capacity () =
  let m, d, pool, _ = make_pool ~capacity:3 () in
  let ids = List.init 6 (fun _ -> Disk.alloc_page d) in
  List.iter (fun id -> Bufpool.read pool id (fun _ -> ())) ids;
  Alcotest.(check bool) "evictions happened" true (Metrics.get m "buffer.evict" >= 3)

let test_bufpool_clock_second_chance () =
  let m, d, pool, _ = make_pool ~capacity:3 () in
  let a = Disk.alloc_page d
  and b = Disk.alloc_page d
  and c = Disk.alloc_page d in
  List.iter (fun id -> Bufpool.read pool id (fun _ -> ())) [ a; b; c ];
  (* the hand sweeps a full revolution clearing reference bits, then takes
     the oldest frame: a *)
  Bufpool.read pool (Disk.alloc_page d) (fun _ -> ());
  (* re-reference b: the next eviction must pass it over and take c *)
  Bufpool.read pool b (fun _ -> ());
  Bufpool.read pool (Disk.alloc_page d) (fun _ -> ());
  let hits = Metrics.get m "buffer.hit" in
  Bufpool.read pool b (fun _ -> ());
  check Alcotest.int "b survived both evictions" (hits + 1) (Metrics.get m "buffer.hit")

let test_bufpool_dirty_churn_consistent () =
  (* evictions write dirty frames back; after heavy churn every page reads
     back with its last update, whether served from a frame or from disk *)
  let _, d, pool, _ = make_pool ~capacity:4 () in
  let ids = Array.init 12 (fun _ -> Disk.alloc_page d) in
  Array.iteri
    (fun i id ->
      let (), _ = Bufpool.update pool id (fun w -> set_char w 80 (Char.chr (65 + i))) in
      Bufpool.stamp pool id (Int64.of_int (i + 1)))
    ids;
  Array.iteri
    (fun i id ->
      Bufpool.read pool id (fun p ->
          check Alcotest.char "content survives churn" (Char.chr (65 + i))
            (Bytes.get p 80)))
    ids;
  Bufpool.flush_all pool;
  check Alcotest.(list (pair int int64)) "all clean" [] (Bufpool.dirty_page_table pool)

let test_bufpool_unstamped_not_evicted () =
  let _, d, pool, _ = make_pool ~capacity:2 () in
  let a = Disk.alloc_page d in
  let (), _ = Bufpool.update pool a (fun w -> set_char w 50 'U') in
  (* a is modified but unstamped: loading more pages must not evict it *)
  for _ = 1 to 4 do
    Bufpool.read pool (Disk.alloc_page d) (fun _ -> ())
  done;
  Bufpool.read pool a (fun p -> check Alcotest.char "still buffered" 'U' (Bytes.get p 50));
  (* stable copy must not have the change *)
  let stable = disk_read d a in
  check Alcotest.char "not flushed" '\000' (Bytes.get stable 50)

let test_bufpool_dpt () =
  let _, d, pool, _ = make_pool () in
  let a = Disk.alloc_page d and b = Disk.alloc_page d in
  let (), _ = Bufpool.update pool a (fun w -> set_char w 60 'x') in
  Bufpool.stamp pool a 3L;
  let (), _ = Bufpool.update pool b (fun w -> set_char w 60 'y') in
  Bufpool.stamp pool b 5L;
  let dpt = List.sort compare (Bufpool.dirty_page_table pool) in
  check Alcotest.(list (pair int int64)) "dpt" [ (a, 3L); (b, 5L) ] dpt;
  Bufpool.flush_all pool;
  check Alcotest.(list (pair int int64)) "clean" [] (Bufpool.dirty_page_table pool)

let test_bufpool_drop_all () =
  let _, d, pool, _ = make_pool () in
  let a = Disk.alloc_page d in
  let (), _ = Bufpool.update pool a (fun w -> set_char w 60 'x') in
  Bufpool.stamp pool a 3L;
  Bufpool.drop_all pool;
  (* change was volatile-only: gone after the crash *)
  Bufpool.read pool a (fun p -> check Alcotest.char "lost" '\000' (Bytes.get p 60))

exception Boom

let test_bufpool_update_raise_restores () =
  (* regression: a mutation callback that dies mid-update used to leave its
     half-written bytes in a frame that looked clean (dirty = false, no
     no-steal window) — evictable to disk with no covering log record *)
  let _, d, pool, _ = make_pool ~capacity:2 () in
  let a = Disk.alloc_page d in
  let (), _ = Bufpool.update pool a (fun w -> set_char w 200 'G') in
  Bufpool.stamp pool a 1L;
  (try
     ignore
       (Bufpool.update pool a (fun w ->
            set_char w 200 'X';
            set_char w 300 'X';
            raise Boom))
   with Boom -> ());
  Bufpool.read pool a (fun p ->
      check Alcotest.char "mutation rolled back" 'G' (Bytes.get p 200);
      check Alcotest.char "second byte rolled back" '\000' (Bytes.get p 300));
  (* the writer goes back to the pool after the raise: the next updates,
     on this page and another, diff only their own writes *)
  let diff = Alcotest.(list (pair int string)) in
  let (), da = Bufpool.update pool a (fun w -> set_char w 400 'Q') in
  check diff "same page: only its change" [ (400, "Q") ] da;
  Bufpool.stamp pool a 2L;
  let b = Disk.alloc_page d in
  let (), db = Bufpool.update pool b (fun w -> set_char w 500 'R') in
  check diff "other page: only its change" [ (500, "R") ] db;
  Bufpool.stamp pool b 3L;
  (* the frame is clean: evicting it must not write the poisoned bytes *)
  for _ = 1 to 4 do
    Bufpool.read pool (Disk.alloc_page d) (fun _ -> ())
  done;
  let stable = disk_read d a in
  check Alcotest.char "stable image intact" 'G' (Bytes.get stable 200);
  (* a mutator that raises after partial writes: a leaf rebuild formats
     the node, then runs out of room partway through its cells; the
     frame must come back byte-identical to its pre-image *)
  let c = Disk.alloc_page d in
  let cells = List.init 40 (fun i -> (Printf.sprintf "k%03d" i, String.make 200 'v')) in
  let (), _ =
    Bufpool.update pool c (fun w ->
        Bt_node.init_leaf w;
        List.iteri
          (fun i (k, v) -> if i < 20 then ignore (Bt_node.leaf_insert w i k v))
          cells;
        Bt_node.set_aux w 7)
  in
  Bufpool.stamp pool c 4L;
  let pre = Bufpool.read pool c Bytes.copy in
  Alcotest.check_raises "rebuild does not fit"
    (Invalid_argument "Bt_node.leaf_rebuild: does not fit") (fun () ->
      ignore (Bufpool.update pool c (fun w -> Bt_node.leaf_rebuild w cells ~next:9)));
  Bufpool.read pool c (fun p ->
      Alcotest.(check bool) "frame equals its pre-image" true (Bytes.equal p pre))

let test_bufpool_reused_buffers () =
  (* a capacity-2 pool evicts dirty pages and reads misses into the
     evicted frames' buffers; a model of every page must agree with the
     pool, with each diff, and with the disk after a flush *)
  let _, d, pool, _ = make_pool ~capacity:2 () in
  let rng = Rng.create 7 in
  let ids = Array.init 6 (fun _ -> Disk.alloc_page d) in
  let model = Array.map (fun _ -> Page.alloc ()) ids in
  for step = 1 to 300 do
    let i = Rng.int rng (Array.length ids) in
    let off = 8 + Rng.int rng (Page.size - 40) in
    let run = String.init (1 + Rng.int rng 32) (fun _ -> Char.chr (Rng.int rng 256)) in
    let before = Bytes.copy model.(i) in
    Bytes.blit_string run 0 model.(i) off (String.length run);
    let (), diff =
      Bufpool.update pool ids.(i) (fun w -> Page_writer.blit_string run 0 w off (String.length run))
    in
    Page_diff.apply (Page_writer.on before) diff;
    Alcotest.(check bool) "diff takes the old page to the new" true
      (Bytes.sub before 8 (Page.size - 8) = Bytes.sub model.(i) 8 (Page.size - 8));
    let lsn = Int64.of_int step in
    Bufpool.stamp pool ids.(i) lsn;
    Page.set_lsn model.(i) lsn
  done;
  Array.iteri
    (fun i id ->
      Bufpool.read pool id (fun p ->
          check Alcotest.int "checksum field reads as 0" 0 (checksum_field p);
          Alcotest.(check bool) "pool page = last update" true (Bytes.equal p model.(i))))
    ids;
  Bufpool.flush_all pool;
  Array.iteri
    (fun i id ->
      Alcotest.(check bool) "stored image verifies" false (Disk.is_torn d id);
      Alcotest.(check bool) "disk page = last update" true
        (Bytes.equal (disk_read d id) model.(i)))
    ids

let test_bufpool_capacity_zero () =
  (* regression: an empty clock ring must not divide by zero; a capacity-0
     pool degenerates to overflow-on-every-miss but stays functional *)
  let m, d, pool, _ = make_pool ~capacity:0 () in
  let a = Disk.alloc_page d and b = Disk.alloc_page d in
  let (), _ = Bufpool.update pool a (fun w -> set_char w 90 'z') in
  Bufpool.stamp pool a 1L;
  Bufpool.read pool b (fun _ -> ());
  Bufpool.read pool a (fun p -> check Alcotest.char "still readable" 'z' (Bytes.get p 90));
  Alcotest.(check bool) "overflowed" true (Metrics.get m "buffer.overflow" > 0)

(* A torn write cuts inside the bytes where the old and new images
   differ, so the page it leaves is neither image and fails its checksum:
   a two-byte change far from the header tears under every fault seed. *)
let test_torn_write_tears () =
  let module Fault = Ivdb_storage.Fault in
  for seed = 1 to 40 do
    let m = Metrics.create () in
    let d = Disk.create ~read_cost:0 ~write_cost:0 m in
    let id = Disk.alloc_page d in
    let page = Page.alloc () in
    Disk.write d id page;
    Disk.set_fault d
      (Fault.create m
         { Fault.no_faults with fault_seed = seed; crash_at_write = Some 1; torn_writes = true });
    let changed = Bytes.copy page in
    Bytes.set changed 5000 'x';
    Bytes.set changed 5100 'y';
    (match Disk.write d id changed with
    | () -> Alcotest.fail "the torn write did not crash"
    | exception Fault.Crash_point _ -> ());
    if not (Disk.is_torn d id) then
      Alcotest.failf "fault seed %d: the torn write left a whole page" seed
  done

let test_bufpool_io_retry () =
  let m = Metrics.create () in
  let d = Disk.create ~read_cost:0 ~write_cost:0 m in
  (* every I/O fails, but never more than 2 in a row — below the pool's
     retry budget, so operations always converge *)
  let plan =
    Ivdb_storage.Fault.create m
      {
        Ivdb_storage.Fault.no_faults with
        fault_seed = 5;
        read_error_p = 1.0;
        write_error_p = 1.0;
        max_consecutive_errors = 2;
      }
  in
  Disk.set_fault d plan;
  let pool = Bufpool.create d ~capacity:2 m in
  Bufpool.set_wal_force pool (fun _ -> ());
  let a = Disk.alloc_page d in
  let (), _ = Bufpool.update pool a (fun w -> set_char w 70 'R') in
  Bufpool.stamp pool a 1L;
  Bufpool.flush_all pool;
  Bufpool.drop_all pool;
  Bufpool.read pool a (fun p ->
      check Alcotest.char "survived the error storm" 'R' (Bytes.get p 70));
  Alcotest.(check bool) "retries happened" true (Metrics.get m "buffer.io_retry" > 0);
  Alcotest.(check bool) "errors injected" true
    (Metrics.get m "fault.io_error_read" > 0
    && Metrics.get m "fault.io_error_write" > 0)

(* --- Page_writer: recorded diffs against the byte-at-a-time oracle --------- *)

let show_diff d =
  String.concat " "
    (List.map (fun (off, s) -> Printf.sprintf "%d+%d" off (String.length s)) d)

(* An update whose recorded diff must equal [bytewise_diff] of full page
   copies taken before and after it: a byte a mutator wrote around its
   writer shows up as a change the recorded diff misses. *)
let checked_update pool pid f =
  let before = Bufpool.read pool pid Bytes.copy in
  let r, diff = Bufpool.update pool pid f in
  let after = Bufpool.read pool pid Bytes.copy in
  let expect = bytewise_diff ~before ~after in
  if diff <> expect then
    QCheck.Test.fail_reportf "page %d: recorded [%s], bytewise [%s]" pid
      (show_diff diff) (show_diff expect);
  (r, diff)

let random_string rng len =
  String.init len (fun _ -> Char.chr (97 + Rng.int rng 6))

(* One random mutation per page kind; [`Freed] asks for a reformat next.
   Reformats are rare enough that pages fill, so inserts compact them
   once deletes and ghost reclamation have left dead cells behind. *)
let heap_op rng w =
  let p = Page_writer.page w in
  let slot () = Rng.int rng (max 1 (nslots p)) in
  let x = Rng.int rng 200 in
  if x < 80 then
    ignore (Heap_page.insert w (random_string rng (1 + Rng.int rng 400)))
  else if x < 100 then ignore (Heap_page.delete w (slot ()))
  else if x < 110 then ignore (Heap_page.revive w (slot ()))
  else if x < 150 then ignore (Heap_page.free_ghost w (slot ()))
  else if x < 190 then begin
    let s = slot () in
    match Heap_page.get p s with
    | Some r -> ignore (Heap_page.set w s (random_string rng (String.length r)))
    | None -> ()
  end
  else if x < 199 then Heap_page.set_next w (Rng.int rng 1000)
  else Page.set_ty w Page.Free;
  if x < 199 then `Ok else `Freed

(* a split's left or right half *)
let half rng l =
  let m = List.length l / 2 and left = Rng.int rng 2 = 0 in
  List.filteri (fun j _ -> j < m = left) l

let leaf_op rng w =
  let p = Page_writer.page w in
  let n = Bt_node.nkeys p in
  let x = Rng.int rng 200 in
  if x < 100 then begin
    let key = random_string rng (1 + Rng.int rng 12) in
    match Bt_node.search p key with
    | `Gap i ->
        ignore (Bt_node.leaf_insert w i key (random_string rng (Rng.int rng 120)))
    | `Found _ -> ()
  end
  else if x < 130 then (if n > 0 then Bt_node.leaf_delete w (Rng.int rng n))
  else if x < 180 then begin
    (* same size in place, or a size change re-inserted in the page *)
    if n > 0 then begin
      let i = Rng.int rng n in
      let len =
        if Rng.int rng 2 = 0 then String.length (Bt_node.leaf_value_at p i)
        else Rng.int rng 120
      in
      ignore (Bt_node.leaf_replace w i (random_string rng len))
    end
  end
  else if x < 182 then
    Bt_node.leaf_rebuild w (half rng (Bt_node.leaf_cells p)) ~next:(Rng.int rng 1000)
  else if x < 199 then Bt_node.set_aux w (Rng.int rng 1000)
  else Page.set_ty w Page.Free;
  if x < 199 then `Ok else `Freed

let interior_op rng w =
  let p = Page_writer.page w in
  let n = Bt_node.nkeys p in
  let x = Rng.int rng 200 in
  if x < 120 then begin
    let key = random_string rng (1 + Rng.int rng 100) in
    match Bt_node.search p key with
    | `Gap i -> ignore (Bt_node.interior_insert w i key (Rng.int rng 100_000))
    | `Found _ -> ()
  end
  else if x < 170 then (if n > 0 then Bt_node.interior_delete w (Rng.int rng n))
  else if x < 172 then begin
    let child0, seps = Bt_node.interior_cells p in
    Bt_node.interior_rebuild w child0 (half rng seps)
  end
  else if x < 199 then Bt_node.set_aux w (Rng.int rng 100_000)
  else Page.set_ty w Page.Free;
  if x < 199 then `Ok else `Freed

(* Random mutation sequences on a heap page, a B-tree leaf and a B-tree
   interior node, each update checked against the oracle; every diff is
   then replayed by redo's [Page_diff.apply] on a mirror page (itself a
   checked update), which must end equal to the page. *)
let prop_recorded_diff_is_bytewise =
  QCheck.Test.make ~name:"recorded diff = bytewise reference" ~count:15
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let _, d, pool, _ = make_pool ~capacity:8 () in
      let kinds =
        [
          (Heap_page.init, heap_op);
          (Bt_node.init_leaf, leaf_op);
          ((fun w -> Bt_node.interior_rebuild w 0 []), interior_op);
        ]
      in
      List.for_all
        (fun (init, op) ->
          let pid = Disk.alloc_page d and mirror = Disk.alloc_page d in
          let step f =
            let r, diff = checked_update pool pid f in
            let (), _ = checked_update pool mirror (fun w -> Page_diff.apply w diff) in
            r
          in
          step init;
          for _ = 1 to 400 do
            match step (op rng) with `Ok -> () | `Freed -> step init
          done;
          let body id = Bufpool.read pool id (fun p -> Bytes.sub p 8 (Page.size - 8)) in
          Bytes.equal (body pid) (body mirror))
        kinds)

(* --- Heap_file ----------------------------------------------------------------- *)

let make_heap () =
  let m = Metrics.create () in
  let d = Disk.create ~read_cost:0 ~write_cost:0 m in
  let pool = Bufpool.create d ~capacity:16 m in
  Bufpool.set_wal_force pool (fun _ -> ());
  let heap, diffs = Heap_file.create pool d in
  (* tests drive the heap without a log: stamp pages directly *)
  let stamp = List.iter (fun (pid, _) -> Bufpool.stamp pool pid 1L) in
  stamp diffs;
  (d, pool, heap, stamp)

let test_heap_file_crud () =
  let _, _, heap, stamp = make_heap () in
  let r1, d1 = Heap_file.insert heap "alpha" in
  stamp d1;
  let r2, d2 = Heap_file.insert heap "beta!" in
  stamp d2;
  check Alcotest.(option string) "get r1" (Some "alpha") (Heap_file.get heap r1);
  stamp (Heap_file.update heap r2 "BETA!");
  Alcotest.(check bool) "updated" true (Heap_file.get heap r2 = Some "BETA!");
  Alcotest.check_raises "size change rejected"
    (Invalid_argument "Heap_file.update: size change") (fun () ->
      ignore (Heap_file.update heap r2 "too-long-now"));
  stamp (Heap_file.delete heap r1);
  check Alcotest.(option string) "deleted" None (Heap_file.get heap r1);
  Alcotest.check_raises "delete missing" Not_found (fun () ->
      ignore (Heap_file.delete heap r1))

let test_heap_file_grows_chains () =
  let _, pool, heap, stamp = make_heap () in
  let record = String.make 500 'r' in
  let rids =
    List.init 100 (fun _ ->
        let rid, ds = Heap_file.insert heap record in
        stamp ds;
        rid)
  in
  Alcotest.(check bool) "multiple pages" true (List.length (Harness.heap_pages pool heap) > 1);
  let seen = ref 0 in
  Heap_file.iter heap (fun _ r ->
      incr seen;
      assert (r = record));
  check Alcotest.int "iter sees all" 100 !seen;
  (* all rids distinct *)
  check Alcotest.int "rids distinct" 100
    (List.length (List.sort_uniq Heap_file.rid_compare rids))

let test_heap_file_attach () =
  let _, pool, heap, stamp = make_heap () in
  let record = String.make 700 's' in
  for _ = 1 to 50 do
    let _, ds = Heap_file.insert heap record in
    stamp ds
  done;
  let disk = Bufpool.disk pool in
  let reopened = Heap_file.attach pool disk ~first_page:(Heap_file.first_page heap) in
  let rids h =
    let acc = ref [] in
    Heap_file.iter h (fun rid _ -> acc := rid :: !acc);
    List.rev !acc
  in
  Alcotest.(check bool) "same chain" true (rids heap = rids reopened);
  let n = ref 0 in
  Heap_file.iter reopened (fun _ _ -> incr n);
  check Alcotest.int "all records visible" 50 !n

(* --- Heap_file free-space map ------------------------------------------------ *)

let record_100 = String.make 100 'f'

(* Insert [n] records one by one; returns their rids in insertion order. *)
let fill heap stamp n record =
  List.init n (fun _ ->
      let rid, ds = Heap_file.insert heap record in
      stamp ds;
      rid)

let free_slot heap stamp rid =
  stamp (Heap_file.delete heap rid);
  stamp (Heap_file.free_ghost heap rid)

(* Buffer-pool pins per insert into holes freed on scattered old pages. A
   scan for free space pays O(pages) pins once the tail is full; the map
   pays the tail, the page it filled last time (full now, so it leaves
   the map) and the page it fills. *)
let pins_per_insert rows =
  let _, pool, heap, stamp = make_heap () in
  let m = Bufpool.metrics pool in
  let rids = fill heap stamp rows record_100 in
  (* top the tail up so every later insert misses it *)
  let tail_room () =
    let pages = Harness.heap_pages pool heap in
    Bufpool.read pool (List.nth pages (List.length pages - 1)) Heap_page.free_space
  in
  while tail_room () >= 2 + String.length record_100 + 2 do
    stamp (snd (Heap_file.insert heap record_100))
  done;
  let pages = Harness.heap_pages pool heap in
  (* one hole on every third page but the tail *)
  let holes =
    List.filteri (fun i _ -> i mod 3 = 0) (List.filteri (fun i _ -> i < List.length pages - 1) pages)
  in
  List.iter
    (fun pid -> free_slot heap stamp (List.find (fun r -> r.Heap_file.rpage = pid) rids))
    holes;
  let pins () = Metrics.get m "buffer.hit" + Metrics.get m "buffer.miss" in
  let pins0 = pins () and probes0 = Metrics.get m "heap.probe" in
  let placed = fill heap stamp (List.length holes) record_100 in
  check Alcotest.(list int) "holes refilled, newest first" (List.rev holes)
    (List.map (fun r -> r.Heap_file.rpage) placed);
  let n = float_of_int (List.length holes) in
  let cost =
    ( float_of_int (pins () - pins0) /. n,
      float_of_int (Metrics.get m "heap.probe" - probes0) /. n,
      List.length holes )
  in
  check Alcotest.(list int) "no page appended" pages (Harness.heap_pages pool heap);
  cost

let test_heap_insert_cost () =
  let small_pins, small_probes, small_holes = pins_per_insert 1_000 in
  let big_pins, big_probes, big_holes = pins_per_insert 50_000 in
  Alcotest.(check bool) "many scattered holes" true (small_holes >= 3 && big_holes >= 200);
  List.iter
    (fun (what, v) ->
      if v > 3.0 then Alcotest.failf "%s: %.2f per insert, want at most 3" what v)
    [
      ("1k rows: pins", small_pins);
      ("1k rows: heap.probe", small_probes);
      ("50k rows: pins", big_pins);
      ("50k rows: heap.probe", big_probes);
    ]

(* Insert/delete/reclaim churn: freed slots are reused, so the file never
   holds more pages than the peak live rows need (plus the tail's slack). *)
let test_heap_churn_reuses_space () =
  let _, pool, heap, stamp = make_heap () in
  let rng = Rng.create 42 in
  let per_page =
    (* records an empty page holds: the first page's count once a second exists *)
    let rids = fill heap stamp 200 record_100 in
    let first = Heap_file.first_page heap in
    let n = List.length (List.filter (fun r -> r.Heap_file.rpage = first) rids) in
    List.iter (free_slot heap stamp) rids;
    n
  in
  let live = ref [] and n_live = ref 0 and peak = ref 0 in
  for _ = 1 to 20_000 do
    if !n_live > 0 && (Rng.int rng 2 = 0 || !n_live >= 1_500) then begin
      let i = Rng.int rng !n_live in
      let victim = List.nth !live i in
      free_slot heap stamp victim;
      live := List.filteri (fun j _ -> j <> i) !live;
      decr n_live
    end
    else begin
      let rid, ds = Heap_file.insert heap record_100 in
      stamp ds;
      live := rid :: !live;
      incr n_live;
      peak := max !peak !n_live
    end
  done;
  let pages = List.length (Harness.heap_pages pool heap) in
  let bound = ((!peak + per_page - 1) / per_page) + 1 in
  if pages > bound then
    Alcotest.failf "%d pages for a peak of %d live rows (%d per page): want at most %d"
      pages !peak per_page bound;
  check Alcotest.int "heap.grow counts appended pages" (pages - 1)
    (Metrics.get (Bufpool.metrics pool) "heap.grow")

(* Insert through [heap] until a record lands on page [hole]; the file
   must not grow first. *)
let fills_hole_before_growing pool heap stamp hole =
  let pages = Harness.heap_pages pool heap in
  let rec go () =
    let rid, ds = Heap_file.insert heap record_100 in
    stamp ds;
    check Alcotest.(list int) "no growth before the hole is used" pages
      (Harness.heap_pages pool heap);
    if rid.Heap_file.rpage <> hole then go ()
  in
  go ()

(* A hole freed behind a handle's back is found once the handle is
   reopened ([attach]) or told its pages changed ([refresh]): both rebuild
   the map from the pages. *)
let test_heap_rebuilt_map_finds_hole () =
  let _, pool, heap, stamp = make_heap () in
  let rids = fill heap stamp 300 record_100 in
  let page n = List.nth (Harness.heap_pages pool heap) n in
  let on n = List.find (fun r -> r.Heap_file.rpage = page n) rids in
  free_slot heap stamp (on 0);
  let reopened = Heap_file.attach pool (Bufpool.disk pool) ~first_page:(page 0) in
  fills_hole_before_growing pool reopened stamp (page 0);
  (* a page [heap] never saw freed *)
  free_slot reopened stamp (on 1);
  Heap_file.refresh heap;
  fills_hole_before_growing pool heap stamp (page 1)

(* A unique index entry's rid is six bytes, and the largest slot a heap
   page can hold survives the round trip. *)
let test_rid_roundtrip () =
  let p = Page.alloc () in
  let w = Page_writer.on p in
  Heap_page.init w;
  let rec fill last = match Heap_page.insert w "" with Some s -> fill s | None -> last in
  let largest = fill 0 in
  Alcotest.(check bool) "many slots" true (largest > 1000);
  List.iter
    (fun rid ->
      let s = Heap_file.encode_rid rid in
      check Alcotest.int "six bytes" 6 (String.length s);
      Alcotest.(check bool) "round trip" true (Heap_file.decode_rid s = rid))
    [
      { Heap_file.rpage = 0; rslot = 0 };
      { rpage = 1; rslot = largest };
      { rpage = 0xFFFF_FFFF; rslot = largest };
    ]

(* Model-based: random insert / delete / revive / free_ghost / same-size
   update / reopen against a rid -> (record, ghost) map, through a small
   pool so pages are evicted and re-read. *)
let prop_heap_file_model =
  QCheck.Test.make ~name:"heap file vs model" ~count:60 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let m = Metrics.create () in
      let d = Disk.create ~read_cost:0 ~write_cost:0 m in
      let pool = Bufpool.create d ~capacity:4 m in
      Bufpool.set_wal_force pool (fun _ -> ());
      let stamp = List.iter (fun (pid, _) -> Bufpool.stamp pool pid 1L) in
      let heap, ds = Heap_file.create pool d in
      stamp ds;
      let heap = ref heap in
      let model = Hashtbl.create 64 in
      let pick ghost =
        let rids =
          Hashtbl.fold (fun rid (_, g) acc -> if g = ghost then rid :: acc else acc) model []
          |> List.sort Heap_file.rid_compare
        in
        match rids with [] -> None | _ -> Some (List.nth rids (Rng.int rng (List.length rids)))
      in
      let record () = String.make (1 + Rng.int rng 900) (Char.chr (97 + Rng.int rng 26)) in
      for _ = 1 to 250 do
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            let r = record () in
            let rid, ds = Heap_file.insert !heap r in
            stamp ds;
            if Hashtbl.mem model rid then
              QCheck.Test.fail_reportf "insert reused rid %a" Heap_file.pp_rid rid;
            Hashtbl.replace model rid (r, false)
        | 4 | 5 ->
            Option.iter
              (fun rid ->
                stamp (Heap_file.delete !heap rid);
                let r, _ = Hashtbl.find model rid in
                Hashtbl.replace model rid (r, true))
              (pick false)
        | 6 ->
            Option.iter
              (fun rid ->
                stamp (Heap_file.revive !heap rid);
                let r, _ = Hashtbl.find model rid in
                Hashtbl.replace model rid (r, false))
              (pick true)
        | 7 | 8 ->
            Option.iter
              (fun rid ->
                stamp (Heap_file.free_ghost !heap rid);
                Hashtbl.remove model rid)
              (pick true)
        | _ ->
            if Rng.int rng 2 = 0 then
              heap := Heap_file.attach pool d ~first_page:(Heap_file.first_page !heap)
            else
              Option.iter
                (fun rid ->
                  let r, _ = Hashtbl.find model rid in
                  let r' = String.map (fun _ -> Char.chr (97 + Rng.int rng 26)) r in
                  stamp (Heap_file.update !heap rid r');
                  Hashtbl.replace model rid (r', false))
                (pick false)
      done;
      let sorted l = List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) l in
      let expect_live =
        sorted (Hashtbl.fold (fun rid (r, g) acc -> if g then acc else (rid, r) :: acc) model [])
      in
      let expect_all =
        sorted
          (Hashtbl.fold (fun rid (r, g) acc -> (rid, ((if g then "" else r), g)) :: acc) model [])
      in
      let live = ref [] and all = ref [] in
      Heap_file.iter !heap (fun rid r -> live := (rid, r) :: !live);
      Heap_file.iter_all !heap (fun rid r ~ghost -> all := (rid, (r, ghost)) :: !all);
      Hashtbl.iter
        (fun rid (r, g) ->
          let want = if g then None else Some r in
          if Heap_file.get !heap rid <> want then
            QCheck.Test.fail_reportf "get %a disagrees with the model" Heap_file.pp_rid rid)
        model;
      (* a handle reopened from the disk's chain sees the same records *)
      let reopened = ref [] in
      Heap_file.iter_all
        (Heap_file.attach pool d ~first_page:(Heap_file.first_page !heap))
        (fun rid r ~ghost -> reopened := (rid, (r, ghost)) :: !reopened);
      List.rev !live = expect_live
      && List.rev !all = expect_all
      && List.rev !reopened = expect_all)

let () =
  Alcotest.run "storage"
    [
      ("page", [ Alcotest.test_case "header" `Quick test_page_header ]);
      ( "page-diff",
        [
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "ignores lsn" `Quick test_diff_ignores_lsn;
          qtest prop_diff_apply;
          qtest prop_diff_matches_bytewise;
          Alcotest.test_case "decode rejects what compute never makes" `Quick
            test_diff_decode_rejects;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read/write" `Quick test_disk_rw;
          Alcotest.test_case "unwritten vs bogus ids" `Quick
            test_disk_unwritten_vs_bogus;
          Alcotest.test_case "checksum roundtrip" `Quick test_disk_checksum_roundtrip;
        ] );
      ( "heap-page",
        [
          Alcotest.test_case "insert/get/delete" `Quick test_heap_page_insert_get_delete;
          Alcotest.test_case "fill and compact" `Quick test_heap_page_fill_and_compact;
          Alcotest.test_case "set in place" `Quick test_heap_page_set_in_place;
          Alcotest.test_case "too large" `Quick test_heap_page_too_large;
          qtest prop_heap_page_model;
          qtest prop_heap_page_lowest_empty;
        ] );
      ( "bufpool",
        [
          Alcotest.test_case "hit/miss" `Quick test_bufpool_hit_miss;
          Alcotest.test_case "update/stamp/flush + WAL rule" `Quick
            test_bufpool_update_stamp_flush;
          Alcotest.test_case "eviction" `Quick test_bufpool_eviction_respects_capacity;
          Alcotest.test_case "clock second chance" `Quick
            test_bufpool_clock_second_chance;
          Alcotest.test_case "dirty churn stays consistent" `Quick
            test_bufpool_dirty_churn_consistent;
          Alcotest.test_case "no-steal window" `Quick test_bufpool_unstamped_not_evicted;
          Alcotest.test_case "dirty page table" `Quick test_bufpool_dpt;
          Alcotest.test_case "drop_all" `Quick test_bufpool_drop_all;
          Alcotest.test_case "update raise restores pre-image" `Quick
            test_bufpool_update_raise_restores;
          Alcotest.test_case "misses reuse evicted buffers" `Quick
            test_bufpool_reused_buffers;
          Alcotest.test_case "capacity zero" `Quick test_bufpool_capacity_zero;
          Alcotest.test_case "transient I/O retry" `Quick test_bufpool_io_retry;
          Alcotest.test_case "a torn write tears" `Quick test_torn_write_tears;
        ] );
      ("writer", [ qtest prop_recorded_diff_is_bytewise ]);
      ( "heap-file",
        [
          Alcotest.test_case "crud" `Quick test_heap_file_crud;
          Alcotest.test_case "grows across pages" `Quick test_heap_file_grows_chains;
          Alcotest.test_case "attach rebuilds" `Quick test_heap_file_attach;
          Alcotest.test_case "insert cost is flat in heap size" `Quick test_heap_insert_cost;
          Alcotest.test_case "churn reuses freed slots" `Quick test_heap_churn_reuses_space;
          Alcotest.test_case "attach and refresh find an old hole" `Quick
            test_heap_rebuilt_map_finds_hole;
          Alcotest.test_case "six-byte rid round trip" `Quick test_rid_roundtrip;
          qtest prop_heap_file_model;
        ] );
    ]
