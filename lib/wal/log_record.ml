type lsn = int

let nil_lsn = 0

type rid = Ivdb_storage.Heap_file.rid

type logical_undo =
  | No_undo
  | Undo_heap_insert of { table : int; rid : rid }
  | Undo_heap_delete of { table : int; rid : rid }
  | Undo_heap_update of { table : int; rid : rid; before : string }
  | Undo_bt_insert of { index : int; key : string }
  | Undo_bt_delete of { index : int; key : string; value : string }
  | Undo_bt_update of { index : int; key : string; before : string }
  | Undo_escrow of { view : int; key : string; inverse : string }

type page_diffs = (int * Ivdb_storage.Page_diff.t) list

type body =
  | Begin of { system : bool }
  | Commit
  | Abort
  | End
  | Update of { redo : page_diffs; undo : logical_undo }
  | Clr of { redo : page_diffs; undo_next : lsn }
  | Checkpoint of {
      active : (int * lsn) list;
      dpt : (int * lsn) list;
      catalog : string;
    }
  | Ddl of string
  | Prepare of { gtxn : string }
  | Decision of { gtxn : string }
  | Gid_block of { last : string }

type t = { lsn : lsn; txn : int; prev : lsn; body : body }

(* --- binary serialization ----------------------------------------------

   Layout: i32 lsn | i32 txn | i32 prev | u8 body tag | body. Strings are
   u32-length-framed; integers big-endian. [size] sums the layout from
   field lengths; the writers put each field straight into the caller's
   bytes and return the position after it. [encode_into] checks that the
   writers end where [size] said. *)

module B = Ivdb_util.Bytes_util
module Page_diff = Ivdb_storage.Page_diff

let str_size s = 4 + String.length s

let undo_size = function
  | No_undo -> 1
  | Undo_heap_insert _ | Undo_heap_delete _ -> 13
  | Undo_heap_update u -> 13 + str_size u.before
  | Undo_bt_insert u -> 5 + str_size u.key
  | Undo_bt_delete u -> 5 + str_size u.key + str_size u.value
  | Undo_bt_update u -> 5 + str_size u.key + str_size u.before
  | Undo_escrow u -> 5 + str_size u.key + str_size u.inverse

let redo_size redo =
  List.fold_left (fun acc (_, d) -> acc + 8 + Page_diff.byte_size d) 4 redo

let pairs_size pairs = 4 + (8 * List.length pairs)

let body_size = function
  | Begin _ -> 2
  | Commit | Abort | End -> 1
  | Update u -> 1 + redo_size u.redo + undo_size u.undo
  | Clr c -> 1 + redo_size c.redo + 4
  | Checkpoint c ->
      1 + pairs_size c.active + pairs_size c.dpt + str_size c.catalog
  | Ddl s -> 1 + str_size s
  | Prepare { gtxn } | Decision { gtxn } | Gid_block { last = gtxn } ->
      1 + str_size gtxn

let size t = 12 + body_size t.body

let put_u8 b pos c =
  Bytes.set b pos c;
  pos + 1

let put_i32 b pos v =
  B.set_u32 b pos v;
  pos + 4

let put_str b pos s =
  let n = String.length s in
  let pos = put_i32 b pos n in
  Bytes.blit_string s 0 b pos n;
  pos + n

let put_rid b pos (rid : rid) =
  let pos = put_i32 b pos rid.Ivdb_storage.Heap_file.rpage in
  put_i32 b pos rid.Ivdb_storage.Heap_file.rslot

let put_undo b pos = function
  | No_undo -> put_u8 b pos '\000'
  | Undo_heap_insert u ->
      let pos = put_i32 b (put_u8 b pos '\001') u.table in
      put_rid b pos u.rid
  | Undo_heap_delete u ->
      let pos = put_i32 b (put_u8 b pos '\002') u.table in
      put_rid b pos u.rid
  | Undo_heap_update u ->
      let pos = put_i32 b (put_u8 b pos '\003') u.table in
      put_str b (put_rid b pos u.rid) u.before
  | Undo_bt_insert u ->
      let pos = put_i32 b (put_u8 b pos '\004') u.index in
      put_str b pos u.key
  | Undo_bt_delete u ->
      let pos = put_i32 b (put_u8 b pos '\005') u.index in
      put_str b (put_str b pos u.key) u.value
  | Undo_bt_update u ->
      let pos = put_i32 b (put_u8 b pos '\006') u.index in
      put_str b (put_str b pos u.key) u.before
  | Undo_escrow u ->
      let pos = put_i32 b (put_u8 b pos '\007') u.view in
      put_str b (put_str b pos u.key) u.inverse

(* each diff is a u32-framed string holding [Page_diff.encode]'s bytes *)
let put_redo b pos redo =
  List.fold_left
    (fun pos (pid, diff) ->
      let pos = put_i32 b pos pid in
      let pos = put_i32 b pos (Page_diff.byte_size diff) in
      Page_diff.encode_into diff b pos)
    (put_i32 b pos (List.length redo))
    redo

let put_pairs b pos pairs =
  List.fold_left
    (fun pos (x, y) -> put_i32 b (put_i32 b pos x) y)
    (put_i32 b pos (List.length pairs))
    pairs

let put_body b pos = function
  | Begin x -> put_u8 b (put_u8 b pos 'B') (if x.system then '\001' else '\000')
  | Commit -> put_u8 b pos 'C'
  | Abort -> put_u8 b pos 'A'
  | End -> put_u8 b pos 'E'
  | Update u -> put_undo b (put_redo b (put_u8 b pos 'U') u.redo) u.undo
  | Clr c -> put_i32 b (put_redo b (put_u8 b pos 'R') c.redo) c.undo_next
  | Checkpoint c ->
      let pos = put_pairs b (put_u8 b pos 'K') c.active in
      put_str b (put_pairs b pos c.dpt) c.catalog
  | Ddl s -> put_str b (put_u8 b pos 'D') s
  | Prepare p -> put_str b (put_u8 b pos 'P') p.gtxn
  | Decision d -> put_str b (put_u8 b pos 'V') d.gtxn
  | Gid_block g -> put_str b (put_u8 b pos 'G') g.last

let encode_into t room =
  let n = size t in
  let b, pos = room n in
  let pos' = put_i32 b pos t.lsn in
  let pos' = put_i32 b pos' t.txn in
  let pos' = put_i32 b pos' t.prev in
  if put_body b pos' t.body <> pos + n then
    invalid_arg "Log_record.encode_into: size and writers disagree";
  n

let encode t =
  let out = ref Bytes.empty in
  ignore
    (encode_into t (fun n ->
         out := Bytes.create n;
         (!out, 0)));
  Bytes.unsafe_to_string !out

let decodable t =
  match t.body with
  | Update { redo; _ } | Clr { redo; _ } ->
      List.for_all (fun (_, d) -> Page_diff.well_formed d) redo
  | Begin _ | Commit | Abort | End | Checkpoint _ | Ddl _ | Prepare _
  | Decision _ | Gid_block _ ->
      true

(* the fixed header, read in place *)

let checkpoint_at b pos = Bytes.get b (pos + 12) = 'K'

(* decoding *)

type reader = { src : bytes; mutable pos : int; stop : int }

let fail () = invalid_arg "Log_record.decode: malformed record"

let rd_u8 r =
  if r.pos >= r.stop then fail ();
  let c = Bytes.get_uint8 r.src r.pos in
  r.pos <- r.pos + 1;
  c

let rd_i32 r =
  if r.pos + 4 > r.stop then fail ();
  let v = B.get_u32 r.src r.pos in
  r.pos <- r.pos + 4;
  v

let rd_len r =
  let len = rd_i32 r in
  if r.pos + len > r.stop then fail ();
  len

let rd_str r =
  let len = rd_len r in
  let s = Bytes.sub_string r.src r.pos len in
  r.pos <- r.pos + len;
  s

let rd_rid r =
  let rpage = rd_i32 r in
  let rslot = rd_i32 r in
  { Ivdb_storage.Heap_file.rpage; rslot }

let rd_undo r =
  match rd_u8 r with
  | 0 -> No_undo
  | 1 ->
      let table = rd_i32 r in
      Undo_heap_insert { table; rid = rd_rid r }
  | 2 ->
      let table = rd_i32 r in
      Undo_heap_delete { table; rid = rd_rid r }
  | 3 ->
      let table = rd_i32 r in
      let rid = rd_rid r in
      Undo_heap_update { table; rid; before = rd_str r }
  | 4 ->
      let index = rd_i32 r in
      Undo_bt_insert { index; key = rd_str r }
  | 5 ->
      let index = rd_i32 r in
      let key = rd_str r in
      Undo_bt_delete { index; key; value = rd_str r }
  | 6 ->
      let index = rd_i32 r in
      let key = rd_str r in
      Undo_bt_update { index; key; before = rd_str r }
  | 7 ->
      let view = rd_i32 r in
      let key = rd_str r in
      Undo_escrow { view; key; inverse = rd_str r }
  | _ -> fail ()

let rd_redo r =
  let n = rd_i32 r in
  List.init n (fun _ ->
      let pid = rd_i32 r in
      let len = rd_len r in
      let diff = Page_diff.decode_sub r.src r.pos len in
      r.pos <- r.pos + len;
      (pid, diff))

let rd_pairs r =
  let n = rd_i32 r in
  List.init n (fun _ ->
      let a = rd_i32 r in
      let b = rd_i32 r in
      (a, b))

let rd_body r =
  match Char.chr (rd_u8 r) with
  | 'B' -> Begin { system = rd_u8 r = 1 }
  | 'C' -> Commit
  | 'A' -> Abort
  | 'E' -> End
  | 'U' ->
      let redo = rd_redo r in
      Update { redo; undo = rd_undo r }
  | 'R' ->
      let redo = rd_redo r in
      Clr { redo; undo_next = rd_i32 r }
  | 'K' ->
      let active = rd_pairs r in
      let dpt = rd_pairs r in
      Checkpoint { active; dpt; catalog = rd_str r }
  | 'D' -> Ddl (rd_str r)
  | 'P' -> Prepare { gtxn = rd_str r }
  | 'V' -> Decision { gtxn = rd_str r }
  | 'G' -> Gid_block { last = rd_str r }
  | _ -> fail ()

let decode_sub b pos len =
  let r = { src = b; pos; stop = pos + len } in
  let lsn = rd_i32 r in
  let txn = rd_i32 r in
  let prev = rd_i32 r in
  let body = rd_body r in
  if r.pos <> r.stop then fail ();
  { lsn; txn; prev; body }

let pages_touched t =
  match t.body with
  | Update { redo; _ } | Clr { redo; _ } -> List.map fst redo
  | Begin _ | Commit | Abort | End | Checkpoint _ | Ddl _ | Prepare _
  | Decision _ | Gid_block _ ->
      []
