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
  | Prepare of { gtxn : string; participants : string }
  | Decision of { gtxn : string; committed : bool }

type t = { lsn : lsn; txn : int; prev : lsn; body : body }

(* --- binary serialization ----------------------------------------------

   Layout: i32 lsn | i32 txn | i32 prev | u8 body tag | body. Strings are
   u32-length-framed; integers big-endian. The same writer functions drive
   both [encode] (emitting into a Buffer) and [byte_size] (summing), so the
   accounting is exact by construction. *)

let add_i32 buf v =
  let b = Bytes.create 4 in
  Ivdb_util.Bytes_util.set_u32 b 0 v;
  Buffer.add_bytes buf b

let add_str buf s =
  add_i32 buf (String.length s);
  Buffer.add_string buf s

let add_rid buf (rid : rid) =
  add_i32 buf rid.Ivdb_storage.Heap_file.rpage;
  add_i32 buf rid.Ivdb_storage.Heap_file.rslot

let add_undo buf = function
  | No_undo -> Buffer.add_char buf '\000'
  | Undo_heap_insert u ->
      Buffer.add_char buf '\001';
      add_i32 buf u.table;
      add_rid buf u.rid
  | Undo_heap_delete u ->
      Buffer.add_char buf '\002';
      add_i32 buf u.table;
      add_rid buf u.rid
  | Undo_heap_update u ->
      Buffer.add_char buf '\003';
      add_i32 buf u.table;
      add_rid buf u.rid;
      add_str buf u.before
  | Undo_bt_insert u ->
      Buffer.add_char buf '\004';
      add_i32 buf u.index;
      add_str buf u.key
  | Undo_bt_delete u ->
      Buffer.add_char buf '\005';
      add_i32 buf u.index;
      add_str buf u.key;
      add_str buf u.value
  | Undo_bt_update u ->
      Buffer.add_char buf '\006';
      add_i32 buf u.index;
      add_str buf u.key;
      add_str buf u.before
  | Undo_escrow u ->
      Buffer.add_char buf '\007';
      add_i32 buf u.view;
      add_str buf u.key;
      add_str buf u.inverse

let add_redo buf redo =
  add_i32 buf (List.length redo);
  List.iter
    (fun (pid, diff) ->
      add_i32 buf pid;
      add_str buf (Ivdb_storage.Page_diff.encode diff))
    redo

let add_pairs buf pairs =
  add_i32 buf (List.length pairs);
  List.iter
    (fun (a, b) ->
      add_i32 buf a;
      add_i32 buf b)
    pairs

let add_body buf = function
  | Begin b ->
      Buffer.add_char buf 'B';
      Buffer.add_char buf (if b.system then '\001' else '\000')
  | Commit -> Buffer.add_char buf 'C'
  | Abort -> Buffer.add_char buf 'A'
  | End -> Buffer.add_char buf 'E'
  | Update u ->
      Buffer.add_char buf 'U';
      add_redo buf u.redo;
      add_undo buf u.undo
  | Clr c ->
      Buffer.add_char buf 'R';
      add_redo buf c.redo;
      add_i32 buf c.undo_next
  | Checkpoint c ->
      Buffer.add_char buf 'K';
      add_pairs buf c.active;
      add_pairs buf c.dpt;
      add_str buf c.catalog
  | Ddl s ->
      Buffer.add_char buf 'D';
      add_str buf s
  | Prepare p ->
      Buffer.add_char buf 'P';
      add_str buf p.gtxn;
      add_str buf p.participants
  | Decision d ->
      Buffer.add_char buf 'V';
      add_str buf d.gtxn;
      Buffer.add_char buf (if d.committed then '\001' else '\000')

let encode t =
  let buf = Buffer.create 64 in
  add_i32 buf t.lsn;
  add_i32 buf t.txn;
  add_i32 buf t.prev;
  add_body buf t.body;
  Buffer.contents buf

let byte_size t = String.length (encode t)

(* decoding *)

type reader = { src : string; mutable pos : int }

let fail () = invalid_arg "Log_record.decode: malformed record"

let rd_u8 r =
  if r.pos >= String.length r.src then fail ();
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let rd_i32 r =
  if r.pos + 4 > String.length r.src then fail ();
  let v =
    (Char.code r.src.[r.pos] lsl 24)
    lor (Char.code r.src.[r.pos + 1] lsl 16)
    lor (Char.code r.src.[r.pos + 2] lsl 8)
    lor Char.code r.src.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let rd_str r =
  let len = rd_i32 r in
  if r.pos + len > String.length r.src then fail ();
  let s = String.sub r.src r.pos len in
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
      (pid, Ivdb_storage.Page_diff.decode (rd_str r)))

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
  | 'P' ->
      let gtxn = rd_str r in
      Prepare { gtxn; participants = rd_str r }
  | 'V' ->
      let gtxn = rd_str r in
      Decision { gtxn; committed = rd_u8 r = 1 }
  | _ -> fail ()

let decode s =
  let r = { src = s; pos = 0 } in
  let lsn = rd_i32 r in
  let txn = rd_i32 r in
  let prev = rd_i32 r in
  let body = rd_body r in
  if r.pos <> String.length s then fail ();
  { lsn; txn; prev; body }

let pages_touched t =
  match t.body with
  | Update { redo; _ } | Clr { redo; _ } -> List.map fst redo
  | Begin _ | Commit | Abort | End | Checkpoint _ | Ddl _ | Prepare _
  | Decision _ ->
      []

let pp_undo ppf = function
  | No_undo -> Format.fprintf ppf "none"
  | Undo_heap_insert u -> Format.fprintf ppf "heap-del t%d %a" u.table Ivdb_storage.Heap_file.pp_rid u.rid
  | Undo_heap_delete u ->
      Format.fprintf ppf "heap-rev t%d %a" u.table Ivdb_storage.Heap_file.pp_rid u.rid
  | Undo_heap_update u -> Format.fprintf ppf "heap-upd t%d %a" u.table Ivdb_storage.Heap_file.pp_rid u.rid
  | Undo_bt_insert u -> Format.fprintf ppf "bt-del i%d" u.index
  | Undo_bt_delete u -> Format.fprintf ppf "bt-ins i%d" u.index
  | Undo_bt_update u -> Format.fprintf ppf "bt-upd i%d" u.index
  | Undo_escrow u -> Format.fprintf ppf "escrow v%d" u.view

let pp ppf t =
  let body ppf = function
    | Begin b -> Format.fprintf ppf "BEGIN%s" (if b.system then "(sys)" else "")
    | Commit -> Format.fprintf ppf "COMMIT"
    | Abort -> Format.fprintf ppf "ABORT"
    | End -> Format.fprintf ppf "END"
    | Update u ->
        Format.fprintf ppf "UPDATE pages=%a undo=%a"
          (Format.pp_print_list Format.pp_print_int)
          (List.map fst u.redo) pp_undo u.undo
    | Clr c ->
        Format.fprintf ppf "CLR pages=%a undoNext=%d"
          (Format.pp_print_list Format.pp_print_int)
          (List.map fst c.redo) c.undo_next
    | Checkpoint c ->
        Format.fprintf ppf "CHECKPOINT att=%d dpt=%d" (List.length c.active)
          (List.length c.dpt)
    | Ddl _ -> Format.fprintf ppf "DDL"
    | Prepare p -> Format.fprintf ppf "PREPARE %s" p.gtxn
    | Decision d ->
        Format.fprintf ppf "DECISION %s %s" d.gtxn
          (if d.committed then "commit" else "abort")
  in
  Format.fprintf ppf "[%d] txn=%d prev=%d %a" t.lsn t.txn t.prev body t.body
