module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema

type table_meta = {
  tb_id : int;
  tb_name : string;
  tb_cols : (string * Value.ty * bool) array;
  tb_first_page : int;
}

type index_meta = {
  ix_id : int;
  ix_name : string;
  ix_table : int;
  ix_col : int;
  ix_unique : bool;
  ix_root : int;
}

type view_meta = {
  vw_id : int;
  vw_name : string;
  vw_def : Ivdb_core.View_def.t;
  vw_root : int;
  vw_strategy : Ivdb_core.Maintain.strategy;
  vw_create_mode : Ivdb_core.Maintain.create_mode;
  vw_refresh_threshold : int option;
      (* deferred views: transactional readers drain the queue first when
         staleness exceeds this *)
  vw_queue : (int * int) option;
}

type op = Add_table of table_meta | Add_index of index_meta | Add_view of view_meta

type t = {
  mutable next_id : int;
  mutable tbls : table_meta list;
  mutable idxs : index_meta list;
  mutable vws : view_meta list;
}

let create () = { next_id = 1; tbls = []; idxs = []; vws = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let bump t id = if id >= t.next_id then t.next_id <- id + 1

let apply_op t = function
  | Add_table m ->
      t.tbls <- t.tbls @ [ m ];
      bump t m.tb_id
  | Add_index m ->
      t.idxs <- t.idxs @ [ m ];
      bump t m.ix_id
  | Add_view m ->
      t.vws <- t.vws @ [ m ];
      bump t m.vw_id;
      (match m.vw_queue with Some (qid, _) -> bump t qid | None -> ())

let tables t = t.tbls
let indexes t = t.idxs
let views t = t.vws
let table_named t name = List.find_opt (fun m -> m.tb_name = name) t.tbls
let view_named t name = List.find_opt (fun m -> m.vw_name = name) t.vws
let indexes_of_table t tid = List.filter (fun m -> m.ix_table = tid) t.idxs

let check_name t name =
  if
    List.exists (fun m -> m.tb_name = name) t.tbls
    || List.exists (fun m -> m.ix_name = name) t.idxs
    || List.exists (fun m -> m.vw_name = name) t.vws
  then invalid_arg (Printf.sprintf "name %s is already in use" name)

(* Catalog payloads are Marshal images of plain data (ints, strings,
   expression ASTs) behind a version byte. They are read back from the
   process's own log on restart, and also from another process: a
   follower decodes the primary's Ddl payloads as they arrive over the
   wire (Replica.apply_batch -> Database.apply_replicated -> decode_op) and
   the checkpoint snapshots in that log when it restarts. Marshal checks
   nothing about what it reads, so this is safe only while both ends run
   the same build and the bytes arrive intact (the frame and log
   checksums catch corruption, not a different layout); the version byte
   helps only when a layout change bumps it. *)
let version = '\001'

let encode_op op = Printf.sprintf "%c%s" version (Marshal.to_string (op : op) [])

let decode_op s =
  if String.length s < 1 || s.[0] <> version then
    invalid_arg "Catalog.decode_op: bad version";
  (Marshal.from_string (String.sub s 1 (String.length s - 1)) 0 : op)

type snapshot = {
  s_next_id : int;
  s_tbls : table_meta list;
  s_idxs : index_meta list;
  s_vws : view_meta list;
}

let encode_snapshot t =
  let s =
    { s_next_id = t.next_id; s_tbls = t.tbls; s_idxs = t.idxs; s_vws = t.vws }
  in
  Printf.sprintf "%c%s" version (Marshal.to_string (s : snapshot) [])

let decode_snapshot str =
  if String.length str < 1 || str.[0] <> version then
    invalid_arg "Catalog.decode_snapshot: bad version";
  let s = (Marshal.from_string (String.sub str 1 (String.length str - 1)) 0 : snapshot) in
  { next_id = s.s_next_id; tbls = s.s_tbls; idxs = s.s_idxs; vws = s.s_vws }

let schema_of m =
  Schema.make
    (Array.to_list
       (Array.map
          (fun (name, ty, nullable) -> { Schema.name; ty; nullable })
          m.tb_cols))
