module Txn = Ivdb_txn.Txn
module Heap_file = Ivdb_storage.Heap_file
module Log_record = Ivdb_wal.Log_record
module Lock_name = Ivdb_lock.Lock_name
module Lock_mode = Ivdb_lock.Lock_mode
module Btree = Ivdb_btree.Btree
module Row = Ivdb_relation.Row
module Value = Ivdb_relation.Value
module Key_codec = Ivdb_relation.Key_codec
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Aggregate = Ivdb_core.Aggregate
module Maintain = Ivdb_core.Maintain
module Mvcc = Ivdb_txn.Mvcc
module I = Database.Internal

(* Record the heap row's before-image on the writer's first touch so a
   concurrent snapshot reader can resolve the rid to its pre-transaction
   value (chains are keyed by (table id, encoded rid)). *)
let record_heap_version db tx tid rid before =
  Mvcc.record_write
    (Txn.mvcc (Database.mgr db))
    ~txn:(Txn.id tx) ~obj:tid ~key:(Heap_file.encode_rid rid) ~before

(* Index maintenance. Ordinary indexes key on (value, rid): inserts guard
   the gap with an instant RangeI_N, then hold X on the new key; deletes
   ghost-mark the entry under an X key lock so probing readers conflict
   with the uncommitted delete instead of reading around it. Unique indexes
   key on the value alone, with the rid as the entry payload: an insert
   colliding with an in-flight delete of the same value blocks on the key
   lock, then either revives the ghost with its own rid (deleter committed)
   or reports a constraint violation (deleter aborted / value present). *)
let index_insert db tx ix v rid =
  let ixid = I.ix_id ix in
  let unique = I.ix_unique ix in
  let key = I.index_key ~unique v rid in
  let tree = I.ix_tree ix in
  Txn.lock (Database.mgr db) tx (Lock_name.Key (ixid, key)) Lock_mode.X;
  let payload = if unique then Heap_file.encode_rid rid else "" in
  let fresh_insert () =
    let gap =
      match Btree.next_key tree key with
      | Some (nk, _) -> Lock_name.Key (ixid, nk)
      | None -> Lock_name.Eof ixid
    in
    Txn.lock_instant (Database.mgr db) tx gap Lock_mode.RangeI_N;
    Btree.insert tx tree ~key ~value:(I.index_entry_live payload)
  in
  match Btree.search tree key with
  | None -> fresh_insert ()
  | Some entry when I.index_entry_is_ghost entry ->
      (* a reclaimable ghost: revive it carrying our rid *)
      Btree.update tx tree ~key ~value:(I.index_entry_live payload)
  | Some _ ->
      if unique then
        raise
          (Database.Constraint_violation
             (Printf.sprintf "unique index %d: duplicate value %s" ixid
                (Ivdb_relation.Value.to_string v)))
      else
        (* same (value, rid) should be impossible for live entries *)
        raise (Btree.Duplicate_key key)

let index_delete db tx ix v rid =
  let ixid = I.ix_id ix in
  let unique = I.ix_unique ix in
  let key = I.index_key ~unique v rid in
  Txn.lock (Database.mgr db) tx (Lock_name.Key (ixid, key)) Lock_mode.X;
  let tree = I.ix_tree ix in
  (match Btree.search tree key with
  | Some entry when not (I.index_entry_is_ghost entry) ->
      Btree.update tx tree ~key ~value:(I.index_entry_ghost_of entry)
  | Some _ | None -> raise Not_found);
  I.note_index_ghost db tx ixid key

(* Deltas a base-row change contributes to one dependent view. For join
   views, the changed row is joined against the other table through its
   join-column index (key-range locked), so the delta set is phantom-safe. *)
let view_deltas db tx (rt : Maintain.runtime) tid sign row =
  let def = rt.Maintain.def in
  match def.View_def.source with
  | View_def.Single { table; _ } ->
      if table = tid then Option.to_list (Aggregate.delta_of_row def ~sign row)
      else []
  | View_def.Join { left; right; left_col; right_col; _ } ->
      let joined =
        if tid = left then
          Database.Internal.index_probe db (Some tx) ~table:right ~col:right_col
            row.(left_col)
          |> Seq.map (fun rrow -> Array.append row rrow)
        else if tid = right then
          Database.Internal.index_probe db (Some tx) ~table:left ~col:left_col
            row.(right_col)
          |> Seq.map (fun lrow -> Array.append lrow row)
        else Seq.empty
      in
      List.of_seq (Seq.filter_map (Aggregate.delta_of_row def ~sign) joined)

let propagate db tx tid sign row =
  let rt = I.table_rt db tid in
  List.iter
    (fun vid ->
      let vrt = I.view_rt db vid in
      List.iter
        (fun (key, delta) -> Maintain.apply_delta (Database.mgr db) tx vrt ~key delta)
        (view_deltas db tx vrt tid sign row))
    (I.rt_dep_views rt)

let validate_row db tbl row =
  match
    Ivdb_relation.Schema.validate (I.rt_schema (I.table_rt db (I.table_id tbl))) row
  with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Table.insert: " ^ msg)

let insert db tx tbl row =
  validate_row db tbl row;
  let tid = I.table_id tbl in
  let mgr = Database.mgr db in
  let rt = I.table_rt db tid in
  Txn.lock mgr tx (Lock_name.Table tid) Lock_mode.IX;
  let rid, diffs = Heap_file.insert (I.rt_heap rt) (Row.encode row) in
  I.lock_row db tx tid rid Lock_mode.X;
  Txn.log_update mgr tx ~undo:(Log_record.Undo_heap_insert { table = tid; rid }) diffs;
  record_heap_version db tx tid rid None;
  List.iter (fun ix -> index_insert db tx ix row.(I.ix_col ix) rid) (I.rt_indexes rt);
  propagate db tx tid 1 row;
  I.note_insert db;
  rid

let delete db tx tbl rid =
  let tid = I.table_id tbl in
  let mgr = Database.mgr db in
  let rt = I.table_rt db tid in
  Txn.lock mgr tx (Lock_name.Table tid) Lock_mode.IX;
  I.lock_row db tx tid rid Lock_mode.X;
  let encoded =
    match Heap_file.get (I.rt_heap rt) rid with
    | Some r -> r
    | None -> raise Not_found
  in
  let row = Row.decode encoded in
  let diffs = Heap_file.delete (I.rt_heap rt) rid in
  Txn.log_update mgr tx ~undo:(Log_record.Undo_heap_delete { table = tid; rid }) diffs;
  record_heap_version db tx tid rid (Some encoded);
  I.note_ghost db tx tid rid;
  List.iter (fun ix -> index_delete db tx ix row.(I.ix_col ix) rid) (I.rt_indexes rt);
  propagate db tx tid (-1) row;
  I.note_delete db

let update db tx tbl rid row' =
  delete db tx tbl rid;
  insert db tx tbl row'

let delete_where db tx tbl pred =
  let victims =
    I.heap_scan_rows db (Some tx) tbl
    |> Seq.filter (fun (_, row) -> Expr.eval_bool pred row)
    |> List.of_seq
  in
  List.iter (fun (rid, _) -> delete db tx tbl rid) victims;
  List.length victims

let row_count db tbl =
  let n = ref 0 in
  Heap_file.iter (I.rt_heap (I.table_rt db (I.table_id tbl))) (fun _ _ -> incr n);
  !n

let find db txn tbl ~col v =
  let tid = I.table_id tbl in
  let col_pos =
    Ivdb_relation.Schema.index_of (I.rt_schema (I.table_rt db tid)) col
  in
  List.of_seq (I.index_probe_rids db txn ~table:tid ~col:col_pos v)
