module Txn = Ivdb_txn.Txn
module Heap_file = Ivdb_storage.Heap_file
module Log_record = Ivdb_wal.Log_record
module Lock_name = Ivdb_lock.Lock_name
module Lock_mode = Ivdb_lock.Lock_mode

type t = { mgr : Txn.mgr; qid : int; qheap : Heap_file.t }

let create mgr ~queue_id =
  let qheap, diffs = Heap_file.create (Txn.pool mgr) (Txn.disk mgr) in
  ({ mgr; qid = queue_id; qheap }, diffs)

let attach mgr ~queue_id ~first_page =
  { mgr; qid = queue_id; qheap = Heap_file.attach (Txn.pool mgr) (Txn.disk mgr) ~first_page }

let first_page t = Heap_file.first_page t.qheap
let queue_id t = t.qid
let heap t = t.qheap

let encode_entry ~key delta =
  let d = Aggregate.encode delta in
  let b = Buffer.create (4 + String.length key + String.length d) in
  Buffer.add_uint16_be b (String.length key);
  Buffer.add_string b key;
  Buffer.add_string b d;
  Buffer.contents b

let decode_entry s =
  let klen = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
  let key = String.sub s 2 klen in
  let delta = Aggregate.decode (String.sub s (2 + klen) (String.length s - 2 - klen)) in
  (key, delta)

let append txn t ~key delta =
  if not (Aggregate.is_additive delta) then
    invalid_arg "Deferred.append: deferred maintenance requires additive deltas";
  Txn.lock t.mgr txn (Lock_name.Table t.qid) Lock_mode.IX;
  let rid, diffs = Heap_file.insert t.qheap (encode_entry ~key delta) in
  Txn.lock t.mgr txn (Lock_name.Row (t.qid, rid)) Lock_mode.X;
  Txn.log_update t.mgr txn
    ~undo:(Log_record.Undo_heap_insert { table = t.qid; rid })
    diffs

let pending t =
  let n = ref 0 in
  Heap_file.iter t.qheap (fun _ _ -> incr n);
  !n

let drain txn t ~apply =
  (* exclude concurrent appends and other drains for the duration *)
  Txn.lock t.mgr txn (Lock_name.Table t.qid) Lock_mode.X;
  let entries = ref [] in
  Heap_file.iter t.qheap (fun rid r -> entries := (rid, decode_entry r) :: !entries);
  let entries = List.rev !entries in
  (* combine per group so each view row is touched once *)
  let combined : (string, Aggregate.delta) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, (key, delta)) ->
      match Hashtbl.find_opt combined key with
      | None -> Hashtbl.replace combined key delta
      | Some acc -> (
          match Aggregate.combine acc delta with
          | Some s -> Hashtbl.replace combined key s
          | None -> assert false))
    entries;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) combined []) in
  List.iter (fun key -> apply ~key (Hashtbl.find combined key)) keys;
  List.iter
    (fun (rid, _) ->
      let diffs = Heap_file.delete t.qheap rid in
      Txn.log_update t.mgr txn
        ~undo:(Log_record.Undo_heap_delete { table = t.qid; rid })
        diffs)
    entries;
  List.length entries
