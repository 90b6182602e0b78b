module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module Disk = Ivdb_storage.Disk
module Fault = Ivdb_storage.Fault
module Bufpool = Ivdb_storage.Bufpool
module Heap_file = Ivdb_storage.Heap_file
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Lock_mgr = Ivdb_lock.Lock_mgr
module Lock_name = Ivdb_lock.Lock_name
module Lock_mode = Ivdb_lock.Lock_mode
module Txn = Ivdb_txn.Txn
module Btree = Ivdb_btree.Btree
module Recovery = Ivdb_recovery.Recovery
module Schema = Ivdb_relation.Schema
module Row = Ivdb_relation.Row
module Value = Ivdb_relation.Value
module Key_codec = Ivdb_relation.Key_codec
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Aggregate = Ivdb_core.Aggregate
module Maintain = Ivdb_core.Maintain
module Deferred = Ivdb_core.Deferred
module Group_gc = Ivdb_core.Group_gc
module Sched = Ivdb_sched.Sched

type config = {
  pool_capacity : int;
  read_cost : int;
  write_cost : int;
  txn_retries : int;
  escalation_threshold : int option;
  commit_mode : Txn.commit_mode;
  fault : Fault.config;
}

let default_config =
  {
    pool_capacity = 512;
    read_cost = 100;
    write_cost = 100;
    txn_retries = 10;
    escalation_threshold = None;
    commit_mode = Txn.Sync;
    fault = Fault.no_faults;
  }

type role = Primary | Follower

exception Read_only_replica

type table = int
type view = int

type table_rt = {
  meta : Catalog.table_meta;
  tschema : Schema.t;
  heap : Heap_file.t;
  mutable indexes : index_rt list;
  mutable dep_views : int list;
}

and index_rt = { imeta : Catalog.index_meta; itree : Btree.t }

type t = {
  cfg : config;
  mutable role : role; (* flips Follower -> Primary on [promote] *)
  mutable redo_state : Recovery.Redo.t option; (* Some iff role = Follower *)
  ddl_waiting : (int, string list) Hashtbl.t; (* follower: txn -> Ddl payloads *)
  mutable fplan : Fault.t;
  dmetrics : Metrics.t;
  dtrace : Trace.t;
  m_retry : Metrics.counter;
  m_give_up : Metrics.counter;
  m_escalation : Metrics.counter;
  m_scan_fallback : Metrics.counter;
  m_truncation_skipped : Metrics.counter;
  m_table_insert : Metrics.counter;
  m_table_delete : Metrics.counter;
  m_on_demand_aggregate : Metrics.counter;
  m_prepared : Metrics.counter;
  m_decided : Metrics.counter;
  m_redo_applied : Metrics.counter;
  m_torn_pages : Metrics.counter;
  m_losers : Metrics.counter;
  m_stable_records : Metrics.counter;
  m_indoubt : Metrics.counter;
  m_repl_applied : Metrics.counter;
  m_promotions : Metrics.counter;
  disk : Disk.t;
  dpool : Bufpool.t;
  dwal : Wal.t;
  dlocks : Lock_mgr.t;
  tmgr : Txn.mgr;
  catalog : Catalog.t;
  dtables : (int, table_rt) Hashtbl.t;
  heaps : (int, Heap_file.t) Hashtbl.t; (* tables and deferred queues *)
  trees : (int, Btree.t) Hashtbl.t; (* secondary indexes and views *)
  views_rt : (int, Maintain.runtime) Hashtbl.t;
  views_meta : (int, Catalog.view_meta) Hashtbl.t;
  ghosts : (int, ghost_entry list ref) Hashtbl.t; (* per txn *)
  inflight : Ivdb_core.Inflight.t;
  row_lock_counts : (int * int, int ref) Hashtbl.t; (* (txn, table) -> rows *)
  (* --- sharding / 2PC participant state ---
     [shard] identifies this engine inside a hash-partitioned cluster.
     [indoubt_2pc] holds prepared transactions (still owning their locks)
     keyed by the coordinator's global id until a decision arrives. *)
  mutable shard : (int * int) option; (* (shard id, shard count) *)
  indoubt_2pc : (string, Txn.t) Hashtbl.t;
  mutable last_decided : string option;
}

and ghost_entry =
  | Ghost_row of int * Heap_file.rid
  | Ghost_index_entry of int * string

(* Secondary-index entries are ghosted rather than removed on delete, so a
   probing reader conflicts with the deleter's key lock instead of reading
   around an uncommitted delete. Entry values are a one-byte liveness flag
   followed by a payload: empty for ordinary indexes (the rid lives in the
   key), the rid's six bytes ({!Heap_file.encode_rid}) for unique indexes
   (whose key is the column value alone). *)
let index_entry_live payload = "\000" ^ payload
let index_entry_ghost_of v = "\001" ^ String.sub v 1 (String.length v - 1)
let index_entry_is_ghost v = String.length v > 0 && v.[0] = '\001'
let index_entry_payload v = String.sub v 1 (String.length v - 1)

let metrics t = t.dmetrics
let trace t = t.dtrace
let mgr t = t.tmgr
let locks t = t.dlocks
let wal t = t.dwal
let pool t = t.dpool

let heap_of t id =
  match Hashtbl.find_opt t.heaps id with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Database: unknown heap %d" id)

let tree_of t id =
  match Hashtbl.find_opt t.trees id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Database: unknown index %d" id)

let table_rt t id =
  match Hashtbl.find_opt t.dtables id with
  | Some rt -> rt
  | None -> invalid_arg (Printf.sprintf "Database: unknown table %d" id)

let view_rt t id =
  match Hashtbl.find_opt t.views_rt id with
  | Some rt -> rt
  | None -> invalid_arg (Printf.sprintf "Database: unknown view %d" id)

let view_meta_of t id = Hashtbl.find t.views_meta id

(* Acquire a row lock, escalating to a table lock once the transaction has
   accumulated [escalation_threshold] row locks on that table. A held table
   lock that covers the request makes the row lock unnecessary. *)
let lock_row t tx tid rid mode =
  let table_covers =
    match Lock_mgr.held_mode t.dlocks ~txn:(Txn.id tx) (Lock_name.Table tid) with
    | Some held -> Lock_mode.covers ~held ~req:mode
    | None -> false
  in
  if not table_covers then begin
    Txn.lock t.tmgr tx (Lock_name.Row (tid, rid)) mode;
    match t.cfg.escalation_threshold with
    | None -> ()
    | Some threshold ->
        let key = (Txn.id tx, tid) in
        let c =
          match Hashtbl.find_opt t.row_lock_counts key with
          | Some c -> c
          | None ->
              let c = ref 0 in
              Hashtbl.replace t.row_lock_counts key c;
              c
        in
        incr c;
        if !c = threshold then begin
          Metrics.inc t.m_escalation;
          let table_mode =
            match mode with
            | Lock_mode.X | Lock_mode.U -> Lock_mode.X
            | _ -> Lock_mode.S
          in
          Txn.lock t.tmgr tx (Lock_name.Table tid) table_mode
        end
  end

(* --- row sources ---------------------------------------------------------- *)

let mvcc t = Txn.mvcc t.tmgr

let snap_of tx =
  match Txn.snapshot_of tx with
  | Some s -> s
  | None -> invalid_arg "Database: not a snapshot transaction"

(* Snapshot heap scan: no locks at all. Every slot — live and ghost — is
   resolved through the version chains; chain-only rids (rows whose ghost
   slot was physically reclaimed after the snapshot began) are unioned in.
   A ghost with no visible version was deleted before the snapshot; a live
   slot whose chain says [None] was inserted after it. *)
let snapshot_heap_rows t ~snap tid =
  let rt = table_rt t tid in
  let mv = mvcc t in
  let out = ref [] in
  let seen = Hashtbl.create 64 in
  let emit rid bytes = out := (rid, Row.decode bytes) :: !out in
  Heap_file.iter_all rt.heap (fun rid payload ~ghost ->
      let key = Heap_file.encode_rid rid in
      Hashtbl.replace seen key ();
      match Ivdb_txn.Mvcc.resolve mv ~obj:tid ~key ~snap with
      | Ivdb_txn.Mvcc.Committed v | Ivdb_txn.Mvcc.Pending v -> (
          match v with Some bytes -> emit rid bytes | None -> ())
      | Ivdb_txn.Mvcc.Current -> if not ghost then emit rid payload);
  List.iter
    (fun key ->
      if not (Hashtbl.mem seen key) then
        match Ivdb_txn.Mvcc.resolve mv ~obj:tid ~key ~snap with
        | Ivdb_txn.Mvcc.Committed (Some bytes) | Ivdb_txn.Mvcc.Pending (Some bytes)
          ->
            emit (Heap_file.decode_rid key) bytes
        | _ -> ())
    (Ivdb_txn.Mvcc.keys_of_obj mv ~obj:tid);
  List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) !out

(* Rows of a table, read in rid order. Without a transaction: live rows,
   unlocked, decoded from one heap walk. With one: IS on the table and S
   on every rid, live and ghost (an uncommitted delete must block the
   reader on its row lock, not be silently invisible). Acquiring a lock can block, and while blocked a
   writer may move a row to a new rid ([Table.update] deletes and
   re-inserts), so the rid set is collected to a fixpoint: walk the heap,
   S-lock every rid not seen before, walk again, until a walk finds no new
   rid. That last walk saw only rids locked before it began, so the live
   rows it read are the scan's result. Snapshot transactions take the
   lock-free MVCC path instead. *)
let heap_scan_rows_locked t txn tid =
  let rt = table_rt t tid in
  match txn with
  | None ->
      let rows = ref [] in
      Heap_file.iter rt.heap (fun rid payload -> rows := (rid, payload) :: !rows);
      List.to_seq (List.rev !rows) |> Seq.map (fun (rid, r) -> (rid, Row.decode r))
  | Some tx ->
      Txn.lock t.tmgr tx (Lock_name.Table tid) Lock_mode.IS;
      let locked = Hashtbl.create 64 in
      let rec grow () =
        let fresh = ref [] and live = ref [] in
        Heap_file.iter_all rt.heap (fun rid payload ~ghost ->
            if not (Hashtbl.mem locked rid) then fresh := rid :: !fresh
            else if not ghost then live := (rid, payload) :: !live);
        if !fresh = [] then !live
        else begin
          List.iter
            (fun rid ->
              Hashtbl.replace locked rid ();
              lock_row t tx tid rid Lock_mode.S)
            (List.rev !fresh);
          grow ()
        end
      in
      grow ()
      |> List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b)
      |> List.to_seq
      |> Seq.map (fun (rid, r) -> (rid, Row.decode r))

let heap_scan_rows t txn tid =
  match txn with
  | Some tx when Txn.snapshot_of tx <> None ->
      List.to_seq (snapshot_heap_rows t ~snap:(snap_of tx) tid)
  | _ -> heap_scan_rows_locked t txn tid

let heap_scan_seq t txn tid = Seq.map snd (heap_scan_rows t txn tid)

(* The rid an index entry points at: unique indexes carry it in the
   entry's payload (a ghost keeps its payload), ordinary ones in the key,
   which is (value, rpage, rslot). *)
let entry_rid (ix : index_rt) k v =
  if ix.imeta.Catalog.ix_unique then Heap_file.decode_rid (index_entry_payload v)
  else
    match Key_codec.decode k with
    | [| _; Value.Int rpage; Value.Int rslot |] -> { Heap_file.rpage; rslot }
    | _ -> invalid_arg "Database: corrupt index key"

(* Key-space range walk under key-range locking, shared by point probes and
   range scans: RangeS_S on every entry in [lo_key, hi_key) and on the
   terminating key (or EOF), then S on each rid. *)
let index_keyspace_rids t txn (ix : index_rt) ~table:tid ~lo_key ~hi_key =
  let rt = table_rt t tid in
  let ixid = ix.imeta.Catalog.ix_id in
  let lock_key k m =
    match txn with
    | Some tx -> Txn.lock t.tmgr tx (Lock_name.Key (ixid, k)) m
    | None -> ()
  in
  let lock_eof () =
    match txn with
    | Some tx -> Txn.lock t.tmgr tx (Lock_name.Eof ixid) Lock_mode.RangeS_S
    | None -> ()
  in
  (* One pass walks the range, range-locking every key and the terminator.
     Acquiring a lock can block, and while blocked the key set in range may
     change under us (a waited-for writer commits a delete + reinsert). So
     iterate to a fixpoint: once a pass sees exactly the keys of the
     previous pass, every key and gap is locked and the set can no longer
     move. *)
  let one_pass () =
    let keys = ref [] in
    let rec walk cursor =
      match cursor with
      | None -> lock_eof ()
      | Some (k, _, c) ->
          if String.compare k hi_key < 0 then begin
            lock_key k Lock_mode.RangeS_S;
            keys := k :: !keys;
            walk (Btree.cursor_next ix.itree c)
          end
          else
            (* the first key past the range seals the gap *)
            lock_key k Lock_mode.RangeS_S
    in
    walk (Btree.seek ix.itree lo_key);
    List.rev !keys
  in
  let rec stable prev =
    let keys = one_pass () in
    if keys = prev then keys else stable keys
  in
  let keys = match txn with Some _ -> stable (one_pass ()) | None -> one_pass () in
  (* re-read each entry after its lock was granted: a ghost flag means the
     deleter committed while we waited — skip it *)
  let rids =
    List.filter_map
      (fun k ->
        match Btree.search ix.itree k with
        | Some v when not (index_entry_is_ghost v) -> Some (entry_rid ix k v)
        | Some _ | None -> None)
      keys
  in
  List.to_seq rids
  |> Seq.filter_map (fun rid ->
         (match txn with
         | Some tx -> lock_row t tx tid rid Lock_mode.S
         | None -> ());
         Option.map (fun r -> (rid, Row.decode r)) (Heap_file.get rt.heap rid))

(* The same walk for a snapshot transaction, without locks. Index entries
   are not versioned: a ghost may be reclaimed and a row's entry may be
   newer than the snapshot. So the candidates are every entry in range,
   live and ghost, plus every rid with a version chain on the table; each
   is resolved at the snapshot and [pred] filters the resolved row. This
   finds every row the snapshot sees by the invariant [snapshot_heap_rows]
   relies on: a row whose value at the snapshot differs from storage has a
   chain, and a row without one is live in storage under its current
   entry. Rows come back in index order, as from the locked walk. *)
let snapshot_index_rids t ~snap (ix : index_rt) ~table:tid ~lo_key ~hi_key pred =
  let rt = table_rt t tid in
  let mv = mvcc t in
  let cands = Hashtbl.create 16 in
  let rec walk = function
    | Some (k, v, c) when String.compare k hi_key < 0 ->
        Hashtbl.replace cands (Heap_file.encode_rid (entry_rid ix k v)) ();
        walk (Btree.cursor_next ix.itree c)
    | Some _ | None -> ()
  in
  walk (Btree.seek ix.itree lo_key);
  List.iter
    (fun key -> Hashtbl.replace cands key ())
    (Ivdb_txn.Mvcc.keys_of_obj mv ~obj:tid);
  let col = ix.imeta.Catalog.ix_col in
  Hashtbl.fold
    (fun key () acc ->
      let rid = Heap_file.decode_rid key in
      let bytes =
        match Ivdb_txn.Mvcc.resolve mv ~obj:tid ~key ~snap with
        | Ivdb_txn.Mvcc.Committed v | Ivdb_txn.Mvcc.Pending v -> v
        | Ivdb_txn.Mvcc.Current -> Heap_file.get rt.heap rid
      in
      match Option.map Row.decode bytes with
      | Some row when pred row -> (rid, row) :: acc
      | Some _ | None -> acc)
    cands []
  |> List.sort (fun (ra, a) (rb, b) ->
         match Value.compare a.(col) b.(col) with
         | 0 -> Heap_file.rid_compare ra rb
         | c -> c)

let index_rids t txn ix ~table ~lo_key ~hi_key pred =
  match txn with
  | Some tx when Txn.snapshot_of tx <> None ->
      List.to_seq
        (snapshot_index_rids t ~snap:(snap_of tx) ix ~table ~lo_key ~hi_key pred)
  | _ -> index_keyspace_rids t txn ix ~table ~lo_key ~hi_key

let find_index_on t tid col =
  List.find_opt
    (fun ix -> ix.imeta.Catalog.ix_col = col)
    (table_rt t tid).indexes

(* Without an index on [col], both probes fall back to a filtered scan. *)
let scan_fallback t txn tid pred =
  Metrics.inc t.m_scan_fallback;
  heap_scan_rows t txn tid |> Seq.filter (fun (_, row) -> pred row)

(* Rows with [col] = [v]. Index keys start with the value, so the value
   and its successor bound the walk. *)
let index_probe_rids t txn ~table:tid ~col v =
  let pred row = Value.equal row.(col) v in
  match find_index_on t tid col with
  | None -> scan_fallback t txn tid pred
  | Some ix ->
      let lo_key = Key_codec.encode_one v in
      let hi_key = Key_codec.successor lo_key in
      index_rids t txn ix ~table:tid ~lo_key ~hi_key pred

(* Rows with [col] in the interval; bounds are (value, inclusive?) pairs. *)
let index_range_rids t txn ~table:tid ~col ~lo ~hi =
  let in_range row =
    let v = row.(col) in
    (match lo with
    | None -> true
    | Some (l, incl) ->
        let c = Value.compare v l in
        if incl then c >= 0 else c > 0)
    && (match hi with
       | None -> true
       | Some (h, incl) ->
           let c = Value.compare v h in
           if incl then c <= 0 else c < 0)
  in
  match find_index_on t tid col with
  | None -> scan_fallback t txn tid in_range
  | Some ix ->
      let lo_key =
        match lo with
        | None -> ""
        | Some (l, incl) ->
            let k = Key_codec.encode_one l in
            if incl then k else Key_codec.successor k
      in
      let hi_key =
        match hi with
        | None -> "\255\255\255\255\255\255\255\255\255\255"
        | Some (h, incl) ->
            let k = Key_codec.encode_one h in
            if incl then Key_codec.successor k else k
      in
      index_rids t txn ix ~table:tid ~lo_key ~hi_key in_range

let index_probe t txn ~table ~col v = Seq.map snd (index_probe_rids t txn ~table ~col v)

(* Joins [left] and [right] on equal encoded keys (NULL keys match each
   other). The right side is hashed; matches come in no particular order. *)
let hash_join ~left_key ~right_key left right =
  let tbl = Hashtbl.create 256 in
  Seq.iter (fun r -> Hashtbl.add tbl (Row.encode (Row.project r right_key)) r) right;
  Seq.concat_map
    (fun l ->
      let k = Row.encode (Row.project l left_key) in
      List.to_seq (List.map (fun r -> Array.append l r) (Hashtbl.find_all tbl k)))
    left

let source_rows t txn (def : View_def.t) =
  match def.View_def.source with
  | View_def.Single { table; _ } -> heap_scan_seq t txn table
  | View_def.Join { left; right; left_col; right_col; _ } -> (
      match txn with
      | Some tx when Txn.snapshot_of tx = None ->
          heap_scan_seq t txn left
          |> Seq.concat_map (fun lrow ->
                 index_probe t txn ~table:right ~col:right_col lrow.(left_col)
                 |> Seq.map (fun rrow -> Array.append lrow rrow))
      | _ ->
          (* unlocked, or lock-free at the snapshot: no index probing *)
          hash_join ~left_key:[| left_col |] ~right_key:[| right_col |]
            (heap_scan_seq t txn left) (heap_scan_seq t txn right))

(* --- installing catalog objects --------------------------------------------- *)

(* The one way a table, index or view enters the running engine: the
   catalog learns it and its runtime (heap, tree, view machinery) is
   attached. Only a committed Ddl record leads here: a live DDL statement
   once its system transaction has returned, restart for the checkpoint
   snapshot and the committed Ddl records after it, a follower at the
   DDL's Commit record. A live statement passes the heap or queue it
   formatted. *)
let install ?heap ?queue t op =
  Catalog.apply_op t.catalog op;
  match op with
  | Catalog.Add_table meta ->
      let heap =
        match heap with
        | Some h -> h
        | None -> Heap_file.attach t.dpool t.disk ~first_page:meta.Catalog.tb_first_page
      in
      let rt =
        { meta; tschema = Catalog.schema_of meta; heap; indexes = []; dep_views = [] }
      in
      Hashtbl.replace t.dtables meta.Catalog.tb_id rt;
      Hashtbl.replace t.heaps meta.Catalog.tb_id heap
  | Catalog.Add_index imeta ->
      let itree =
        Btree.attach t.tmgr ~index_id:imeta.Catalog.ix_id ~root:imeta.Catalog.ix_root
      in
      let rt = table_rt t imeta.Catalog.ix_table in
      rt.indexes <- rt.indexes @ [ { imeta; itree } ];
      Hashtbl.replace t.trees imeta.Catalog.ix_id itree
  | Catalog.Add_view meta ->
      let tree =
        Btree.attach t.tmgr ~index_id:meta.Catalog.vw_id ~root:meta.Catalog.vw_root
      in
      let queue =
        match (queue, meta.Catalog.vw_queue) with
        | Some q, _ -> Some q
        | None, Some (qid, first_page) ->
            Some (Deferred.attach t.tmgr ~queue_id:qid ~first_page)
        | None, None -> None
      in
      (match queue with
      | Some q -> Hashtbl.replace t.heaps (Deferred.queue_id q) (Deferred.heap q)
      | None -> ());
      let def = meta.Catalog.vw_def in
      let rt =
        {
          Maintain.vid = meta.Catalog.vw_id;
          def;
          tree;
          strategy = meta.Catalog.vw_strategy;
          create_mode = meta.Catalog.vw_create_mode;
          inflight = t.inflight;
          deferred = queue;
          recompute_group =
            (fun txn key ->
              Aggregate.fold_rows def
                (Seq.filter
                   (fun row -> View_def.group_key def row = key)
                   (source_rows t (Some txn) def)));
          stats = Maintain.make_stats t.dmetrics;
          vstats = Maintain.make_vstats ();
        }
      in
      Hashtbl.replace t.views_rt meta.Catalog.vw_id rt;
      Hashtbl.replace t.views_meta meta.Catalog.vw_id meta;
      Hashtbl.replace t.trees meta.Catalog.vw_id tree;
      List.iter
        (fun tid -> let trt = table_rt t tid in
          if not (List.mem meta.Catalog.vw_id trt.dep_views) then
            trt.dep_views <- trt.dep_views @ [ meta.Catalog.vw_id ])
        (View_def.tables_of def)

let install_undo t =
  Txn.set_undo_exec t.tmgr (fun _txn undo ->
      match undo with
      | Log_record.No_undo -> []
      | Log_record.Undo_heap_insert { table; rid } -> Heap_file.delete (heap_of t table) rid
      | Log_record.Undo_heap_delete { table; rid } -> Heap_file.revive (heap_of t table) rid
      | Log_record.Undo_heap_update { table; rid; before } ->
          Heap_file.update (heap_of t table) rid before
      | Log_record.Undo_bt_insert { index; key } -> Btree.delete_raw (tree_of t index) ~key
      | Log_record.Undo_bt_delete { index; key; value } ->
          Btree.insert_raw (tree_of t index) ~key ~value
      | Log_record.Undo_bt_update { index; key; before } ->
          Btree.update_raw (tree_of t index) ~key ~value:before
      | Log_record.Undo_escrow { view; key; inverse } ->
          Maintain.undo_escrow (view_rt t view) ~key ~inverse)

(* The end of transaction [txn] on every node, once [Mvcc] has settled
   its before-images: [stamp] is its commit stamp, [None] if it aborted.
   Escrow increments never record before-images (their stored before
   includes other transactions' uncommitted deltas), so a committing
   escrow writer pushes its versions here instead: the in-flight registry
   still holds every pending delta, this transaction's included, making
   [stored ⊖ Σ pending] the last fully-committed value, the before-image
   of this commit's stamp. On a primary the [Txn] end hook runs it, before
   lock release; on a follower the transaction's Commit or End record. *)
let end_txn t ~txn stamp =
  (match stamp with
  | Some stamp when Ivdb_txn.Mvcc.snapshot_count (mvcc t) > 0 ->
      List.iter
        (fun (vid, key) ->
          let rt = view_rt t vid in
          match Btree.search rt.Maintain.tree key with
          | None -> ()
          | Some stored ->
              let before =
                List.fold_left
                  (fun r d ->
                    match Aggregate.apply rt.Maintain.def r (Aggregate.negate d) with
                    | `Ok r' -> r'
                    | `Recompute -> r)
                  (Row.decode stored)
                  (Ivdb_core.Inflight.pending t.inflight ~vid ~key)
              in
              Ivdb_txn.Mvcc.push_committed (mvcc t) ~obj:vid ~key ~stamp
                (Some (Row.encode before)))
        (Ivdb_core.Inflight.keys_of_txn t.inflight ~txn)
  | _ -> ());
  Ivdb_core.Inflight.drop_txn t.inflight ~txn;
  Hashtbl.remove t.ghosts txn;
  Hashtbl.filter_map_inplace
    (fun (tid, _) v -> if tid = txn then None else Some v)
    t.row_lock_counts

(* The trace is wired to the deterministic scheduler's clock and fiber id,
   so under Sched.run the same seed yields a byte-identical event stream. *)
let make_trace () = Trace.create ~clock:Sched.now ~fiber:Sched.self ()

let bare ?(config = default_config) ?(role = Primary) ?trace ~metrics ~disk ~wal () =
  let trace = match trace with Some tr -> tr | None -> make_trace () in
  let fplan =
    if Fault.enabled_in config.fault then Fault.create ~trace metrics config.fault
    else Fault.none
  in
  Disk.set_fault disk fplan;
  Wal.set_fault wal fplan;
  let dpool =
    Bufpool.create disk ~capacity:config.pool_capacity ~trace metrics
  in
  Bufpool.set_wal_force dpool (fun lsn -> Wal.force wal (Int64.to_int lsn));
  let dlocks = Lock_mgr.create ~trace metrics in
  let tmgr =
    Txn.create_mgr ~commit_mode:config.commit_mode ~trace ~wal ~locks:dlocks
      ~pool:dpool metrics
  in
  let t =
    {
      cfg = config;
      role;
      (* a follower's replay position: the next LSN after whatever the log
         already holds (1 for a fresh follower; after a restart, recovery
         redo re-applies the retained prefix and streaming resumes here) *)
      redo_state =
        (match role with
        | Primary -> None
        | Follower ->
            Some (Recovery.Redo.create dpool ~next:(Wal.flushed_lsn wal + 1)));
      ddl_waiting = Hashtbl.create 4;
      fplan;
      dmetrics = metrics;
      dtrace = trace;
      m_retry = Metrics.counter metrics "txn.retry";
      m_give_up = Metrics.counter metrics "txn.give_up";
      m_escalation = Metrics.counter metrics "lock.escalation";
      m_scan_fallback = Metrics.counter metrics "view.join_scan_fallback";
      m_truncation_skipped = Metrics.counter metrics "fault.truncation_skipped";
      m_table_insert = Metrics.counter metrics "table.insert";
      m_table_delete = Metrics.counter metrics "table.delete";
      m_on_demand_aggregate = Metrics.counter metrics "query.on_demand_aggregate";
      m_prepared = Metrics.counter metrics "shard.prepared";
      m_decided = Metrics.counter metrics "shard.decided";
      m_redo_applied = Metrics.counter metrics "recovery.redo_applied";
      m_torn_pages = Metrics.counter metrics "recovery.torn_pages";
      m_losers = Metrics.counter metrics "recovery.losers";
      m_stable_records = Metrics.counter metrics "recovery.stable_records";
      m_indoubt = Metrics.counter metrics "recovery.indoubt";
      m_repl_applied = Metrics.counter metrics "repl.applied_records";
      m_promotions = Metrics.counter metrics "repl.promotions";
      disk;
      dpool;
      dwal = wal;
      dlocks;
      tmgr;
      catalog = Catalog.create ();
      dtables = Hashtbl.create 16;
      heaps = Hashtbl.create 16;
      trees = Hashtbl.create 16;
      views_rt = Hashtbl.create 16;
      views_meta = Hashtbl.create 16;
      ghosts = Hashtbl.create 16;
      inflight = Ivdb_core.Inflight.create ();
      row_lock_counts = Hashtbl.create 32;
      shard = None;
      indoubt_2pc = Hashtbl.create 8;
      last_decided = None;
    }
  in
  install_undo t;
  Txn.add_end_hook tmgr (fun txn _ ->
      if Txn.snapshot_of txn = None then
        end_txn t ~txn:(Txn.id txn) (Txn.commit_stamp txn));
  t

let create ?(config = default_config) () =
  let metrics = Metrics.create () in
  let trace = make_trace () in
  let disk =
    Disk.create ~read_cost:config.read_cost ~write_cost:config.write_cost
      ~trace metrics
  in
  let wal = Wal.create ~trace metrics in
  bare ~config ~trace ~metrics ~disk ~wal ()

let create_follower ?(config = default_config) () =
  let metrics = Metrics.create () in
  let trace = make_trace () in
  let disk =
    Disk.create ~read_cost:config.read_cost ~write_cost:config.write_cost
      ~trace metrics
  in
  let wal = Wal.create ~trace metrics in
  bare ~config ~role:Follower ~trace ~metrics ~disk ~wal ()

let is_follower t = t.role = Follower
let reject_writes t = if t.role = Follower then raise Read_only_replica

(* Arm (or replace) the fault plan mid-life — the crash-point sweep tests
   set up the schema fault-free, then install the trigger before the
   measured workload so every injection ordinal lands inside it. *)
let install_fault t fcfg =
  let fplan = Fault.create ~trace:t.dtrace t.dmetrics fcfg in
  t.fplan <- fplan;
  Disk.set_fault t.disk fplan;
  Wal.set_fault t.dwal fplan

let fault_plan t = t.fplan

(* --- DDL -------------------------------------------------------------------- *)

(* A DDL statement is one system transaction that logs only redo and ends
   with its Ddl record; the statement installs the object after the
   transaction commits. Until then no catalog entry reaches the new pages,
   so a statement that fails or crashes leaves only unreachable pages and
   nothing to undo. *)
let log_ddl_op t stx op = Txn.log_ddl t.tmgr stx (Catalog.encode_op op)

let create_table t ~name ~cols =
  reject_writes t;
  Catalog.check_name t.catalog name;
  let id = Catalog.fresh_id t.catalog in
  let heap, meta =
    Txn.system t.tmgr (fun stx ->
        let heap, diffs = Heap_file.create t.dpool t.disk in
        Txn.log_update t.tmgr stx ~undo:Log_record.No_undo diffs;
        let meta =
          {
            Catalog.tb_id = id;
            tb_name = name;
            tb_cols =
              Array.of_list
                (List.map (fun c -> (c.Schema.name, c.Schema.ty, c.Schema.nullable)) cols);
            tb_first_page = Heap_file.first_page heap;
          }
        in
        log_ddl_op t stx (Catalog.Add_table meta);
        (heap, meta))
  in
  install ~heap t (Catalog.Add_table meta);
  id

let index_key ~unique v (rid : Heap_file.rid) =
  if unique then Key_codec.encode [| v |]
  else
    Key_codec.encode [| v; Value.Int rid.Heap_file.rpage; Value.Int rid.Heap_file.rslot |]

exception Constraint_violation of string

let create_index t ?(unique = false) tid ~col ~name =
  reject_writes t;
  Catalog.check_name t.catalog name;
  let rt = table_rt t tid in
  let col_pos = Schema.index_of rt.tschema col in
  let id = Catalog.fresh_id t.catalog in
  let tree = Btree.create t.tmgr ~index_id:id in
  let meta =
    {
      Catalog.ix_id = id;
      ix_name = name;
      ix_table = tid;
      ix_col = col_pos;
      ix_unique = unique;
      ix_root = Btree.root tree;
    }
  in
  Txn.system t.tmgr (fun stx ->
      Heap_file.iter rt.heap (fun rid record ->
          let row = Row.decode record in
          let payload = if unique then Heap_file.encode_rid rid else "" in
          try
            Btree.insert ~undo:Log_record.No_undo stx tree
              ~key:(index_key ~unique row.(col_pos) rid)
              ~value:(index_entry_live payload)
          with Btree.Duplicate_key _ ->
            raise
              (Constraint_violation
                 (Printf.sprintf "unique index %s: duplicate value in column %s" name col)));
      log_ddl_op t stx (Catalog.Add_index meta));
  install t (Catalog.Add_index meta)

type view_source =
  | From of table * Expr.t option
  | From_join of {
      left : table;
      right : table;
      left_col : string;
      right_col : string;
      where : Expr.t option;
    }

let schema t tid = (table_rt t tid).tschema

let join_schema t left right =
  Schema.concat (schema t left) (schema t right)

let create_view t ?(create_mode = Maintain.System_txn) ?refresh_threshold ~name
    ~group_by ~aggs ~source ~strategy () =
  reject_writes t;
  Catalog.check_name t.catalog name;
  let src, src_schema =
    match source with
    | From (tid, where) -> (View_def.Single { table = tid; where }, schema t tid)
    | From_join { left; right; left_col; right_col; where } ->
        ( View_def.Join
            {
              left;
              right;
              left_col = Schema.index_of (schema t left) left_col;
              right_col = Schema.index_of (schema t right) right_col;
              where;
            },
          join_schema t left right )
  in
  let def =
    {
      View_def.name;
      group_cols =
        Array.of_list (List.map (fun c -> Schema.index_of src_schema c) group_by);
      aggs = Array.of_list aggs;
      source = src;
    }
  in
  (match strategy with
  | Maintain.Escrow | Maintain.Deferred ->
      if not (View_def.escrow_compatible def) then
        invalid_arg
          "Database.create_view: escrow/deferred strategies require \
           COUNT/SUM-only views (MIN/MAX needs exclusive maintenance)"
  | Maintain.Exclusive -> ());
  let id = Catalog.fresh_id t.catalog in
  let tree = Btree.create t.tmgr ~index_id:id in
  let queue, meta =
    Txn.system t.tmgr (fun stx ->
        let queue, vw_queue =
          match strategy with
          | Maintain.Deferred ->
              let qid = Catalog.fresh_id t.catalog in
              let q, diffs = Deferred.create t.tmgr ~queue_id:qid in
              Txn.log_update t.tmgr stx ~undo:Log_record.No_undo diffs;
              (Some q, Some (qid, Deferred.first_page q))
          | Maintain.Exclusive | Maintain.Escrow -> (None, None)
        in
        (* initial materialization *)
        let groups = Aggregate.fold_groups def (source_rows t None def) in
        Hashtbl.iter
          (fun key row ->
            if Aggregate.count_of row > 0 then
              Btree.insert ~undo:Log_record.No_undo stx tree ~key ~value:(Row.encode row))
          groups;
        let meta =
          {
            Catalog.vw_id = id;
            vw_name = name;
            vw_def = def;
            vw_root = Btree.root tree;
            vw_strategy = strategy;
            vw_create_mode = create_mode;
            vw_refresh_threshold = refresh_threshold;
            vw_queue;
          }
        in
        log_ddl_op t stx (Catalog.Add_view meta);
        (queue, meta))
  in
  install ?queue t (Catalog.Add_view meta);
  id

(* --- handles ------------------------------------------------------------------ *)

let table t name =
  match Catalog.table_named t.catalog name with
  | Some m -> m.Catalog.tb_id
  | None -> raise Not_found

let view t name =
  match Catalog.view_named t.catalog name with
  | Some m -> m.Catalog.vw_id
  | None -> raise Not_found

let list_tables t =
  List.map (fun (m : Catalog.table_meta) -> m.Catalog.tb_name) (Catalog.tables t.catalog)

let indexed_columns t tid =
  List.map
    (fun (m : Catalog.index_meta) ->
      ((Schema.col_at (table_rt t tid).tschema m.Catalog.ix_col).Schema.name,
        m.Catalog.ix_name))
    (Catalog.indexes_of_table t.catalog tid)

let list_views t =
  List.map
    (fun (m : Catalog.view_meta) ->
      (m.Catalog.vw_name, Maintain.strategy_to_string m.Catalog.vw_strategy))
    (Catalog.views t.catalog)
let view_name t vid = (view_meta_of t vid).Catalog.vw_name
let view_def t vid = (view_meta_of t vid).Catalog.vw_def
let view_strategy t vid = (view_meta_of t vid).Catalog.vw_strategy
let view_refresh_threshold t vid = (view_meta_of t vid).Catalog.vw_refresh_threshold

(* --- transactions ---------------------------------------------------------------- *)

let note_ghost_entry t txn entry =
  match Hashtbl.find_opt t.ghosts (Txn.id txn) with
  | Some l -> l := entry :: !l
  | None -> Hashtbl.replace t.ghosts (Txn.id txn) (ref [ entry ])

let note_ghost t txn tid rid = note_ghost_entry t txn (Ghost_row (tid, rid))
let note_index_ghost t txn ixid key = note_ghost_entry t txn (Ghost_index_entry (ixid, key))

(* The one ghost reclaimer, in one system transaction: the committed
   ghosts a transaction leaves, and those [gc] sweeps up. Returns how many
   it removed. *)
let reclaim_ghosts t entries =
  if entries = [] then 0
  else
    Txn.system t.tmgr (fun stx ->
        List.fold_left
          (fun n entry ->
            match entry with
            | Ghost_row (tid, rid) -> (
                match Heap_file.free_ghost (heap_of t tid) rid with
                | [] -> n
                | diffs ->
                    Txn.log_update t.tmgr stx ~undo:Log_record.No_undo diffs;
                    n + 1)
            | Ghost_index_entry (ixid, key) -> (
                (* remove only if still a ghost and no reader still speaks for
                   the key; otherwise the gc sweep picks it up later *)
                let tree = tree_of t ixid in
                match Btree.search tree key with
                | Some v
                  when index_entry_is_ghost v
                       && Lock_mgr.unlocked t.dlocks (Lock_name.Key (ixid, key)) ->
                    Btree.delete stx tree ~key;
                    n + 1
                | Some _ | None -> n))
          0 entries)

type abort_reason = Deadlock_victim | User_abort of exn

(* Retry loop returning the terminal exception (if any) unconsumed, so
   [transact] can re-raise the original and [transact_result] can classify
   it without losing the payload. *)
let transact_exn t f =
  reject_writes t;
  let rec go attempts_left =
    let tx = Txn.begin_txn t.tmgr in
    match f tx with
    | v ->
        (* the end hook drops the ghost entry: read it first, reclaim after *)
        let ghosts =
          match Hashtbl.find_opt t.ghosts (Txn.id tx) with Some l -> !l | None -> []
        in
        Txn.commit t.tmgr tx;
        ignore (reclaim_ghosts t ghosts);
        Ok v
    | exception Txn.Conflict _ when attempts_left > 0 ->
        Txn.abort t.tmgr tx;
        Metrics.inc t.m_retry;
        Sched.yield ();
        go (attempts_left - 1)
    | exception (Fault.Crash_point _ as e) ->
        (* power loss, not an abort: nothing runs after the crash point —
           the rollback happens in recovery, from the stable log *)
        raise e
    | exception e ->
        Txn.abort t.tmgr tx;
        (match e with Txn.Conflict _ -> Metrics.inc t.m_give_up | _ -> ());
        Error e
  in
  go t.cfg.txn_retries

(* A snapshot transaction can neither conflict nor deadlock, so there is no
   retry loop: begin, run, commit (abort on exception just unregisters). *)
let transact_snapshot t f =
  let tx = Txn.begin_snapshot t.tmgr in
  match f tx with
  | v ->
      Txn.commit t.tmgr tx;
      v
  | exception e ->
      Txn.abort t.tmgr tx;
      raise e

let transact t ?(read_only = false) f =
  if read_only then transact_snapshot t f
  else match transact_exn t f with Ok v -> v | Error e -> raise e

let transact_result t f =
  match transact_exn t f with
  | Ok v -> Ok v
  | Error (Txn.Conflict _) -> Error Deadlock_victim
  | Error e -> Error (User_abort e)

(* Sharp checkpoint: flush the pool so the dirty-page table is empty, then
   discard the log prefix nothing can need anymore — redo starts at the
   checkpoint, and undo of any active transaction reaches back at most to
   its first record. *)
let checkpoint_gen t ~truncate =
  (* a follower must never append its own records: its log is a verbatim
     copy of the primary's LSN space *)
  reject_writes t;
  Bufpool.flush_all t.dpool;
  Txn.checkpoint t.tmgr ~catalog:(Catalog.encode_snapshot t.catalog);
  let ckpt = Wal.last_checkpoint_lsn t.dwal in
  if ckpt > 0 && truncate then begin
    if Fault.tears_writes t.fplan then
      (* torn-write injection is armed: retain the full log so a torn page
         can be reset to fresh and rebuilt from its complete diff history
         (the same trade as PostgreSQL's full_page_writes — pay log volume
         for torn-page recoverability) *)
      Metrics.inc t.m_truncation_skipped
    else begin
      let safe =
        List.fold_left min ckpt
          (List.map (fun (_, recl) -> Int64.to_int recl) (Bufpool.dirty_page_table t.dpool)
          @ Txn.active_first_lsns t.tmgr)
      in
      Wal.truncate_before t.dwal safe
    end
  end

let checkpoint t = checkpoint_gen t ~truncate:true

(* --- sharding / two-phase commit (participant side) -------------------------------- *)

let set_shard t ~shard ~shards =
  if shard < 0 || shard >= shards then
    invalid_arg "Database.set_shard: shard id out of range";
  t.shard <- Some (shard, shards)

let shard_info t = t.shard

let gtxn_status t gtxn = if Hashtbl.mem t.indoubt_2pc gtxn then `Prepared else `Unknown

(* 2PC phase 1 on a participant: force a Prepare record. The transaction
   keeps all its locks; its handle moves from the session into the
   in-doubt table, where it survives until a decision arrives (possibly
   after a crash, via recovery's in-doubt resurrection). A read-only
   transaction commits instead and never enters the table. *)
let prepare_2pc t tx ~gtxn =
  reject_writes t;
  if gtxn_status t gtxn = `Prepared then
    invalid_arg ("Database.prepare_2pc: duplicate gtxn " ^ gtxn);
  match Txn.prepare t.tmgr tx ~gtxn with
  | `Read_only -> `Read_only
  | `Prepared ->
      Hashtbl.replace t.indoubt_2pc gtxn tx;
      Metrics.inc t.m_prepared;
      `Prepared

(* 2PC phase 2: idempotent against retransmits without remembering any
   decided gtxn. Only an in-doubt gtxn is acted on. An unknown gtxn with a
   commit decision is one this shard already committed: a coordinator
   decides commit only after every vote, so this shard prepared it, and it
   leaves the in-doubt table only by being decided. An unknown gtxn with
   an abort decision is presumed-abort: this shard never prepared it, or
   already rolled it back. *)
let decide_2pc t ~gtxn ~committed =
  match Hashtbl.find_opt t.indoubt_2pc gtxn with
  | Some tx ->
      Hashtbl.remove t.indoubt_2pc gtxn;
      if committed then Txn.commit t.tmgr tx else Txn.abort t.tmgr tx;
      t.last_decided <- Some gtxn;
      Metrics.inc t.m_decided;
      `Applied
  | None -> if committed then `Duplicate else `Presumed_abort

let indoubt_gtxns t =
  Hashtbl.fold (fun g tx acc -> (g, Txn.id tx) :: acc) t.indoubt_2pc []
  |> List.sort compare

let indoubt_count t = Hashtbl.length t.indoubt_2pc
let last_decided t = t.last_decided

(* What one Update of open transaction [txn] leaves for a snapshot to
   see past, as the primary's write path recorded it: the before-image
   its logical undo carries (a deleted heap row's ghost still holds its
   bytes; an insert had none), or an escrow increment's delta. *)
let note_update t ~txn undo =
  let image obj key before = Ivdb_txn.Mvcc.record_write (mvcc t) ~txn ~obj ~key ~before in
  let rid_key = Heap_file.encode_rid in
  match undo with
  | Log_record.No_undo -> ()
  | Log_record.Undo_heap_insert { table; rid } -> image table (rid_key rid) None
  | Log_record.Undo_heap_delete { table; rid } ->
      image table (rid_key rid) (Heap_file.get_any (heap_of t table) rid)
  | Log_record.Undo_heap_update { table; rid; before } ->
      image table (rid_key rid) (Some before)
  | Log_record.Undo_bt_insert { index; key } -> image index key None
  | Log_record.Undo_bt_delete { index; key; value } -> image index key (Some value)
  | Log_record.Undo_bt_update { index; key; before } -> image index key (Some before)
  | Log_record.Undo_escrow { view; key; inverse } ->
      Ivdb_core.Inflight.record t.inflight ~txn ~vid:view ~key
        (Aggregate.negate (Aggregate.decode inverse))

let note_ddl t ~txn payload =
  let waiting = Option.value (Hashtbl.find_opt t.ddl_waiting txn) ~default:[] in
  Hashtbl.replace t.ddl_waiting txn (payload :: waiting)

(* The write locks an Update's logical undo names. *)
let relock t tx undo =
  let lock name mode = Txn.lock t.tmgr tx name mode in
  match undo with
  | Log_record.No_undo -> ()
  | Log_record.Undo_heap_insert { table; rid }
  | Log_record.Undo_heap_delete { table; rid }
  | Log_record.Undo_heap_update { table; rid; _ } ->
      lock (Lock_name.Table table) Lock_mode.IX;
      lock (Lock_name.Row (table, rid)) Lock_mode.X
  | Log_record.Undo_bt_insert { index; key }
  | Log_record.Undo_bt_delete { index; key; _ }
  | Log_record.Undo_bt_update { index; key; _ } ->
      lock (Lock_name.Key (index, key)) Lock_mode.X
  | Log_record.Undo_escrow { view; key; _ } ->
      lock (Lock_name.Table view) Lock_mode.IX;
      lock (Lock_name.Key (view, key)) Lock_mode.E

(* Rebuild open transaction [txn]'s state on this node from its log, the
   chain from [last] back to its Begin: before-images (walked oldest
   first, so the oldest image of a key wins), escrow deltas and Ddl
   payloads waiting for its Commit. A CLR's section is already undone, so
   the walk skips it through undo_next. With [tx], the transaction's
   handle, it also re-acquires its write locks. Four callers: in-doubt
   resurrection on a restarted primary (with [tx]), a restarted
   follower's open transactions, and a follower receiving a CLR or a
   primary rolling back to a savepoint, so that a compensated escrow delta
   is no longer subtracted. *)
let restore_open t ?tx ~txn last =
  let rec live lsn acc =
    if lsn = Log_record.nil_lsn then acc
    else
      let r = Wal.get t.dwal lsn in
      match r.Log_record.body with
      | Log_record.Clr { undo_next; _ } -> live undo_next acc
      | Log_record.Begin _ | Log_record.Commit | Log_record.End -> acc
      | _ -> live r.Log_record.prev (r :: acc)
  in
  Ivdb_core.Inflight.drop_txn t.inflight ~txn;
  Hashtbl.remove t.ddl_waiting txn;
  List.iter
    (fun (r : Log_record.t) ->
      match r.Log_record.body with
      | Log_record.Update { undo; _ } ->
          Option.iter (fun tx -> relock t tx undo) tx;
          note_update t ~txn undo
      | Log_record.Ddl payload -> note_ddl t ~txn payload
      | _ -> ())
    (live last [])

(* Partial rollback to a savepoint. The CLRs restore storage, but the
   in-flight registry still holds the compensated escrow deltas: a
   snapshot would subtract them from the group, and the commit would push
   that value as the version older snapshots read. Rebuild the deltas from
   the live chain, as a follower does at a CLR; the locks stay held. *)
let rollback_to t tx sp =
  Txn.rollback_to t.tmgr tx sp;
  let txn = Txn.id tx in
  if Ivdb_core.Inflight.keys_of_txn t.inflight ~txn <> [] then
    restore_open t ~txn (Txn.last_lsn tx)

(* --- crash / recovery ------------------------------------------------------------- *)

(* Roll back every recovery loser through the logical-undo executor,
   writing CLRs: the restart path and promotion share it. *)
let rollback_losers t analysis =
  List.iter
    (fun (tid, last) ->
      let loser = Txn.resurrect t.tmgr ~id:tid ~last_lsn:last () in
      Txn.rollback_tail t.tmgr loser ~from:last)
    analysis.Recovery.losers

let crash old =
  let metrics = Metrics.create () in
  let trace = make_trace () in
  let wal = Wal.crash old.dwal ~trace metrics in
  (* replication slots are durable state (as in any real system): carry
     the retain floor across the restart so a subscribed replica can still
     resume below the recovery checkpoint's truncation point — the CLRs
     recovery is about to append are records the replica has yet to see *)
  Wal.set_retain_floor wal (Wal.retain_floor old.dwal);
  Bufpool.drop_all old.dpool;
  (* the new incarnation boots on healthy hardware: the old plan (frozen
     or not) must not fire again during or after recovery *)
  Disk.set_fault old.disk Fault.none;
  let config = { old.cfg with fault = Fault.no_faults } in
  let t = bare ~config ~role:old.role ~trace ~metrics ~disk:old.disk ~wal () in
  let analysis = Recovery.analyze wal in
  let analysis =
    (* A restarting follower redoes its whole retained log: the governing
       checkpoint is the *primary's*, so its dirty-page recLSNs describe
       the primary's disk at checkpoint time, not this replica's (whose
       pool was never flushed at that point). The pageLSN gate makes the
       wider replay cheap and idempotent. *)
    if t.role = Follower then
      { analysis with Recovery.redo_start = Wal.first_lsn wal }
    else analysis
  in
  let redo = Recovery.redo wal t.dpool analysis in
  Metrics.inc_by t.m_redo_applied redo.Recovery.applied;
  Metrics.inc_by t.m_torn_pages (List.length redo.Recovery.torn_pages);
  Metrics.inc_by t.m_losers (List.length analysis.Recovery.losers);
  Metrics.inc_by t.m_stable_records analysis.Recovery.stable_records;
  Txn.bump_txn_id t.tmgr analysis.Recovery.max_txn_id;
  (match analysis.Recovery.catalog with
  | Some snap ->
      let c = Catalog.decode_snapshot snap in
      List.iter (fun m -> install t (Catalog.Add_table m)) (Catalog.tables c);
      List.iter (fun m -> install t (Catalog.Add_index m)) (Catalog.indexes c);
      List.iter (fun m -> install t (Catalog.Add_view m)) (Catalog.views c)
  | None -> ());
  List.iter (fun payload -> install t (Catalog.decode_op payload)) analysis.Recovery.ddl;
  (match t.role with
  | Primary ->
      rollback_losers t analysis;
      (* Resurrect in-doubt (prepared) transactions with their locks and
         in-flight escrow state: they block conflicting access until the
         coordinator re-delivers its decision. [first_lsn] pins the log-
         truncation bound so their undo chains survive checkpoints. *)
      List.iter
        (fun (d : Recovery.indoubt_txn) ->
          let tx =
            Txn.resurrect t.tmgr ~first_lsn:d.Recovery.id_first_lsn
              ~id:d.Recovery.id_txn ~last_lsn:d.Recovery.id_last_lsn ()
          in
          restore_open t ~tx ~txn:d.Recovery.id_txn d.Recovery.id_last_lsn;
          Hashtbl.replace t.indoubt_2pc d.Recovery.id_gtxn tx)
        analysis.Recovery.indoubt;
      Metrics.inc_by t.m_indoubt (List.length analysis.Recovery.indoubt);
      checkpoint t
  | Follower ->
      (* "losers" here are the primary's transactions still open at the
         end of the shipped log: their CLRs or commits arrive later in the
         stream, so rolling them back locally would diverge. A snapshot
         must not see them, so their state is rebuilt from the log. No
         checkpoint either: a follower appends nothing. *)
      List.iter
        (fun (txn, last) -> restore_open t ~txn last)
        (analysis.Recovery.losers
        @ List.map
            (fun (d : Recovery.indoubt_txn) -> (d.Recovery.id_txn, d.Recovery.id_last_lsn))
            analysis.Recovery.indoubt));
  t

(* --- replication (follower side) --------------------------------------------------- *)

(* Apply each shipped record as it arrives: it is ingested into the
   local log (keeping the primary's LSN) and its page diffs are replayed
   through the persistent redo state, so the follower's pages hold its
   open transactions' effects, as the primary's do. Snapshots see past
   them the way they do on the primary: each Update records its
   before-image in [Mvcc] or its escrow delta in the in-flight registry,
   and the transaction's Commit or End record ends it through [end_txn]
   (an End after a Commit finds nothing left). A Ddl payload waits in
   [ddl_waiting] until its transaction's Commit record, where [install]
   attaches the object from pages redo has already formatted and filled.
   Checkpoint records flow through untouched: their catalog snapshot and
   dirty-page table describe the primary, and the follower only consults
   them during its own restart recovery. *)
let apply_replicated t records =
  let redo =
    match t.redo_state with
    | Some s -> s
    | None -> invalid_arg "Database.apply_replicated: not a follower"
  in
  let finish ~txn committed =
    let mv = mvcc t in
    end_txn t ~txn
      (if committed then Some (Ivdb_txn.Mvcc.commit_txn mv ~txn)
       else (Ivdb_txn.Mvcc.abort_txn mv ~txn; None))
  in
  List.iter
    (fun (r : Log_record.t) ->
      Wal.ingest t.dwal r;
      Recovery.Redo.apply redo r;
      let txn = r.Log_record.txn in
      match r.Log_record.body with
      | Log_record.Update { undo; _ } -> note_update t ~txn undo
      (* only escrow deltas go stale under compensation: a before-image
         still holds the committed value, so a transaction without
         deltas needs no walk *)
      | Log_record.Clr _ when Ivdb_core.Inflight.keys_of_txn t.inflight ~txn <> [] ->
          restore_open t ~txn r.Log_record.lsn
      | Log_record.Ddl payload -> note_ddl t ~txn payload
      | Log_record.Commit ->
          let waiting = Option.value (Hashtbl.find_opt t.ddl_waiting txn) ~default:[] in
          List.iter (fun p -> install t (Catalog.decode_op p)) (List.rev waiting);
          Hashtbl.remove t.ddl_waiting txn;
          finish ~txn true
      | Log_record.End ->
          Hashtbl.remove t.ddl_waiting txn;
          finish ~txn false
      | _ -> ())
    records;
  if records <> [] then begin
    (* physical redo grows heap chains on disk without going through the
       Heap_file handle: adopt any pages appended behind the caches so
       scans and digests see the full chain *)
    Hashtbl.iter (fun _ heap -> Heap_file.refresh heap) t.heaps;
    Metrics.inc_by t.m_repl_applied (List.length records)
  end

(* On a follower every ingested record is stable (ingest forces nothing
   but marks immediately), so the flushed horizon *is* the replication
   position and the resume point; on a primary the same expression is
   simply its durable horizon. *)
let replicated_lsn t = Wal.flushed_lsn t.dwal

(* --- promotion (follower -> primary) ----------------------------------------------- *)

type promotion = {
  losers_undone : int;
  undo_records : int;
}

(* Failover: turn this follower into a primary. The caller has stopped the
   replication driver (the old primary is dead or demoted), so nothing
   else touches the engine concurrently.

   1. Reconstruct the in-flight transaction table by running recovery
      analysis over the retained log (a follower never truncates, so the
      governing checkpoint — the primary's — is always present if one was
      ever shipped).
   2. Open the write paths (the undo pass appends CLRs to our own log,
      which Read_only_replica would otherwise veto) and roll back every
      loser through the logical-undo executor, oldest first, mirroring
      the crash path; each rollback ends its transaction's before-images
      and escrow deltas through the end hook.
   3. Checkpoint — without truncating: existing replicas of the old
      primary repoint here and resume from their applied horizon, so the
      full log must stay until they resubscribe and pin slots of their
      own. The next ordinary checkpoint resumes truncation. *)
let promote t =
  (match t.role with
  | Follower -> ()
  | Primary -> invalid_arg "Database.promote: already a primary");
  Hashtbl.reset t.ddl_waiting;
  let analysis = Recovery.analyze t.dwal in
  t.role <- Primary;
  t.redo_state <- None;
  Txn.bump_txn_id t.tmgr analysis.Recovery.max_txn_id;
  let undo_before = Metrics.get t.dmetrics "txn.recovery_undo" in
  rollback_losers t analysis;
  checkpoint_gen t ~truncate:false;
  Metrics.inc t.m_promotions;
  {
    losers_undone = List.length analysis.Recovery.losers;
    undo_records = Metrics.get t.dmetrics "txn.recovery_undo" - undo_before;
  }

(* Logical content digest: live rows of every table (sorted, so heap
   placement is irrelevant) and every view's b-tree entries in key order,
   all length-prefixed to keep the concatenation unambiguous. Two engines
   that applied the same log prefix digest identically — the divergence
   check the replication tests and the runtest smoke lean on. *)
let state_digest t =
  let buf = Buffer.create 4096 in
  let add_str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let sorted_ids tbl = Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] |> List.sort compare in
  List.iter
    (fun tid ->
      let rt = table_rt t tid in
      Buffer.add_string buf (Printf.sprintf "T%d|" tid);
      let rows = ref [] in
      Heap_file.iter rt.heap (fun _ payload -> rows := payload :: !rows);
      List.iter add_str (List.sort compare !rows))
    (sorted_ids t.dtables);
  List.iter
    (fun vid ->
      let rt = view_rt t vid in
      Buffer.add_string buf (Printf.sprintf "V%d|" vid);
      Btree.iter rt.Maintain.tree (fun k v ->
          add_str k;
          add_str v))
    (sorted_ids t.views_rt);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- maintenance -------------------------------------------------------------------- *)

let gc t =
  if t.role = Follower then 0
  else begin
  let reclaimed = ref 0 in
  let reclaim entries = reclaimed := !reclaimed + reclaim_ghosts t entries in
  (* MVCC version chains whose entries no live snapshot can still see *)
  reclaimed := !reclaimed + Ivdb_txn.Mvcc.gc (Txn.mvcc t.tmgr);
  Hashtbl.iter
    (fun _ rt ->
      reclaimed := !reclaimed + Group_gc.run t.tmgr rt;
      reclaimed := !reclaimed + Btree.vacuum rt.Maintain.tree;
      match rt.Maintain.deferred with
      | Some q ->
          (* a queue ghost may belong to an in-flight drain or appender:
             reclaim only when nobody holds any lock on the queue table *)
          let qid = Deferred.queue_id q in
          if Lock_mgr.unlocked t.dlocks (Lock_name.Table qid) then
            reclaim
              (List.map
                 (fun rid -> Ghost_row (qid, rid))
                 (Heap_file.ghosts (Deferred.heap q)))
      | None -> ())
    t.views_rt;
  (* index-entry ghosts left by a crash or skipped reclaims *)
  Hashtbl.iter
    (fun _ rt ->
      List.iter
        (fun ix ->
          let ixid = ix.imeta.Catalog.ix_id in
          let ghosts = ref [] in
          Btree.iter ix.itree (fun k v ->
              if index_entry_is_ghost v
                 && Lock_mgr.unlocked t.dlocks (Lock_name.Key (ixid, k))
              then ghosts := Ghost_index_entry (ixid, k) :: !ghosts);
          reclaim !ghosts;
          reclaimed := !reclaimed + Btree.vacuum ix.itree)
        rt.indexes)
    t.dtables;
  (* base-table ghosts left by a crash or by explicit commits *)
  Hashtbl.iter
    (fun tid rt ->
      reclaim
        (List.filter_map
           (fun rid ->
             if Lock_mgr.unlocked t.dlocks (Lock_name.Row (tid, rid)) then
               Some (Ghost_row (tid, rid))
             else None)
           (Heap_file.ghosts rt.heap)))
    t.dtables;
  !reclaimed
  end

module Internal = struct
  type nonrec table_rt = table_rt
  type nonrec index_rt = index_rt

  let table_id tid = tid
  let view_id vid = vid
  let of_table_id tid = tid
  let table_rt = table_rt
  let rt_schema rt = rt.tschema
  let rt_heap rt = rt.heap
  let rt_indexes rt = rt.indexes
  let rt_dep_views rt = rt.dep_views
  let ix_id ix = ix.imeta.Catalog.ix_id
  let ix_col ix = ix.imeta.Catalog.ix_col
  let ix_unique ix = ix.imeta.Catalog.ix_unique
  let ix_tree ix = ix.itree
  let view_rt = view_rt
  let note_ghost = note_ghost
  let note_index_ghost = note_index_ghost
  let index_entry_live = index_entry_live
  let index_entry_ghost_of = index_entry_ghost_of
  let index_entry_is_ghost = index_entry_is_ghost
  let index_key = index_key
  let inflight t = t.inflight
  let ghost_entries t = Hashtbl.length t.ghosts
  let note_insert t = Metrics.inc t.m_table_insert
  let note_delete t = Metrics.inc t.m_table_delete
  let note_on_demand_aggregate t = Metrics.inc t.m_on_demand_aggregate
  let lock_row = lock_row
  let heap_scan_rows = heap_scan_rows
  let index_probe = index_probe
  let index_probe_rids = index_probe_rids
  let index_range_rids = index_range_rids
  let source_rows = source_rows
end
