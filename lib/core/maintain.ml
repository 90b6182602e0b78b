module Txn = Ivdb_txn.Txn
module Btree = Ivdb_btree.Btree
module Row = Ivdb_relation.Row
module Log_record = Ivdb_wal.Log_record
module Lock_name = Ivdb_lock.Lock_name
module Lock_mode = Ivdb_lock.Lock_mode
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace

type strategy = Exclusive | Escrow | Deferred

let strategy_to_string = function
  | Exclusive -> "exclusive"
  | Escrow -> "escrow"
  | Deferred -> "deferred"

type create_mode = System_txn | User_txn

(* Per-view typed counter handles, resolved once at registration: the
   maintenance path runs once per base-table write and must not pay a
   hashtable lookup per counter bump. *)
type stats = {
  s_delta : Metrics.counter;
  s_exclusive : Metrics.counter;
  s_escrow : Metrics.counter;
  s_recompute : Metrics.counter;
  s_group_delete : Metrics.counter;
  s_group_create : Metrics.counter;
  s_group_create_user : Metrics.counter;
  s_deferred_append : Metrics.counter;
  s_gc_removed : Metrics.counter;
  s_auto_refresh : Metrics.counter;
  s_refresh_deltas : Metrics.counter;
}

let make_stats m =
  {
    s_delta = Metrics.counter m "view.delta";
    s_exclusive = Metrics.counter m "view.exclusive_update";
    s_escrow = Metrics.counter m "view.escrow_update";
    s_recompute = Metrics.counter m "view.recompute";
    s_group_delete = Metrics.counter m "view.group_delete";
    s_group_create = Metrics.counter m "view.group_create";
    s_group_create_user = Metrics.counter m "view.group_create_user";
    s_deferred_append = Metrics.counter m "view.deferred_append";
    s_gc_removed = Metrics.counter m "view.gc_removed";
    s_auto_refresh = Metrics.counter m "view.auto_refresh";
    s_refresh_deltas = Metrics.counter m "view.refresh_deltas";
  }

(* Per-view plain counters for sys.views: the typed handles above all land
   in engine-global cells, so each view additionally keeps its own tallies
   (one int bump on paths that already bump a global counter). *)
type vstats = {
  mutable v_deltas : int;
  mutable v_exclusive : int;
  mutable v_escrow : int;
  mutable v_deferred : int;
  mutable v_recomputes : int;
  mutable v_group_creates : int;
  mutable v_group_deletes : int;
  mutable v_gc_zero : int;
  mutable v_system_txns : int;
}

let make_vstats () =
  {
    v_deltas = 0;
    v_exclusive = 0;
    v_escrow = 0;
    v_deferred = 0;
    v_recomputes = 0;
    v_group_creates = 0;
    v_group_deletes = 0;
    v_gc_zero = 0;
    v_system_txns = 0;
  }

type runtime = {
  vid : int;
  def : View_def.t;
  tree : Btree.t;
  strategy : strategy;
  create_mode : create_mode;
  inflight : Inflight.t;
  deferred : Deferred.t option;
  recompute_group : Txn.t -> string -> Row.t;
  stats : stats;
  vstats : vstats;
}

let key_name rt key = Lock_name.Key (rt.vid, key)

let note_gc_removed rt = Metrics.inc rt.stats.s_gc_removed
let note_auto_refresh rt = Metrics.inc rt.stats.s_auto_refresh
let note_refresh_deltas rt n = Metrics.inc_by rt.stats.s_refresh_deltas n

(* The lock name guarding the gap a new key falls into: the next existing
   key, or the index's +infinity when inserting past the end. *)
let gap_name rt key =
  match Btree.next_key rt.tree key with
  | Some (nk, _) -> Lock_name.Key (rt.vid, nk)
  | None -> Lock_name.Eof rt.vid

(* Create the group row empty (count 0) in a system transaction that
   commits immediately: the row becomes physically present — and visible to
   the lock protocol — without the user transaction holding any X lock.
   The instant RangeI_N on the gap keeps serializable scans phantom-safe. *)
let create_zero_group mgr txn rt ~key =
  Txn.lock_instant mgr txn (gap_name rt key) Lock_mode.RangeI_N;
  Txn.system mgr (fun stx ->
      try Btree.insert stx rt.tree ~key ~value:(Row.encode (Aggregate.zero_row rt.def))
      with Btree.Duplicate_key _ ->
        (* another transaction created it first: fine, it exists *)
        ());
  Metrics.inc rt.stats.s_group_create;
  rt.vstats.v_group_creates <- rt.vstats.v_group_creates + 1;
  rt.vstats.v_system_txns <- rt.vstats.v_system_txns + 1;
  let tr = Txn.trace mgr in
  if Trace.enabled tr then
    Trace.emit tr (Trace.Group_create { view = rt.vid; key; system = true })

(* D3 ablation: create the group inside the user transaction instead,
   holding an X key lock until commit. Every other transaction touching the
   newborn group — escrow writers included — then blocks behind the
   creator, which is precisely the contention the system-transaction
   protocol avoids. *)
let create_group_user mgr txn rt ~key =
  Txn.lock_instant mgr txn (gap_name rt key) Lock_mode.RangeI_N;
  Txn.lock mgr txn (key_name rt key) Lock_mode.X;
  (try
     Btree.insert txn rt.tree ~key ~value:(Row.encode (Aggregate.zero_row rt.def))
   with Btree.Duplicate_key _ -> ());
  Metrics.inc rt.stats.s_group_create_user;
  rt.vstats.v_group_creates <- rt.vstats.v_group_creates + 1;
  let tr = Txn.trace mgr in
  if Trace.enabled tr then
    Trace.emit tr (Trace.Group_create { view = rt.vid; key; system = false })

let create_group mgr txn rt ~key =
  match rt.create_mode with
  | System_txn -> create_zero_group mgr txn rt ~key
  | User_txn -> create_group_user mgr txn rt ~key

let update_row txn rt ~key ~undo row' =
  Btree.update ?undo txn rt.tree ~key ~value:(Row.encode row')

(* --- exclusive ----------------------------------------------------------- *)

let rec exclusive mgr txn rt ~key delta =
  Txn.lock mgr txn (Lock_name.Table rt.vid) Lock_mode.IX;
  Txn.lock mgr txn (key_name rt key) Lock_mode.X;
  match Btree.search rt.tree key with
  | None ->
      create_group mgr txn rt ~key;
      exclusive mgr txn rt ~key delta
  | Some stored ->
      Metrics.inc rt.stats.s_exclusive;
      rt.vstats.v_exclusive <- rt.vstats.v_exclusive + 1;
      let row = Row.decode stored in
      let row' =
        match Aggregate.apply rt.def row delta with
        | `Ok r -> r
        | `Recompute ->
            Metrics.inc rt.stats.s_recompute;
            rt.vstats.v_recomputes <- rt.vstats.v_recomputes + 1;
            (* the retiring row is already gone from the base, so a fresh
               fold gives the post-delete aggregates *)
            rt.recompute_group txn key
      in
      if Aggregate.count_of row' = 0 then begin
        (* physically remove, keeping the gap protected until commit *)
        Txn.lock mgr txn (gap_name rt key) Lock_mode.RangeX_X;
        Btree.delete txn rt.tree ~key;
        Metrics.inc rt.stats.s_group_delete;
        rt.vstats.v_group_deletes <- rt.vstats.v_group_deletes + 1
      end
      else update_row txn rt ~key ~undo:None row'

(* --- escrow --------------------------------------------------------------- *)

let rec escrow mgr txn rt ~key delta =
  assert (Aggregate.is_additive delta);
  Txn.lock mgr txn (Lock_name.Table rt.vid) Lock_mode.IX;
  Txn.lock mgr txn (key_name rt key) Lock_mode.E;
  match Btree.search rt.tree key with
  | None ->
      create_group mgr txn rt ~key;
      escrow mgr txn rt ~key delta
  | Some stored ->
      Metrics.inc rt.stats.s_escrow;
      rt.vstats.v_escrow <- rt.vstats.v_escrow + 1;
      let row = Row.decode stored in
      let row' =
        match Aggregate.apply rt.def row delta with
        | `Ok r -> r
        | `Recompute -> assert false (* additive deltas never recompute *)
      in
      let inverse = Aggregate.encode (Aggregate.negate delta) in
      update_row txn rt ~key
        ~undo:(Some (Log_record.Undo_escrow { view = rt.vid; key; inverse }))
        row';
      Inflight.record rt.inflight ~txn:(Txn.id txn) ~vid:rt.vid ~key delta
      (* count 0 rows are left in place: logically absent, reclaimed later
         by the garbage-collection system transaction *)

(* --- dispatch -------------------------------------------------------------- *)

let apply_delta_exclusive mgr txn rt ~key delta = exclusive mgr txn rt ~key delta

let apply_delta mgr txn rt ~key delta =
  Metrics.inc rt.stats.s_delta;
  rt.vstats.v_deltas <- rt.vstats.v_deltas + 1;
  Txn.note_delta txn;
  let tr = Txn.trace mgr in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.View_delta
         { view = rt.vid; key; strategy = strategy_to_string rt.strategy });
  match rt.strategy with
  | Exclusive -> exclusive mgr txn rt ~key delta
  | Escrow ->
      if Aggregate.is_additive delta then escrow mgr txn rt ~key delta
      else exclusive mgr txn rt ~key delta
  | Deferred -> (
      match rt.deferred with
      | None -> invalid_arg "Maintain: deferred strategy without a queue"
      | Some q ->
          Metrics.inc rt.stats.s_deferred_append;
          rt.vstats.v_deferred <- rt.vstats.v_deferred + 1;
          Deferred.append txn q ~key delta)

(* --- logical undo ------------------------------------------------------------ *)

let undo_escrow rt ~key ~inverse =
  let delta = Aggregate.decode inverse in
  match Btree.search rt.tree key with
  | None ->
      invalid_arg
        "Maintain.undo_escrow: group row vanished under an escrow lock"
  | Some stored ->
      let row = Row.decode stored in
      let row' =
        match Aggregate.apply rt.def row delta with
        | `Ok r -> r
        | `Recompute -> assert false
      in
      Btree.update_raw rt.tree ~key ~value:(Row.encode row')
