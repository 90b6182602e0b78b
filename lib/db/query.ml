module Txn = Ivdb_txn.Txn
module Lock_name = Ivdb_lock.Lock_name
module Lock_mode = Ivdb_lock.Lock_mode
module Btree = Ivdb_btree.Btree
module Row = Ivdb_relation.Row
module Key_codec = Ivdb_relation.Key_codec
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Aggregate = Ivdb_core.Aggregate
module Maintain = Ivdb_core.Maintain
module Deferred = Ivdb_core.Deferred
module Mvcc = Ivdb_txn.Mvcc
module I = Database.Internal

type locking = Serializable | Dirty

let table_scan db txn tbl ?where locking =
  (* a dirty read goes unlocked, but snapshot readers resolve against
     version chains regardless of the requested locking level —
     heap_scan_rows dispatches on the txn *)
  let reader =
    match (locking, txn) with
    | Dirty, Some tx when Txn.snapshot_of tx = None -> None
    | (Serializable | Dirty), _ -> txn
  in
  let rows = Seq.map snd (I.heap_scan_rows db reader tbl) in
  match where with None -> rows | Some pred -> Seq.filter (Expr.eval_bool pred) rows

let lock_view_key db txn vid key locking =
  match (txn, locking) with
  | Some tx, Serializable ->
      Txn.lock (Database.mgr db) tx (Lock_name.Table vid) Lock_mode.IS;
      Txn.lock (Database.mgr db) tx (Lock_name.Key (vid, key)) Lock_mode.RangeS_S
  | _, _ -> ()

(* deferred views with a refresh threshold: a transactional reader drains
   the queue first once staleness exceeds the bound (it pays the refresh,
   later readers get it for free) *)
let maybe_auto_refresh db txn v rt =
  match (txn, rt.Maintain.deferred) with
  (* snapshot readers must not mutate the view (and could not: draining
     takes locks) — they read the stored state as of their stamp *)
  | Some tx, Some q when Txn.snapshot_of tx = None -> (
      match Database.view_refresh_threshold db v with
      | Some threshold when Deferred.pending q > threshold ->
          Maintain.note_auto_refresh rt;
          let n =
            Deferred.drain tx q ~apply:(fun ~key delta ->
                Maintain.apply_delta_exclusive (Database.mgr db) tx rt ~key delta)
          in
          Maintain.note_refresh_deltas rt n
      | Some _ | None -> ())
  | _ -> ()

(* The view row for [key] as of snapshot stamp [snap], or [None] if the
   group did not exist then. A committed version entry (the value current
   until the first commit after the snapshot) is the answer outright; a
   pending before-image likewise — it was captured under the writer's X
   lock, before any in-flight escrow delta could touch the key. [Current]
   means no commit after the snapshot touched the key, so the stored row
   minus every in-flight escrow delta (escrow applies uncommitted
   increments in place) is the committed — hence at-snapshot — value. *)
let snapshot_view_row db rt vid key snap =
  match Mvcc.resolve (Txn.mvcc (Database.mgr db)) ~obj:vid ~key ~snap with
  | Mvcc.Committed v | Mvcc.Pending v -> Option.map Row.decode v
  | Mvcc.Current -> (
      match Btree.search rt.Maintain.tree key with
      | None -> None
      | Some stored ->
          Some
            (List.fold_left
               (fun r d ->
                 match Aggregate.apply rt.Maintain.def r (Aggregate.negate d) with
                 | `Ok r' -> r'
                 | `Recompute -> r)
               (Row.decode stored)
               (Ivdb_core.Inflight.pending (I.inflight db) ~vid ~key)))

(* Group keys visible to a snapshot scan: the tree's current keys plus any
   chain-only keys (rows physically reclaimed after the snapshot began). *)
let snapshot_view_keys db rt vid =
  let tree = rt.Maintain.tree in
  let rec collect acc = function
    | None -> acc
    | Some (key, _, c) -> collect (key :: acc) (Btree.cursor_next tree c)
  in
  List.sort_uniq String.compare
    (collect
       (Mvcc.keys_of_obj (Txn.mvcc (Database.mgr db)) ~obj:vid)
       (Btree.seek tree ""))

let snapshot_view_scan db tx rt vid ~lo ?hi () =
  let snap = Option.get (Txn.snapshot_of tx) in
  snapshot_view_keys db rt vid
  |> List.filter (fun k ->
         String.compare k lo >= 0
         && match hi with None -> true | Some h -> String.compare k h < 0)
  |> List.filter_map (fun key ->
         match snapshot_view_row db rt vid key snap with
         | Some row when Aggregate.count_of row > 0 ->
             Some (Key_codec.decode key, row)
         | _ -> None)
  |> List.to_seq

let view_lookup db txn v group =
  let vid = I.view_id v in
  let rt = I.view_rt db vid in
  maybe_auto_refresh db txn v rt;
  let key = Key_codec.encode group in
  match txn with
  | Some tx when Txn.snapshot_of tx <> None -> (
      match
        snapshot_view_row db rt vid key (Option.get (Txn.snapshot_of tx))
      with
      | Some row when Aggregate.count_of row > 0 -> Some row
      | _ -> None)
  | _ -> (
      (match txn with
      | Some tx ->
          Txn.lock (Database.mgr db) tx (Lock_name.Table vid) Lock_mode.IS;
          Txn.lock (Database.mgr db) tx (Lock_name.Key (vid, key)) Lock_mode.S
      | None -> ());
      match Btree.search rt.Maintain.tree key with
      | None -> None
      | Some stored ->
          let row = Row.decode stored in
          if Aggregate.count_of row = 0 then None else Some row)

(* A view's groups with keys in [lo_key, hi_key), or to the end of the
   index when there is no [hi_key]. A snapshot reader resolves against
   version chains. Otherwise, under [Serializable], the cursor RangeS_S-
   locks every key it passes before trusting its value, and the first key
   at-or-past [hi_key] (or EOF) guards the final gap. *)
let scan_view db txn v ~lo_key ?hi_key locking =
  let vid = I.view_id v in
  let rt = I.view_rt db vid in
  maybe_auto_refresh db txn v rt;
  let tree = rt.Maintain.tree in
  let seal key =
    match (txn, locking) with
    | Some tx, Serializable ->
        let name =
          match key with
          | Some k -> Lock_name.Key (vid, k)
          | None -> Lock_name.Eof vid
        in
        Txn.lock (Database.mgr db) tx name Lock_mode.RangeS_S
    | _, _ -> ()
  in
  let past_hi key =
    match hi_key with Some h -> String.compare key h >= 0 | None -> false
  in
  let rec step cursor () =
    match cursor with
    | None ->
        seal None;
        Seq.Nil
    | Some (key, _, _) when past_hi key ->
        seal (Some key);
        Seq.Nil
    | Some (key, value, c) ->
        lock_view_key db txn vid key locking;
        (* the key was locked before the value is trusted: re-read so a
           writer that committed while we waited is observed *)
        let value =
          match Btree.search tree key with Some v -> v | None -> value
        in
        let row = Row.decode value in
        let next = Btree.cursor_next tree c in
        if Aggregate.count_of row = 0 then step next ()
        else Seq.Cons ((Key_codec.decode key, row), step next)
  in
  match txn with
  | Some tx when Txn.snapshot_of tx <> None ->
      snapshot_view_scan db tx rt vid ~lo:lo_key ?hi:hi_key ()
  | _ -> fun () -> step (Btree.seek tree lo_key) ()

let view_scan db txn v locking = scan_view db txn v ~lo_key:"" locking

let view_scan_range db txn v ~lo ~hi locking =
  scan_view db txn v ~lo_key:(Key_codec.encode lo) ~hi_key:(Key_codec.encode hi)
    locking

let view_count db v =
  let n = ref 0 in
  Seq.iter (fun _ -> incr n) (view_scan db None v Dirty);
  !n

let on_demand_aggregate db txn def =
  I.note_on_demand_aggregate db;
  let groups = Aggregate.fold_groups def (I.source_rows db txn def) in
  Hashtbl.fold
    (fun key row acc ->
      if Aggregate.count_of row > 0 then (key, row) :: acc else acc)
    groups []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (key, row) -> (Key_codec.decode key, row))

let refresh db tx v =
  let rt = I.view_rt db (I.view_id v) in
  match rt.Maintain.deferred with
  | None -> invalid_arg "Query.refresh: not a deferred view"
  | Some q ->
      let n =
        Deferred.drain tx q ~apply:(fun ~key delta ->
            Maintain.apply_delta_exclusive (Database.mgr db) tx rt ~key delta)
      in
      Maintain.note_refresh_deltas rt n;
      n

let staleness db v =
  let rt = I.view_rt db (I.view_id v) in
  match rt.Maintain.deferred with None -> 0 | Some q -> Deferred.pending q

let view_lookup_bounds db v group =
  let vid = I.view_id v in
  let rt = I.view_rt db vid in
  let key = Key_codec.encode group in
  match Btree.search rt.Maintain.tree key with
  | None -> None
  | Some stored ->
      let row = Row.decode stored in
      let pending = Ivdb_core.Inflight.pending (I.inflight db) ~vid ~key in
      Some (Ivdb_core.Inflight.bounds rt.Maintain.def row pending)
