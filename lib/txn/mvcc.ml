module Metrics = Ivdb_util.Metrics

type resolution =
  | Committed of string option
  | Pending of string option
  | Current

type entry = { stamp : int; value : string option }

type chain = {
  mutable committed : entry list; (* newest (largest stamp) first *)
  mutable pending : (int * string option) list; (* (txn, before-image) *)
}

type t = {
  chains : (int * string, chain) Hashtbl.t; (* (obj, key) -> chain *)
  by_txn : (int, (int * string) list ref) Hashtbl.t; (* txn -> pending keys *)
  snapshots : (int, int) Hashtbl.t; (* stamp -> live snapshot count *)
  mutable n_snapshots : int;
  mutable last_stamp : int;
  m_live : Metrics.counter;
  m_pruned : Metrics.counter;
}

let create metrics =
  {
    chains = Hashtbl.create 64;
    by_txn = Hashtbl.create 16;
    snapshots = Hashtbl.create 8;
    n_snapshots = 0;
    last_stamp = 0;
    m_live = Metrics.counter metrics "mvcc.versions_live";
    m_pruned = Metrics.counter metrics "mvcc.versions_pruned";
  }

let snapshot_count t = t.n_snapshots
let snapshot_active t = t.n_snapshots > 0

let min_snapshot t =
  if t.n_snapshots = 0 then None
  else
    Some
      (Hashtbl.fold
         (fun s _ acc -> match acc with None -> Some s | Some m -> Some (min m s))
         t.snapshots None
      |> Option.get)

let chain_of t ck =
  match Hashtbl.find_opt t.chains ck with
  | Some c -> c
  | None ->
      let c = { committed = []; pending = [] } in
      Hashtbl.replace t.chains ck c;
      c

let drop_if_empty t ck c =
  if c.committed = [] && c.pending = [] then Hashtbl.remove t.chains ck

let record_write t ~txn ~obj ~key ~before =
  let ck = (obj, key) in
  let c = chain_of t ck in
  if not (List.mem_assoc txn c.pending) then begin
    c.pending <- (txn, before) :: c.pending;
    let keys =
      match Hashtbl.find_opt t.by_txn txn with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace t.by_txn txn r;
          r
    in
    keys := ck :: !keys
  end

(* Install a committed entry unless one with this stamp is already at the
   head (the escrow push and a promoted before-image can race for a mixed
   escrow-then-exclusive key; first writer wins, both are the pre-commit
   value in every realizable schedule). *)
let install t c ~stamp value =
  match c.committed with
  | e :: _ when e.stamp = stamp -> ()
  | _ ->
      c.committed <- { stamp; value } :: c.committed;
      Metrics.inc t.m_live

let take_pending t ~txn f =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some keys ->
      Hashtbl.remove t.by_txn txn;
      List.iter
        (fun ck ->
          match Hashtbl.find_opt t.chains ck with
          | None -> ()
          | Some c ->
              (match List.assoc_opt txn c.pending with
              | None -> ()
              | Some before ->
                  c.pending <- List.remove_assoc txn c.pending;
                  f c before);
              drop_if_empty t ck c)
        !keys

let commit_txn t ~txn =
  t.last_stamp <- t.last_stamp + 1;
  let stamp = t.last_stamp in
  let live = snapshot_active t in
  take_pending t ~txn (fun c before -> if live then install t c ~stamp before);
  stamp

let abort_txn t ~txn = take_pending t ~txn (fun _ _ -> ())

let push_committed t ~obj ~key ~stamp value =
  if snapshot_active t then begin
    let c = chain_of t (obj, key) in
    install t c ~stamp value
  end

let begin_snapshot t =
  let s = t.last_stamp in
  Hashtbl.replace t.snapshots s
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.snapshots s));
  t.n_snapshots <- t.n_snapshots + 1;
  s

(* An entry at stamp [T] is readable only by a snapshot [S < T]: prune
   everything at or below the oldest live snapshot. *)
let prune t =
  let keep =
    match min_snapshot t with
    | None -> fun _ -> false
    | Some m -> fun e -> e.stamp > m
  in
  let pruned = ref 0 in
  let empty = ref [] in
  Hashtbl.iter
    (fun ck c ->
      let kept = List.filter keep c.committed in
      pruned := !pruned + (List.length c.committed - List.length kept);
      c.committed <- kept;
      if kept = [] && c.pending = [] then empty := ck :: !empty)
    t.chains;
  List.iter (Hashtbl.remove t.chains) !empty;
  Metrics.inc_by t.m_live (- !pruned);
  Metrics.inc_by t.m_pruned !pruned;
  !pruned

let gc t = prune t

let release_snapshot t s =
  (match Hashtbl.find_opt t.snapshots s with
  | Some 1 -> Hashtbl.remove t.snapshots s
  | Some n -> Hashtbl.replace t.snapshots s (n - 1)
  | None -> invalid_arg "Mvcc: releasing an unregistered snapshot");
  t.n_snapshots <- t.n_snapshots - 1;
  ignore (prune t)

let resolve t ~obj ~key ~snap =
  match Hashtbl.find_opt t.chains (obj, key) with
  | None -> Current
  | Some c -> (
      (* newest-first: entries with stamp > snap form a prefix; the last of
         that prefix — the oldest commit after the snapshot — carries the
         value that was current at the snapshot *)
      let rec oldest_after last = function
        | e :: rest when e.stamp > snap -> oldest_after (Some e) rest
        | _ -> last
      in
      match oldest_after None c.committed with
      | Some e -> Committed e.value
      | None -> (
          match c.pending with
          | (_, before) :: _ -> Pending before
          | [] -> Current))

let keys_of_obj t ~obj =
  Hashtbl.fold
    (fun (o, key) _ acc -> if o = obj then key :: acc else acc)
    t.chains []
