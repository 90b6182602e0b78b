exception Deadlock of int

module Sched = Ivdb_sched.Sched
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace

type owner = { otxn : int; mutable mode : Lock_mode.t; mutable count : int }

type req = {
  rtxn : int;
  target : Lock_mode.t; (* mode the txn will hold once granted *)
  grant_mode : Lock_mode.t; (* mode whose compatibility gates the grant *)
  convert : bool;
  instant : bool;
  mutable since : int; (* tick the request started waiting, for sys.lock_waits *)
  mutable wake : (unit -> unit) option;
  mutable cancel : (exn -> unit) option;
}

type lock = {
  lname : Lock_name.t;
  mutable owners : owner list;
  mutable queue : req list; (* arrival order bar the escrow pass; conversions first *)
}

module Name_map = Map.Make (Lock_name)

type t = {
  trace : Trace.t;
  m_acquire : Metrics.counter;
  m_wait : Metrics.counter;
  m_deadlock : Metrics.counter;
  m_instant : Metrics.counter;
  h_wait_ticks : Metrics.hist;
  mutable locks : lock Name_map.t;
  txn_locks : (int, (Lock_name.t, unit) Hashtbl.t) Hashtbl.t;
  e_held : (int, int) Hashtbl.t; (* txn -> E locks it holds, if any *)
  blocked : (int, lock * req) Hashtbl.t; (* txn -> what it waits on *)
}

let create ?trace metrics =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  {
    trace;
    m_acquire = Metrics.counter metrics "lock.acquire";
    m_wait = Metrics.counter metrics "lock.wait";
    m_deadlock = Metrics.counter metrics "lock.deadlock";
    m_instant = Metrics.counter metrics "lock.instant";
    h_wait_ticks = Metrics.hist metrics "lock.wait_ticks";
    locks = Name_map.empty;
    txn_locks = Hashtbl.create 64;
    e_held = Hashtbl.create 64;
    blocked = Hashtbl.create 16;
  }

let name_str name = Format.asprintf "%a" Lock_name.pp name

let trace_lock t ev txn lk req =
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (ev ~txn ~name:(name_str lk.lname) ~mode:(Lock_mode.to_string req.target))

let ev_wait ~txn ~name ~mode = Trace.Lock_wait { txn; name; mode }
let ev_grant ~txn ~name ~mode = Trace.Lock_grant { txn; name; mode }

let find_lock t name = Name_map.find_opt name t.locks

let get_lock t name =
  match find_lock t name with
  | Some lk -> lk
  | None ->
      let lk = { lname = name; owners = []; queue = [] } in
      t.locks <- Name_map.add name lk t.locks;
      lk

let drop_if_idle t lk =
  if lk.owners = [] && lk.queue = [] then t.locks <- Name_map.remove lk.lname t.locks

let owner_of lk txn = List.find_opt (fun o -> o.otxn = txn) lk.owners

let note_held t txn name =
  let tbl =
    match Hashtbl.find_opt t.txn_locks txn with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.add t.txn_locks txn tbl;
        tbl
  in
  Hashtbl.replace tbl name ()

(* A request is grantable when compatible with every other owner; a
   fresh one must also conflict with no request queued ahead of it, while
   a conversion ignores the queue. *)
let compatible_with_owners lk txn mode =
  List.for_all
    (fun o -> o.otxn = txn || Lock_mode.compat ~requested:mode ~granted:o.mode)
    lk.owners

let conflicts_with a b =
  a.rtxn <> b.rtxn
  && (not (Lock_mode.compat ~requested:a.grant_mode ~granted:b.target)
     || not (Lock_mode.compat ~requested:b.grant_mode ~granted:a.target))

(* Granting is by queue order with skip-ahead: a request may be granted
   past earlier waiters it does not conflict with (so e.g. an instant gap
   lock never queues behind an unrelated exclusive request), but never past
   a conflicting one, which keeps the waits-for edges (owners + conflicting
   requests ahead) exactly the conditions for remaining blocked.

   A fresh request joins the queue at its tail, except for the escrow
   pass: a fresh E request from a transaction that already holds an E lock
   joins ahead of the plain S requests at the tail. Otherwise a writer
   holding E(g1) waits on g2 behind a reader that waits only for g2's E
   owners, and writers close cycles through readers (W1 behind R2 on g2,
   R2 behind W3's E(g2), W3 behind R1 on g1, R1 behind W1's E(g1)). A
   writer that holds no E yet still queues behind the readers. The
   position is decided once, here, and never revisited, so every edge the
   pass creates (a passed reader waits for the writer) points at the new
   request, whose cycles [resolve_deadlocks] searches before it sleeps. *)
let grantable lk req = compatible_with_owners lk req.rtxn req.grant_mode

let is_e = function Lock_mode.E -> true | _ -> false
let plain_s r = (not r.convert) && match r.target with Lock_mode.S -> true | _ -> false

(* Where a fresh request joins the queue: (ahead, behind). *)
let place t lk req =
  match lk.queue with
  | [] -> ([], [])
  | q when (not req.convert) && is_e req.target && Hashtbl.mem t.e_held req.rtxn ->
      let rec cut behind = function
        | r :: rest when plain_s r -> cut (r :: behind) rest
        | rest -> (List.rev rest, behind)
      in
      cut [] (List.rev q)
  | q -> (q, [])

let note_e t txn d =
  let n = d + Option.value ~default:0 (Hashtbl.find_opt t.e_held txn) in
  if n = 0 then Hashtbl.remove t.e_held txn else Hashtbl.replace t.e_held txn n

(* Apply a grant to the lock state. Instant-duration requests retain
   nothing. *)
let apply_grant t lk req =
  if not req.instant then begin
    (match owner_of lk req.rtxn with
    | Some o ->
        if is_e o.mode then note_e t req.rtxn (-1);
        o.mode <- req.target;
        o.count <- o.count + 1
    | None ->
        lk.owners <- { otxn = req.rtxn; mode = req.target; count = 1 } :: lk.owners);
    if is_e req.target then note_e t req.rtxn 1;
    note_held t req.rtxn lk.lname
  end

(* Wake every queued request that has become grantable. Conversions may be
   granted out of order; regular requests are granted in queue order with
   skip-ahead, never past a conflicting request ahead of them, a waiting
   conversion included. The queue order is the one fixed at enqueue
   (arrival order, bar the escrow pass), so a request stays queued exactly
   while [blockers] names someone. *)
let sweep t lk =
  let grant r =
    apply_grant t lk r;
    Hashtbl.remove t.blocked r.rtxn;
    trace_lock t ev_grant r.rtxn lk r;
    match r.wake with Some w -> w () | None -> ()
  in
  (* pass 1: conversions anywhere in the queue *)
  let converts, others = List.partition (fun r -> r.convert) lk.queue in
  let waiting =
    List.filter
      (fun r ->
        if grantable lk r then begin
          grant r;
          false
        end
        else true)
      converts
  in
  (* pass 2: queue order with skip-ahead *)
  let rec pass kept = function
    | [] -> List.rev kept
    | r :: rest ->
        if grantable lk r && not (List.exists (fun ahead -> conflicts_with r ahead) kept)
        then begin
          grant r;
          pass kept rest
        end
        else pass (r :: kept) rest
  in
  lk.queue <- pass (List.rev waiting) others;
  drop_if_idle t lk

(* --- deadlock detection ------------------------------------------------ *)

(* Transactions a waiting request is blocked by: incompatible owners, plus
   conflicting requests queued ahead of it (a conversion: owners only). *)
let blockers lk req =
  let from_owners =
    List.filter_map
      (fun o ->
        if o.otxn <> req.rtxn
           && not (Lock_mode.compat ~requested:req.grant_mode ~granted:o.mode)
        then Some o.otxn
        else None)
      lk.owners
  in
  let rec ahead acc = function
    | [] -> acc
    | r :: _ when r == req -> acc
    | r :: rest -> if conflicts_with req r then ahead (r.rtxn :: acc) rest else ahead acc rest
  in
  let from_queue = if req.convert then [] else ahead [] lk.queue in
  List.sort_uniq compare (from_owners @ from_queue)

(* Find a waits-for cycle through [start]; returns its members. *)
let find_cycle t start =
  let visited = Hashtbl.create 16 in
  let rec dfs path txn =
    if txn = start && path <> [] then Some path
    else if Hashtbl.mem visited txn then None
    else begin
      Hashtbl.add visited txn ();
      match Hashtbl.find_opt t.blocked txn with
      | None -> None
      | Some (lk, req) ->
          let next = blockers lk req in
          List.fold_left
            (fun acc n -> match acc with Some _ -> acc | None -> dfs (txn :: path) n)
            None next
    end
  in
  dfs [] start

let remove_from_queue lk req = lk.queue <- List.filter (fun r -> r != req) lk.queue

(* Break every cycle through [txn] (whose request is already queued and
   registered in [blocked]). Victim: youngest (largest id) member. *)
let resolve_deadlocks t txn my_lk my_req =
  let rec loop () =
    match find_cycle t txn with
    | None -> ()
    | Some cycle ->
        Metrics.inc t.m_deadlock;
        let victim = List.fold_left max txn cycle in
        if Trace.enabled t.trace then
          Trace.emit t.trace (Trace.Deadlock_victim { txn = victim });
        if victim = txn then begin
          remove_from_queue my_lk my_req;
          Hashtbl.remove t.blocked txn;
          (* removing a queued request can unblock compatible requests
             behind it: re-sweep before giving up the lock record *)
          sweep t my_lk;
          raise (Deadlock txn)
        end
        else begin
          match Hashtbl.find_opt t.blocked victim with
          | None -> () (* already resumed; graph changed, re-check *)
          | Some (vlk, vreq) ->
              remove_from_queue vlk vreq;
              Hashtbl.remove t.blocked victim;
              (match vreq.cancel with
              | Some c -> c (Deadlock victim)
              | None -> ());
              sweep t vlk;
              loop ()
        end
  in
  loop ()

(* --- public operations -------------------------------------------------- *)

let wait t lk req ~ahead ~behind =
  Metrics.inc t.m_wait;
  trace_lock t ev_wait req.rtxn lk req;
  req.since <- Sched.now ();
  lk.queue <- (if req.convert then req :: lk.queue else ahead @ (req :: behind));
  Hashtbl.replace t.blocked req.rtxn (lk, req);
  resolve_deadlocks t req.rtxn lk req;
  (* if we were granted while cancelling victims, blocked was cleared and
     wake was not yet set: check before suspending *)
  if Hashtbl.mem t.blocked req.rtxn then
    Sched.suspend (fun wake cancel ->
        (* the sweep may already have granted us between registration and
           suspension; in the cooperative scheduler this cannot happen
           because no yield occurs, so registering here is safe *)
        req.wake <- Some wake;
        req.cancel <- Some cancel);
  Metrics.record t.h_wait_ticks (Sched.now () - req.since)

let request t ~txn name mode ~instant =
  Metrics.inc t.m_acquire;
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Lock_acquire
         { txn; name = name_str name; mode = Lock_mode.to_string mode });
  let lk = get_lock t name in
  match owner_of lk txn with
  | Some o when Lock_mode.covers ~held:o.mode ~req:mode ->
      if not instant then o.count <- o.count + 1
  | existing -> (
      let convert = existing <> None in
      let target =
        match existing with
        | Some o -> Lock_mode.sup o.mode mode
        | None -> mode
      in
      let req =
        {
          rtxn = txn;
          target;
          grant_mode = target;
          convert;
          instant;
          since = 0;
          wake = None;
          cancel = None;
        }
      in
      let ahead, behind = place t lk req in
      if grantable lk req && (convert || not (List.exists (conflicts_with req) ahead))
      then begin
        apply_grant t lk req;
        (* a conversion can widen what the lock admits (IS to E) *)
        if convert then sweep t lk else drop_if_idle t lk
      end
      else wait t lk req ~ahead ~behind)

let acquire t ~txn name mode = request t ~txn name mode ~instant:false

let acquire_instant t ~txn name mode =
  Metrics.inc t.m_instant;
  request t ~txn name mode ~instant:true

let release_all t ~txn =
  Hashtbl.remove t.e_held txn;
  (match Hashtbl.find_opt t.blocked txn with
  | Some (lk, req) ->
      remove_from_queue lk req;
      Hashtbl.remove t.blocked txn;
      sweep t lk
  | None -> ());
  match Hashtbl.find_opt t.txn_locks txn with
  | None -> ()
  | Some tbl ->
      Hashtbl.remove t.txn_locks txn;
      Hashtbl.iter
        (fun name () ->
          match find_lock t name with
          | None -> ()
          | Some lk ->
              lk.owners <- List.filter (fun o -> o.otxn <> txn) lk.owners;
              sweep t lk)
        tbl

let unlocked t name =
  match find_lock t name with
  | None -> true
  | Some lk -> lk.owners = [] && lk.queue = []

let held_mode t ~txn name =
  match find_lock t name with
  | None -> None
  | Some lk -> Option.map (fun o -> o.mode) (owner_of lk txn)

let lock_count t ~txn =
  match Hashtbl.find_opt t.txn_locks txn with
  | None -> 0
  | Some tbl -> Hashtbl.length tbl

(* Live wait-queue snapshot for sys.lock_waits: one entry per blocked
   request, with the transactions it is blocked by (owners plus
   conflicting earlier waiters — the same edge set deadlock detection
   walks). Pure read: takes no locks and wakes nobody. *)
type wait_info = {
  w_name : Lock_name.t;
  w_txn : int;
  w_mode : Lock_mode.t;
  w_convert : bool;
  w_blockers : int list;
  w_since : int;
}

let waits t =
  Hashtbl.fold
    (fun txn (lk, req) acc ->
      {
        w_name = lk.lname;
        w_txn = txn;
        w_mode = req.target;
        w_convert = req.convert;
        w_blockers = blockers lk req;
        w_since = req.since;
      }
      :: acc)
    t.blocked []
  |> List.sort (fun a b -> compare a.w_txn b.w_txn)

let dump t =
  Name_map.fold
    (fun name lk acc ->
      ( name,
        List.map (fun o -> (o.otxn, o.mode)) lk.owners,
        List.map
          (fun r ->
            (r.rtxn, r.target, r.convert, r.instant))
          lk.queue )
      :: acc)
    t.locks []
