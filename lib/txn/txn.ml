module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Lock_mgr = Ivdb_lock.Lock_mgr
module Bufpool = Ivdb_storage.Bufpool
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace

type status = Active | Committed | Aborted

type commit_mode = Group_commit.mode =
  | Sync
  | Group of { max_batch : int; max_wait_ticks : int }
  | Async

exception Conflict of { txn : int; reason : string }

type t = {
  tid : int;
  system : bool;
  tbegin_tick : int;
  tsnapshot : int option; (* Some stamp = lock-free read-only snapshot *)
  mutable tstatus : status;
  mutable tfirst_lsn : Log_record.lsn;
  mutable tlast_lsn : Log_record.lsn;
  mutable tdeltas : int; (* view maintenance deltas applied on its behalf *)
  mutable tabort_reason : string option;
  mutable tcommit_stamp : int option; (* MVCC stamp, set at commit *)
}

(* Point-in-time description of a transaction, for sys.transactions. *)
type info = {
  i_txn : int;
  i_system : bool;
  i_status : status;
  i_begin_tick : int;
  i_end_tick : int option; (* None while active *)
  i_deltas : int;
  i_locks : int; (* locks held now; 0 once finished *)
  i_snapshot : int option; (* Some stamp for snapshot transactions *)
  i_abort_reason : string option;
}

(* Finished transactions are remembered in a small ring so an operator can
   still see a recent abort (and its reason) after the fact. *)
let recent_cap = 64

type mgr = {
  mwal : Wal.t;
  mlocks : Lock_mgr.t;
  mpool : Bufpool.t;
  mmetrics : Metrics.t;
  mtrace : Trace.t;
  mgc : Group_commit.t;
  m_begin : Metrics.counter;
  m_system : Metrics.counter;
  m_commit : Metrics.counter;
  m_system_commit : Metrics.counter;
  m_ro_commit : Metrics.counter;
  m_abort : Metrics.counter;
  m_snap_begin : Metrics.counter;
  m_snap_commit : Metrics.counter;
  m_partial_rollback : Metrics.counter;
  m_prepare : Metrics.counter;
  m_recovery_undo : Metrics.counter;
  m_checkpoint : Metrics.counter;
  mmvcc : Mvcc.t;
  active : (int, t) Hashtbl.t;
  recent : info Queue.t; (* finished txns, oldest first, <= recent_cap *)
  mutable next_id : int;
  mutable undo_exec : t -> Log_record.logical_undo -> Log_record.page_diffs;
  mutable end_hooks : (t -> status -> unit) list;
}

let create_mgr ?(commit_mode = Sync) ?trace ~wal ~locks ~pool metrics =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  {
    mwal = wal;
    mlocks = locks;
    mpool = pool;
    mmetrics = metrics;
    mtrace = trace;
    mgc = Group_commit.create ~wal ~mode:commit_mode ~trace metrics;
    m_begin = Metrics.counter metrics "txn.begin";
    m_system = Metrics.counter metrics "txn.system";
    m_commit = Metrics.counter metrics "txn.commit";
    m_system_commit = Metrics.counter metrics "txn.system_commit";
    m_ro_commit = Metrics.counter metrics "txn.read_only_commit";
    m_abort = Metrics.counter metrics "txn.abort";
    m_snap_begin = Metrics.counter metrics "txn.snapshot_begin";
    m_snap_commit = Metrics.counter metrics "txn.snapshot_commit";
    m_partial_rollback = Metrics.counter metrics "txn.partial_rollback";
    m_prepare = Metrics.counter metrics "txn.prepare";
    m_recovery_undo = Metrics.counter metrics "txn.recovery_undo";
    m_checkpoint = Metrics.counter metrics "txn.checkpoint";
    mmvcc = Mvcc.create metrics;
    active = Hashtbl.create 32;
    recent = Queue.create ();
    next_id = 1;
    undo_exec = (fun _ _ -> failwith "Txn: undo executor not installed");
    end_hooks = [];
  }

let set_undo_exec mgr f = mgr.undo_exec <- f
let add_end_hook mgr f = mgr.end_hooks <- f :: mgr.end_hooks
let locks mgr = mgr.mlocks
let pool mgr = mgr.mpool
let disk mgr = Bufpool.disk mgr.mpool
let metrics mgr = mgr.mmetrics
let trace mgr = mgr.mtrace
let mvcc mgr = mgr.mmvcc

let fresh mgr ~system =
  let tid = mgr.next_id in
  mgr.next_id <- tid + 1;
  let t =
    {
      tid;
      system;
      tbegin_tick = Ivdb_sched.Sched.now ();
      tsnapshot = None;
      tstatus = Active;
      tfirst_lsn = Log_record.nil_lsn;
      tlast_lsn = Log_record.nil_lsn;
      tdeltas = 0;
      tabort_reason = None;
      tcommit_stamp = None;
    }
  in
  Hashtbl.replace mgr.active tid t;
  t.tlast_lsn <- Wal.append mgr.mwal ~txn:tid ~prev:Log_record.nil_lsn (Log_record.Begin { system });
  t.tfirst_lsn <- t.tlast_lsn;
  Metrics.inc (if system then mgr.m_system else mgr.m_begin);
  if Trace.enabled mgr.mtrace then
    Trace.emit mgr.mtrace (Trace.Txn_begin { txn = tid; system });
  t

let begin_txn mgr = fresh mgr ~system:false

(* A snapshot transaction touches neither the WAL (it can have no effects
   to log or undo) nor the lock manager — it is registered in the active
   table purely for introspection, and in the MVCC registry for its
   visibility cut and the version-GC horizon. *)
let begin_snapshot mgr =
  let tid = mgr.next_id in
  mgr.next_id <- tid + 1;
  let t =
    {
      tid;
      system = false;
      tbegin_tick = Ivdb_sched.Sched.now ();
      tsnapshot = Some (Mvcc.begin_snapshot mgr.mmvcc);
      tstatus = Active;
      tfirst_lsn = Log_record.nil_lsn;
      tlast_lsn = Log_record.nil_lsn;
      tdeltas = 0;
      tabort_reason = None;
      tcommit_stamp = None;
    }
  in
  Hashtbl.replace mgr.active tid t;
  Metrics.inc mgr.m_snap_begin;
  if Trace.enabled mgr.mtrace then
    Trace.emit mgr.mtrace (Trace.Txn_begin { txn = tid; system = false });
  t

let id t = t.tid
let last_lsn t = t.tlast_lsn
let snapshot_of t = t.tsnapshot
let commit_stamp t = t.tcommit_stamp

let check_active t =
  if t.tstatus <> Active then
    invalid_arg (Printf.sprintf "Txn: transaction %d is not active" t.tid)

(* Snapshot purity: a read-only snapshot transaction must generate zero
   lock-manager and zero WAL traffic; any attempt is a caller bug. *)
let check_not_snapshot t what =
  if t.tsnapshot <> None then
    invalid_arg
      (Printf.sprintf "Txn: snapshot transaction %d cannot %s" t.tid what)

let lock mgr t name mode =
  check_active t;
  check_not_snapshot t "lock";
  try Lock_mgr.acquire mgr.mlocks ~txn:t.tid name mode
  with Lock_mgr.Deadlock victim ->
    if victim = t.tid then t.tabort_reason <- Some "deadlock victim";
    raise (Conflict { txn = victim; reason = "deadlock victim" })

let lock_instant mgr t name mode =
  check_active t;
  check_not_snapshot t "lock";
  try Lock_mgr.acquire_instant mgr.mlocks ~txn:t.tid name mode
  with Lock_mgr.Deadlock victim ->
    if victim = t.tid then t.tabort_reason <- Some "deadlock victim";
    raise (Conflict { txn = victim; reason = "deadlock victim" })

let note_delta t = t.tdeltas <- t.tdeltas + 1

let stamp_pages mgr lsn diffs =
  List.iter (fun (pid, _) -> Bufpool.stamp mgr.mpool pid (Int64.of_int lsn)) diffs

let log_update mgr t ~undo diffs =
  check_active t;
  check_not_snapshot t "log updates";
  let diffs =
    List.filter (fun (_, d) -> not (Ivdb_storage.Page_diff.is_empty d)) diffs
  in
  if diffs <> [] || undo <> Log_record.No_undo then begin
    let lsn =
      Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn
        (Log_record.Update { redo = diffs; undo })
    in
    t.tlast_lsn <- lsn;
    stamp_pages mgr lsn diffs
  end

let log_clr mgr t ~undo_next diffs =
  let diffs =
    List.filter (fun (_, d) -> not (Ivdb_storage.Page_diff.is_empty d)) diffs
  in
  let lsn =
    Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn
      (Log_record.Clr { redo = diffs; undo_next })
  in
  t.tlast_lsn <- lsn;
  stamp_pages mgr lsn diffs

let log_ddl mgr t payload =
  check_active t;
  check_not_snapshot t "log DDL";
  t.tlast_lsn <- Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn (Log_record.Ddl payload)

let info_of ?(locks = 0) ~end_tick t =
  {
    i_txn = t.tid;
    i_system = t.system;
    i_status = t.tstatus;
    i_begin_tick = t.tbegin_tick;
    i_end_tick = end_tick;
    i_deltas = t.tdeltas;
    i_locks = locks;
    i_snapshot = t.tsnapshot;
    i_abort_reason = t.tabort_reason;
  }

(* Commit stamping and pending-version promotion happen here — before the
   end hooks (which push escrow versions while the in-flight registry still
   holds the transaction's deltas) and before lock release. [finish] never
   yields, so the stamp order is the commit order other fibers observe. *)
let finish mgr t status =
  t.tstatus <- status;
  (match t.tsnapshot with
  | Some s -> Mvcc.release_snapshot mgr.mmvcc s
  | None -> (
      match status with
      | Committed -> t.tcommit_stamp <- Some (Mvcc.commit_txn mgr.mmvcc ~txn:t.tid)
      | Aborted -> Mvcc.abort_txn mgr.mmvcc ~txn:t.tid
      | Active -> ()));
  Hashtbl.remove mgr.active t.tid;
  if Queue.length mgr.recent >= recent_cap then ignore (Queue.pop mgr.recent);
  Queue.push (info_of ~end_tick:(Some (Ivdb_sched.Sched.now ())) t) mgr.recent;
  List.iter (fun f -> f t status) mgr.end_hooks;
  if t.tsnapshot = None then Lock_mgr.release_all mgr.mlocks ~txn:t.tid

let commit_snapshot mgr t =
  (* no WAL records, no force, no locks to release *)
  finish mgr t Committed;
  Metrics.inc mgr.m_snap_commit;
  if Trace.enabled mgr.mtrace then
    Trace.emit mgr.mtrace (Trace.Txn_commit { txn = t.tid; system = false })

let commit_rw mgr t =
  (* a transaction that logged nothing beyond its Begin record has no
     effects to make durable: skip the commit force *)
  let read_only = t.tlast_lsn = t.tfirst_lsn in
  let lsn = Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn Log_record.Commit in
  t.tlast_lsn <- lsn;
  (* Under group commit the fiber suspends here until the coordinator's
     batched force covers [lsn]; the transaction stays active and keeps its
     locks, so strictness is preserved. The stable-but-End-less window this
     opens (a checkpoint can record the committing transaction in its ATT)
     is handled by recovery: a transaction with a stable Commit record is
     never a loser. *)
  if not (t.system || read_only) then Group_commit.commit_durable mgr.mgc ~lsn;
  ignore (Wal.append mgr.mwal ~txn:t.tid ~prev:lsn Log_record.End);
  finish mgr t Committed;
  Metrics.inc (if t.system then mgr.m_system_commit else mgr.m_commit);
  if read_only && not t.system then Metrics.inc mgr.m_ro_commit;
  if Trace.enabled mgr.mtrace then
    Trace.emit mgr.mtrace (Trace.Txn_commit { txn = t.tid; system = t.system })

let commit mgr t =
  check_active t;
  if t.tsnapshot <> None then commit_snapshot mgr t else commit_rw mgr t


(* Walk the undo chain from [cursor] back to [stop] (exclusive; nil_lsn
   for the whole chain), executing logical undo and logging a CLR per
   undone update; a redo-only update has nothing to undo and gets none.
   CLRs are skipped over via their undo_next pointer, so a rollback
   interrupted by a crash resumes where it stopped. *)
let undo_chain mgr t ~cursor ~stop =
  let rec go lsn =
    if lsn > stop then begin
      let r = Wal.get mgr.mwal lsn in
      match r.Log_record.body with
      | Log_record.Update { undo = Log_record.No_undo; _ } -> go r.Log_record.prev
      | Log_record.Update { undo; _ } ->
          let diffs = mgr.undo_exec t undo in
          log_clr mgr t ~undo_next:r.Log_record.prev diffs;
          go r.Log_record.prev
      | Log_record.Clr { undo_next; _ } -> go undo_next
      | Log_record.Begin _ -> ()
      | Log_record.Commit | Log_record.End ->
          invalid_arg "Txn: undo reached a commit record"
      | Log_record.Abort | Log_record.Checkpoint _ | Log_record.Ddl _
      | Log_record.Prepare _ | Log_record.Decision _
      | Log_record.Gid_block _ ->
          go r.Log_record.prev
    end
  in
  go cursor

type savepoint = Log_record.lsn

let savepoint t =
  check_active t;
  t.tlast_lsn

(* Undo records newer than the savepoint, writing CLRs; the transaction
   stays active. The CLRs' undo-next pointers make a later full abort (or
   crash recovery) skip the already-compensated section. *)
let rollback_to mgr t sp =
  check_active t;
  undo_chain mgr t ~cursor:t.tlast_lsn ~stop:sp;
  Metrics.inc mgr.m_partial_rollback

let abort_rw mgr t =
  t.tlast_lsn <- Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn Log_record.Abort;
  undo_chain mgr t ~cursor:t.tlast_lsn ~stop:Log_record.nil_lsn;
  ignore (Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn Log_record.End);
  finish mgr t Aborted;
  Metrics.inc mgr.m_abort;
  if Trace.enabled mgr.mtrace then
    Trace.emit mgr.mtrace (Trace.Txn_abort { txn = t.tid })

(* 2PC phase 1. A transaction that logged nothing past its Begin record
   has nothing to make durable and no outcome to wait for: it commits on
   the spot, with no force, and releases its locks — serializable,
   because the global transaction has reached its lock point. Any other
   appends a Prepare record and forces it stable. It stays Active and
   keeps every lock — its fate now belongs to the coordinator, and
   recovery classifies it as in-doubt rather than a loser until its
   Commit or Abort record settles it. *)
let prepare mgr t ~gtxn =
  check_active t;
  check_not_snapshot t "prepare";
  if t.tlast_lsn = t.tfirst_lsn then begin
    commit_rw mgr t;
    `Read_only
  end
  else begin
    let lsn =
      Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn (Log_record.Prepare { gtxn })
    in
    t.tlast_lsn <- lsn;
    Group_commit.commit_durable mgr.mgc ~lsn;
    Metrics.inc mgr.m_prepare;
    `Prepared
  end

let abort mgr t =
  if t.tstatus = Active then
    if t.tsnapshot <> None then begin
      finish mgr t Aborted;
      if Trace.enabled mgr.mtrace then
        Trace.emit mgr.mtrace (Trace.Txn_abort { txn = t.tid })
    end
    else abort_rw mgr t

(* The one bracket of a system transaction. A crash point is power loss,
   not a failure: nothing may run after it, so it passes untouched and
   recovery rolls the transaction back from the stable log. *)
let system mgr f =
  let stx = fresh mgr ~system:true in
  match f stx with
  | v ->
      commit mgr stx;
      v
  | exception (Ivdb_storage.Fault.Crash_point _ as e) -> raise e
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      abort mgr stx;
      Printexc.raise_with_backtrace e bt

let rollback_tail mgr t ~from =
  check_active t;
  t.tlast_lsn <- max t.tlast_lsn from;
  undo_chain mgr t ~cursor:from ~stop:Log_record.nil_lsn;
  ignore (Wal.append mgr.mwal ~txn:t.tid ~prev:t.tlast_lsn Log_record.End);
  finish mgr t Aborted;
  Metrics.inc mgr.m_recovery_undo

let resurrect mgr ?(first_lsn = Log_record.nil_lsn) ~id ~last_lsn () =
  let t =
    {
      tid = id;
      system = false;
      tbegin_tick = Ivdb_sched.Sched.now ();
      tsnapshot = None;
      tstatus = Active;
      tfirst_lsn = first_lsn;
      tlast_lsn = last_lsn;
      tdeltas = 0;
      tabort_reason = None;
      tcommit_stamp = None;
    }
  in
  Hashtbl.replace mgr.active id t;
  if id >= mgr.next_id then mgr.next_id <- id + 1;
  t

(* Snapshot transactions have no WAL presence: they are excluded from the
   checkpoint's transaction table (recovery would treat a nil-LSN entry as
   a loser) and from the log-truncation bound. *)
let active_first_lsns mgr =
  Hashtbl.fold
    (fun _ t acc -> if t.tsnapshot = None then t.tfirst_lsn :: acc else acc)
    mgr.active []

let active_txns mgr =
  Hashtbl.fold
    (fun tid t acc ->
      if t.tsnapshot = None then (tid, t.tlast_lsn) :: acc else acc)
    mgr.active []
  |> List.sort compare

let active_info mgr =
  Hashtbl.fold
    (fun _ t acc ->
      info_of ~locks:(Lock_mgr.lock_count mgr.mlocks ~txn:t.tid) ~end_tick:None t
      :: acc)
    mgr.active []
  |> List.sort (fun a b -> compare a.i_txn b.i_txn)

let recent_info mgr = List.of_seq (Queue.to_seq mgr.recent)

let checkpoint mgr ~catalog =
  let body =
    Log_record.Checkpoint
      {
        active = active_txns mgr;
        dpt =
          List.map
            (fun (pid, recl) -> (pid, Int64.to_int recl))
            (Bufpool.dirty_page_table mgr.mpool);
        catalog;
      }
  in
  let lsn = Wal.append mgr.mwal ~txn:0 ~prev:Log_record.nil_lsn body in
  Wal.force mgr.mwal lsn;
  Metrics.inc mgr.m_checkpoint

let bump_txn_id mgr n = if n >= mgr.next_id then mgr.next_id <- n + 1
