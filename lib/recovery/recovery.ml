module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Bufpool = Ivdb_storage.Bufpool
module Page = Ivdb_storage.Page

type indoubt_txn = {
  id_txn : int;
  id_gtxn : string;
  id_first_lsn : Log_record.lsn;
  id_last_lsn : Log_record.lsn;
}

type analysis = {
  losers : (int * Log_record.lsn) list;
  dirty_pages : (int * Log_record.lsn) list;
  redo_start : Log_record.lsn;
  catalog : string option;
  ddl : string list;
  max_page_id : int;
  max_txn_id : int;
  stable_records : int;
  indoubt : indoubt_txn list;
}

let analyze wal =
  let ckpt_lsn = Wal.last_checkpoint_lsn wal in
  let att : (int, Log_record.lsn) Hashtbl.t = Hashtbl.create 16 in
  let dpt : (int, Log_record.lsn) Hashtbl.t = Hashtbl.create 64 in
  let catalog = ref None in
  let ddl = ref [] in
  let max_page = ref 0 in
  let max_txn = ref 0 in
  let nrec = ref 0 in
  (* Transactions with a stable Commit record are committed no matter what
     the ATT says: under group commit a transaction can sit between its
     Commit append and its End append (waiting for the batched force) while
     a checkpoint records it as active, and the checkpoint-seeded ATT entry
     would otherwise turn it into a loser. *)
  let committed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* 2PC bookkeeping, tracked over the full scan like [committed]: a
     stable Prepare means the transaction's fate belongs to the
     coordinator — it is in-doubt (locks held across restart) rather
     than a loser. Its own Commit or Abort record is the decision: a
     stable Commit makes it a winner, a stable Abort an ordinary loser
     (the rollback may not have finished). *)
  let prepared : (int, string * Log_record.lsn) Hashtbl.t =
    Hashtbl.create 8
  in
  let first_lsn : (int, Log_record.lsn) Hashtbl.t = Hashtbl.create 16 in
  (* seed from the governing checkpoint *)
  if ckpt_lsn <> Log_record.nil_lsn then begin
    match (Wal.get wal ckpt_lsn).Log_record.body with
    | Log_record.Checkpoint c ->
        List.iter (fun (txn, lsn) -> Hashtbl.replace att txn lsn) c.active;
        List.iter (fun (pid, lsn) -> Hashtbl.replace dpt pid lsn) c.dpt;
        catalog := Some c.catalog
    | _ -> invalid_arg "Recovery.analyze: checkpoint LSN does not hold a checkpoint"
  end;
  Wal.iter_stable wal (fun r ->
      incr nrec;
      let lsn = r.Log_record.lsn in
      let txn = r.Log_record.txn in
      if txn > !max_txn then max_txn := txn;
      (match r.Log_record.body with
      | Log_record.Commit -> Hashtbl.replace committed txn ()
      | Log_record.Abort -> Hashtbl.remove prepared txn
      | Log_record.Begin _ ->
          if not (Hashtbl.mem first_lsn txn) then
            Hashtbl.replace first_lsn txn lsn
      | Log_record.Prepare p ->
          Hashtbl.replace prepared txn (p.gtxn, lsn)
      | _ -> ());
      List.iter
        (fun pid -> if pid > !max_page then max_page := pid)
        (Log_record.pages_touched r);
      if lsn > ckpt_lsn then begin
        (match r.Log_record.body with
        | Log_record.Begin _ | Log_record.Update _ | Log_record.Clr _
        | Log_record.Abort | Log_record.Prepare _ | Log_record.Decision _
        | Log_record.Gid_block _ ->
            Hashtbl.replace att txn lsn
        | Log_record.Commit | Log_record.End -> Hashtbl.remove att txn
        | Log_record.Ddl payload ->
            Hashtbl.replace att txn lsn;
            ddl := (txn, payload) :: !ddl
        | Log_record.Checkpoint _ -> ());
        List.iter
          (fun pid -> if not (Hashtbl.mem dpt pid) then Hashtbl.replace dpt pid lsn)
          (Log_record.pages_touched r)
      end);
  let dirty_pages =
    Hashtbl.fold (fun pid lsn acc -> (pid, lsn) :: acc) dpt [] |> List.sort compare
  in
  let losers =
    Hashtbl.fold
      (fun txn lsn acc ->
        if Hashtbl.mem committed txn || Hashtbl.mem prepared txn then acc
        else (txn, lsn) :: acc)
      att []
    |> List.sort compare
  in
  let indoubt =
    Hashtbl.fold
      (fun txn last acc ->
        if Hashtbl.mem committed txn then acc
        else
          match Hashtbl.find_opt prepared txn with
          | None -> acc
          | Some (gtxn, plsn) ->
              {
                id_txn = txn;
                id_gtxn = gtxn;
                id_first_lsn =
                  (match Hashtbl.find_opt first_lsn txn with
                  | Some l -> l
                  | None -> plsn);
                id_last_lsn = last;
              }
              :: acc)
      att []
    |> List.sort compare
  in
  let redo_start =
    List.fold_left (fun acc (_, lsn) -> min acc lsn) (ckpt_lsn + 1) dirty_pages
  in
  {
    losers;
    dirty_pages;
    redo_start = max 1 redo_start;
    catalog = !catalog;
    ddl =
      List.rev !ddl
      |> List.filter_map (fun (txn, p) -> if Hashtbl.mem committed txn then Some p else None);
    max_page_id = !max_page;
    max_txn_id = !max_txn;
    stable_records = !nrec;
    indoubt;
  }

type redo_result = { applied : int; torn_pages : int list }

(* Resumable redo: the page-diff replay loop factored out of the one-shot
   startup path so a replication follower can hold one [Redo.t] for its
   whole life and feed it each shipped batch as it arrives. The state is
   just a resume position and a counter — all real idempotence comes from
   the pageLSN gate, so re-creating the state after a follower restart
   (with [next] = end of its own redo pass) is always safe. *)
module Redo = struct
  type t = {
    pool : Bufpool.t;
    mutable next : Log_record.lsn; (* the LSN [apply] expects next *)
    mutable applied : int; (* page diffs applied since [create] *)
  }

  let create pool ~next = { pool; next; applied = 0 }
  let applied t = t.applied

  let apply t r =
    let lsn = r.Log_record.lsn in
    if lsn <> t.next then
      invalid_arg
        (Printf.sprintf "Recovery.Redo.apply: LSN %d breaks the chain (expected %d)"
           lsn t.next);
    t.next <- lsn + 1;
    match r.Log_record.body with
    | Log_record.Update { redo = diffs; _ } | Log_record.Clr { redo = diffs; _ }
      ->
        (* a streamed record may touch pages this engine has never
           allocated (the primary formatted them after our bootstrap) *)
        let disk = Bufpool.disk t.pool in
        List.iter
          (fun pid ->
            if pid > Ivdb_storage.Disk.max_page_id disk then
              Ivdb_storage.Disk.bump_alloc disk pid)
          (Log_record.pages_touched r);
        (* One record may carry several diffs for the same page (e.g. a
           heap page formatted and then filled). The LSN test gates the
           page once per record; subsequent diffs of the same record
           must still be applied. *)
        let applied_here = Hashtbl.create 4 in
        List.iter
          (fun (pid, diff) ->
            let did_apply, _ =
              Bufpool.update t.pool pid (fun w ->
                  if
                    Hashtbl.mem applied_here pid
                    || Int64.to_int
                         (Page.get_lsn (Ivdb_storage.Page_writer.page w))
                       < lsn
                  then begin
                    Ivdb_storage.Page_diff.apply w diff;
                    true
                  end
                  else false)
            in
            if did_apply then begin
              Hashtbl.replace applied_here pid ();
              Bufpool.stamp t.pool pid (Int64.of_int lsn);
              t.applied <- t.applied + 1
            end)
          diffs
    | Log_record.Begin _ | Log_record.Commit | Log_record.Abort
    | Log_record.End | Log_record.Checkpoint _ | Log_record.Ddl _
    | Log_record.Prepare _ | Log_record.Decision _
    | Log_record.Gid_block _ ->
        ()
end

(* Torn-page policy: a stored image that fails checksum verification is
   reset to a fresh zeroed page (LSN 0) *before* any buffer-pool fetch can
   trip over it, and redo then replays from the start of the retained log
   rather than the analysis redo point — with the full diff history
   retained (the database suspends log truncation while torn-write
   injection is armed), LSN-gated replay rebuilds the page byte-for-byte.
   Intact pages are unaffected: their pageLSN gates skip already-applied
   diffs as usual. *)
let repair_torn disk =
  let torn = ref [] in
  for pid = Ivdb_storage.Disk.max_page_id disk downto 1 do
    if Ivdb_storage.Disk.is_torn disk pid then begin
      Ivdb_storage.Disk.reset_page disk pid;
      torn := pid :: !torn
    end
  done;
  !torn

let redo wal pool analysis =
  let disk = Bufpool.disk pool in
  Ivdb_storage.Disk.bump_alloc disk analysis.max_page_id;
  let torn_pages = repair_torn disk in
  let redo_start =
    if torn_pages = [] then analysis.redo_start
    else min analysis.redo_start (Wal.first_lsn wal)
  in
  (* iter_stable starts at first_lsn, so the effective start is never
     below the retained log *)
  let redo_start = max redo_start (Wal.first_lsn wal) in
  let state = Redo.create pool ~next:redo_start in
  Wal.iter_from wal ~from:redo_start (Redo.apply state);
  { applied = Redo.applied state; torn_pages }
