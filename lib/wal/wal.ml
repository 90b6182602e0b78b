module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module B = Ivdb_util.Bytes_util
module Fault = Ivdb_storage.Fault

type t = {
  mutable records : Log_record.t array; (* records.(lsn - base - 1) *)
  mutable base : int; (* number of truncated leading records *)
  mutable len : int; (* retained records *)
  mutable flushed : Log_record.lsn;
  mutable last_ckpt : Log_record.lsn; (* of flushed checkpoints *)
  mutable bytes_flushed : int;
  mutable fault : Fault.t;
  mutable pending_tear : int option;
      (* byte offset into the serialized stable stream at which the device
         stopped mid-force; consumed by [crash] *)
  mutable retain_floor : Log_record.lsn option;
      (* replication slot: truncate_before never discards records with
         LSN >= the floor, so a subscribed (or disconnected-but-known)
         replica can always resume from its acked position *)
  open_txns : (int, unit) Hashtbl.t;
      (* transactions with a record in the log but no Commit/End yet *)
  mutable boundaries : Log_record.lsn list;
      (* commit boundaries, newest first: LSNs after whose record no
         transaction is in flight — the prefix up to one is
         transaction-consistent *)
  metrics : Metrics.t;
  trace : Trace.t;
  m_append : Metrics.counter;
  m_bytes : Metrics.counter;
  m_force : Metrics.counter;
  (* resolved on first use: a log that never ingests, truncates or tears
     (a coordinator's decision log) exports no idle counters for them *)
  m_ingested : Metrics.counter Lazy.t;
  m_truncated : Metrics.counter Lazy.t;
  m_torn_dropped : Metrics.counter Lazy.t;
  force_cost : int;
}

let create ?trace metrics =
  let trace =
    match trace with Some tr -> tr | None -> Trace.create ()
  in
  {
    records = [||];
    base = 0;
    len = 0;
    flushed = 0;
    last_ckpt = 0;
    bytes_flushed = 0;
    fault = Fault.none;
    pending_tear = None;
    retain_floor = None;
    open_txns = Hashtbl.create 16;
    boundaries = [];
    metrics;
    trace;
    m_append = Metrics.counter metrics "log.append";
    m_bytes = Metrics.counter metrics "log.bytes";
    m_force = Metrics.counter metrics "log.force";
    m_ingested = lazy (Metrics.counter metrics "log.ingested");
    m_truncated = lazy (Metrics.counter metrics "log.truncated_records");
    m_torn_dropped = lazy (Metrics.counter metrics "wal.torn_tail_dropped");
    force_cost = 100;
  }

(* Commit-boundary tracking: an LSN is a boundary when no transaction is
   in flight once its record is applied. A Commit or End retires its
   transaction (a committed transaction is complete at its Commit record;
   an aborted one only once its compensation finishes at End), any other
   transaction-stamped record opens one, and checkpoints are transparent.
   The prefix up to a boundary is transaction-consistent — the property a
   replica needs to serve reads at the commit horizon. *)
let track_open_txns open_txns (r : Log_record.t) =
  (match r.Log_record.body with
  | Log_record.Commit | Log_record.End ->
      Hashtbl.remove open_txns r.Log_record.txn
  | Log_record.Checkpoint _ -> ()
  | _ ->
      if r.Log_record.txn <> 0 then Hashtbl.replace open_txns r.Log_record.txn ());
  Hashtbl.length open_txns = 0

let track_boundary t (r : Log_record.t) =
  if track_open_txns t.open_txns r then
    t.boundaries <- r.Log_record.lsn :: t.boundaries

let commit_horizon_upto t ~upto =
  let rec find = function
    | [] -> 0
    | b :: rest -> if b <= upto then b else find rest
  in
  find t.boundaries

let commit_horizon t = commit_horizon_upto t ~upto:t.flushed

let append t ~txn ~prev body =
  let lsn = t.base + t.len + 1 in
  let r = { Log_record.lsn; txn; prev; body } in
  if t.len = Array.length t.records then begin
    let cap = max 64 (2 * Array.length t.records) in
    let bigger = Array.make cap r in
    Array.blit t.records 0 bigger 0 t.len;
    t.records <- bigger
  end;
  t.records.(t.len) <- r;
  t.len <- t.len + 1;
  track_boundary t r;
  Metrics.inc t.m_append;
  Metrics.inc_by t.m_bytes (Log_record.byte_size r);
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Wal_append { lsn; txn; bytes = Log_record.byte_size r });
  lsn

let get t lsn =
  if lsn <= t.base || lsn > t.base + t.len then
    invalid_arg "Wal.get: LSN out of range";
  t.records.(lsn - t.base - 1)

let last_lsn t = t.base + t.len
let first_lsn t = t.base + 1
let record_count t = t.len
let flushed_lsn t = t.flushed

let set_fault t f = t.fault <- f

(* framed byte size of the record range [lo, hi]: each record is encoded
   as [u32 length | u32 checksum | payload] *)
let framed_bytes t lo hi =
  let acc = ref 0 in
  for i = max lo (t.base + 1) to hi do
    acc := !acc + 8 + Log_record.byte_size t.records.(i - t.base - 1)
  done;
  !acc

let flush_range t lsn =
  for i = max (t.base + 1) (t.flushed + 1) to lsn do
    let r = t.records.(i - t.base - 1) in
    t.bytes_flushed <- t.bytes_flushed + Log_record.byte_size r;
    match r.Log_record.body with
    | Log_record.Checkpoint _ -> t.last_ckpt <- r.Log_record.lsn
    | _ -> ()
  done;
  t.flushed <- lsn

let force t lsn =
  (* after a crash point fires, the device is gone: forces are silent
     no-ops so nothing else can reach stable storage before the test
     observes the crash *)
  if not (Fault.frozen t.fault) then begin
    let lsn = min lsn (t.base + t.len) in
    if lsn > t.flushed then begin
      Metrics.inc t.m_force;
      if Trace.enabled t.trace then Trace.emit t.trace (Trace.Wal_force { lsn });
      Ivdb_sched.Sched.advance t.force_cost;
      let action =
        if Fault.active t.fault then
          Fault.on_force t.fault ~bytes_new:(framed_bytes t (t.flushed + 1) lsn)
        else Fault.Force_ok
      in
      match action with
      | Fault.Force_ok -> flush_range t lsn
      | Fault.Force_crash ->
          (* nothing of this force reached the device *)
          Fault.crash "wal.force"
      | Fault.Force_torn keep ->
          (* the device stopped [keep] bytes into the new region: record
             the absolute tear offset for [crash] to apply *)
          let prefix = framed_bytes t (t.base + 1) t.flushed in
          flush_range t lsn;
          t.pending_tear <- Some (prefix + keep);
          Fault.crash "wal.force.torn"
    end
  end

(* Incremental tail reads: the cursor surface replication is built on.
   All positions are absolute LSNs; the valid window is
   [first_lsn t, flushed_lsn t] — below it the history has been
   truncated away, above it the records are not yet stable. *)

let iter_from t ~from f =
  if from < t.base + 1 then
    invalid_arg "Wal.iter_from: LSN below first_lsn (truncated)";
  for i = from to t.flushed do
    f t.records.(i - t.base - 1)
  done

let iter_stable t f = iter_from t ~from:(t.base + 1) f

let last_checkpoint_lsn t = t.last_ckpt

(* --- binary image of the stable prefix ----------------------------------

   What a crash can see is not the typed in-memory array but the byte
   stream a real device would hold, so the crash path always round-trips
   the stable prefix through [Log_record.encode]/[decode] with
   length+checksum framing. A torn tail is a byte-granularity prefix of
   that stream; deserialization stops at the first incomplete or corrupt
   frame and discards everything from there on — a partial record is never
   resurrected. *)

let serialize_range t ~from ~upto =
  if from < t.base + 1 then
    invalid_arg "Wal.serialize_range: LSN below first_lsn (truncated)";
  if upto > t.flushed then
    invalid_arg "Wal.serialize_range: LSN above flushed_lsn (not stable)";
  let buf = Buffer.create 256 in
  for i = from to upto do
    let r = t.records.(i - t.base - 1) in
    let payload = Log_record.encode r in
    let hdr = Bytes.create 8 in
    B.set_u32 hdr 0 (String.length payload);
    B.set_u32 hdr 4 (B.fnv1a32_string payload 0 (String.length payload));
    Buffer.add_bytes buf hdr;
    Buffer.add_string buf payload
  done;
  Buffer.contents buf

let serialize_stable t = serialize_range t ~from:(t.base + 1) ~upto:t.flushed

(* decode frames until the stream runs dry or a frame fails (short header,
   short payload, checksum mismatch, malformed record, or an LSN that
   breaks the dense chain) *)
let decode_frames ~first_lsn s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let out = ref [] in
  let pos = ref 0 in
  let next = ref first_lsn in
  let stop = ref false in
  while not !stop do
    if n - !pos < 8 then stop := true
    else begin
      let len = B.get_u32 b !pos in
      let ck = B.get_u32 b (!pos + 4) in
      if len = 0 || n - !pos - 8 < len then stop := true
      else if B.fnv1a32_string s (!pos + 8) len <> ck then stop := true
      else
        match Log_record.decode (String.sub s (!pos + 8) len) with
        | r when r.Log_record.lsn = !next ->
            out := r :: !out;
            incr next;
            pos := !pos + 8 + len
        | _ -> stop := true
        | exception Invalid_argument _ -> stop := true
    end
  done;
  List.rev !out

let set_torn_tail t cut = t.pending_tear <- Some cut

let crash t ?trace metrics =
  let stream = serialize_stable t in
  let stream =
    match t.pending_tear with
    | Some cut when cut < String.length stream -> String.sub stream 0 cut
    | Some _ | None -> stream
  in
  let recs = decode_frames ~first_lsn:(t.base + 1) stream in
  let copy = create ?trace metrics in
  copy.records <- Array.of_list recs;
  copy.base <- t.base;
  copy.len <- Array.length copy.records;
  copy.flushed <- t.base + copy.len;
  Array.iter
    (fun r ->
      copy.bytes_flushed <- copy.bytes_flushed + Log_record.byte_size r;
      track_boundary copy r;
      match r.Log_record.body with
      | Log_record.Checkpoint _ -> copy.last_ckpt <- r.Log_record.lsn
      | _ -> ())
    copy.records;
  let dropped = t.flushed - t.base - copy.len in
  if dropped > 0 then Metrics.inc_by (Lazy.force copy.m_torn_dropped) dropped;
  copy

(* Replica ingestion: install an already-sequenced record shipped from a
   primary. The follower's log is a byte-for-byte replay of the
   primary's, so the record must extend the dense chain, and it is
   immediately stable — the follower only acknowledges applied batches,
   and what it acked must survive its own crashes. *)
let ingest t r =
  let expect = t.base + t.len + 1 in
  if r.Log_record.lsn <> expect then
    invalid_arg
      (Printf.sprintf "Wal.ingest: LSN %d breaks the chain (expected %d)"
         r.Log_record.lsn expect);
  if t.len = Array.length t.records then begin
    let cap = max 64 (2 * Array.length t.records) in
    let bigger = Array.make cap r in
    Array.blit t.records 0 bigger 0 t.len;
    t.records <- bigger
  end;
  t.records.(t.len) <- r;
  t.len <- t.len + 1;
  track_boundary t r;
  Metrics.inc (Lazy.force t.m_ingested);
  Metrics.inc_by t.m_bytes (Log_record.byte_size r);
  flush_range t r.Log_record.lsn

let set_retain_floor t floor = t.retain_floor <- floor
let retain_floor t = t.retain_floor

let truncate_before t lsn =
  let lsn = min lsn (t.flushed + 1) in
  let lsn = match t.retain_floor with Some f -> min lsn f | None -> lsn in
  let drop = lsn - 1 - t.base in
  if drop > 0 then begin
    t.records <- Array.sub t.records drop (t.len - drop);
    t.base <- t.base + drop;
    t.len <- t.len - drop;
    t.boundaries <- List.filter (fun b -> b > t.base) t.boundaries;
    Metrics.inc_by (Lazy.force t.m_truncated) drop
  end

let stable_byte_size t = t.bytes_flushed
