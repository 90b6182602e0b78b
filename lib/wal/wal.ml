module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module B = Ivdb_util.Bytes_util
module Fault = Ivdb_storage.Fault

(* --- the store ----------------------------------------------------------

   Each retained record is held once, as its payload: the bytes
   [Log_record.encode] gives, written in place by
   [Log_record.encode_into]. Payloads are packed in LSN order into chunks
   of [chunk_size] bytes. One that does not fit in the room left starts a
   new chunk; one larger than a chunk, and a checkpoint, get a chunk of
   their own.

   [locs] holds one int per retained record: its chunk's index in
   [chunks], its offset in that chunk, and a bit set when the payload
   would not decode (see [Log_record.decodable]). A payload ends where
   the next record in its chunk begins, or at its chunk's fill.
   Truncation drops whole chunks and never moves a retained byte. *)

let chunk_size = 16384
let force_cost = 100 (* ticks: one I/O *)

type chunk = { data : bytes; mutable fill : int }

type t = {
  mutable locs : int array; (* locs.(lsn - base - 1) *)
  mutable base : int; (* number of truncated leading records *)
  mutable len : int; (* retained records *)
  mutable chunks : chunk array; (* oldest first; the last one is open *)
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
}

let create ?trace metrics =
  let trace =
    match trace with Some tr -> tr | None -> Trace.create ()
  in
  {
    locs = [||];
    base = 0;
    len = 0;
    chunks = [||];
    flushed = 0;
    last_ckpt = 0;
    bytes_flushed = 0;
    fault = Fault.none;
    pending_tear = None;
    retain_floor = None;
    metrics;
    trace;
    m_append = Metrics.counter metrics "log.append";
    m_bytes = Metrics.counter metrics "log.bytes";
    m_force = Metrics.counter metrics "log.force";
    m_ingested = lazy (Metrics.counter metrics "log.ingested");
    m_truncated = lazy (Metrics.counter metrics "log.truncated_records");
    m_torn_dropped = lazy (Metrics.counter metrics "wal.torn_tail_dropped");
  }

let last_lsn t = t.base + t.len
let first_lsn t = t.base + 1
let record_count t = t.len
let flushed_lsn t = t.flushed

let loc t lsn = t.locs.(lsn - t.base - 1)
let chunk_index loc = loc lsr 33
let chunk_of t lsn = t.chunks.(chunk_index (loc t lsn))
let offset t lsn = (loc t lsn lsr 1) land 0xFFFFFFFF
let decodes t lsn = loc t lsn land 1 = 0

let payload_end t lsn =
  if lsn < last_lsn t && chunk_index (loc t (lsn + 1)) = chunk_index (loc t lsn)
  then offset t (lsn + 1)
  else (chunk_of t lsn).fill

let payload_length t lsn = payload_end t lsn - offset t lsn

(* payload bytes of the records [lo, hi] *)
let payload_bytes t lo hi =
  let acc = ref 0 in
  for lsn = lo to hi do
    acc := !acc + payload_length t lsn
  done;
  !acc

(* the stream [serialize_range] writes for [lo, hi]: each payload framed
   as [u32 length | u32 checksum | payload] *)
let framed_bytes t lo hi = payload_bytes t lo hi + (8 * max 0 (hi - lo + 1))

let read t lsn =
  Log_record.decode_sub (chunk_of t lsn).data (offset t lsn) (payload_length t lsn)

(* where an [n]-byte payload goes: the open chunk if it has the room,
   else a new chunk — one of its own, sized to it, when [own] or when it
   is larger than a chunk *)
let room t ~own n =
  let fits () =
    let k = Array.length t.chunks in
    k > 0 && Bytes.length t.chunks.(k - 1).data - t.chunks.(k - 1).fill >= n
  in
  if own || n > chunk_size || not (fits ()) then
    t.chunks <-
      Array.append t.chunks
        [| { data = Bytes.create (if own then n else max chunk_size n); fill = 0 } |];
  let c = t.chunks.(Array.length t.chunks - 1) in
  (c.data, c.fill)

(* Encode [r] once, into the store, as LSN [last_lsn t + 1]; returns its
   payload length. *)
let store t (r : Log_record.t) =
  (* a checkpoint gets a chunk of its own: the truncation that follows it
     cuts at or below it, so every chunk before it can go, and a log cut
     to the checkpoint holds just the checkpoint's bytes *)
  let own =
    match r.Log_record.body with Log_record.Checkpoint _ -> true | _ -> false
  in
  let n = Log_record.encode_into r (room t ~own) in
  let last = Array.length t.chunks - 1 in
  let c = t.chunks.(last) in
  let bad = if Log_record.decodable r then 0 else 1 in
  if t.len = Array.length t.locs then begin
    let bigger = Array.make (max 64 (2 * t.len)) 0 in
    Array.blit t.locs 0 bigger 0 t.len;
    t.locs <- bigger
  end;
  t.locs.(t.len) <- (last lsl 33) lor (c.fill lsl 1) lor bad;
  t.len <- t.len + 1;
  c.fill <- c.fill + n;
  n

let append t ~txn ~prev body =
  let lsn = last_lsn t + 1 in
  let n = store t { Log_record.lsn; txn; prev; body } in
  Metrics.inc t.m_append;
  Metrics.inc_by t.m_bytes n;
  if Trace.enabled t.trace then
    Trace.emit t.trace (Trace.Wal_append { lsn; txn; bytes = n });
  lsn

let get t lsn =
  if lsn <= t.base || lsn > last_lsn t then
    invalid_arg "Wal.get: LSN out of range";
  read t lsn

let set_fault t f = t.fault <- f

let flush_range t lsn =
  for i = max (t.base + 1) (t.flushed + 1) to lsn do
    t.bytes_flushed <- t.bytes_flushed + payload_length t i;
    if Log_record.checkpoint_at (chunk_of t i).data (offset t i) then
      t.last_ckpt <- i
  done;
  t.flushed <- lsn

let force t lsn =
  (* after a crash point fires, the device is gone: forces are silent
     no-ops so nothing else can reach stable storage before the test
     observes the crash *)
  if not (Fault.frozen t.fault) then begin
    let lsn = min lsn (last_lsn t) in
    if lsn > t.flushed then begin
      Metrics.inc t.m_force;
      if Trace.enabled t.trace then Trace.emit t.trace (Trace.Wal_force { lsn });
      Ivdb_sched.Sched.advance force_cost;
      let action =
        if Fault.active t.fault then
          Fault.on_force t.fault
            ~bytes_new:(framed_bytes t (t.flushed + 1) lsn)
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
  for lsn = from to t.flushed do
    f (read t lsn)
  done

let iter_stable t f = iter_from t ~from:(t.base + 1) f

let last_checkpoint_lsn t = t.last_ckpt

(* --- the device image -----------------------------------------------------

   What a device holds is the stable prefix as a stream of frames, each
   [u32 length | u32 FNV-1a checksum | payload], with the payloads the
   store already keeps. A torn tail is a byte-granularity prefix of that
   stream; a reader stops at the first incomplete or corrupt frame and
   discards everything from there on — a partial record is never
   resurrected. *)

let serialize_range t ~from ~upto =
  if from < t.base + 1 then
    invalid_arg "Wal.serialize_range: LSN below first_lsn (truncated)";
  if upto > t.flushed then
    invalid_arg "Wal.serialize_range: LSN above flushed_lsn (not stable)";
  let out = Bytes.create (framed_bytes t from upto) in
  let pos = ref 0 in
  for lsn = from to upto do
    let data = (chunk_of t lsn).data and off = offset t lsn in
    let n = payload_length t lsn in
    B.set_u32 out !pos n;
    B.set_u32 out (!pos + 4) (B.fnv1a32 data off n);
    Bytes.blit data off out (!pos + 8) n;
    pos := !pos + 8 + n
  done;
  Bytes.unsafe_to_string out

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
        match Log_record.decode_sub b (!pos + 8) len with
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

(* A reader of the device image keeps the longest prefix of frames that
   lie wholly before the tear and decode; the copy takes those payloads'
   bytes and nothing past them. *)
let crash t ?trace metrics =
  let cut = Option.value t.pending_tear ~default:max_int in
  let last = ref t.base and stream = ref 0 in
  (try
     for lsn = t.base + 1 to t.flushed do
       stream := !stream + 8 + payload_length t lsn;
       if !stream > cut || not (decodes t lsn) then raise Exit;
       last := lsn
     done
   with Exit -> ());
  let k = if !last = t.base then 0 else chunk_index (loc t !last) + 1 in
  let copy =
    {
      (create ?trace metrics) with
      locs = Array.sub t.locs 0 (!last - t.base);
      base = t.base;
      len = !last - t.base;
      chunks =
        Array.init k (fun i ->
            let fill =
              if i = k - 1 then payload_end t !last else t.chunks.(i).fill
            in
            { data = Bytes.sub t.chunks.(i).data 0 fill; fill });
    }
  in
  flush_range copy !last;
  let dropped = t.flushed - !last in
  if dropped > 0 then Metrics.inc_by (Lazy.force copy.m_torn_dropped) dropped;
  copy

(* Replica ingestion: install an already-sequenced record shipped from a
   primary. The follower's log is a byte-for-byte replay of the
   primary's, so the record must extend the dense chain, and it is
   immediately stable — the follower only acknowledges applied batches,
   and what it acked must survive its own crashes. *)
let ingest t r =
  let expect = last_lsn t + 1 in
  if r.Log_record.lsn <> expect then
    invalid_arg
      (Printf.sprintf "Wal.ingest: LSN %d breaks the chain (expected %d)"
         r.Log_record.lsn expect);
  let n = store t r in
  Metrics.inc (Lazy.force t.m_ingested);
  Metrics.inc_by t.m_bytes n;
  flush_range t r.Log_record.lsn

let set_retain_floor t floor = t.retain_floor <- floor
let retain_floor t = t.retain_floor

let truncate_before t lsn =
  let lsn = min lsn (t.flushed + 1) in
  let lsn = match t.retain_floor with Some f -> min lsn f | None -> lsn in
  let drop = lsn - 1 - t.base in
  if drop > 0 then begin
    (* keep the chunks from the first retained record's on, renumbered;
       with no record left, the open chunk stays, emptied *)
    let keep_from =
      if lsn <= last_lsn t then chunk_index (loc t lsn)
      else begin
        let k = Array.length t.chunks - 1 in
        t.chunks.(k).fill <- 0;
        k
      end
    in
    t.chunks <- Array.sub t.chunks keep_from (Array.length t.chunks - keep_from);
    let locs = t.locs and shift = keep_from lsl 33 in
    t.locs <- Array.init (t.len - drop) (fun i -> locs.(drop + i) - shift);
    t.base <- t.base + drop;
    t.len <- t.len - drop;
    Metrics.inc_by (Lazy.force t.m_truncated) drop
  end

let stable_byte_size t = t.bytes_flushed
let retained_byte_size t = payload_bytes t (first_lsn t) (last_lsn t)
