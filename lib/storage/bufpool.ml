type frame = {
  page_id : int;
  data : bytes;
  mutable dirty : bool;
  mutable rec_lsn : int64; (* meaningful when dirty *)
  mutable pins : int;
  mutable referenced : bool; (* clock hand hint *)
  mutable no_steal : bool;
      (* modified but the log record is not yet appended: unevictable *)
  mutable ring_pos : int; (* index into the clock ring *)
}

type t = {
  disk : Disk.t;
  cap : int;
  trace : Ivdb_util.Trace.t;
  metrics : Ivdb_util.Metrics.t;
  m_hit : Ivdb_util.Metrics.counter;
  m_miss : Ivdb_util.Metrics.counter;
  m_evict : Ivdb_util.Metrics.counter;
  m_writeback : Ivdb_util.Metrics.counter;
  m_overflow : Ivdb_util.Metrics.counter;
  m_io_retry : Ivdb_util.Metrics.counter;
  frames : (int, frame) Hashtbl.t;
  (* Clock ring: dense array prefix [0, ring_len) with a persistent hand.
     Insert and remove are O(1) (remove swaps the last frame into the
     hole), replacing the former list with its O(n) append and O(n)
     filter per miss/evict. *)
  mutable ring : frame array;
  mutable ring_len : int;
  mutable hand : int;
  mutable writers : Page_writer.t list;
      (* free writers for [update], each with its own buffer of
         before-values; a stack because updates nest (vacuum frees a child
         page inside its parent's update), a field of the pool, not a
         global, so a dropped pool frees them *)
  mutable wal_force : int64 -> unit;
}

let create disk ~capacity ?trace metrics =
  let trace =
    match trace with Some tr -> tr | None -> Ivdb_util.Trace.create ()
  in
  {
    disk;
    cap = capacity;
    trace;
    metrics;
    m_hit = Ivdb_util.Metrics.counter metrics "buffer.hit";
    m_miss = Ivdb_util.Metrics.counter metrics "buffer.miss";
    m_evict = Ivdb_util.Metrics.counter metrics "buffer.evict";
    m_writeback = Ivdb_util.Metrics.counter metrics "buffer.writeback";
    m_overflow = Ivdb_util.Metrics.counter metrics "buffer.overflow";
    m_io_retry = Ivdb_util.Metrics.counter metrics "buffer.io_retry";
    frames = Hashtbl.create capacity;
    ring = [||];
    ring_len = 0;
    hand = 0;
    writers = [];
    wal_force = (fun _ -> failwith "Bufpool: wal_force not set");
  }

let set_wal_force t f = t.wal_force <- f
let capacity t = t.cap
let resident t = Hashtbl.length t.frames
let disk t = t.disk
let metrics t = t.metrics

let ring_add t fr =
  if t.ring_len = Array.length t.ring then begin
    let cap = max 16 (2 * Array.length t.ring) in
    let bigger = Array.make cap fr in
    Array.blit t.ring 0 bigger 0 t.ring_len;
    t.ring <- bigger
  end;
  fr.ring_pos <- t.ring_len;
  t.ring.(t.ring_len) <- fr;
  t.ring_len <- t.ring_len + 1

let ring_remove t fr =
  let p = fr.ring_pos in
  let last = t.ring_len - 1 in
  let moved = t.ring.(last) in
  t.ring.(p) <- moved;
  moved.ring_pos <- p;
  t.ring_len <- last;
  if t.hand >= t.ring_len then t.hand <- 0

(* Transient injected I/O errors are retried with a bounded, tick-based
   backoff (linear: 20, 40, 60… ticks of simulated time). The fault plan
   caps consecutive injections below this attempt budget, so the loop
   terminates; a genuinely persistent error still escapes after the last
   attempt. Crash points and torn-page detections are not retriable and
   pass straight through. *)
let io_retry_limit = 5
let io_backoff_ticks = 20

let with_io_retry t ~page f =
  let rec go attempt =
    try f ()
    with Fault.Io_error _ when attempt < io_retry_limit ->
      Ivdb_util.Metrics.inc t.m_io_retry;
      if Ivdb_util.Trace.enabled t.trace then
        Ivdb_util.Trace.emit t.trace (Ivdb_util.Trace.Io_retry { page; attempt });
      Ivdb_sched.Sched.advance (io_backoff_ticks * attempt);
      go (attempt + 1)
  in
  go 1

let write_back t fr =
  if fr.dirty then begin
    t.wal_force (Page.get_lsn fr.data);
    with_io_retry t ~page:fr.page_id (fun () ->
        Disk.write t.disk fr.page_id fr.data);
    fr.dirty <- false;
    fr.rec_lsn <- 0L;
    Ivdb_util.Metrics.inc t.m_writeback
  end

(* Clock eviction: advance the hand around the ring, clearing reference
   bits; evict the first unpinned, unreferenced frame. Two revolutions
   suffice; if every frame is pinned we overflow rather than deadlock the
   cooperative scheduler. Returns the evicted frame's buffer, which the
   caller reads the missed page into. *)
let evict_one t =
  (* an empty ring (capacity 0, or every frame already removed) has
     nothing to evict — and the clock arithmetic below divides by
     [ring_len], so guard explicitly rather than trust the loop bound *)
  if t.ring_len = 0 then begin
    Ivdb_util.Metrics.inc t.m_overflow;
    None
  end
  else begin
  let victim = ref None in
  let steps = ref (2 * t.ring_len) in
  while !victim = None && !steps > 0 do
    decr steps;
    if t.hand >= t.ring_len then t.hand <- 0;
    let fr = t.ring.(t.hand) in
    if fr.pins > 0 || fr.no_steal then t.hand <- (t.hand + 1) mod t.ring_len
    else if fr.referenced then begin
      fr.referenced <- false;
      t.hand <- (t.hand + 1) mod t.ring_len
    end
    else victim := Some fr
  done;
  match !victim with
  | None ->
      Ivdb_util.Metrics.inc t.m_overflow;
      None
  | Some fr ->
      write_back t fr;
      Hashtbl.remove t.frames fr.page_id;
      ring_remove t fr;
      Ivdb_util.Metrics.inc t.m_evict;
      if Ivdb_util.Trace.enabled t.trace then
        Ivdb_util.Trace.emit t.trace
          (Ivdb_util.Trace.Buf_evict { page = fr.page_id });
      Some fr.data
  end

let get_frame t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some fr ->
      fr.referenced <- true;
      Ivdb_util.Metrics.inc t.m_hit;
      fr
  | None ->
      Ivdb_util.Metrics.inc t.m_miss;
      if Ivdb_util.Trace.enabled t.trace then
        Ivdb_util.Trace.emit t.trace (Ivdb_util.Trace.Buf_miss { page = page_id });
      let victim = if Hashtbl.length t.frames >= t.cap then evict_one t else None in
      let data =
        match victim with Some buf -> buf | None -> Bytes.create Page.size
      in
      with_io_retry t ~page:page_id (fun () -> Disk.read_into t.disk page_id data);
      let fr =
        {
          page_id;
          data;
          dirty = false;
          rec_lsn = 0L;
          pins = 0;
          referenced = true;
          no_steal = false;
          ring_pos = -1;
        }
      in
      Hashtbl.add t.frames page_id fr;
      ring_add t fr;
      fr

let read t page_id f =
  let fr = get_frame t page_id in
  fr.pins <- fr.pins + 1;
  match f fr.data with
  | r ->
      fr.pins <- fr.pins - 1;
      r
  | exception e ->
      fr.pins <- fr.pins - 1;
      raise e

let update t page_id f =
  let fr = get_frame t page_id in
  fr.pins <- fr.pins + 1;
  let w =
    match t.writers with
    | w :: rest ->
        t.writers <- rest;
        w
    | [] -> Page_writer.on fr.data
  in
  Page_writer.reset w fr.data;
  match f w with
  | exception e ->
      (* the mutation callback died partway: put back what it wrote, or
         the frame would keep unlogged bytes while looking clean (dirty =
         false, no no-steal window) — evictable to disk with no covering
         log record, violating the WAL rule *)
      Page_writer.restore w;
      fr.pins <- fr.pins - 1;
      t.writers <- w :: t.writers;
      raise e
  | result ->
      let diff = Page_diff.recorded w in
      fr.pins <- fr.pins - 1;
      t.writers <- w :: t.writers;
      (* a real change opens a no-steal window until the caller logs the
         diff and stamps the page; an empty diff leaves the frame as-is *)
      if not (Page_diff.is_empty diff) then begin
        fr.dirty <- true;
        fr.no_steal <- true
      end;
      (result, diff)

let stamp t page_id lsn =
  match Hashtbl.find_opt t.frames page_id with
  | None -> invalid_arg "Bufpool.stamp: page not resident"
  | Some fr ->
      Page.set_lsn fr.data lsn;
      fr.no_steal <- false;
      if fr.rec_lsn = 0L then fr.rec_lsn <- lsn

let flush_all t =
  for i = 0 to t.ring_len - 1 do
    write_back t t.ring.(i)
  done

let dirty_page_table t =
  let acc = ref [] in
  for i = t.ring_len - 1 downto 0 do
    let fr = t.ring.(i) in
    if fr.dirty then acc := (fr.page_id, fr.rec_lsn) :: !acc
  done;
  !acc

let drop_all t =
  Hashtbl.reset t.frames;
  t.ring <- [||];
  t.ring_len <- 0;
  t.hand <- 0
