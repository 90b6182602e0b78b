module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace

exception Torn_page of int

type t = {
  pages : (int, bytes) Hashtbl.t;
  trace : Trace.t;
  m_read : Metrics.counter;
  m_write : Metrics.counter;
  m_unwritten : Metrics.counter;
  m_bogus : Metrics.counter;
  read_cost : int;
  write_cost : int;
  mutable next_id : int;
  mutable fault : Fault.t;
}

let create ?(read_cost = 100) ?(write_cost = 100) ?trace metrics =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  {
    pages = Hashtbl.create 256;
    trace;
    m_read = Metrics.counter metrics "disk.read";
    m_write = Metrics.counter metrics "disk.write";
    m_unwritten = Metrics.counter metrics "disk.read_unwritten";
    m_bogus = Metrics.counter metrics "disk.read_bogus";
    read_cost;
    write_cost;
    next_id = 1;
    fault = Fault.none;
  }

let set_fault t f = t.fault <- f

let alloc_page t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Stamp the checksum into a stable image. The pool-facing image always
   carries zero in the checksum field (see [read_into]), so the field never
   shows up in page diffs or saved before-values. *)
let stamp_into s p =
  Bytes.blit p 0 s 0 Page.size;
  Page.set_checksum s 0;
  Page.set_checksum s (Page.checksum s)

let stamped p =
  let s = Bytes.create Page.size in
  stamp_into s p;
  s

let read_into t id buf =
  Metrics.inc t.m_read;
  Ivdb_sched.Sched.advance t.read_cost;
  Fault.on_read t.fault ~page:id;
  match Hashtbl.find_opt t.pages id with
  | Some p ->
      if not (Page.verifies p) then raise (Torn_page id);
      Bytes.blit p 0 buf 0 Page.size;
      Page.set_checksum buf 0
  | None ->
      if id < t.next_id then begin
        (* allocated but never flushed — legitimate after a crash that beat
           the first write-back; reads as a fresh page *)
        Metrics.inc t.m_unwritten;
        Bytes.fill buf 0 Page.size '\000'
      end
      else begin
        (* an id the allocator never handed out: a dangling reference *)
        Metrics.inc t.m_bogus;
        if Trace.enabled t.trace then
          Trace.emit t.trace (Trace.Fault_inject { kind = "disk.read_bogus"; arg = id });
        invalid_arg (Printf.sprintf "Disk.read: page %d was never allocated" id)
      end

(* No stored image ever leaves this module ([read_into] and the torn path
   copy out of it), so a write may stamp over it in place. *)
let write t id p =
  if not (Fault.frozen t.fault) then begin
    Metrics.inc t.m_write;
    Ivdb_sched.Sched.advance t.write_cost;
    match Fault.on_write t.fault ~page:id with
    | Fault.Write_ok ->
        (match Hashtbl.find_opt t.pages id with
         | Some s -> stamp_into s p
         | None -> Hashtbl.replace t.pages id (stamped p));
        if id >= t.next_id then t.next_id <- id + 1
    | Fault.Write_crash -> Fault.crash "disk.write"
    | Fault.Write_torn ->
        let old =
          match Hashtbl.find_opt t.pages id with
          | Some o -> Bytes.copy o
          | None -> Bytes.make Page.size '\000'
        in
        let fresh = stamped p in
        let same i = Bytes.get old i = Bytes.get fresh i in
        let rec first i = if i < Page.size && same i then first (i + 1) else i in
        let rec last i = if i > 0 && same i then last (i - 1) else i in
        let keep = Fault.torn_cut t.fault ~lo:(first 0) ~hi:(last (Page.size - 1)) in
        Bytes.blit fresh 0 old 0 keep;
        Hashtbl.replace t.pages id old;
        if id >= t.next_id then t.next_id <- id + 1;
        Fault.crash "disk.write.torn"
  end

let is_torn t id =
  match Hashtbl.find_opt t.pages id with
  | None -> false
  | Some p -> not (Page.verifies p)

let reset_page t id =
  Hashtbl.replace t.pages id (stamped (Page.alloc ()))

let max_page_id t = Hashtbl.fold (fun id _ acc -> max id acc) t.pages 0
let bump_alloc t id = if id >= t.next_id then t.next_id <- id + 1
