module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module Rng = Ivdb_util.Rng

exception Crash_point of string
exception Io_error of string

type config = {
  fault_seed : int;
  read_error_p : float;
  write_error_p : float;
  max_consecutive_errors : int;
  crash_at_write : int option;
  crash_at_force : int option;
  torn_writes : bool;
  torn_tail : bool;
}

let no_faults =
  {
    fault_seed = 0;
    read_error_p = 0.;
    write_error_p = 0.;
    max_consecutive_errors = 3;
    crash_at_write = None;
    crash_at_force = None;
    torn_writes = false;
    torn_tail = false;
  }

let enabled_in c =
  c.read_error_p > 0. || c.write_error_p > 0. || c.crash_at_write <> None
  || c.crash_at_force <> None

type plan = {
  cfg : config;
  rng : Rng.t;
  trace : Trace.t;
  mutable p_writes : int;
  mutable p_forces : int;
  mutable consecutive : int; (* injected errors in a row, across streams *)
  mutable p_frozen : bool;
  m_err_read : Metrics.counter;
  m_err_write : Metrics.counter;
  m_crash_write : Metrics.counter;
  m_crash_force : Metrics.counter;
  m_torn_write : Metrics.counter;
  m_torn_tail : Metrics.counter;
}

type t = Off | On of plan

let none = Off

let create ?trace metrics cfg =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  On
    {
      cfg;
      rng = Rng.create cfg.fault_seed;
      trace;
      p_writes = 0;
      p_forces = 0;
      consecutive = 0;
      p_frozen = false;
      m_err_read = Metrics.counter metrics "fault.io_error_read";
      m_err_write = Metrics.counter metrics "fault.io_error_write";
      m_crash_write = Metrics.counter metrics "fault.crash_write";
      m_crash_force = Metrics.counter metrics "fault.crash_force";
      m_torn_write = Metrics.counter metrics "fault.torn_write";
      m_torn_tail = Metrics.counter metrics "fault.torn_tail";
    }

let active = function Off -> false | On _ -> true

let tears_writes = function
  | Off -> false
  | On p -> p.cfg.torn_writes && p.cfg.crash_at_write <> None

let frozen = function Off -> false | On p -> p.p_frozen
let forces_seen = function Off -> 0 | On p -> p.p_forces

type write_action = Write_ok | Write_crash | Write_torn
type force_action = Force_ok | Force_crash | Force_torn of int

let note p kind arg =
  if Trace.enabled p.trace then
    Trace.emit p.trace (Trace.Fault_inject { kind; arg })

(* Decide one transient error. The consecutive cap is global across reads
   and writes: at most [max_consecutive_errors] injected errors in a row,
   so any retry loop with a larger attempt budget terminates. *)
let transient p prob m kind arg =
  if
    prob > 0.
    && p.consecutive < p.cfg.max_consecutive_errors
    && Rng.float p.rng < prob
  then begin
    p.consecutive <- p.consecutive + 1;
    Metrics.inc m;
    note p kind arg;
    raise (Io_error (Printf.sprintf "%s (page %d)" kind arg))
  end
  else p.consecutive <- 0

let on_read t ~page =
  match t with
  | Off -> ()
  | On p ->
      if not p.p_frozen then
        transient p p.cfg.read_error_p p.m_err_read "io_error.read" page

let on_write t ~page =
  match t with
  | Off -> Write_ok
  | On p ->
      if p.p_frozen then Write_ok
      else begin
        transient p p.cfg.write_error_p p.m_err_write "io_error.write" page;
        p.p_writes <- p.p_writes + 1;
        match p.cfg.crash_at_write with
        | Some n when p.p_writes = n ->
            p.p_frozen <- true;
            if p.cfg.torn_writes then begin
              Metrics.inc p.m_torn_write;
              Write_torn
            end
            else begin
              Metrics.inc p.m_crash_write;
              note p "crash.write" page;
              Write_crash
            end
        | _ -> Write_ok
      end

(* Anywhere outside [lo, hi] the two images agree, so a cut there would
   leave a whole page on disk. *)
let torn_cut t ~lo ~hi =
  match t with
  | Off -> Page.size
  | On p ->
      let keep = if hi > lo then lo + 1 + Rng.int p.rng (hi - lo) else Page.size in
      note p "torn.write" keep;
      keep

let on_force t ~bytes_new =
  match t with
  | Off -> Force_ok
  | On p ->
      if p.p_frozen then Force_ok
      else begin
        p.p_forces <- p.p_forces + 1;
        match p.cfg.crash_at_force with
        | Some n when p.p_forces = n ->
            p.p_frozen <- true;
            if p.cfg.torn_tail && bytes_new > 1 then begin
              let keep = 1 + Rng.int p.rng (bytes_new - 1) in
              Metrics.inc p.m_torn_tail;
              note p "torn.tail" keep;
              Force_torn keep
            end
            else begin
              Metrics.inc p.m_crash_force;
              note p "crash.force" p.p_forces;
              Force_crash
            end
        | _ -> Force_ok
      end

let crash site = raise (Crash_point site)
