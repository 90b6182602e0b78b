(* Structured engine trace: tick-stamped, fiber-attributed events behind a
   near-zero-cost enabled check.

   The module lives below the scheduler in the dependency order, so it
   cannot read the logical clock or the current fiber id itself; both are
   injected as callbacks when the trace is created (the database wires them
   to [Sched.now] / [Sched.self]). Events never carry wall-clock time or
   any other nondeterministic payload: under the seeded cooperative
   scheduler the whole stream is a pure function of the seed, which makes a
   JSONL trace a replayable artifact — byte-identical across runs. *)

type event =
  | Txn_begin of { txn : int; system : bool }
  | Txn_commit of { txn : int; system : bool }
  | Txn_abort of { txn : int }
  | Lock_acquire of { txn : int; name : string; mode : string }
  | Lock_wait of { txn : int; name : string; mode : string }
  | Lock_grant of { txn : int; name : string; mode : string }
  | Deadlock_victim of { txn : int }
  | Wal_append of { lsn : int; txn : int; bytes : int }
  | Wal_force of { lsn : int }
  | Buf_miss of { page : int }
  | Buf_evict of { page : int }
  | View_delta of { view : int; key : string; strategy : string }
  | Group_create of { view : int; key : string; system : bool }
  | Group_gc of { view : int; key : string }
  | Batch_flush of { batch : int; hi_lsn : int }
  | Fault_inject of { kind : string; arg : int }
  | Io_retry of { page : int; attempt : int }
  | Net_accept of { conn : int }
  | Net_shed of { conn : int }
  | Net_request of { conn : int; seq : int; rid : int; bytes : int }
  | Net_response of { conn : int; seq : int; rid : int; frame : string; ticks : int }
  | Slow_query of { conn : int; seq : int; rid : int; ticks : int; sql : string }
  | Net_close of { conn : int }
  | Coord_route of { rid : int; shard : int; kind : string }
  | Coord_fast_path of { rid : int; shard : int }
  | Coord_prepare of { gtxn : string; rid : int; shard : int }
  | Coord_vote of { gtxn : string; shard : int; vote : string }
  | Coord_decision of { gtxn : string; committed : bool }
  | Coord_decide of { gtxn : string; rid : int; shard : int; committed : bool }
  | Twopc_prepare of { conn : int; gtxn : string; rid : int; outcome : string }
  | Twopc_decide of {
      conn : int;
      gtxn : string;
      rid : int;
      committed : bool;
      outcome : string;
    }

type record = { seq : int; tick : int; fiber : int; event : event }

type sink = record -> unit

type t = {
  mutable enabled : bool;
  clock : unit -> int;
  fiber : unit -> int;
  mutable sinks : sink list; (* in attachment order *)
  mutable next_seq : int;
}

let create ?(clock = fun () -> 0) ?(fiber = fun () -> 0) () =
  { enabled = false; clock; fiber; sinks = []; next_seq = 0 }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let add_sink t s = t.sinks <- t.sinks @ [ s ]
let clear_sinks t = t.sinks <- []

let emit t event =
  if t.enabled then begin
    let r = { seq = t.next_seq; tick = t.clock (); fiber = t.fiber (); event } in
    t.next_seq <- t.next_seq + 1;
    List.iter (fun s -> s r) t.sinks
  end

(* --- event rendering ----------------------------------------------------- *)

let event_name = function
  | Txn_begin _ -> "txn.begin"
  | Txn_commit _ -> "txn.commit"
  | Txn_abort _ -> "txn.abort"
  | Lock_acquire _ -> "lock.acquire"
  | Lock_wait _ -> "lock.wait"
  | Lock_grant _ -> "lock.grant"
  | Deadlock_victim _ -> "lock.deadlock_victim"
  | Wal_append _ -> "wal.append"
  | Wal_force _ -> "wal.force"
  | Buf_miss _ -> "buf.miss"
  | Buf_evict _ -> "buf.evict"
  | View_delta _ -> "view.delta"
  | Group_create _ -> "view.group_create"
  | Group_gc _ -> "view.group_gc"
  | Batch_flush _ -> "commit.batch_flush"
  | Fault_inject _ -> "fault.inject"
  | Io_retry _ -> "buf.io_retry"
  | Net_accept _ -> "net.accept"
  | Net_shed _ -> "net.shed"
  | Net_request _ -> "net.request"
  | Net_response _ -> "net.response"
  | Slow_query _ -> "net.slow_query"
  | Net_close _ -> "net.close"
  | Coord_route _ -> "coord.route"
  | Coord_fast_path _ -> "coord.fast_path"
  | Coord_prepare _ -> "coord.prepare"
  | Coord_vote _ -> "coord.vote"
  | Coord_decision _ -> "coord.decision"
  | Coord_decide _ -> "coord.decide"
  | Twopc_prepare _ -> "2pc.prepare"
  | Twopc_decide _ -> "2pc.decide"

(* Keys are binary (order-preserving codec output); escape everything
   outside printable ASCII so the JSONL stream is valid, deterministic
   7-bit text. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\x20' .. '\x7e' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)))
    s;
  Buffer.contents b

let event_fields = function
  | Txn_begin { txn; system } ->
      Printf.sprintf {|"txn": %d, "system": %b|} txn system
  | Txn_commit { txn; system } ->
      Printf.sprintf {|"txn": %d, "system": %b|} txn system
  | Txn_abort { txn } -> Printf.sprintf {|"txn": %d|} txn
  | Lock_acquire { txn; name; mode }
  | Lock_wait { txn; name; mode }
  | Lock_grant { txn; name; mode } ->
      Printf.sprintf {|"txn": %d, "lock": "%s", "mode": "%s"|} txn
        (json_escape name) mode
  | Deadlock_victim { txn } -> Printf.sprintf {|"txn": %d|} txn
  | Wal_append { lsn; txn; bytes } ->
      Printf.sprintf {|"lsn": %d, "txn": %d, "bytes": %d|} lsn txn bytes
  | Wal_force { lsn } -> Printf.sprintf {|"lsn": %d|} lsn
  | Buf_miss { page } | Buf_evict { page } -> Printf.sprintf {|"page": %d|} page
  | View_delta { view; key; strategy } ->
      Printf.sprintf {|"view": %d, "key": "%s", "strategy": "%s"|} view
        (json_escape key) strategy
  | Group_create { view; key; system } ->
      Printf.sprintf {|"view": %d, "key": "%s", "system": %b|} view
        (json_escape key) system
  | Group_gc { view; key } ->
      Printf.sprintf {|"view": %d, "key": "%s"|} view (json_escape key)
  | Batch_flush { batch; hi_lsn } ->
      Printf.sprintf {|"batch": %d, "hi_lsn": %d|} batch hi_lsn
  | Fault_inject { kind; arg } ->
      Printf.sprintf {|"kind": "%s", "arg": %d|} (json_escape kind) arg
  | Io_retry { page; attempt } ->
      Printf.sprintf {|"page": %d, "attempt": %d|} page attempt
  | Net_accept { conn } | Net_close { conn } | Net_shed { conn } ->
      Printf.sprintf {|"conn": %d|} conn
  | Net_request { conn; seq; rid; bytes } ->
      Printf.sprintf {|"conn": %d, "req": %d, "rid": %d, "bytes": %d|} conn seq
        rid bytes
  | Net_response { conn; seq; rid; frame; ticks } ->
      Printf.sprintf
        {|"conn": %d, "req": %d, "rid": %d, "frame": "%s", "ticks": %d|} conn
        seq rid (json_escape frame) ticks
  | Slow_query { conn; seq; rid; ticks; sql } ->
      Printf.sprintf
        {|"conn": %d, "req": %d, "rid": %d, "ticks": %d, "sql": "%s"|} conn seq
        rid ticks (json_escape sql)
  | Coord_route { rid; shard; kind } ->
      Printf.sprintf {|"rid": %d, "shard": %d, "kind": "%s"|} rid shard
        (json_escape kind)
  | Coord_fast_path { rid; shard } ->
      Printf.sprintf {|"rid": %d, "shard": %d|} rid shard
  | Coord_prepare { gtxn; rid; shard } ->
      Printf.sprintf {|"gtxn": "%s", "rid": %d, "shard": %d|} (json_escape gtxn)
        rid shard
  | Coord_vote { gtxn; shard; vote } ->
      Printf.sprintf {|"gtxn": "%s", "shard": %d, "vote": "%s"|}
        (json_escape gtxn) shard (json_escape vote)
  | Coord_decision { gtxn; committed } ->
      Printf.sprintf {|"gtxn": "%s", "committed": %b|} (json_escape gtxn)
        committed
  | Coord_decide { gtxn; rid; shard; committed } ->
      Printf.sprintf {|"gtxn": "%s", "rid": %d, "shard": %d, "committed": %b|}
        (json_escape gtxn) rid shard committed
  | Twopc_prepare { conn; gtxn; rid; outcome } ->
      Printf.sprintf {|"conn": %d, "gtxn": "%s", "rid": %d, "outcome": "%s"|}
        conn (json_escape gtxn) rid (json_escape outcome)
  | Twopc_decide { conn; gtxn; rid; committed; outcome } ->
      Printf.sprintf
        {|"conn": %d, "gtxn": "%s", "rid": %d, "committed": %b, "outcome": "%s"|}
        conn (json_escape gtxn) rid committed (json_escape outcome)

let to_json r =
  Printf.sprintf {|{"seq": %d, "tick": %d, "fiber": %d, "ev": "%s", %s}|} r.seq
    r.tick r.fiber (event_name r.event) (event_fields r.event)

(* --- ring-buffer sink ----------------------------------------------------- *)

module Ring = struct
  type ring = {
    cap : int;
    slots : record option array;
    mutable seen : int; (* total records ever pushed *)
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity must be > 0";
    { cap = capacity; slots = Array.make capacity None; seen = 0 }

  let sink r rec_ =
    r.slots.(r.seen mod r.cap) <- Some rec_;
    r.seen <- r.seen + 1

  let seen r = r.seen
  let length r = min r.seen r.cap

  (* oldest retained first *)
  let contents r =
    let n = length r in
    let first = r.seen - n in
    List.init n (fun i ->
        match r.slots.((first + i) mod r.cap) with
        | Some x -> x
        | None -> assert false)
end

(* --- lock-wait / maintenance profile -------------------------------------- *)

module Profile = struct
  type entry = { mutable waits : int; mutable wait_ticks : int }

  type p = {
    pending : (int * string, int) Hashtbl.t; (* (txn, lock) -> wait tick *)
    locks : (string, entry) Hashtbl.t;
    deltas : (int, int ref) Hashtbl.t; (* view -> delta count *)
    mutable creates : int;
    mutable gcs : int;
    mutable forces : int;
    mutable flushes : int;
    mutable flushed_txns : int;
    mutable deadlocks : int;
  }

  let create () =
    {
      pending = Hashtbl.create 64;
      locks = Hashtbl.create 64;
      deltas = Hashtbl.create 16;
      creates = 0;
      gcs = 0;
      forces = 0;
      flushes = 0;
      flushed_txns = 0;
      deadlocks = 0;
    }

  let lock_entry p name =
    match Hashtbl.find_opt p.locks name with
    | Some e -> e
    | None ->
        let e = { waits = 0; wait_ticks = 0 } in
        Hashtbl.add p.locks name e;
        e

  let sink p r =
    match r.event with
    | Lock_wait { txn; name; _ } -> Hashtbl.replace p.pending (txn, name) r.tick
    | Lock_grant { txn; name; _ } -> (
        match Hashtbl.find_opt p.pending (txn, name) with
        | None -> ()
        | Some t0 ->
            Hashtbl.remove p.pending (txn, name);
            let e = lock_entry p name in
            e.waits <- e.waits + 1;
            e.wait_ticks <- e.wait_ticks + (r.tick - t0))
    | Deadlock_victim _ -> p.deadlocks <- p.deadlocks + 1
    | View_delta { view; _ } -> (
        match Hashtbl.find_opt p.deltas view with
        | Some c -> incr c
        | None -> Hashtbl.add p.deltas view (ref 1))
    | Group_create _ -> p.creates <- p.creates + 1
    | Group_gc _ -> p.gcs <- p.gcs + 1
    | Wal_force _ -> p.forces <- p.forces + 1
    | Batch_flush { batch; _ } ->
        p.flushes <- p.flushes + 1;
        p.flushed_txns <- p.flushed_txns + batch
    | _ -> ()

  let render p =
    let b = Buffer.create 256 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    let waits =
      Hashtbl.fold (fun name e acc -> (name, e) :: acc) p.locks []
      |> List.sort (fun (n1, e1) (n2, e2) ->
             match compare e2.wait_ticks e1.wait_ticks with
             | 0 -> String.compare n1 n2
             | c -> c)
    in
    line "lock-wait profile (top 10 by ticks waited):";
    if waits = [] then line "  (no lock waits)"
    else
      List.iteri
        (fun i (name, e) ->
          if i < 10 then
            line "  %-28s %5d wait(s)  %8d tick(s)  %7.1f avg" name e.waits
              e.wait_ticks
              (float_of_int e.wait_ticks /. float_of_int (max 1 e.waits)))
        waits;
    line "maintenance:";
    let deltas =
      Hashtbl.fold (fun v c acc -> (v, !c) :: acc) p.deltas []
      |> List.sort compare
    in
    List.iter (fun (v, c) -> line "  view %-4d %6d delta(s)" v c) deltas;
    line "  group creates %d, group gcs %d, deadlock victims %d" p.creates p.gcs
      p.deadlocks;
    line "commit path:";
    line "  wal forces %d, batch flushes %d (%.2f txns/flush)" p.forces p.flushes
      (float_of_int p.flushed_txns /. float_of_int (max 1 p.flushes));
    Buffer.contents b
end
