(* The sharding coordinator: hash-partitions base tables by their first
   column ("the primary key") over N engine instances and drives
   two-phase commit for transactions that touch more than one of them.

   The coordinator owns no data. It parses each statement just far
   enough to route it: DDL broadcasts, an INSERT splits its VALUES rows
   by partition, a WHERE pk = lit pins DML/SELECT to the owning shard,
   everything else fans out. Every shard maintains every view over its
   own rows, exactly as a single engine does, so a transaction
   participates only where its statements ran. A view read fans out and
   the coordinator combines the shards' partial rows by group key
   (COUNT/SUM/MIN/MAX distribute over a union of partitions).

   Durability follows presumed abort as R* defines it: a commit forces
   one record, its Log_record.Decision, before the first Decide message,
   and an abort logs nothing. A participant whose part logged nothing
   votes read-only: it has committed already, so it gets no Decide, and a
   gtxn every participant read only forces nothing at all. Recovery asks
   every shard which of this coordinator's gtxns it holds in doubt and
   sends commit for each one with a logged Decision, abort for the rest;
   participants answer a re-sent Decide idempotently from their in-doubt
   table or by the presumed-abort rule, which is also what makes the
   coordinator's reconnect-and-resend retry safe. Gids are reserved a
   block at a time by one forced record, so a restart never hands out a
   gid a shard may still hold in doubt.

   A global transaction lives in one table from its first Prepare until
   every participant has its decision, then moves to a short list of
   recent ones; nothing else about it is kept. *)

module A = Ivdb_sql.Sql_ast
module Sql = Ivdb_sql.Sql
module Sql_parser = Ivdb_sql.Sql_parser
module Sys_tables = Ivdb_sql.Sys_tables
module Client = Ivdb_client.Client
module Database = Ivdb.Database
module Transport = Ivdb_transport.Transport
module Wal = Ivdb_wal.Wal
module Log_record = Ivdb_wal.Log_record
module Fault = Ivdb_storage.Fault
module Metrics = Ivdb_util.Metrics
module Trace = Ivdb_util.Trace
module Sched = Ivdb_sched.Sched
module Value = Ivdb_relation.Value
module Row = Ivdb_relation.Row
module B = Ivdb_util.Bytes_util
module Wire = Ivdb_wire.Wire
module Server = Ivdb_server.Server

exception Coord_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Coord_error s)) fmt

(* --- routing ---------------------------------------------------------- *)

let route_value ~shards v =
  let s = Value.to_string v in
  B.fnv1a32_string s 0 (String.length s) mod shards

let configure_shard db ~shard ~shards = Database.set_shard db ~shard ~shards

(* --- coordinator state ------------------------------------------------ *)

type stats = {
  single_shard_commits : int;
  cross_shard_commits : int;
  aborts : int;
  prepares_sent : int;
  decides_sent : int;
}

(* One global transaction, from the start of its commit round until every
   participant has its decision; then it moves to the capped [recent]
   list, where sys.gtxns still shows it. Updates to it are never gated,
   so they cannot shift the crash-sweep action numbering. *)
type gtxn = {
  g_id : string;
  g_participants : int list;
  mutable g_phase : string; (* preparing | deciding | committed | aborted *)
  mutable g_votes : (int * string) list; (* shard -> yes / read-only / no / dead *)
  mutable g_phase_tick : int; (* tick the current phase was entered *)
  mutable g_decision : bool option; (* committed?, once decided *)
  mutable g_owed : int list; (* shards the decision has not reached *)
}

let recent_cap = 32

(* Per-shard health as seen from the coordinator (sys.coord_shards). *)
type shard_health = {
  mutable sh_last_contact : int; (* tick of the last successful round trip *)
  mutable sh_prepares : int;
  mutable sh_decides : int;
}

(* The coordinator proper: the decision log, the gtxn table and the
   routing metadata every session shares. *)
type coordinator = {
  cname : string;
  dialers : Transport.dialer array;
  cwal : Wal.t;
  metrics : Metrics.t;
  ctrace : Trace.t;
  mutable next_gid : int;
  mutable reserved : int; (* the last gid a forced Gid_block covers *)
  (* coordinator-assigned correlation id: one per routed statement,
     stamped on every shard-bound frame that statement causes *)
  mutable next_rid : int;
  gtxns : (string, gtxn) Hashtbl.t; (* undecided or owed to some shard *)
  mutable recent : gtxn list; (* newest first, capped at recent_cap *)
  health : shard_health array;
  mutable unpolled : int list; (* shards [recover] could not ask *)
  pk_cols : (string, string) Hashtbl.t; (* table -> partition column *)
  views : (string, int) Hashtbl.t; (* view -> its GROUP BY column count *)
  (* deterministic crash injection: every 2PC protocol action (gid-block
     or decision force, Prepare send, Decide send) bumps the counter;
     reaching the armed value raises Fault.Crash_point before the action
     happens *)
  mutable actions : int;
  mutable crash_at : int option;
  mutable s_single : int;
  mutable s_cross : int;
  mutable s_aborts : int;
  (* typed per-phase 2PC metric handles, resolved once at create *)
  m_votes : (string * Metrics.counter) list; (* by vote *)
  m_fast : Metrics.counter;
  m_2pc : Metrics.counter;
  m_abort_vote : Metrics.counter;
  m_abort_dead : Metrics.counter;
  m_abort_poisoned : Metrics.counter;
  m_redeliver : Metrics.counter;
  m_indoubt : Metrics.counter; (* gauge: gtxns with undelivered decisions *)
  h_prepare : Metrics.hist; (* prepare fan-out ticks per 2PC round *)
  h_force : Metrics.hist; (* decision WAL-force ticks *)
  h_decide : Metrics.hist; (* decide fan-out ticks per 2PC round *)
}

(* One client's session: its own shard connections and its own
   distributed transaction. *)
type t = {
  co : coordinator;
  clients : Client.t array;
  mutable in_txn : bool;
  mutable open_on : int list; (* shards holding this txn's server session txn *)
  (* a shard lost this transaction's part of it — the connection died, or
     the shard rolled its session transaction back (a deadlock victim) —
     so the global transaction can only abort *)
  mutable poisoned : bool;
  mutable cur_rid : int;
}

let parse_gid cname gtxn =
  let p = cname ^ ":" in
  let pl = String.length p in
  if String.length gtxn > pl && String.sub gtxn 0 pl = p then
    int_of_string_opt (String.sub gtxn pl (String.length gtxn - pl))
  else None

(* Routing metadata is derived from DDL; the statements themselves are
   logged to the coordinator's WAL so a restarted coordinator re-derives
   it (the pk-column guard and pinning must survive a crash, see
   [scan_wal]). Anything unparseable is ignored — the log is ours. *)
let register_ddl co sql =
  match Sql_parser.parse sql with
  | A.Create_table { t_name; cols } -> (
      match cols with
      | first :: _ -> Hashtbl.replace co.pk_cols t_name first.A.cd_name
      | [] -> ())
  | A.Create_view { v_name; query; _ } ->
      Hashtbl.replace co.views v_name (List.length query.A.group_by)
  | _ -> ()
  | exception _ -> ()

(* --- the gtxn table ---------------------------------------------------- *)

let gtxn_begin co ~gtxn ~participants =
  let g =
    {
      g_id = gtxn;
      g_participants = participants;
      g_phase = "preparing";
      g_votes = [];
      g_phase_tick = Sched.now ();
      g_decision = None;
      g_owed = [];
    }
  in
  Hashtbl.replace co.gtxns gtxn g;
  g

let gtxn_phase g phase =
  g.g_phase <- phase;
  g.g_phase_tick <- Sched.now ()

(* The in-doubt gauge counts gtxns that owe some shard their decision. It
   moves by one as an entry gains or loses its last owed shard, so
   coordinators sharing a registry add up instead of overwriting. *)
let set_owed co g owed =
  (match (g.g_owed, owed) with
  | [], _ :: _ -> Metrics.inc co.m_indoubt
  | _ :: _, [] -> Metrics.inc_by co.m_indoubt (-1)
  | _ -> ());
  g.g_owed <- owed

(* The outcome is final: show it, and once every participant has it,
   move the entry from the table to [recent]. *)
let gtxn_done co g committed =
  let phase = if committed then "committed" else "aborted" in
  if g.g_phase <> phase then gtxn_phase g phase;
  if g.g_owed = [] then begin
    Hashtbl.remove co.gtxns g.g_id;
    let rest = List.filter (fun r -> r.g_id <> g.g_id) co.recent in
    co.recent <- List.filteri (fun i _ -> i < recent_cap) (g :: rest)
  end

(* A restarted coordinator re-derives its routing metadata from the log
   and resumes above its last reserved gid block; outcomes are read again
   only by [recover]. *)
let scan_wal co =
  Wal.iter_stable co.cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Ddl sql -> register_ddl co sql
      | Log_record.Gid_block { last } -> (
          match parse_gid co.cname last with
          | Some n -> co.reserved <- max co.reserved n
          | None -> ())
      | _ -> ());
  co.next_gid <- co.reserved + 1

let coordinator ?(name = "coord") ?wal ?metrics ?trace dialers =
  if Array.length dialers = 0 then invalid_arg "Coord.create: no shards";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let ctrace =
    Option.value trace ~default:(Trace.create ~clock:Sched.now ~fiber:Sched.self ())
  in
  (* the decision log shares the coordinator's registry (and trace), so
     its force/append counters are visible instead of vanishing into a
     private throwaway registry *)
  let cwal =
    match wal with Some w -> w | None -> Wal.create ~trace:ctrace metrics
  in
  let co =
    {
      cname = name;
      dialers;
      cwal;
      metrics;
      ctrace;
      next_gid = 1;
      reserved = 0;
      next_rid = 1;
      gtxns = Hashtbl.create 8;
      recent = [];
      health =
        Array.map
          (fun _ -> { sh_last_contact = 0; sh_prepares = 0; sh_decides = 0 })
          dialers;
      unpolled = [];
      pk_cols = Hashtbl.create 8;
      views = Hashtbl.create 8;
      actions = 0;
      crash_at = None;
      s_single = 0;
      s_cross = 0;
      s_aborts = 0;
      m_votes =
        List.map
          (fun (v, name) -> (v, Metrics.counter metrics ("coord.votes." ^ name)))
          [
            ("yes", "yes"); ("read-only", "read_only"); ("no", "no");
            ("dead", "dead_line");
          ];
      m_fast = Metrics.counter metrics "coord.commit.fast_path";
      m_2pc = Metrics.counter metrics "coord.commit.2pc";
      m_abort_vote = Metrics.counter metrics "coord.abort.vote_no";
      m_abort_dead = Metrics.counter metrics "coord.abort.dead_line";
      m_abort_poisoned = Metrics.counter metrics "coord.abort.poisoned";
      m_redeliver = Metrics.counter metrics "coord.redeliver.attempts";
      m_indoubt = Metrics.counter metrics "coord.indoubt";
      h_prepare = Metrics.hist metrics "coord.prepare.ticks";
      h_force = Metrics.hist metrics "coord.decision_force.ticks";
      h_decide = Metrics.hist metrics "coord.decide.ticks";
    }
  in
  scan_wal co;
  co

(* A session dials its own connection to every shard, so each one holds
   its own server-side transactions. *)
let open_session co =
  {
    co;
    clients =
      Array.map (fun d -> Client.connect ~client:("coord:" ^ co.cname) d) co.dialers;
    in_txn = false;
    open_on = [];
    poisoned = false;
    cur_rid = 0;
  }

let create ?name ?wal ?metrics ?trace dialers =
  open_session (coordinator ?name ?wal ?metrics ?trace dialers)

let session c = open_session c.co

let wal c = c.co.cwal
let metrics c = c.co.metrics
let trace c = c.co.ctrace
let shard_count c = Array.length c.clients
let all_shards c = List.init (shard_count c) Fun.id
let in_transaction c = c.in_txn

let temit c ev = if Trace.enabled c.co.ctrace then Trace.emit c.co.ctrace ev
let touch c i = c.co.health.(i).sh_last_contact <- Sched.now ()

let stats c =
  let sum f = Array.fold_left (fun acc h -> acc + f h) 0 c.co.health in
  {
    single_shard_commits = c.co.s_single;
    cross_shard_commits = c.co.s_cross;
    aborts = c.co.s_aborts;
    prepares_sent = sum (fun h -> h.sh_prepares);
    decides_sent = sum (fun h -> h.sh_decides);
  }

let set_crash_at_action c n = c.co.crash_at <- n
let actions c = c.co.actions

let gate c site =
  c.co.actions <- c.co.actions + 1;
  match c.co.crash_at with
  | Some n when c.co.actions >= n ->
      raise (Fault.Crash_point (Printf.sprintf "coord.%s.%d" site c.co.actions))
  | _ -> ()

let close c =
  Array.iter (fun cl -> try Client.close cl with _ -> ()) c.clients

(* --- 2PC message plumbing --------------------------------------------- *)

let log_force c body =
  let lsn = Wal.append c.co.cwal ~txn:0 ~prev:Log_record.nil_lsn body in
  Wal.force c.co.cwal lsn

let timed h f =
  let t0 = Sched.now () in
  let r = f () in
  Metrics.record h (Sched.now () - t0);
  r

(* Gids are reserved [gid_block] at a time, each block by one forced
   record before its first gid reaches a shard, so a restart resumes
   above every gid a shard may hold in doubt. A reused gid would be
   answered from that shard's in-doubt table: a yes vote for work it
   never ran. The gid is claimed before the force yields, so sessions
   never share one. *)
let gid_block = 1024

let fresh_gid c =
  let gid n = Printf.sprintf "%s:%d" c.co.cname n in
  let n = c.co.next_gid in
  c.co.next_gid <- n + 1;
  if n > c.co.reserved then begin
    let last = n + gid_block - 1 in
    gate c "log_gids";
    log_force c (Log_record.Gid_block { last = gid last });
    c.co.reserved <- max c.co.reserved last
  end;
  gid n

(* One statement to one shard, stamped with the coordinator's current
   correlation id; a successful round trip refreshes the shard's
   last-contact tick. Every shard-bound statement goes through here. *)
let shard_exec c i sql =
  let r = Client.exec ~rid:c.cur_rid c.clients.(i) sql in
  touch c i;
  r

let rollback_ops c ops =
  List.iter
    (fun i ->
      try ignore (shard_exec c i "ROLLBACK")
      with Client.Disconnected _ | Client.Server_error _ -> ())
    ops

(* Send [g]'s decision to [shards]; the ones it cannot reach stay owed,
   and so do the shards outside [shards] that were owed already. *)
let deliver_decision ?(gated = true) c g ~committed shards =
  let failed = ref [] in
  List.iter
    (fun i ->
      if gated then gate c "decide";
      temit c
        (Trace.Coord_decide { gtxn = g.g_id; rid = c.cur_rid; shard = i; committed });
      let send () =
        Client.decide_2pc ~rid:c.cur_rid c.clients.(i) ~gtxn:g.g_id ~committed
      in
      try
        (* a dead line is retried once after the client's automatic
           re-dial: a participant applies a Decide only to a gtxn it
           holds in doubt *)
        (try send () with Client.Disconnected _ -> send ());
        c.co.health.(i).sh_decides <- c.co.health.(i).sh_decides + 1;
        touch c i
      with Client.Disconnected _ | Client.Server_error _ ->
        (* an unreachable shard stays in-doubt (locks held) until a
           re-delivery reaches it *)
        failed := i :: !failed)
    shards;
  set_owed c.co g
    (List.rev !failed @ List.filter (fun i -> not (List.mem i shards)) g.g_owed)

(* --- recovery --------------------------------------------------------- *)

(* Ask [shards] which of this coordinator's gtxns they hold in doubt and
   send each its outcome: commit iff its Decision is logged (presumed
   abort). A gtxn still undecided here is some session's round in flight
   and is left to it. A shard that cannot be asked is asked again before
   the next commit. Returns the number of gtxns resolved. *)
let resolve_indoubt ?gated c shards =
  let held = Hashtbl.create 8 in
  let ask i =
    let poll () = shard_exec c i "SELECT gtxn FROM sys.indoubt" in
    (* the poll is idempotent: a dead line is retried once after the
       client's automatic re-dial, as a Decide is *)
    match (try poll () with Client.Disconnected _ -> poll ()) with
    | Sql.Rows { rows; _ } ->
        List.iter
          (function
            | [| Value.Str g |] when parse_gid c.co.cname g <> None ->
                Hashtbl.add held g i
            | _ -> ())
          rows;
        true
    | _ -> true
    | exception (Client.Disconnected _ | Client.Server_error _) -> false
  in
  c.co.unpolled <- List.filter (fun i -> not (ask i)) shards;
  let commits = Hashtbl.create 16 in
  Wal.iter_stable c.co.cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Decision { gtxn } -> Hashtbl.replace commits gtxn ()
      | _ -> ());
  List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys held))
  |> List.filter (fun gtxn ->
         let on = List.sort compare (Hashtbl.find_all held gtxn) in
         match Hashtbl.find_opt c.co.gtxns gtxn with
         | Some { g_decision = None; _ } -> false
         | found ->
             let g =
               match found with
               | Some g -> g
               | None -> gtxn_begin c.co ~gtxn ~participants:on
             in
             let committed = Hashtbl.mem commits gtxn in
             g.g_decision <- Some committed;
             deliver_decision ?gated c g ~committed on;
             gtxn_done c.co g committed;
             true)
  |> List.length

let recover c = resolve_indoubt c (all_shards c)

(* A shard that missed its decision keeps the in-doubt transaction's
   locks, blocking conflicting work there; rather than waiting for an
   operator's [recover], retry the outcome before the next commit, and
   ask again the shards [recover] could not reach. Ungated: re-delivery
   is not a protocol action of the current transaction, so it must not
   shift the crash-sweep numbering. *)
let redeliver_pending c =
  List.of_seq (Hashtbl.to_seq_values c.co.gtxns)
  |> List.filter (fun g -> g.g_owed <> [])
  |> List.sort (fun a b -> compare a.g_id b.g_id)
  |> List.iter (fun g ->
         match g.g_decision with
         | Some committed ->
             Metrics.inc c.co.m_redeliver;
             deliver_decision ~gated:false c g ~committed g.g_owed;
             gtxn_done c.co g committed
         | None -> ());
  if c.co.unpolled <> [] then
    ignore (resolve_indoubt ~gated:false c c.co.unpolled)

let two_phase c ~gtxn ~participants =
  let g = gtxn_begin c.co ~gtxn ~participants in
  (* shards that forced a Prepare: a read-only one has committed already *)
  let prepared = ref [] in
  let vote i v =
    Metrics.inc (List.assoc v c.co.m_votes);
    g.g_votes <- g.g_votes @ [ (i, v) ];
    temit c (Trace.Coord_vote { gtxn; shard = i; vote = v })
  in
  let rec prep = function
    | [] -> None
    | i :: rest -> (
        gate c "prepare";
        temit c (Trace.Coord_prepare { gtxn; rid = c.cur_rid; shard = i });
        (* A shard's vote rides the session that ran its statements: if
           that connection dies, the server rolls the session transaction
           back on disconnect, and a resend on a fresh session finds no
           transaction to prepare. So a Prepare is never retried; a dead
           line is a No vote (presumed abort keeps an actually-prepared
           shard safe: it stays in-doubt and the abort reaches it below,
           or via re-delivery). *)
        match Client.prepare_2pc ~rid:c.cur_rid c.clients.(i) ~gtxn with
        | v ->
            c.co.health.(i).sh_prepares <- c.co.health.(i).sh_prepares + 1;
            touch c i;
            if v = `Prepared then prepared := !prepared @ [ i ];
            vote i (if v = `Prepared then "yes" else "read-only");
            prep rest
        | exception Client.Server_error { text; _ } ->
            vote i "no";
            Some (text, c.co.m_abort_vote, [], rest)
        | exception Client.Disconnected reason ->
            (* a suspect: the frame, or only its ack, may have been lost,
               so it may hold a prepared transaction we never heard of *)
            vote i "dead";
            Some (reason, c.co.m_abort_dead, [ i ], rest))
  in
  let outcome = timed c.co.h_prepare (fun () -> prep participants) in
  gtxn_phase g "deciding";
  match outcome with
  | None ->
      (* only the prepared shards wait for the decision; with none there
         is nothing to log or send *)
      if !prepared <> [] then begin
        gate c "log_decision";
        timed c.co.h_force (fun () -> log_force c (Log_record.Decision { gtxn }))
      end;
      temit c (Trace.Coord_decision { gtxn; committed = true });
      g.g_decision <- Some true;
      if !prepared <> [] then
        timed c.co.h_decide (fun () ->
            deliver_decision c g ~committed:true !prepared);
      gtxn_done c.co g true;
      c.co.s_cross <- c.co.s_cross + 1;
      Metrics.inc c.co.m_2pc;
      Sql.Message
        (Printf.sprintf "committed (%s, %d participants)" gtxn
           (List.length participants))
  | Some (reason, abort_cause, suspect, unasked) ->
      (* presumed abort: nothing is logged *)
      temit c (Trace.Coord_decision { gtxn; committed = false });
      g.g_decision <- Some false;
      (* prepared shards get the abort decision now, and so does every
         suspect — it may have prepared without us seeing the ack, and a
         shard that never saw the Prepare answers presumed-abort; a
         participant never asked still holds an ordinary session
         transaction, rolled back explicitly *)
      let informed = List.sort_uniq compare (!prepared @ suspect) in
      timed c.co.h_decide (fun () ->
          deliver_decision c g ~committed:false informed);
      rollback_ops c unasked;
      gtxn_done c.co g false;
      c.co.s_aborts <- c.co.s_aborts + 1;
      Metrics.inc abort_cause;
      fail "transaction %s aborted: %s" gtxn reason

let commit_txn c =
  if not c.in_txn then fail "no open transaction";
  redeliver_pending c;
  let ops = c.open_on in
  let poisoned = c.poisoned in
  c.in_txn <- false;
  c.open_on <- [];
  c.poisoned <- false;
  if poisoned then begin
    rollback_ops c ops;
    c.co.s_aborts <- c.co.s_aborts + 1;
    Metrics.inc c.co.m_abort_poisoned;
    fail "transaction aborted: a shard lost its part of it"
  end;
  match ops with
  | [] -> Sql.Message "committed"
  | [ i ] ->
      (* one participant: a plain local commit. A failed COMMIT leaves the
         session transaction holding locks: roll it back best-effort
         before re-raising. A simulated coordinator crash is exempt — a
         dead process sends nothing. *)
      (match shard_exec c i "COMMIT" with
      | Sql.Message _ -> ()
      | _ -> fail "unexpected reply to COMMIT"
      | exception (Fault.Crash_point _ as e) -> raise e
      | exception e ->
          rollback_ops c ops;
          raise e);
      c.co.s_single <- c.co.s_single + 1;
      Metrics.inc c.co.m_fast;
      temit c (Trace.Coord_fast_path { rid = c.cur_rid; shard = i });
      Sql.Message "committed"
  | _ -> two_phase c ~gtxn:(fresh_gid c) ~participants:(List.sort compare ops)

let abort_txn c =
  if not c.in_txn then fail "no open transaction";
  let ops = c.open_on in
  c.in_txn <- false;
  c.open_on <- [];
  c.poisoned <- false;
  rollback_ops c ops;
  Sql.Message "rolled back"

(* --- statement routing ------------------------------------------------ *)

let render_lit = function
  | A.L_int i -> string_of_int i
  | A.L_float f ->
      let s = Printf.sprintf "%.17g" f in
      if String.contains s 'e' || String.contains s 'n' then
        Printf.sprintf "%f" f
      else if String.contains s '.' then s
      else s ^ ".0"
  | A.L_string s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | A.L_bool b -> if b then "TRUE" else "FALSE"
  | A.L_null -> "NULL"

let render_row lits = "(" ^ String.concat ", " (List.map render_lit lits) ^ ")"

let route_lit c l = route_value ~shards:(shard_count c) (Sql.value_of_lit l)

let ensure_open c i =
  if not (List.mem i c.open_on) then begin
    ignore (shard_exec c i "BEGIN");
    c.open_on <- c.open_on @ [ i ]
  end

let exec_shard ?(kind = "pin") c i sql =
  temit c (Trace.Coord_route { rid = c.cur_rid; shard = i; kind });
  if c.in_txn then (
    try
      ensure_open c i;
      shard_exec c i sql
    with (Client.Disconnected _ | Client.Server_error { txn_open = false; _ }) as e ->
      (* that shard's session transaction is gone — rolled back by the
         disconnect, or by the shard itself for a deadlock victim — and
         with it whatever this transaction did there; a later statement
         would run there in autocommit, so the transaction is abort-only *)
      c.poisoned <- true;
      raise e)
  else shard_exec c i sql

let affected = function
  | Sql.Affected n -> n
  | Sql.Rows { rows; _ } -> List.length rows
  | Sql.Message _ -> 0

(* WHERE pins the statement to one shard iff it has a top-level
   pk = literal conjunct for the table's partition column. *)
let pk_eq c table where =
  match (Hashtbl.find_opt c.co.pk_cols table, where) with
  | Some pk, Some w ->
      List.find_map
        (function
          | A.Binop (A.Eq, A.Column col, A.Lit l)
          | A.Binop (A.Eq, A.Lit l, A.Column col)
            when col = pk ->
              Some l
          | _ -> None)
        (Sql.conjuncts w)
  | _ -> None

(* One statement's rows from each of [targets], concatenated. *)
let gather c sql targets =
  let replies =
    List.map
      (fun i ->
        match exec_shard ~kind:"broadcast" c i sql with
        | Sql.Rows { header; rows } -> (header, rows)
        | _ -> fail "expected rows")
      targets
  in
  ((match replies with (h, _) :: _ -> h | [] -> []), List.concat_map snd replies)

(* --- coordinator-resident sys.* catalogs ------------------------------ *)

let gtxns_rows c =
  let now = Sched.now () in
  let row g =
    let votes = List.sort compare g.g_votes in
    let votes = List.map (fun (s, v) -> Printf.sprintf "%d:%s" s v) votes in
    [|
      Value.Str g.g_id;
      Value.Str g.g_phase;
      Value.Str (String.concat "," (List.map string_of_int g.g_participants));
      Value.Str (String.concat "," votes);
      Value.Int (now - g.g_phase_tick);
      Value.Int (List.length g.g_owed);
    |]
  in
  let live =
    Hashtbl.fold (fun _ g acc -> g :: acc) c.co.gtxns []
    |> List.sort (fun a b -> compare a.g_id b.g_id)
  in
  (Sys_tables.gtxns_header, List.map row live @ List.map row c.co.recent)

let coord_shards_rows c =
  let outstanding i =
    Hashtbl.fold
      (fun _ g acc -> if List.mem i g.g_owed then acc + 1 else acc)
      c.co.gtxns 0
  in
  let row i h =
    [|
      Value.Int i;
      Value.Str (Client.peer_addr c.clients.(i));
      Value.Int h.sh_last_contact;
      Value.Int h.sh_prepares;
      Value.Int h.sh_decides;
      Value.Int (outstanding i);
      Value.Int (Client.reconnects c.clients.(i));
    |]
  in
  (Sys_tables.coord_shards_header, Array.to_list (Array.mapi row c.co.health))

(* The cluster rollup: this registry's counters tagged "coord", then each
   reachable shard's sys.metrics tagged "shard<i>". A dead shard is
   skipped rather than failing the whole query — sys.coord_shards is the
   place that reports it. *)
let cluster_metrics_rows c =
  let own =
    List.map
      (fun (k, v) -> [| Value.Str "coord"; Value.Str k; Value.Int v |])
      (Metrics.snapshot c.co.metrics)
  in
  let shard i =
    let node = Printf.sprintf "shard%d" i in
    match exec_shard ~kind:"sys" c i "SELECT * FROM sys.metrics" with
    | Sql.Rows { rows; _ } ->
        List.map (fun r -> Array.append [| Value.Str node |] r) rows
    | _ -> []
    | exception (Client.Disconnected _ | Client.Server_error _) -> []
  in
  ( Sys_tables.cluster_metrics_header,
    own @ List.concat_map shard (all_shards c) )

let coord_sys c name =
  match name with
  | "sys.gtxns" -> Some (fun () -> gtxns_rows c)
  | "sys.coord_shards" -> Some (fun () -> coord_shards_rows c)
  | "sys.cluster_metrics" -> Some (fun () -> cluster_metrics_rows c)
  | _ -> None

(* A view read. Each shard holds a partial view over its own rows; the
   WHERE is applied only after the merge, because a filter on an
   aggregate column can hold for the combined row and for no partial one. *)
let select_view c (q : A.select) ~groups =
  let header, rows = gather c ("SELECT * FROM " ^ q.A.from) (all_shards c) in
  Sql.select_over q (header, Sql.combine_view_rows ~groups header rows)

let route_select c (q : A.select) sql =
  if Sql.is_sys_name q.A.from then (
    match coord_sys c q.A.from with
    | Some rows -> Sql.select_over q (rows ())
    | None ->
        if q.A.from = "sys.shards" then Sql.order_limit q (gather c sql (all_shards c))
        else exec_shard ~kind:"sys" c 0 sql)
  else
    match (Hashtbl.find_opt c.co.views q.A.from, pk_eq c q.A.from q.A.where) with
    | Some groups, _ -> select_view c q ~groups
    | None, Some l -> exec_shard c (route_lit c l) sql
    | None, None ->
        if Sql.is_grouped q then
          fail
            "cross-shard aggregation over %s is not supported: create an \
             indexed view (the coordinator combines its shards' partial \
             rows) or pin the query with %s = <literal>"
            q.A.from
            (match Hashtbl.find_opt c.co.pk_cols q.A.from with
            | Some pk -> pk
            | None -> "<pk>")
        else Sql.order_limit q (gather c sql (all_shards c))

let route_insert c into rows =
  let n = shard_count c in
  let buckets = Array.make n [] in
  List.iter
    (fun lits ->
      match lits with
      | [] -> fail "empty VALUES row"
      | first :: _ ->
          let i = route_lit c first in
          buckets.(i) <- lits :: buckets.(i))
    rows;
  let total = ref 0 in
  Array.iteri
    (fun i bucket ->
      if bucket <> [] then
        let sql =
          Printf.sprintf "INSERT INTO %s VALUES %s" into
            (String.concat ", " (List.rev_map render_row bucket))
        in
        total := !total + affected (exec_shard ~kind:"split" c i sql))
    buckets;
  Sql.Affected !total

let route_modify c table where sql =
  match pk_eq c table where with
  | Some l -> exec_shard c (route_lit c l) sql
  | None ->
      Sql.Affected
        (List.fold_left
           (fun acc i -> acc + affected (exec_shard ~kind:"broadcast" c i sql))
           0 (all_shards c))

(* A write outside an open transaction still runs under the coordinator's
   transaction machinery: a split INSERT or a fanned-out UPDATE/DELETE
   touches several shards, and only the commit path makes them atomic. *)
let with_write c f =
  if c.in_txn then f ()
  else begin
    c.in_txn <- true;
    match f () with
    | r ->
        ignore (commit_txn c);
        r
    | exception e ->
        (if c.in_txn then try ignore (abort_txn c) with _ -> ());
        raise e
  end

let broadcast_ddl c sql =
  List.fold_left
    (fun _ i ->
      temit c (Trace.Coord_route { rid = c.cur_rid; shard = i; kind = "ddl" });
      shard_exec c i sql)
    (Sql.Message "ok") (all_shards c)

(* a plan is per-shard: pin it when the statement pins, else shard 0 *)
let explain_on c table where sql =
  match pk_eq c table where with
  | Some l -> exec_shard c (route_lit c l) sql
  | None -> exec_shard c 0 sql

let exec c sql =
  let stmt = Sql_parser.parse sql in
  (* one correlation id per routed statement: every shard-bound frame this
     statement causes (Exec, Prepare, Decide) carries it *)
  c.cur_rid <- c.co.next_rid;
  c.co.next_rid <- c.co.next_rid + 1;
  match stmt with
  | A.Commit -> commit_txn c
  | A.Rollback -> abort_txn c
  | _ when c.poisoned ->
      fail "transaction is abort-only: a shard lost its part of it; ROLLBACK"
  | A.Begin _ ->
      if c.in_txn then fail "transaction already open";
      c.in_txn <- true;
      c.poisoned <- false;
      Sql.Message "distributed transaction started"
  | A.Savepoint _ | A.Rollback_to _ ->
      fail "savepoints are not supported through the coordinator"
  | A.Create_view { query = { A.from; join = Some (right, lcol, rcol); _ }; _ }
    when Hashtbl.find_opt c.co.pk_cols from <> Some lcol
         || Hashtbl.find_opt c.co.pk_cols right <> Some rcol ->
      (* a shard joins only the rows it holds: pairs whose rows live on
         different shards would silently drop out of the view *)
      fail
        "join view over %s and %s must join their partition columns: each \
         shard joins only its own rows"
        from right
  | A.Create_table _ | A.Create_view _ ->
      (* routing metadata (partition columns, view group widths) must survive a
         coordinator restart: force the DDL to our log before acting on
         it, and re-derive the tables from the statement text — the same
         path scan_wal replays *)
      log_force c (Log_record.Ddl sql);
      register_ddl c.co sql;
      broadcast_ddl c sql
  | A.Create_index _ | A.Checkpoint -> broadcast_ddl c sql
  | A.Show _ -> exec_shard c 0 sql
  | A.Insert { into; rows } -> with_write c (fun () -> route_insert c into rows)
  | A.Delete { from_t; where } ->
      with_write c (fun () -> route_modify c from_t where sql)
  | A.Update { table; sets; where } ->
      (match Hashtbl.find_opt c.co.pk_cols table with
      | Some pk when List.mem_assoc pk sets ->
          fail "cannot UPDATE partition column %s through the coordinator" pk
      | _ -> ());
      with_write c (fun () -> route_modify c table where sql)
  | A.Select q -> route_select c q sql
  | A.Explain q | A.Explain_analyze q -> explain_on c q.A.from q.A.where sql
  | A.Explain_write (A.Update { table; where; _ } | A.Delete { from_t = table; where })
    ->
      explain_on c table where sql
  | A.Explain_write _ -> fail "EXPLAIN supports SELECT, UPDATE and DELETE"

(* --- wire sessions ------------------------------------------------------ *)

(* One routed statement as its response frame. The incoming Exec's client
   rid is not used: every shard-bound frame carries the coordinator's own
   correlation id, so shard-side records join to the coordinator
   statement. A shard's Err is relayed with its code but the
   coordinator's transaction state. *)
let exec_frame c ~seq sql =
  let err code text = Wire.Err { seq; code; text; txn_open = c.in_txn } in
  match exec c sql with
  | Sql.Rows { header; rows } -> Wire.Rows { seq; header; rows }
  | Sql.Affected n -> Wire.Affected { seq; n }
  | Sql.Message text -> Wire.Msg { seq; text }
  | exception (Coord_error text | Sql.Sql_error text) -> err E_sql text
  | exception (Sql_parser.Parse_error text | Ivdb_sql.Sql_lexer.Lex_error text) ->
      err E_parse text
  | exception Client.Server_error { code; text; _ } -> err code text
  | exception Client.Disconnected text -> err E_sql ("shard unreachable: " ^ text)
  | exception Client.Server_busy { retry_ticks } -> Wire.Busy { retry_ticks }

let server ?config c listener =
  Server.create_sessions ?config ~metrics:c.co.metrics ~trace:c.co.ctrace
    (fun () ->
      let s = open_session c.co in
      {
        Server.exec = exec_frame s;
        in_txn = (fun () -> s.in_txn);
        close =
          (fun () ->
            if s.in_txn then ignore (abort_txn s);
            close s);
      })
    listener

(* --- loopback cluster --------------------------------------------------- *)

let loopback_cluster ~config dbs f =
  let shards = Array.length dbs in
  Array.iteri (fun i db -> configure_shard db ~shard:i ~shards) dbs;
  let nets = Array.map (fun _ -> Transport.Loopback.create ~backlog:64 ()) dbs in
  let servers =
    Array.mapi
      (fun i net ->
        let s = Server.create ~config dbs.(i) (Transport.Loopback.listener net) in
        Server.serve s;
        s)
      nets
  in
  let r = f (Array.map Transport.Loopback.dialer nets) in
  Array.iter Server.drain servers;
  r
