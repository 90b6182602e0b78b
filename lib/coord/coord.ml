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

   Durability follows presumed abort with a forced begin record: before
   the first Prepare message the participant set is forced to the
   coordinator's own WAL (a Log_record.Prepare with the ids in the
   payload), and the decision is forced before the first Decide message.
   Recovery therefore re-delivers the logged decision for every started
   transaction and presumed-aborts the rest; participants answer
   retransmits idempotently from their dedupe tables, which is also what
   makes the coordinator's reconnect-and-resend retry safe. *)

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

(* One global transaction as sys.gtxns sees it: live entries sit in a
   table keyed by gtxn, terminal ones move to a bounded recent list.
   Pure bookkeeping — never gated, so it cannot shift the crash-sweep
   action numbering. *)
type ginfo = {
  gi_gtxn : string;
  gi_participants : int list;
  mutable gi_phase : string; (* preparing | deciding | committed | aborted *)
  mutable gi_votes : (int * string) list; (* shard -> yes / no / dead *)
  mutable gi_phase_tick : int; (* tick the current phase was entered *)
}

let recent_cap = 32

(* Per-shard health as seen from the coordinator (sys.coord_shards). *)
type shard_health = {
  mutable sh_last_contact : int; (* tick of the last successful round trip *)
  mutable sh_prepares : int;
  mutable sh_decides : int;
  mutable sh_dedupe_hits : int; (* Prepare answered from the dedupe tables *)
}

(* The coordinator proper: the decision log, the global transaction
   tables and routing metadata every session shares. *)
type coordinator = {
  cname : string;
  dialers : Transport.dialer array;
  cwal : Wal.t;
  metrics : Metrics.t;
  ctrace : Trace.t;
  mutable next_gid : int;
  (* coordinator-assigned correlation id: one per routed statement,
     stamped on every shard-bound frame that statement causes *)
  mutable next_rid : int;
  started : (string, int list) Hashtbl.t; (* gtxn -> participant shards *)
  decided : (string, bool) Hashtbl.t;
  pending : (string, int list) Hashtbl.t; (* decided, but shards still owed it *)
  live : (string, ginfo) Hashtbl.t; (* in-flight gtxns, for sys.gtxns *)
  mutable recent : ginfo list; (* newest first, capped at recent_cap *)
  health : shard_health array;
  pk_cols : (string, string) Hashtbl.t; (* table -> partition column *)
  views : (string, int) Hashtbl.t; (* view -> its GROUP BY column count *)
  (* deterministic crash injection: every 2PC protocol action (log force,
     Prepare send, Decide send) bumps the counter; reaching the armed
     value raises Fault.Crash_point before the action happens *)
  mutable actions : int;
  mutable crash_at : int option;
  mutable s_single : int;
  mutable s_cross : int;
  mutable s_aborts : int;
  mutable s_prepares : int;
  mutable s_decides : int;
  (* typed per-phase 2PC metric handles, resolved once at create *)
  m_votes_yes : Metrics.counter;
  m_votes_no : Metrics.counter;
  m_votes_dead : Metrics.counter;
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

(* --- sys.gtxns bookkeeping -------------------------------------------- *)

let gtxn_begin co ~gtxn ~participants =
  let gi =
    {
      gi_gtxn = gtxn;
      gi_participants = participants;
      gi_phase = "preparing";
      gi_votes = [];
      gi_phase_tick = Sched.now ();
    }
  in
  Hashtbl.replace co.live gtxn gi;
  gi

let gtxn_phase gi phase =
  gi.gi_phase <- phase;
  gi.gi_phase_tick <- Sched.now ()

let gtxn_vote gi shard vote = gi.gi_votes <- gi.gi_votes @ [ (shard, vote) ]

let gtxn_done co gtxn committed =
  match Hashtbl.find_opt co.live gtxn with
  | None -> ()
  | Some gi ->
      gtxn_phase gi (if committed then "committed" else "aborted");
      Hashtbl.remove co.live gtxn;
      co.recent <-
        gi :: (if List.length co.recent >= recent_cap then
                 List.filteri (fun i _ -> i < recent_cap - 1) co.recent
               else co.recent)

let scan_wal co =
  Wal.iter_stable co.cwal (fun r ->
      match r.Log_record.body with
      | Log_record.Ddl sql -> register_ddl co sql
      | Log_record.Prepare { gtxn; participants } ->
          let participants =
            try List.map int_of_string (String.split_on_char ',' participants)
            with Failure _ -> fail "corrupt participant list for %s" gtxn
          in
          Hashtbl.replace co.started gtxn participants;
          (* rebuild the sys.gtxns view of the log: started and (until a
             Decision record follows) in-doubt *)
          ignore (gtxn_begin co ~gtxn ~participants);
          (match parse_gid co.cname gtxn with
          | Some n -> co.next_gid <- max co.next_gid (n + 1)
          | None -> ())
      | Log_record.Decision { gtxn; committed } ->
          Hashtbl.replace co.decided gtxn committed;
          gtxn_done co gtxn committed
      | _ -> ())

let coordinator ?(name = "coord") ?wal ?metrics ?trace dialers =
  if Array.length dialers = 0 then invalid_arg "Coord.create: no shards";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let ctrace =
    match trace with
    | Some tr -> tr
    | None -> Trace.create ~clock:Sched.now ~fiber:Sched.self ()
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
      next_rid = 1;
      started = Hashtbl.create 32;
      decided = Hashtbl.create 32;
      pending = Hashtbl.create 8;
      live = Hashtbl.create 8;
      recent = [];
      health =
        Array.map
          (fun _ ->
            { sh_last_contact = 0; sh_prepares = 0; sh_decides = 0;
              sh_dedupe_hits = 0 })
          dialers;
      pk_cols = Hashtbl.create 8;
      views = Hashtbl.create 8;
      actions = 0;
      crash_at = None;
      s_single = 0;
      s_cross = 0;
      s_aborts = 0;
      s_prepares = 0;
      s_decides = 0;
      m_votes_yes = Metrics.counter metrics "coord.votes.yes";
      m_votes_no = Metrics.counter metrics "coord.votes.no";
      m_votes_dead = Metrics.counter metrics "coord.votes.dead_line";
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
let last_rid c = c.co.next_rid - 1
let shard_count c = Array.length c.clients
let in_transaction c = c.in_txn

let temit c ev = if Trace.enabled c.co.ctrace then Trace.emit c.co.ctrace ev
let touch c i = c.co.health.(i).sh_last_contact <- Sched.now ()

(* the in-doubt gauge tracks |pending| through a counter handle *)
let sync_indoubt c =
  Metrics.inc_by c.co.m_indoubt (Hashtbl.length c.co.pending - Metrics.value c.co.m_indoubt)

let stats c =
  {
    single_shard_commits = c.co.s_single;
    cross_shard_commits = c.co.s_cross;
    aborts = c.co.s_aborts;
    prepares_sent = c.co.s_prepares;
    decides_sent = c.co.s_decides;
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

(* One statement to one shard, stamped with the coordinator's current
   correlation id; a successful round trip refreshes the shard's
   last-contact tick. Every shard-bound statement goes through here. *)
let shard_exec c i sql =
  let r = Client.exec ~rid:c.cur_rid c.clients.(i) sql in
  touch c i;
  r

let deliver_decision ?(gated = true) c ~gtxn ~committed ~participants =
  let failed = ref [] in
  List.iter
    (fun i ->
      if gated then gate c "decide";
      temit c
        (Trace.Coord_decide { gtxn; rid = c.cur_rid; shard = i; committed });
      let send () =
        Client.decide_2pc ~rid:c.cur_rid c.clients.(i) ~gtxn ~committed
      in
      try
        (* a dead line is retried once after the client's automatic
           re-dial: the participant dedupes a Decide by gtxn *)
        (try send () with Client.Disconnected _ -> send ());
        c.co.s_decides <- c.co.s_decides + 1;
        c.co.health.(i).sh_decides <- c.co.health.(i).sh_decides + 1;
        touch c i
      with Client.Disconnected _ | Client.Server_error _ ->
        (* the decision is durable in our log; an unreachable shard stays
           in-doubt (locks held) until a re-delivery reaches it *)
        failed := i :: !failed)
    participants;
  (match !failed with
  | [] -> Hashtbl.remove c.co.pending gtxn
  | fs -> Hashtbl.replace c.co.pending gtxn (List.rev fs));
  sync_indoubt c

(* A shard that missed its decision keeps the in-doubt transaction's
   locks, blocking conflicting work there; rather than waiting for an
   operator's [recover], retry the logged outcome before the next commit.
   Ungated: re-delivery is not a protocol action of the current
   transaction, so it must not shift the crash-sweep numbering. *)
let redeliver_pending c =
  if Hashtbl.length c.co.pending > 0 then
    Hashtbl.fold (fun g ps acc -> (g, ps) :: acc) c.co.pending []
    |> List.sort compare
    |> List.iter (fun (gtxn, participants) ->
           match Hashtbl.find_opt c.co.decided gtxn with
           | Some committed ->
               Metrics.inc c.co.m_redeliver;
               deliver_decision ~gated:false c ~gtxn ~committed ~participants
           | None -> Hashtbl.remove c.co.pending gtxn)

let two_phase c ~gtxn ~participants =
  let gi = gtxn_begin c.co ~gtxn ~participants in
  gate c "log_start";
  log_force c
    (Log_record.Prepare
       {
         gtxn;
         participants = String.concat "," (List.map string_of_int participants);
       });
  Hashtbl.replace c.co.started gtxn participants;
  let prepared = ref [] in
  (* shards whose line died around a Prepare: their vote is unknown — the
     frame (or only its ack) may have been lost, so they may hold a
     prepared transaction we never heard about *)
  let suspects = ref [] in
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
        match
          (try `Vote (Client.prepare_2pc ~rid:c.cur_rid c.clients.(i) ~gtxn) with
          | Client.Server_error { text; _ } -> `No text
          | Client.Disconnected m ->
              suspects := i :: !suspects;
              `Dead m)
        with
        | `Vote v ->
            (match v with
            | `Already_decided _ ->
                c.co.health.(i).sh_dedupe_hits <- c.co.health.(i).sh_dedupe_hits + 1
            | `Prepared -> ());
            c.co.s_prepares <- c.co.s_prepares + 1;
            c.co.health.(i).sh_prepares <- c.co.health.(i).sh_prepares + 1;
            touch c i;
            Metrics.inc c.co.m_votes_yes;
            gtxn_vote gi i "yes";
            temit c (Trace.Coord_vote { gtxn; shard = i; vote = "yes" });
            prepared := i :: !prepared;
            prep rest
        | `No reason ->
            Metrics.inc c.co.m_votes_no;
            gtxn_vote gi i "no";
            temit c (Trace.Coord_vote { gtxn; shard = i; vote = "no" });
            Some (reason, c.co.m_abort_vote)
        | `Dead reason ->
            Metrics.inc c.co.m_votes_dead;
            gtxn_vote gi i "dead";
            temit c (Trace.Coord_vote { gtxn; shard = i; vote = "dead" });
            Some (reason, c.co.m_abort_dead))
  in
  let t_prep = Sched.now () in
  let outcome = prep participants in
  Metrics.record c.co.h_prepare (Sched.now () - t_prep);
  match outcome with
  | None ->
      gtxn_phase gi "deciding";
      gate c "log_decision";
      let t_force = Sched.now () in
      log_force c (Log_record.Decision { gtxn; committed = true });
      Metrics.record c.co.h_force (Sched.now () - t_force);
      temit c (Trace.Coord_decision { gtxn; committed = true });
      Hashtbl.replace c.co.decided gtxn true;
      let t_dec = Sched.now () in
      deliver_decision c ~gtxn ~committed:true ~participants;
      Metrics.record c.co.h_decide (Sched.now () - t_dec);
      gtxn_done c.co gtxn true;
      c.co.s_cross <- c.co.s_cross + 1;
      Metrics.inc c.co.m_2pc;
      Sql.Message
        (Printf.sprintf "committed (%s, %d participants)" gtxn
           (List.length participants))
  | Some (reason, abort_cause) ->
      gtxn_phase gi "deciding";
      gate c "log_decision";
      let t_force = Sched.now () in
      log_force c (Log_record.Decision { gtxn; committed = false });
      Metrics.record c.co.h_force (Sched.now () - t_force);
      temit c (Trace.Coord_decision { gtxn; committed = false });
      Hashtbl.replace c.co.decided gtxn false;
      (* prepared shards get the abort decision now, and so does every
         suspect — it may have prepared without us seeing the ack, and a
         shard that never saw the Prepare answers presumed-abort; a
         participant that never prepared still holds an ordinary session
         transaction, rolled back explicitly *)
      let informed = List.sort_uniq compare (!prepared @ !suspects) in
      let t_dec = Sched.now () in
      deliver_decision c ~gtxn ~committed:false ~participants:informed;
      Metrics.record c.co.h_decide (Sched.now () - t_dec);
      List.iter
        (fun i ->
          if not (List.mem i informed) then
            try ignore (shard_exec c i "ROLLBACK")
            with Client.Disconnected _ | Client.Server_error _ -> ())
        participants;
      gtxn_done c.co gtxn false;
      c.co.s_aborts <- c.co.s_aborts + 1;
      Metrics.inc abort_cause;
      fail "transaction %s aborted: %s" gtxn reason

let rollback_ops c ops =
  List.iter
    (fun i ->
      try ignore (shard_exec c i "ROLLBACK")
      with Client.Disconnected _ | Client.Server_error _ -> ())
    ops

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
  | _ ->
      let gtxn = Printf.sprintf "%s:%d" c.co.cname c.co.next_gid in
      c.co.next_gid <- c.co.next_gid + 1;
      two_phase c ~gtxn ~participants:(List.sort compare ops)

let abort_txn c =
  if not c.in_txn then fail "no open transaction";
  let ops = c.open_on in
  c.in_txn <- false;
  c.open_on <- [];
  c.poisoned <- false;
  rollback_ops c ops;
  Sql.Message "rolled back"

(* --- recovery --------------------------------------------------------- *)

let recover c =
  let entries =
    Hashtbl.fold (fun g ps acc -> (g, ps) :: acc) c.co.started [] |> List.sort compare
  in
  List.iter
    (fun (gtxn, participants) ->
      let committed =
        match Hashtbl.find_opt c.co.decided gtxn with
        | Some d -> d
        | None ->
            (* started but never decided: presumed abort, made explicit
               so the next recovery needn't re-derive it *)
            log_force c (Log_record.Decision { gtxn; committed = false });
            Hashtbl.replace c.co.decided gtxn false;
            false
      in
      deliver_decision c ~gtxn ~committed ~participants;
      gtxn_done c.co gtxn committed)
    entries;
  (* live entries never logged (crashed before the begin-record force):
     no shard ever heard of them, so they abort locally *)
  Hashtbl.fold
    (fun g _ acc -> if not (Hashtbl.mem c.co.started g) then g :: acc else acc)
    c.co.live []
  |> List.sort compare
  |> List.iter (fun g -> gtxn_done c.co g false);
  List.length entries

(* --- statement routing ------------------------------------------------ *)

let render_lit = function
  | A.L_int i -> string_of_int i
  | A.L_float f ->
      let s = Printf.sprintf "%.17g" f in
      if String.contains s 'e' || String.contains s 'n' then
        Printf.sprintf "%f" f
      else if String.contains s '.' then s
      else s ^ ".0"
  | A.L_string s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '\'';
      String.iter
        (fun ch ->
          if ch = '\'' then Buffer.add_string b "''" else Buffer.add_char b ch)
        s;
      Buffer.add_char b '\'';
      Buffer.contents b
  | A.L_bool b -> if b then "TRUE" else "FALSE"
  | A.L_null -> "NULL"

let render_row lits = "(" ^ String.concat ", " (List.map render_lit lits) ^ ")"

let value_of_lit = function
  | A.L_int i -> Value.Int i
  | A.L_float f -> Value.Float f
  | A.L_string s -> Value.Str s
  | A.L_bool b -> Value.Bool b
  | A.L_null -> Value.Null

let route_lit c l = route_value ~shards:(shard_count c) (value_of_lit l)

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

let all_shards c = List.init (shard_count c) Fun.id

let affected = function
  | Sql.Affected n -> n
  | Sql.Rows { rows; _ } -> List.length rows
  | Sql.Message _ -> 0

let rec conjuncts = function
  | A.Binop (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

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
        (conjuncts w)
  | _ -> None

let merge_rows (q : A.select) replies =
  let header = match replies with (h, _) :: _ -> h | [] -> [] in
  let rows = List.concat_map snd replies in
  let rows =
    match q.A.order with
    | Some { A.ob_col; ob_desc } -> (
        match List.find_index (fun h -> h = ob_col) header with
        | Some idx ->
            List.stable_sort
              (fun (a : Row.t) (b : Row.t) ->
                let cmp = Value.compare a.(idx) b.(idx) in
                if ob_desc then -cmp else cmp)
              rows
        | None -> rows)
    | None -> rows
  in
  let rows =
    match q.A.limit with
    | Some n -> List.filteri (fun i _ -> i < n) rows
    | None -> rows
  in
  Sql.Rows { header; rows }

let rows_of = function
  | Sql.Rows { header; rows } -> (header, rows)
  | _ -> fail "expected rows"

let broadcast_rows c q sql targets =
  merge_rows q
    (List.map (fun i -> rows_of (exec_shard ~kind:"broadcast" c i sql)) targets)

let is_sys_name from =
  String.length from > 4 && String.sub from 0 4 = "sys."

(* --- coordinator-resident sys.* catalogs ------------------------------ *)

let gtxns_rows c =
  let now = Sched.now () in
  let row gi =
    let undelivered =
      match Hashtbl.find_opt c.co.pending gi.gi_gtxn with
      | Some shards -> List.length shards
      | None -> 0
    in
    [|
      Value.Str gi.gi_gtxn;
      Value.Str gi.gi_phase;
      Value.Str
        (String.concat "," (List.map string_of_int gi.gi_participants));
      Value.Str
        (String.concat ","
           (List.map
              (fun (s, v) -> Printf.sprintf "%d:%s" s v)
              (List.sort compare gi.gi_votes)));
      Value.Int (now - gi.gi_phase_tick);
      Value.Int undelivered;
    |]
  in
  let live =
    Hashtbl.fold (fun _ gi acc -> gi :: acc) c.co.live []
    |> List.sort (fun a b -> compare a.gi_gtxn b.gi_gtxn)
  in
  (Sys_tables.gtxns_header, List.map row live @ List.map row c.co.recent)

let coord_shards_rows c =
  let outstanding i =
    Hashtbl.fold
      (fun _ shards acc -> if List.mem i shards then acc + 1 else acc)
      c.co.pending 0
  in
  let row i h =
    [|
      Value.Int i;
      Value.Str (Client.peer_addr c.clients.(i));
      Value.Int h.sh_last_contact;
      Value.Int h.sh_prepares;
      Value.Int h.sh_decides;
      Value.Int (outstanding i);
      Value.Int h.sh_dedupe_hits;
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
  let replies =
    List.map
      (fun i ->
        rows_of (exec_shard ~kind:"broadcast" c i ("SELECT * FROM " ^ q.A.from)))
      (all_shards c)
  in
  let header = match replies with (h, _) :: _ -> h | [] -> [] in
  Sql.select_over q
    (header, Sql.combine_view_rows ~groups header (List.concat_map snd replies))

let route_select c (q : A.select) sql =
  if is_sys_name q.A.from then (
    match coord_sys c q.A.from with
    | Some rows -> Sql.select_over q (rows ())
    | None ->
        if q.A.from = "sys.shards" then broadcast_rows c q sql (all_shards c)
        else exec_shard ~kind:"sys" c 0 sql)
  else
    match (Hashtbl.find_opt c.co.views q.A.from, pk_eq c q.A.from q.A.where) with
    | Some groups, _ -> select_view c q ~groups
    | None, Some l -> exec_shard c (route_lit c l) sql
    | None, None ->
        let grouped =
          q.A.group_by <> []
          || List.exists
               (function A.Agg_item _ -> true | A.Star | A.Col_item _ -> false)
               q.A.items
        in
        if grouped then
          fail
            "cross-shard aggregation over %s is not supported: create an \
             indexed view (the coordinator combines its shards' partial \
             rows) or pin the query with %s = <literal>"
            q.A.from
            (match Hashtbl.find_opt c.co.pk_cols q.A.from with
            | Some pk -> pk
            | None -> "<pk>")
        else broadcast_rows c q sql (all_shards c)

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
  let last = ref (Sql.Message "ok") in
  List.iter
    (fun i ->
      temit c (Trace.Coord_route { rid = c.cur_rid; shard = i; kind = "ddl" });
      last := shard_exec c i sql)
    (all_shards c);
  !last

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
  let nets =
    Array.map (fun _ -> Transport.Loopback.create ~backlog:64 ()) dbs
  in
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
