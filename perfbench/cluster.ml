(* cluster-2pc: the distributed commit path. Four shards, each an engine
   behind a server on its own loopback network, and eight coordinator
   sessions sharing one metrics registry. Half the writers pin four
   inserts to one home shard; the other half read a row on a third shard
   (a read-only participant) and split their inserts over two shards.
   A tenth of the load is a fan-out view read. Statements visit shards in
   ascending order, because no detector sees a lock cycle that spans
   shards. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Server = Ivdb_server.Server
module Client = Ivdb_client.Client
module Coord = Ivdb_coord.Coord
module Sql = Ivdb_sql.Sql
module Wire = Ivdb_wire.Wire
module Value = Ivdb_relation.Value
module Metrics = Ivdb_util.Metrics
module Txn = Ivdb_txn.Txn

let shards = 4
let sessions = 8
let preload = 20_000
let txns = 6000
let groups = 20

let rows_of = function Sql.Rows { rows; _ } -> rows | _ -> []
let owner k = Coord.route_value ~shards (Value.Int k)

let run ~seed ~scale ~tr =
  let words0 = Load.live_words () in
  let setup = Refclock.start () in
  let config =
    {
      Database.default_config with
      commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
    }
  in
  let dbs =
    Array.init shards (fun i ->
        let db = Database.create ~config () in
        Coord.configure_shard db ~shard:i ~shards;
        db)
  in
  let shims = Array.init shards (fun _ -> Shim.create ~rpc_spans:true tr) in
  let zipf = Load.zipf ~n:groups ~theta:0.99 in
  let preload = max sessions (truncate (float_of_int preload *. scale)) in
  let result = ref None in
  Sched.run ~seed (fun () ->
      let servers =
        Array.mapi
          (fun i db ->
            let s =
              Server.create
                ~config:{ Server.default_config with max_inflight = 64 }
                db (Shim.listener shims.(i))
            in
            Server.serve s;
            s)
          dbs
      in
      let dialers c = Array.map (fun sh -> Shim.dialer sh c) shims in
      let admin = Coord.create ~name:"setup" (dialers (Spans.ctx ())) in
      let admin_exec s = rows_of (Coord.exec admin s) in
      List.iter
        (fun s -> ignore (admin_exec s))
        [
          "CREATE TABLE t (k INT NOT NULL, grp INT NOT NULL, qty INT NOT NULL)";
          "CREATE UNIQUE INDEX t_k ON t (k)";
          "CREATE VIEW v AS SELECT grp, COUNT(*), SUM(qty) FROM t GROUP BY grp \
           USING ESCROW";
        ];
      let prng = Load.rng ~seed ~session:(-1) in
      let values rng k =
        Printf.sprintf "(%d, %d, %d)" k (Load.draw zipf rng)
          (1 + Random.State.int rng 9)
      in
      (* preloaded keys by owner shard, for the cross-shard point reads *)
      let on_shard = Array.make shards [] in
      let batch = 250 in
      for b = 0 to (preload - 1) / batch do
        let keys =
          List.init (min batch (preload - (b * batch))) (fun j -> (b * batch) + j)
        in
        ignore
          (admin_exec
             ("INSERT INTO t VALUES "
             ^ String.concat ", " (List.map (values prng) keys)));
        List.iter (fun k -> on_shard.(owner k) <- k :: on_shard.(owner k)) keys;
        Refclock.tick setup
      done;
      let on_shard = Array.map Array.of_list on_shard in
      Refclock.stop setup;
      (* --- measured phase ------------------------------------------------- *)
      let clock = Refclock.start () in
      let l = Load.ledger clock in
      let cmetrics = Metrics.create () in
      let probe = Load.probe clock (Array.to_list (Array.map Database.metrics dbs)) in
      let cprobe = Load.probe clock [ cmetrics ] in
      let wire0 = Array.map (fun sh -> (sh.Shim.bytes, sh.frames)) shims in
      Option.iter
        (fun t ->
          Array.iter
            (fun db -> Spans.attach (Database.trace db) (Spans.engine_sink t))
            dbs)
        tr;
      let coords = ref [] and bad = ref 0 in
      let per_session = max 1 (truncate (float_of_int txns *. scale)) / sessions in
      let session i =
        let rng = Load.rng ~seed ~session:i in
        let c = Spans.ctx () in
        Option.iter (fun t -> Spans.bind t c) tr;
        (* a coordinator learns partition columns only from DDL in its
           own decision log, so each session's coordinator starts from a
           copy of the set-up coordinator's log; without it point reads
           would fan out to every shard *)
        let co =
          Coord.create ~name:(Printf.sprintf "w%d" i) ~metrics:cmetrics
            ~wal:(Ivdb_wal.Wal.crash (Coord.wal admin) cmetrics)
            (dialers c)
        in
        Option.iter
          (fun t ->
            Spans.attach (Coord.trace co) (fun r ->
                Spans.count t (Ivdb_util.Trace.event_name r.event)))
          tr;
        coords := co :: !coords;
        (* fresh keys owned by each shard: this session's residue class *)
        let next = Array.make shards (preload + i) in
        let fresh s =
          let rec go k = if owner k = s then k else go (k + sessions) in
          let k = go next.(s) in
          next.(s) <- k + sessions;
          k
        in
        let exec sql =
          l.stmts <- l.stmts + 1;
          if tr <> None then
            Spans.within tr c "sql.parse" (fun () ->
                ignore (Ivdb_sql.Sql_parser.parse sql));
          Spans.within tr c "coord.exec" (fun () -> Coord.exec co sql)
        in
        let writer () =
          let t0 = Sched.now () in
          let home = Random.State.int rng shards in
          let cross = Load.chance rng 0.5 in
          let inserts =
            List.init 4 (fun j ->
                let s = if cross && j >= 2 then (home + 1) mod shards else home in
                (s, "INSERT INTO t VALUES " ^ values rng (fresh s)))
          in
          let read =
            if cross then begin
              let s = (home + 2) mod shards in
              let keys = on_shard.(s) in
              let k = keys.(Random.State.int rng (Array.length keys)) in
              [ (s, Printf.sprintf "SELECT * FROM t WHERE k = %d" k) ]
            end
            else []
          in
          let stmts =
            List.stable_sort (fun (a, _) (b, _) -> compare a b) (read @ inserts)
          in
          let rollback () = if Coord.in_transaction co then ignore (exec "ROLLBACK") in
          let attempt () =
            match
              ignore (exec "BEGIN");
              List.iter
                (fun (_, sql) ->
                  match exec sql with
                  | Sql.Rows { rows = [ _ ]; _ } | Sql.Affected 1 -> ()
                  | _ -> incr bad)
                stmts;
              let b = Sched.now () in
              ignore (exec "COMMIT");
              Sample.add_int l.coord_commits (Sched.now () - b)
            with
            | () -> Ok ()
            | exception Client.Server_error { code = Wire.E_deadlock; _ } ->
                rollback ();
                Error `Retry
            (* a No vote, a dead shard or any other error *)
            | exception (Coord.Coord_error _ | Client.Server_error _) ->
                rollback ();
                Error `Fail
          in
          let ok =
            Spans.transaction tr c "txn.write" (fun () ->
                Load.retrying ~on_retry:(fun () -> l.retries <- l.retries + 1) attempt)
            <> None
          in
          Load.finish l ~read:false ~t0 ok
        in
        let reader () =
          let t0 = Sched.now () in
          let ok =
            match
              Spans.transaction tr c "txn.read" (fun () ->
                  rows_of (exec "SELECT * FROM v"))
            with
            | rs ->
                if rs = [] then incr bad;
                true
            | exception (Coord.Coord_error _ | Client.Server_error _) -> false
          in
          Load.finish l ~read:true ~t0 ok
        in
        for _ = 1 to per_session do
          if Load.chance rng 0.1 then reader () else writer ();
          Sched.yield ()
        done
      in
      let t0 = Sched.now () in
      Load.sessions sessions session;
      let ticks = Sched.now () - t0 in
      let t = Load.totals probe and ct = Load.totals cprobe in
      Array.iteri
        (fun i sh ->
          let b0, f0 = wire0.(i) in
          Load.add_count t "wire.bytes" (sh.Shim.bytes - b0);
          Load.add_count t "wire.frames" (sh.frames - f0))
        shims;
      (* the coordinator registry's counters and histograms, its decision
         log's forces kept apart from the shards' own *)
      Hashtbl.iter
        (fun k v ->
          let k = if String.starts_with ~prefix:"coord." k then k else "coord." ^ k in
          Load.add_count t k v)
        ct.counters;
      Hashtbl.iter (fun k v -> Hashtbl.replace t.hists k v) ct.hists;
      List.iter
        (fun co ->
          Load.add_count t "coord.prepares" (Coord.stats co).Coord.prepares_sent)
        !coords;
      Refclock.stop clock;
      let live_words = Load.live_words () - words0 in
      Option.iter
        (fun _ -> Array.iter (fun db -> Spans.detach (Database.trace db)) dbs)
        tr;
      (* --- checks ------------------------------------------------------------- *)
      Load.check l "statements returned the rows asked for" (!bad = 0);
      Load.check l "no shard holds an in-doubt transaction"
        (Array.for_all (fun db -> Database.indoubt_count db = 0) dbs);
      Load.check l "view equals a fold of the base rows across shards"
        (Load.view_matches_base ~base:(admin_exec "SELECT * FROM t")
           ~view:(admin_exec "SELECT * FROM v"));
      List.iter Coord.close !coords;
      Coord.close admin;
      Array.iter Server.drain servers;
      result := Some { Load.setup; l; ticks; t; live_words });
  Option.get !result
