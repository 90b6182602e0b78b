module Rng = Ivdb_util.Rng
module Zipf = Ivdb_util.Zipf
module Metrics = Ivdb_util.Metrics
module Sched = Ivdb_sched.Sched
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Maintain = Ivdb_core.Maintain
module Txn = Ivdb_txn.Txn
module Wal = Ivdb_wal.Wal

type reader_locking = Key_range | Coarse_table | Snapshot

type spec = {
  seed : int;
  n_groups : int;
  theta : float;
  mpl : int;
  txns_per_worker : int;
  ops_per_txn : int;
  delete_fraction : float;
  read_fraction : float;
  reader_scan : bool;
  reader_locking : reader_locking;
  strategy : Maintain.strategy;
  create_mode : Maintain.create_mode;
  n_views : int;
  initial_rows : int;
  gc_every : int option;
  checkpoint_every : int option;
  stats_interval : int option;
  config : Database.config;
}

let default =
  {
    seed = 42;
    n_groups = 20;
    theta = 0.99;
    mpl = 8;
    txns_per_worker = 50;
    ops_per_txn = 4;
    delete_fraction = 0.1;
    read_fraction = 0.;
    reader_scan = false;
    reader_locking = Key_range;
    strategy = Maintain.Escrow;
    create_mode = Maintain.System_txn;
    n_views = 1;
    initial_rows = 200;
    gc_every = None;
    checkpoint_every = None;
    stats_interval = None;
    config = { Database.default_config with read_cost = 0; write_cost = 0 };
  }

type result = {
  committed : int;
  crashed : bool;
  committed_readers : int;
  given_up : int;
  ticks : int;
  throughput : float;
  mean_latency : float;
  p95_latency : float;
  mean_batch : float;
  window : Metrics.window;
}

let sales_cols =
  [
    { Schema.name = "id"; ty = Value.TInt; nullable = false };
    { Schema.name = "product"; ty = Value.TInt; nullable = false };
    { Schema.name = "qty"; ty = Value.TInt; nullable = false };
    { Schema.name = "amount"; ty = Value.TFloat; nullable = false };
  ]

let sales_row ~id ~product ~qty ~amount =
  [| Value.Int id; Value.Int product; Value.Int qty; Value.Float amount |]

let setup spec =
  let db = Database.create ~config:spec.config () in
  let sales = Database.create_table db ~name:"sales" ~cols:sales_cols in
  let schema = Database.schema db sales in
  let views =
    List.init spec.n_views (fun i ->
        Database.create_view db ~create_mode:spec.create_mode
          ~name:(Printf.sprintf "sales_by_product_%d" i)
          ~group_by:[ "product" ]
          ~aggs:
            [
              View_def.Count_star;
              View_def.Sum (Expr.col schema "qty");
              View_def.Sum (Expr.col schema "amount");
            ]
          ~source:(Database.From (sales, None))
          ~strategy:spec.strategy ())
  in
  (* preload outside the measured window *)
  let rng = Rng.create spec.seed in
  let zipf = Zipf.create ~n:spec.n_groups ~theta:spec.theta in
  for i = 1 to spec.initial_rows do
    Database.transact db (fun tx ->
        ignore
          (Table.insert db tx sales
             (sales_row ~id:(-i) ~product:(Zipf.draw zipf rng)
                ~qty:(1 + Rng.int rng 10)
                ~amount:(Rng.float rng *. 100.))))
  done;
  (db, sales, views)

(* --- live stats reporting ---------------------------------------------------

   A periodic one-line summary of the last interval: a registry window
   rolled forward each interval — the same data sys.metrics exposes — so
   the reporter works identically for in-process fibers and network
   clients. Prints a line every [interval] ticks while [running ()]
   holds, and a final line for any partial last interval. *)
let spawn_reporter m ~interval ~running =
  ignore
    (Sched.spawn (fun () ->
         let mark = ref (Metrics.capture m) and since = ref (Sched.now ()) in
         let report () =
           let now = Sched.now () and here = Metrics.capture m in
           let w = Metrics.window_diff ~before:!mark ~after:here in
           let dticks = max 1 (now - !since) in
           let commits = Metrics.window_get w "txn.commit" in
           mark := here;
           since := now;
           Printf.printf
             "[stats] tick=%d commits=%d txn/ktick=%.1f commit_p95=%d \
              lock_waits=%d wait_p95=%d deadlocks=%d\n%!"
             now commits
             (float_of_int commits *. 1000. /. float_of_int dticks)
             (Metrics.percentile_cells (Metrics.window_cells w "txn.commit_ticks") 95.)
             (Metrics.window_get w "lock.wait")
             (Metrics.percentile_cells (Metrics.window_cells w "lock.wait_ticks") 95.)
             (Metrics.window_get w "lock.deadlock")
         in
         let rec loop () =
           if running () then begin
             Sched.yield ();
             if Sched.now () - !since >= interval then report ();
             loop ()
           end
           else if Sched.now () > !since then report ()
         in
         loop ()))

(* --- the closed loop ---------------------------------------------------------- *)

type client = { txn : reader:bool -> bool; close : unit -> unit }

(* The loop owns the bookkeeping of the measured window: the registry is
   captured before the run and diffed after it (robust to counters first
   registered mid-run, e.g. [server.*]), and every commit latency goes
   into [txn.commit_ticks], which the live reporter reads too. *)
let closed_loop spec metrics ~on_commit body =
  let before = Metrics.capture metrics in
  let commit_hist = Metrics.hist metrics "txn.commit_ticks" in
  let committed = ref 0 and readers = ref 0 and given_up = ref 0 in
  let start_ticks = ref 0 and end_ticks = ref 0 in
  let crashed = ref false in
  let start open_client =
    let wait, running =
      Sched.spawn_group spec.mpl (fun w ->
          let rng = Rng.create ((spec.seed * 7919) + w) in
          let zipf = Zipf.create ~n:spec.n_groups ~theta:spec.theta in
          match open_client w rng zipf with
          | None ->
              (* never connected: every transaction counts as abandoned *)
              given_up := !given_up + spec.txns_per_worker
          | Some c ->
              for _ = 1 to spec.txns_per_worker do
                let reader =
                  Rng.float rng < spec.read_fraction && spec.n_views > 0
                in
                let t_begin = Sched.now () in
                if c.txn ~reader then begin
                  incr committed;
                  if reader then incr readers;
                  (* a crash ends the run with no later reading of the
                     clock, so each commit marks how far the run got *)
                  end_ticks := Sched.now ();
                  Metrics.record commit_hist (!end_ticks - t_begin);
                  on_commit !committed
                end
                else incr given_up;
                Sched.yield ()
              done;
              c.close ())
    in
    let wait () =
      (match spec.stats_interval with
      | Some n when n > 0 -> spawn_reporter metrics ~interval:n ~running
      | Some _ | None -> ());
      wait ()
    in
    (wait, running)
  in
  (try
     Sched.run ~seed:spec.seed (fun () ->
         start_ticks := Sched.now ();
         body start;
         end_ticks := Sched.now ())
   with Ivdb_storage.Fault.Crash_point _ ->
     (* an injected crash point fired: the whole run stopped mid-step, as a
        power loss would. The caller recovers with [Database.crash]. *)
     crashed := true);
  let window = Metrics.window_diff ~before ~after:(Metrics.capture metrics) in
  let ticks = max 1 (!end_ticks - !start_ticks) in
  let latency = Metrics.window_cells window "txn.commit_ticks" in
  {
    committed = !committed;
    crashed = !crashed;
    committed_readers = !readers;
    given_up = !given_up;
    ticks;
    throughput = float_of_int !committed *. 1000. /. float_of_int ticks;
    mean_latency = Metrics.cells_mean latency;
    p95_latency = float_of_int (Metrics.percentile_cells latency 95.);
    mean_batch = Metrics.cells_mean (Metrics.window_cells window "commit.batch");
    window;
  }

(* The engine shape: each worker calls the database directly. *)
let engine_client db sales views spec next_id rng zipf =
  let my_rows = ref [] in
  let read_view tx mode v =
    if spec.reader_scan then begin
      Seq.iter ignore (Query.view_scan db tx v mode);
      Sched.yield ()
    end
    else
      for _ = 1 to 3 do
        ignore (Query.view_lookup db tx v [| Value.Int (Zipf.draw zipf rng) |]);
        Sched.yield ()
      done
  in
  let write tx =
    for _ = 1 to spec.ops_per_txn do
      let do_delete = Rng.float rng < spec.delete_fraction && !my_rows <> [] in
      (if do_delete then begin
         match !my_rows with
         | rid :: rest ->
             my_rows := rest;
             (try Table.delete db tx sales rid with Not_found -> ())
         | [] -> ()
       end
       else begin
         incr next_id;
         let rid =
           Table.insert db tx sales
             (sales_row ~id:!next_id ~product:(Zipf.draw zipf rng)
                ~qty:(1 + Rng.int rng 10)
                ~amount:(Rng.float rng *. 100.))
         in
         my_rows := rid :: !my_rows
       end);
      (* yield at every statement boundary so lock lifetimes of concurrent
         transactions overlap, as they would under preemptive threads *)
      Sched.yield ()
    done
  in
  let txn ~reader =
    match
      if not reader then Database.transact db write
      else
        let v = List.hd views in
        match spec.reader_locking with
        | Snapshot ->
            (* lock-free MVCC reader: same statements, no Lock_mgr or WAL
               traffic at all *)
            Database.transact db ~read_only:true (fun tx ->
                read_view (Some tx) Query.Serializable v)
        | Coarse_table ->
            Database.transact db (fun tx ->
                Txn.lock (Database.mgr db) tx
                  (Ivdb_lock.Lock_name.Table (Database.Internal.view_id v))
                  Ivdb_lock.Lock_mode.S;
                read_view None Query.Dirty v)
        | Key_range ->
            Database.transact db (fun tx ->
                read_view (Some tx) Query.Serializable v)
    with
    | () -> true
    | exception Txn.Conflict _ -> false
  in
  { txn; close = ignore }

(* The [on_commit] of the engine's drivers: [gc_every] and
   [checkpoint_every] count the run's commits. *)
let maintain db spec committed =
  (match spec.gc_every with
  | Some n when committed mod n = 0 -> ignore (Database.gc db)
  | Some _ | None -> ());
  match spec.checkpoint_every with
  | Some n when committed mod n = 0 -> Database.checkpoint db
  | Some _ | None -> ()

let run_on db sales views spec =
  let next_id = ref 0 in
  closed_loop spec (Database.metrics db) ~on_commit:(maintain db spec) (fun start ->
      let wait, _running =
        start (fun _ rng zipf ->
            Some (engine_client db sales views spec next_id rng zipf))
      in
      wait ())

let run spec =
  let db, sales, views = setup spec in
  run_on db sales views spec

(* --- a replicated primary crashed mid-run --------------------------------- *)

let ship_wal ?(batch = 64) ?upto wal follower =
  let upto = match upto with Some u -> u | None -> Wal.flushed_lsn wal in
  let shipped = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let from = Database.replicated_lsn follower + 1 in
    let hi = min upto (from + batch - 1) in
    if hi < from then continue_ := false
    else begin
      let bytes = Wal.serialize_range wal ~from ~upto:hi in
      let records = Wal.decode_frames ~first_lsn:from bytes in
      if List.length records <> hi - from + 1 then
        failwith (Printf.sprintf "ship_wal: batch [%d,%d] decoded short" from hi);
      Database.apply_replicated follower records;
      shipped := !shipped + List.length records
    end
  done;
  !shipped

let run_replicated_until_crash spec fcfg =
  let db, sales, _views = setup spec in
  let f = Database.create_follower ~config:spec.config () in
  let wal = Database.wal db in
  Wal.set_retain_floor wal (Some 1);
  (* installed even for no_faults: a counting run needs forces_seen *)
  Database.install_fault db fcfg;
  (* an insert-only writer with its own RNG: the loop's draws stay off the
     rows it writes *)
  let client w _ _ =
    let rng = Rng.create ((spec.seed * 131) + w) in
    let next = ref (1000 * w) in
    let write tx =
      for _ = 1 to spec.ops_per_txn do
        incr next;
        ignore
          (Table.insert db tx sales
             [|
               Value.Int !next;
               Value.Int (1 + Rng.int rng 5);
               Value.Int (1 + Rng.int rng 10);
               Value.Float 1.;
             |]);
        Sched.yield ()
      done
    in
    let txn ~reader:_ =
      match Database.transact db write with
      | () -> true
      | exception Txn.Conflict _ -> false
    in
    Some { txn; close = ignore }
  in
  let r =
    closed_loop spec (Database.metrics db) ~on_commit:(maintain db spec) (fun start ->
        let running = ref (fun () -> true) in
        ignore
          (Sched.spawn (fun () ->
               while !running () do
                 ignore (ship_wal ~batch:16 wal f);
                 Wal.set_retain_floor wal (Some (Database.replicated_lsn f + 1));
                 Sched.yield ()
               done));
        let wait, workers_running = start client in
        running := workers_running;
        wait ())
  in
  (db, f, r.committed, r.crashed)

(* Incremental maintenance and the from-scratch fold add floats in different
   orders, so SUM(float) may differ in the last ulps; compare with a relative
   tolerance. *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
      Float.abs (x -. y) <= 1e-9 *. scale
  | _ -> Value.equal a b

let row_close r1 r2 =
  Array.length r1 = Array.length r2 && Array.for_all2 value_close r1 r2

let check_consistency db v =
  let def = Database.view_def db v in
  let expect = Query.on_demand_aggregate db None def in
  let actual = List.of_seq (Query.view_scan db None v Query.Dirty) in
  List.length expect = List.length actual
  && List.for_all2
       (fun (g1, r1) (g2, r2) ->
         Ivdb_relation.Row.equal g1 g2 && row_close r1 r2)
       expect actual
