(* The two in-process workloads: sessions are fibers calling the engine
   API (Database / Table / Query) directly, with no SQL or wire layer.

   escrow-write: the paper's core case. Eight writer sessions insert and
     delete rows whose views share a few Zipf-hot groups, so only escrow
     locking lets them run concurrently. Everything fits in the buffer
     pool; group commit and periodic sharp checkpoints are on.
   view-read: locking readers (a key-range view lookup plus two unique
     index probes) against the same writers, with a working set several
     times the buffer pool, so reader S locks meet writer E locks and
     lookups go to the simulated disk. *)

module Sched = Ivdb_sched.Sched
module Database = Ivdb.Database
module Table = Ivdb.Table
module Query = Ivdb.Query
module Value = Ivdb_relation.Value
module Schema = Ivdb_relation.Schema
module Expr = Ivdb_relation.Expr
module View_def = Ivdb_core.View_def
module Txn = Ivdb_txn.Txn

type shape = {
  sessions : int;
  txns : int;  (** total over all sessions, at scale 1 *)
  read_frac : float;
  preload : int;
  views : int;
  pool : int;  (** buffer pool frames *)
  unique_id : bool;  (** unique index on [id], probed by readers *)
  checkpoint_every : int option;  (** writer commits between sharp checkpoints *)
  crash_check : bool;
}

let escrow_write =
  {
    sessions = 8;
    txns = 5_000;
    read_frac = 0.;
    preload = 20_000;
    views = 2;
    pool = 4096;
    unique_id = false;
    checkpoint_every = Some 1000;
    crash_check = true;
  }

let view_read =
  {
    sessions = 16;
    txns = 8_000;
    read_frac = 0.7;
    preload = 20_000;
    views = 1;
    pool = 64;
    unique_id = true;
    checkpoint_every = None;
    crash_check = false;
  }

let groups = 20
let ops_per_writer = 4
let delete_frac = 0.1

let cols =
  [
    { Schema.name = "id"; ty = Value.TInt; nullable = false };
    { Schema.name = "product"; ty = Value.TInt; nullable = false };
    { Schema.name = "qty"; ty = Value.TInt; nullable = false };
    { Schema.name = "amount"; ty = Value.TFloat; nullable = false };
  ]

let row rng zipf id =
  [|
    Value.Int id;
    Value.Int (Load.draw zipf rng);
    Value.Int (1 + Random.State.int rng 10);
    Value.Float (Random.State.float rng 100.);
  |]

let scaled scale n = max 1 (truncate (float_of_int n *. scale))

(* V1: every view equals its recomputation from the base table. Float
   sums are added in different orders, so they compare with a relative
   tolerance. *)
let views_consistent db names =
  let close a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Float.abs (x -. y)
        <= 1e-9 *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
    | _ -> Value.equal a b
  in
  List.for_all
    (fun name ->
      let v = Database.view db name in
      let expect = Query.on_demand_aggregate db None (Database.view_def db v) in
      let actual = List.of_seq (Query.view_scan db None v Query.Dirty) in
      List.length expect = List.length actual
      && List.for_all2
           (fun (g1, r1) (g2, r2) ->
             Ivdb_relation.Row.equal g1 g2
             && Array.length r1 = Array.length r2
             && Array.for_all2 close r1 r2)
           expect actual)
    names

let view_name i = Printf.sprintf "sales_by_product_%d" i

let run shape ~seed ~scale ~tr =
  (* --- set-up: schema and preload ------------------------------------- *)
  let words0 = Load.live_words () in
  let setup = Refclock.start () in
  let config =
    {
      Database.default_config with
      pool_capacity = shape.pool;
      txn_retries = Load.max_retries;
      commit_mode = Txn.Group { max_batch = 32; max_wait_ticks = 50 };
    }
  in
  let db = Database.create ~config () in
  let sales = Database.create_table db ~name:"sales" ~cols in
  if shape.unique_id then
    Database.create_index db ~unique:true sales ~col:"id" ~name:"sales_id";
  let schema = Database.schema db sales in
  let names = List.init shape.views view_name in
  let views =
    List.map
      (fun name ->
        Database.create_view db ~name ~group_by:[ "product" ]
          ~aggs:
            [
              View_def.Count_star;
              View_def.Sum (Expr.col schema "qty");
              View_def.Sum (Expr.col schema "amount");
            ]
          ~source:(Database.From (sales, None))
          ~strategy:Ivdb_core.Maintain.Escrow ())
      names
  in
  let zipf = Load.zipf ~n:groups ~theta:0.99 in
  let preload = scaled scale shape.preload in
  let prng = Load.rng ~seed ~session:(-1) in
  let batch = 100 in
  (* preloaded rows are never deleted: a lower bound for every group *)
  let preloaded = Array.make groups 0 in
  for b = 0 to (preload - 1) / batch do
    Database.transact db (fun tx ->
        for id = (b * batch) + 1 to min preload ((b + 1) * batch) do
          let r = row prng zipf id in
          let g = Value.to_int r.(1) in
          preloaded.(g) <- preloaded.(g) + 1;
          ignore (Table.insert db tx sales r)
        done);
    Refclock.tick setup
  done;
  Refclock.stop setup;
  (* --- measured phase ----------------------------------------------------- *)
  let clock = Refclock.start () in
  let l = Load.ledger clock in
  let probe = Load.probe clock [ Database.metrics db ] in
  Option.iter
    (fun t -> Spans.attach (Database.trace db) (Spans.engine_sink t))
    tr;
  let v0 = List.hd views in
  let next_id = ref preload in
  let acked_inserts = Hashtbl.create 4096 and acked_deletes = Hashtbl.create 512 in
  let bad_reads = ref 0 in
  let per_session = scaled scale shape.txns / shape.sessions in
  let call c name f =
    l.stmts <- l.stmts + 1;
    Spans.within tr c name f
  in
  let session i =
    let rng = Load.rng ~seed ~session:i in
    let c = Spans.ctx () in
    Option.iter (fun t -> Spans.bind t c) tr;
    (* this session's committed rows, for its deletes *)
    let own = ref [||] and n_own = ref 0 in
    let push x =
      if !n_own = Array.length !own then begin
        let a = Array.make (max 64 (2 * !n_own)) x in
        Array.blit !own 0 a 0 !n_own;
        own := a
      end;
      !own.(!n_own) <- x;
      incr n_own
    in
    let take () =
      let k = Random.State.int rng !n_own in
      let x = !own.(k) in
      decr n_own;
      !own.(k) <- !own.(!n_own);
      x
    in
    let view_lookup tx g =
      match
        call c "db.view_lookup" (fun () ->
            Query.view_lookup db (Some tx) v0 [| Value.Int g |])
      with
      | Some r when Value.to_int r.(0) >= preloaded.(g) -> ()
      | None when preloaded.(g) = 0 -> ()
      | _ -> incr bad_reads
    in
    let reader () =
      let t0 = Sched.now () in
      let ok =
        Spans.transaction tr c "txn.read" (fun () ->
            Spans.within tr c "db.transact" (fun () ->
                Result.is_ok
                  (Database.transact_result db (fun tx ->
                       view_lookup tx (Load.draw zipf rng);
                       Sched.yield ();
                       for _ = 1 to 2 do
                         let id = 1 + Random.State.int rng preload in
                         (match
                            call c "db.find" (fun () ->
                                Table.find db (Some tx) sales ~col:"id" (Value.Int id))
                          with
                         | [ (_, r) ] when Value.equal r.(0) (Value.Int id) -> ()
                         | _ -> incr bad_reads);
                         Sched.yield ()
                       done))))
      in
      Load.finish l ~read:true ~t0 ok
    in
    let writer () =
      let t0 = Sched.now () in
      let plan =
        List.init ops_per_writer (fun _ ->
            if !n_own > 0 && Load.chance rng delete_frac then `Delete (take ())
            else begin
              incr next_id;
              `Insert (!next_id, row rng zipf !next_id)
            end)
      in
      let inserted = ref [] and body_end = ref 0 in
      let r =
        Spans.transaction tr c "txn.write" (fun () ->
            Spans.within tr c "db.transact" (fun () ->
                Database.transact_result db (fun tx ->
                    inserted := [];
                    List.iter
                      (fun op ->
                        (match op with
                        | `Insert (id, r) ->
                            let rid =
                              call c "db.insert" (fun () ->
                                  Table.insert db tx sales r)
                            in
                            inserted := (rid, id) :: !inserted
                        | `Delete (rid, _) ->
                            call c "db.delete" (fun () ->
                                Table.delete db tx sales rid));
                        (* a statement boundary: let other sessions in while
                           this transaction holds its locks *)
                        Sched.yield ())
                      plan;
                    body_end := Sched.now ())))
      in
      (match r with
      | Ok () ->
          Sample.add_int l.db_commits (Sched.now () - !body_end);
          List.iter
            (fun ((_, id) as x) ->
              push x;
              Hashtbl.replace acked_inserts id ())
            !inserted;
          List.iter
            (function
              | `Delete (_, id) -> Hashtbl.replace acked_deletes id ()
              | `Insert _ -> ())
            plan
      | Error _ ->
          List.iter (function `Delete x -> push x | `Insert _ -> ()) plan);
      Load.finish l ~read:false ~t0 (Result.is_ok r);
      (* counted in writer commits, so the last checkpoint falls at the
         same distance from the end of the round on every seed *)
      match shape.checkpoint_every with
      | Some n when Result.is_ok r && Sample.length l.writes mod n = 0 ->
          Database.checkpoint db
      | _ -> ()
    in
    for _ = 1 to per_session do
      if Load.chance rng shape.read_frac then reader () else writer ();
      Sched.yield ()
    done
  in
  let ticks =
    Sched.run ~seed (fun () ->
        let t0 = Sched.now () in
        Load.sessions shape.sessions session;
        Sched.now () - t0)
  in
  let t = Load.totals probe in
  Refclock.stop clock;
  let live_words = Load.live_words () - words0 in
  Option.iter (fun _ -> Spans.detach (Database.trace db)) tr;
  (* --- checks --------------------------------------------------------------- *)
  if shape.read_frac > 0. then
    Load.check l "reads returned the rows and groups asked for" (!bad_reads = 0);
  if shape.crash_check then begin
    let db = Database.crash db in
    let sales = Database.table db "sales" in
    let live = Hashtbl.create (preload * 2) in
    Seq.iter
      (fun r -> Hashtbl.replace live (Value.to_int r.(0)) ())
      (Query.table_scan db None sales Query.Dirty);
    let expected id =
      (id <= preload || Hashtbl.mem acked_inserts id)
      && not (Hashtbl.mem acked_deletes id)
    in
    let n_expected =
      preload + Hashtbl.length acked_inserts - Hashtbl.length acked_deletes
    in
    Load.check l "after crash: acknowledged inserts present, deletes gone"
      (Hashtbl.length live = n_expected
      && Hashtbl.fold (fun id () ok -> ok && expected id) live true);
    Load.check l "after crash: views equal their recomputation (V1)"
      (views_consistent db names)
  end
  else
    Load.check l "views equal their recomputation (V1)"
      (views_consistent db names);
  { Load.setup; l; ticks; t; live_words }
