(* The load generator's shared parts: seeded input draws, closed-loop
   sessions, the retry policy, and the ledger a round fills in.

   Inputs come from the stdlib's [Random.State], seeded per session, and
   a Zipf sampler of the benchmark's own: the engine's RNG and Zipf
   modules are code under test and may change. *)

module Sched = Ivdb_sched.Sched
module Metrics = Ivdb_util.Metrics

let rng ~seed ~session = Random.State.make [| seed; session; 0x1d5eed |]
let chance rng p = Random.State.float rng 1.0 < p

(* Zipf over [0, n) with skew [theta], by inverse CDF. *)
type zipf = float array

let zipf ~n ~theta : zipf =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw (cdf : zipf) rng =
  let u = Random.State.float rng 1.0 in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length cdf - 1)

(* Spawn [n] session fibers and block the caller until all return. *)
let sessions n f =
  let remaining = ref n and wake_main = ref ignore in
  for i = 0 to n - 1 do
    ignore
      (Sched.spawn (fun () ->
           Fun.protect
             ~finally:(fun () ->
               decr remaining;
               if !remaining = 0 then !wake_main ())
             (fun () -> f i)))
  done;
  if !remaining > 0 then Sched.suspend (fun wake _ -> wake_main := wake)

(* The retry policy: a deadlock victim is retried up to [max_retries]
   times, after a backoff (in scheduler yields) that doubles from one to
   at most 256. The in-process workloads hand the same limit to the
   engine's own retry loop. A transaction that still fails counts as
   failed.
   [attempt ()] returns [Ok v], [Error `Retry] or [Error `Fail]. *)
let max_retries = 10

let retrying ~on_retry attempt =
  let rec go tries delay =
    match attempt () with
    | Ok v -> Some v
    | Error `Fail -> None
    | Error `Retry when tries >= max_retries -> None
    | Error `Retry ->
        on_retry ();
        for _ = 1 to delay do
          Sched.yield ()
        done;
        go (tries + 1) (min (2 * delay) 256)
  in
  go 0 1

(* --- the ledger of one round -------------------------------------------- *)

type ledger = {
  clock : Refclock.t;  (** the measured phase *)
  mutable attempted : int;
  mutable committed : int;
  mutable failed : int;
  mutable retries : int;  (** the benchmark's retries; the engine counts its own *)
  mutable stmts : int;
  writes : Sample.t;  (** writer transaction ticks, first statement to commit ack *)
  reads : Sample.t;  (** reader transaction or read statement ticks *)
  db_commits : Sample.t;  (** ticks from a transaction body's return to [transact]'s *)
  coord_commits : Sample.t;  (** ticks of a coordinator COMMIT statement *)
  mutable checks : (string * bool) list;  (** newest first *)
}

let ledger clock =
  {
    clock;
    attempted = 0;
    committed = 0;
    failed = 0;
    retries = 0;
    stmts = 0;
    writes = Sample.create ();
    reads = Sample.create ();
    db_commits = Sample.create ();
    coord_commits = Sample.create ();
    checks = [];
  }

let check l name ok = l.checks <- (name, ok) :: l.checks

(* Record one finished transaction that started at tick [t0]. *)
let finish l ~read ~t0 ok =
  l.attempted <- l.attempted + 1;
  if ok then begin
    l.committed <- l.committed + 1;
    Sample.add_int (if read then l.reads else l.writes) (Sched.now () - t0);
    Refclock.tick l.clock
  end
  else l.failed <- l.failed + 1

(* --- counters read from outside ------------------------------------------ *)

(* Counter and histogram registries diffed over the measured phase and
   summed across engines (a cluster has one registry per shard). *)
type probe = {
  pclock : Refclock.t;
  kernel_words0 : float;
  regs : Metrics.t list;
  counters0 : (string * int) list list;
  hists0 : (string * (int * int) list) list list;
  gc0 : Gc.stat;
  words0 : float;
}

let probe clock regs =
  {
    pclock = clock;
    kernel_words0 = clock.Refclock.kernel_words;
    regs;
    counters0 = List.map Metrics.snapshot regs;
    hists0 = List.map Metrics.hists regs;
    gc0 = Gc.quick_stat ();
    words0 = Refclock.alloc_words ();
  }

let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* The sum of (key, count) lists. *)
let merge_counts lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    lists;
  tbl

(* Add (value, count) cells to the histogram [name]. *)
let add_hist hists name cells =
  let prev = Option.fold ~none:[] ~some:to_list (Hashtbl.find_opt hists name) in
  Hashtbl.replace hists name (merge_counts [ prev; cells ])

type totals = {
  counters : (string, int) Hashtbl.t;
  hists : (string, (int, int) Hashtbl.t) Hashtbl.t;
  alloc_words : float;
  major_gcs : int;
}

let totals p =
  let gc = Gc.quick_stat () in
  (* the reference kernel's own allocation is not the engine's *)
  let words =
    Refclock.alloc_words () -. p.words0
    -. (p.pclock.Refclock.kernel_words -. p.kernel_words0)
  in
  let counters =
    merge_counts
      (List.map2
         (fun r before -> Metrics.diff ~before ~after:(Metrics.snapshot r))
         p.regs p.counters0)
  in
  let hists = Hashtbl.create 16 in
  List.iter2
    (fun r before ->
      List.iter
        (fun (name, after) ->
          let before = Option.value ~default:[] (List.assoc_opt name before) in
          add_hist hists name (Metrics.hist_diff ~before ~after))
        (Metrics.hists r))
    p.regs p.hists0;
  {
    counters;
    hists;
    alloc_words = words;
    major_gcs = gc.Gc.major_collections - p.gc0.Gc.major_collections;
  }

let count t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

let add_count t name v =
  Hashtbl.replace t.counters name (v + count t name)

let hist t name =
  let s = Sample.create () in
  (match Hashtbl.find_opt t.hists name with
  | None -> ()
  | Some cells ->
      Hashtbl.fold (fun v n acc -> (v, n) :: acc) cells []
      |> List.sort compare
      |> List.iter (fun (v, n) ->
             for _ = 1 to n do
               Sample.add_int s v
             done));
  s

(* Words live after a full major collection. A round takes the growth
   from its start to the end of its measured phase: what the system it
   built keeps in memory, independent of when the collector last ran,
   which the peak heap size is not. *)
let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

(* V1 checked from outside: a COUNT/SUM view's rows [group; count; sum]
   against a fold of the base rows [key; group; qty; ...]. *)
let view_matches_base ~base ~view =
  let module Value = Ivdb_relation.Value in
  let fold = Hashtbl.create 32 in
  List.iter
    (fun (r : Ivdb_relation.Row.t) ->
      let g = Value.to_int r.(1) in
      let n, q = Option.value ~default:(0, 0) (Hashtbl.find_opt fold g) in
      Hashtbl.replace fold g (n + 1, q + Value.to_int r.(2)))
    base;
  List.length view = Hashtbl.length fold
  && List.for_all
       (fun (r : Ivdb_relation.Row.t) ->
         Hashtbl.find_opt fold (Value.to_int r.(0))
         = Some (Value.to_int r.(1), Value.to_int r.(2)))
       view

(* --- what a round hands back --------------------------------------------- *)

type round = {
  setup : Refclock.t;
  l : ledger;
  ticks : int;  (** simulated ticks of the measured phase *)
  t : totals;
  live_words : int;  (** growth of the live heap over the round *)
}

(* Rounds on different inputs taken together: their transactions, ticks
   and counts added up and their samples joined, as if one round had
   done all their work. Wall clocks and heap sizes are not additive and
   stay per round. *)
let pool rounds =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  let joined f = Sample.concat (List.map f rounds) in
  let l =
    {
      (ledger (List.hd rounds).l.clock) with
      attempted = sum (fun r -> r.l.attempted);
      committed = sum (fun r -> r.l.committed);
      failed = sum (fun r -> r.l.failed);
      retries = sum (fun r -> r.l.retries);
      stmts = sum (fun r -> r.l.stmts);
      writes = joined (fun r -> r.l.writes);
      reads = joined (fun r -> r.l.reads);
      db_commits = joined (fun r -> r.l.db_commits);
      coord_commits = joined (fun r -> r.l.coord_commits);
    }
  in
  let hists = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.iter (fun name cells -> add_hist hists name (to_list cells)) r.t.hists)
    rounds;
  let t =
    {
      counters = merge_counts (List.map (fun r -> to_list r.t.counters) rounds);
      hists;
      alloc_words = List.fold_left (fun a r -> a +. r.t.alloc_words) 0. rounds;
      major_gcs = sum (fun r -> r.t.major_gcs);
    }
  in
  { (List.hd rounds) with l; ticks = sum (fun r -> r.ticks); t }
