(** The synthetic order-entry workload used by the benchmark suite and the
    examples: an append-heavy sales table whose product column follows a
    Zipf distribution, with one or more grouped indexed views on top.

    This reproduces the contention structure that motivates escrow locking:
    under skew, most transactions update the aggregates of a few hot
    product groups. {!closed_loop} is the one driver every deployment
    shape runs it through — the engine here ({!run_on}), the server and
    replica in [Ivdb_client.Net_workload], the sharded cluster in
    [ivdb_workload --shards], and the crashed replicated primary of
    {!run_replicated_until_crash}. *)

type reader_locking = Key_range | Coarse_table | Snapshot
(** How reader transactions read a view: per-key RangeS_S (the paper's
    protocol), one S lock on the whole view (the D4 ablation), or a
    lock-free MVCC snapshot transaction ([Database.transact
    ~read_only:true]) resolving against version chains. *)

type spec = {
  seed : int;
  n_groups : int;  (** distinct products *)
  theta : float;  (** Zipf skew; 0. = uniform *)
  mpl : int;  (** concurrent worker fibers *)
  txns_per_worker : int;
  ops_per_txn : int;
  delete_fraction : float;  (** per-op probability of deleting an own row *)
  read_fraction : float;  (** per-txn probability of being a view reader *)
  reader_scan : bool;  (** readers scan the whole view (vs 3 point lookups) *)
  reader_locking : reader_locking;
  strategy : Ivdb_core.Maintain.strategy;
  create_mode : Ivdb_core.Maintain.create_mode;
  n_views : int;  (** dependent views on the sales table (0 = none) *)
  initial_rows : int;  (** preloaded before measurement *)
  gc_every : int option;  (** run Database.gc every n committed txns *)
  checkpoint_every : int option;
      (** sharp checkpoint (and log truncation) every n committed txns *)
  stats_interval : int option;
      (** print a one-line summary of the last interval (commits,
          throughput, commit p95, lock waits and wait p95, deadlocks,
          all from a registry window rolled forward each interval) every
          n simulated ticks; [None] = silent *)
  config : Database.config;
}

val default : spec
(** 20 groups, theta 0.99, mpl 8, 50 txns x 4 ops, 10% deletes, no readers,
    escrow, 1 view, 200 preloaded rows, zero I/O cost. *)

type result = {
  committed : int;
  crashed : bool;
      (** an injected {!Ivdb_storage.Fault} crash point fired mid-run;
          tick/latency figures cover the truncated run *)
  committed_readers : int;  (** of which reader transactions *)
  given_up : int;  (** transactions that exhausted their deadlock retries *)
  ticks : int;  (** simulated time consumed by the measured phase *)
  throughput : float;  (** committed transactions per 1000 ticks *)
  mean_latency : float;
      (** ticks from transaction start to commit: the mean of [window]'s
          [txn.commit_ticks] cells *)
  p95_latency : float;  (** their nearest-rank 95th percentile *)
  mean_batch : float;
      (** mean of [window]'s [commit.batch] cells: commits per group-commit
          force (0 outside [Group]/[Async]) *)
  window : Ivdb_util.Metrics.window;
      (** everything the run did to the registry: every counter's delta
          ([txn.retry], [lock.deadlock], [lock.wait], [log.force], …) and
          every histogram's new observations — deterministic for a fixed
          seed, which the determinism tests rely on *)
}

val setup : spec -> Database.t * Database.table * Database.view list
(** Create the schema and preload [initial_rows] (not measured). *)

(** {1 The closed loop}

    One loop drives every deployment shape: [spec.mpl] worker fibers
    (spawned with {!Ivdb_sched.Sched.spawn_group}), each with its own RNG
    seeded [seed * 7919 + w] and Zipf sampler over [n_groups], runs
    [txns_per_worker] transactions, drawing each one's reader flag from
    [read_fraction] (never a reader when [n_views = 0]) and yielding
    after it. The loop times each transaction, counts commits, readers
    and give-ups, runs the [stats_interval] reporter, and brackets the
    whole run with one registry window: it captures the registry before
    the scheduler starts and diffs it at the end, so [result.window]
    holds everything the run did to that registry. Each commit's latency
    is recorded once, into the registry's [txn.commit_ticks] histogram.
    A shape supplies only how a worker reaches its engine(s) — a
    {!client} — and its own set-up and tear-down inside the run. *)

type client = {
  txn : reader:bool -> bool;
      (** Run one transaction to its end; [false] means it was given up
          (deadlock retries exhausted, a shard voted no, …). A writer
          draws its statements from the worker's RNG and Zipf sampler,
          which the shape captured when it opened the client. *)
  close : unit -> unit;  (** After the worker's last transaction. *)
}

val closed_loop :
  spec ->
  Ivdb_util.Metrics.t ->
  on_commit:(int -> unit) ->
  (((int -> Ivdb_util.Rng.t -> Ivdb_util.Zipf.t -> client option) ->
   (unit -> unit) * (unit -> bool)) ->
  unit) ->
  result
(** [closed_loop spec metrics ~on_commit body] runs [body start] as the
    main fiber of one {!Ivdb_sched.Sched.run} seeded [spec.seed].
    [body] sets its shape up, calls [start open_client] once — which
    spawns the workers and returns [(wait, running)] — and tears down
    after [wait ()] returns. [open_client w rng zipf] is called in
    worker [w]'s fiber (1-based); [None] means the worker never got a
    client, and all its transactions count as given up. [wait] also
    spawns the stats reporter, so a shape's own monitor fiber spawned
    between [start] and [wait] keeps its place in the run queue.
    [on_commit n] runs after the [n]-th commit of the run, before the
    worker's yield. An injected {!Ivdb_storage.Fault.Crash_point}
    stops the run with [result.crashed] set; its [ticks] then run to the
    last commit before the crash. The measured window spans the whole
    run, set-up and tear-down included. *)

val run_on : Database.t -> Database.table -> Database.view list -> spec -> result
(** The engine shape: workers call the database directly, writers insert
    and delete [sales] rows, readers read the first view under
    [reader_locking]; [gc_every] and [checkpoint_every] count the run's
    commits. [views] must come from {!setup} of the same [spec]. *)

val run : spec -> result
(** [setup] + [run_on]. *)

(** {1 A replicated primary crashed mid-run}

    The crash sweeps over a streaming follower (the replication tests and
    the E17 failover bench) share this driver. *)

val ship_wal : ?batch:int -> ?upto:int -> Ivdb_wal.Wal.t -> Database.t -> int
(** Stream stable records [replicated_lsn follower + 1 .. upto]
    (default the log's flushed horizon) to the follower in batches of
    [batch] (default 64), through the wire's framing: serialize, decode,
    apply. The follower applies every record as it arrives, so the next
    batch resumes at its applied horizon. Takes a bare log so a caller
    can ship a crashed primary's surviving image. Returns the number of
    records shipped; fails if a batch decodes short. *)

val run_replicated_until_crash :
  spec -> Ivdb_storage.Fault.config -> Database.t * Database.t * int * bool
(** Set up [spec]'s primary, attach a fresh follower, install the fault
    plan (even {!Ivdb_storage.Fault.no_faults}, so a counting run can
    read [forces_seen]), and run {!closed_loop} with insert-only clients
    ([ops_per_txn] rows per transaction from the client's own RNG, seeded
    [seed * 131 + w]; [gc_every] and [checkpoint_every] as in {!run_on})
    while a shipper fiber, spawned before the workers, streams
    the stable tail with {!ship_wal} and advances the slot's retention
    floor to the follower's ack, until the workers finish or an armed
    crash point fires. Returns [(primary, follower, committed, crashed)].
    Deterministic per [spec.seed]: a counting run and every armed re-run
    interleave identically up to the trigger. *)

val check_consistency : Database.t -> Database.view -> bool
(** Invariant V1: the view's visible contents equal a from-scratch
    aggregation of its base tables (deferred views are drained first by
    the caller if exactness is wanted). *)
