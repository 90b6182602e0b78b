(** Closed-loop network workload: the {!Ivdb.Workload} order-entry mix
    driven through the wire protocol instead of in-process calls.

    The server and replica shapes of {!Ivdb.Workload.closed_loop}: one
    scheduler run hosts the server's accept fiber, a session fiber per
    admitted connection, and the loop's [spec.mpl] workers, each owning
    one {!Client.t}. Writers wrap [ops_per_txn] INSERT/DELETE statements
    in [BEGIN]/[COMMIT] (retrying deadlock victims client-side with
    capped backoff); readers issue autocommitted view SELECTs. The
    returned {!Ivdb.Workload.result} is directly comparable with
    in-process runs — server counters ([server.accepted],
    [server.shed], …) ride along in [result.window].

    Over [Loopback] the run is fully deterministic in [spec.seed]; over
    [Tcp] byte timing comes from the kernel and only aggregate invariants
    hold. *)

type transport = Loopback | Tcp

type repl_report = {
  lag_max : int;  (** worst records-behind sampled at a commit during the run *)
  lag_mean : float;  (** mean of the lag sampled at each commit *)
  ship_batches : int;  (** ReplRecords batches the follower applied *)
  reconnects : int;  (** times the replica driver redialed *)
  catchup_ticks : int;
      (** ticks from the last client commit until the follower reached the
          primary's flushed horizon *)
}

val run_net :
  ?transport:transport ->
  ?server_config:Ivdb_server.Server.config ->
  Ivdb.Workload.spec ->
  Ivdb.Workload.result * Ivdb.Database.t
(** [spec.mpl] is the client-connection count. The server drains after
    the last client closes, so the run exits with zero live fibers.
    Deliberately under-provisioned [server_config.max_inflight] turns
    this into the overload/shed experiment: refused clients back off and
    retry, and the shed count lands in [result.window]. The database is
    returned so callers can check view consistency after the run. *)

val run_replicated :
  ?server_config:Ivdb_server.Server.config ->
  Ivdb.Workload.spec ->
  Ivdb.Workload.result * Ivdb.Database.t * Ivdb.Database.t * repl_report
(** [run_net] over loopback with a follower attached: a fresh
    {!Ivdb.Database.create_follower} instance driven by a
    {!Ivdb_server.Replica} connection to the same server, applying the
    primary's WAL while the clients run. Returns
    [(result, primary, follower, report)]; the follower has fully caught
    up to the primary's flushed horizon by the time the call returns, so
    callers can compare {!Ivdb.Database.state_digest} directly. *)
