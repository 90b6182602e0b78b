(** A scrape endpoint: one-shot HTTP/1.0 responses carrying the
    Prometheus text exposition of a {!Ivdb_util.Metrics} registry
    ({!Ivdb_util.Metrics.to_prometheus}).

    Any request — path and method are ignored — is answered with
    [200 OK] and [Content-Type: text/plain]; the connection is closed
    after one response. This is deliberately not a web server: just
    enough HTTP for [curl] or a Prometheus scraper against the
    [--metrics-port] listener of [ivdb_server]. *)

val serve : Ivdb_util.Metrics.t -> Ivdb_transport.Transport.listener -> unit
(** Spawn the accept fiber. Must be called inside a scheduler run; the
    fiber blocks in [accept] and exits once the listener is stopped. *)
