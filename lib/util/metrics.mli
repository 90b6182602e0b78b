(** Named event counters and integer-valued histograms.

    Every subsystem reports into a [Metrics.t] owned by the database
    instance (no global state, so concurrent engines in one process —
    e.g. the crash-recovery tests — do not interfere). Histograms record
    exact value counts (no bucketing); they back distribution-shaped
    telemetry such as the group-commit batch-size histogram.

    Every writer resolves a typed {!counter} or {!hist} handle once at
    subsystem-create time and bumps it with {!inc} / {!record}: the
    steady-state cost is a ref increment, not a per-event hashtable
    lookup. Reads go by name ({!get}, {!snapshot}, {!hist_snapshot}) or
    over a {!window}. *)

type t

type counter
(** Pre-resolved handle to one named counter. *)

type hist
(** Pre-resolved handle to one named histogram. *)

val create : unit -> t

(** {1 Typed handles (hot paths)} *)

val counter : t -> string -> counter
(** Resolve (registering if new) the counter for [name]. *)

val inc : counter -> unit
val inc_by : counter -> int -> unit

val hist : t -> string -> hist
(** Resolve (registering if new) the histogram for [name]. *)

val record : hist -> int -> unit
(** Record one occurrence of an integer value. *)

(** {1 Reading by name} *)

val get : t -> string -> int
(** 0 for counters never bumped. *)

val snapshot : t -> (string * int) list
(** Sorted by counter name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-counter [after - before]; counters absent on one side count as 0. *)

(** {1 Histograms} *)

val hist_snapshot : t -> string -> (int * int) list
(** (value, occurrences), sorted by value; [] for unknown names. *)

val hists : t -> (string * (int * int) list) list
(** Every histogram's snapshot, sorted by histogram name. *)

val hist_diff :
  before:(int * int) list -> after:(int * int) list -> (int * int) list
(** Per-value count delta between two [hist_snapshot]s; zero-delta values
    are dropped. *)

val cells_mean : (int * int) list -> float
(** Mean observed value over (value, count) cells; 0. when empty. *)

val percentile_cells : (int * int) list -> float -> int
(** Nearest-rank percentile over (value, count) cells, e.g. from
    {!hist_snapshot} or {!hist_diff}. [percentile_cells cells 95.] is the
    smallest value whose cumulative count covers 95% of observations;
    0 when the cells are empty. Cells need not be sorted. *)

(** {1 Windows}

    What a stretch of work did to a registry: take a {!capture} before
    it and another after, and diff the two. *)

type window = {
  counters : (string * int) list;  (** per-counter delta, sorted by name *)
  hists : (string * (int * int) list) list;
      (** per-histogram {!hist_diff}, sorted by name *)
}

val capture : t -> window
(** Every counter and histogram as it stands now. *)

val window_diff : before:window -> after:window -> window
(** {!diff} of the counters and {!hist_diff} of each histogram. *)

val window_get : window -> string -> int
(** A counter's delta; 0 for counters the window does not name. *)

val window_cells : window -> string -> (int * int) list
(** A histogram's cells; [] for histograms the window does not name. *)

val to_prometheus : t -> string
(** Prometheus text exposition (format 0.0.4). Counters render as
    [# TYPE ivdb_name counter] plus a value line; histograms render with
    cumulative [_bucket{le="v"}] lines (one per distinct observed value,
    plus [le="+Inf"]), [_sum], and [_count]. Metric names are sanitized
    to [A-Za-z0-9_] and prefixed with [ivdb_].
    Deterministic: families and buckets are sorted. *)
