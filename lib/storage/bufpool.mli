(** Buffer pool: the volatile page cache between the engine and the
    simulated disk.

    Enforces the write-ahead rule: before a dirty page is written back, the
    registered WAL-force callback is invoked with the page's LSN. A
    simulated crash ({!drop_all}) discards the pool, so only flushed pages
    and the forced log survive — exactly the state ARIES recovery expects. *)

type t

val create : Disk.t -> capacity:int -> ?trace:Ivdb_util.Trace.t -> Ivdb_util.Metrics.t -> t
(** [trace] defaults to a fresh disabled trace; when enabled, misses and
    evictions emit [buf.miss] / [buf.evict] events. *)

val set_wal_force : t -> (int64 -> unit) -> unit
(** Must be set before any dirty page can be evicted or flushed. *)

val read : t -> int -> (bytes -> 'a) -> 'a
(** Pins the page for the duration of the callback. The callback must not
    mutate the page. *)

val update : t -> int -> (Page_writer.t -> 'a) -> 'a * Page_diff.t
(** Mutate the page in place; returns the callback result and the byte diff
    against the page as it was before the callback. The callback writes
    through the {!Page_writer} it is given, which records the ranges it
    writes and their before-values; the diff compares only those ranges
    ({!Page_diff.recorded}), so an update costs what it writes, not the
    page size. A byte written other than through the writer is neither
    logged nor restored. The caller is responsible for logging the diff
    and then calling {!stamp} — the page is dirty-in-pool but carries its
    old LSN until stamped. If the callback raises, the recorded ranges are
    put back to their before-values before the exception escapes (a
    half-mutated frame with no covering log record must never reach disk).

    The writer is pool-owned, reused by the next [update]; the page bytes
    it writes are the frame itself, whose buffer a later miss may reuse
    for another page. The callback must keep neither: copy out what it
    needs.

    Disk I/O performed on a frame miss or eviction retries transient
    {!Fault.Io_error}s with bounded tick-based backoff (counts
    [buffer.io_retry], traces [buf.io_retry]); the last failure
    propagates. *)

val stamp : t -> int -> int64 -> unit
(** Set the pageLSN after logging; records the frame's recLSN (first LSN to
    dirty it since it was last clean) for checkpointing. *)

val flush_all : t -> unit

val dirty_page_table : t -> (int * int64) list
(** [(page_id, recLSN)] of dirty frames — the DPT written by checkpoints. *)

val drop_all : t -> unit
(** Simulated crash: discard every frame, clean or dirty. *)

val capacity : t -> int

val resident : t -> int
(** Pages currently held in frames (clean or dirty). *)

val disk : t -> Disk.t

val metrics : t -> Ivdb_util.Metrics.t
(** The registry the pool counts into; clients of the pool (heap files)
    resolve their own counters from it. *)
