(** The write-ahead log: an append-only record sequence with a stable
    (forced) prefix. Each retained record is held once, as the payload
    bytes {!Log_record.encode} gives; reads decode it.

    LSNs are dense indices into the log, starting at 1. A simulated crash
    keeps only the forced prefix — records past [flushed_lsn] are lost,
    which is exactly the WAL contract: the buffer pool forces the log up to
    a page's LSN before writing that page back, and commit forces up to the
    commit record. *)

type t

val create : ?trace:Ivdb_util.Trace.t -> Ivdb_util.Metrics.t -> t
(** [trace] defaults to a fresh disabled trace (no events observable). *)

val append : t -> txn:int -> prev:Log_record.lsn -> Log_record.body -> Log_record.lsn
(** Encodes the record once, into the log's store. Counts [log.append]
    and [log.bytes] (the payload length); traces [wal.append]. *)

val get : t -> Log_record.lsn -> Log_record.t
(** Decodes the stored record. Raises [Invalid_argument] for LSN 0, a
    truncated LSN or one beyond the end, and for a record that is not
    {!Log_record.decodable}. *)

val last_lsn : t -> Log_record.lsn
(** 0 when empty. *)

val flushed_lsn : t -> Log_record.lsn

val force : t -> Log_record.lsn -> unit
(** Make the prefix up to [lsn] stable. A no-op if already flushed (group
    commit); otherwise counts [log.force], traces [wal.force] and charges
    one I/O of simulated time. Under an installed fault plan this is the
    crash-at-force injection point (may raise {!Ivdb_storage.Fault.Crash_point},
    optionally recording a byte-granularity tear of the new region for
    {!crash} to apply); once the plan is frozen, forces are silent no-ops. *)

val set_fault : t -> Ivdb_storage.Fault.t -> unit
(** Install a fault plan consulted on every force. *)

val iter_stable : t -> (Log_record.t -> unit) -> unit
(** The records a post-crash recovery can see, in LSN order.
    Equivalent to [iter_from t ~from:(first_lsn t)]. *)

(** {2 Incremental tail reads}

    The cursor surface WAL shipping is built on. Every position below is
    an absolute {!Log_record.lsn}; the valid window is
    [[first_lsn t, flushed_lsn t]] — LSNs below [first_lsn] have been
    truncated away ({!truncate_before}), LSNs above [flushed_lsn] are
    appended but not yet stable and must never leave this process. A
    caller streaming the log holds its own resume position (the next LSN
    it wants) and re-reads from there after any interruption; the log
    itself keeps no cursor state. *)

val iter_from : t -> from:Log_record.lsn -> (Log_record.t -> unit) -> unit
(** Stable records with [from <= lsn <= flushed_lsn t], in LSN order; an
    empty iteration when [from > flushed_lsn t]. Raises
    [Invalid_argument] when [from < first_lsn t]: that history is gone,
    and the caller (e.g. a replica resuming below the primary's
    retention) must bootstrap some other way. *)

val serialize_range : t -> from:Log_record.lsn -> upto:Log_record.lsn -> string
(** The stable records in [[from, upto]] as a framed byte stream — each
    record [u32 length | u32 FNV-1a checksum | payload]
    (payload = {!Log_record.encode}), exactly the on-device format {!crash}
    reads back. Empty when [from > upto]. Raises
    [Invalid_argument] when [from < first_lsn t] or
    [upto > flushed_lsn t]. *)

val decode_frames : first_lsn:Log_record.lsn -> string -> Log_record.t list
(** Decode a framed stream produced by {!serialize_range}, expecting the
    first record at [first_lsn]. Never raises: returns the longest
    prefix of complete, checksum-valid frames whose LSNs chain densely
    from [first_lsn] — a torn or corrupt tail (and everything after it)
    is silently dropped, mirroring what {!crash} tolerates. Receivers
    detect a short batch by comparing [List.length] against the range
    the sender advertised. *)

val ingest : t -> Log_record.t -> unit
(** Replica-side append: install a record shipped from a primary,
    keeping its LSN. The record must extend the dense chain
    ([lsn = last_lsn t + 1]; raises [Invalid_argument] otherwise) and
    becomes stable immediately — a follower only acknowledges what it
    has applied, so its acked prefix must survive its own crashes
    without a force. Counts [log.ingested] and [log.bytes]; updates
    {!last_checkpoint_lsn} when a checkpoint record flows through. *)

val set_retain_floor : t -> Log_record.lsn option -> unit
(** Replication slot: with [Some lsn], {!truncate_before} keeps every
    record with LSN >= [lsn] regardless of the requested cut, so a
    replica acked up to [lsn - 1] can always resume. [None] (the
    default, and the state after {!crash}) restores unrestricted
    truncation. *)

val retain_floor : t -> Log_record.lsn option

val last_checkpoint_lsn : t -> Log_record.lsn
(** LSN of the most recent *stable* checkpoint record; 0 if none. *)

val crash : t -> ?trace:Ivdb_util.Trace.t -> Ivdb_util.Metrics.t -> t
(** The log as found after a crash: the stable prefix as a device holds
    it, framed as {!serialize_range} from {!first_lsn} to {!flushed_lsn}.
    A pending tear (from a torn force or {!set_torn_tail}) cuts that
    stream at byte granularity, and a reader keeps only the longest
    prefix of complete frames that decode — a partial record and
    everything after it are discarded (counted as
    [wal.torn_tail_dropped]). The copy holds those records' stored bytes,
    copied, without re-encoding them. It reports into the given
    metrics/trace (the pre-crash instances are dead). *)

val set_torn_tail : t -> int -> unit
(** Declare that the device stopped after the first [n] bytes of the
    stable prefix's stream ({!serialize_range} from {!first_lsn} to
    {!flushed_lsn}); the next {!crash} applies the cut.
    Test hook — fault plans set this themselves on a torn force. *)

val truncate_before : t -> Log_record.lsn -> unit
(** Discard records with LSN < the argument. The caller guarantees they
    will never be needed again: nothing earlier than the safe point
    min(checkpoint LSN, min DPT recLSN, min first-LSN of active
    transactions) — further clamped by {!set_retain_floor}. Reading a
    truncated LSN raises [Invalid_argument]. Counts
    [log.truncated_records]. *)

val first_lsn : t -> Log_record.lsn
(** Smallest retained LSN ([last_lsn t + 1] when empty or fully
    truncated). *)

val record_count : t -> int
(** Retained records. *)

val stable_byte_size : t -> int
(** Payload bytes made stable over the log's life: every force and
    ingest adds the records it makes stable, and truncation takes nothing
    away. A {!crash} copy starts from the bytes of the records it keeps. *)

val retained_byte_size : t -> int
(** Payload bytes of the retained records, stable or not: what the log
    holds now. Falls at {!truncate_before}. *)
