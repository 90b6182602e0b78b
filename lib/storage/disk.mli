(** Simulated stable storage for pages.

    A page store with I/O accounting, a logical-time cost model, per-page
    checksums, and a fault-injection hook. Contents survive a simulated
    crash (the buffer pool does not), which is what the crash-recovery
    tests exploit.

    Every stored image is stamped with a checksum ({!Page.checksum}) on
    write and verified on read, so a torn write — injected via a
    {!Fault.t} plan — is detected the moment anyone reads the page.
    Recovery sweeps {!is_torn} / {!reset_page} before redo. *)

exception Torn_page of int
(** Raised by {!read_into} when the stored image fails checksum verification.
    Only recovery should ever see this: during normal operation every
    stored page was written whole. *)

type t

val create :
  ?read_cost:int ->
  ?write_cost:int ->
  ?trace:Ivdb_util.Trace.t ->
  Ivdb_util.Metrics.t ->
  t
(** Costs are logical ticks charged to the scheduler clock per I/O
    (defaults 100/100, the classic 100:1 I/O-to-CPU-step ratio). *)

val set_fault : t -> Fault.t -> unit
(** Install a fault plan consulted on every read and write. *)

val alloc_page : t -> int
(** Fresh page id (ids start at 1; 0 is "nil"). Allocation itself performs
    no I/O. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t id buf] copies the page's stable image into [buf] (a
    {!Page.size} buffer; the buffer pool passes the frame it just evicted)
    and zeroes its checksum field. An allocated but never-written page
    reads as zeroes and counts [disk.read_unwritten] (legitimate after a
    crash that beat the first write-back). A page id the allocator never
    handed out is a dangling reference: counts [disk.read_bogus] and
    raises [Invalid_argument]. Raises {!Torn_page} on checksum
    mismatch. Counts [disk.read]; may raise {!Fault.Io_error} under an
    installed plan. [buf] is written only once the read succeeds. *)

val write : t -> int -> bytes -> unit
(** Stores a checksum-stamped copy; the caller keeps its buffer. A page
    already stored is stamped over its old image in place: a stored image
    is private to the disk, and {!read_into} hands out copies only. Counts
    [disk.write]. Under an installed plan this is the torn-write /
    crash-at-write injection point; after the plan freezes, writes are
    silent no-ops (the machine is dead). *)

val is_torn : t -> int -> bool
(** The stored image fails verification (torn write at crash). *)

val reset_page : t -> int -> unit
(** Replace the stored image with a fresh zeroed page — recovery's
    torn-page policy, sound because the retained log replays the page's
    full diff history. *)

val max_page_id : t -> int

val bump_alloc : t -> int -> unit
(** Raise the allocation cursor to at least [id + 1]; recovery calls this
    with the largest page id seen in the log so redo never collides with
    fresh allocations. *)
