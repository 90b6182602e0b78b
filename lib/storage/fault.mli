(** Deterministic, seeded fault injection for the storage / WAL stack.

    A fault {e plan} is created from a pure-data {!config} and installed
    into the simulated disk ({!Disk.set_fault}) and the WAL. The disk and
    the log consult it on every I/O; the plan decides — from its own seeded
    RNG and explicit triggers, never from wall-clock state — whether the
    operation succeeds, fails transiently, or is the crash point.

    Crash semantics: when a trigger fires the plan {e freezes} — from that
    instant nothing further reaches stable storage (disk writes and log
    forces become silent no-ops) — and {!Crash_point} is raised. Under the
    cooperative scheduler an uncaught exception halts the whole run
    immediately, so the raise models power loss: every fiber stops
    mid-step and only the stable state written {e before} the trigger
    survives into recovery.

    Every injected fault bumps a [fault.*] metric and, when tracing is
    enabled, emits a [fault.inject] event — same observability contract as
    the rest of the engine. *)

exception Crash_point of string
(** The machine died here. [string] names the trigger site
    (e.g. ["disk.write"], ["wal.force.torn"]). *)

exception Io_error of string
(** A transient I/O error; the buffer pool retries with bounded backoff. *)

type config = {
  fault_seed : int;  (** seeds the plan's private RNG *)
  read_error_p : float;  (** per-read transient-error probability *)
  write_error_p : float;  (** per-write transient-error probability *)
  max_consecutive_errors : int;
      (** hard cap on back-to-back injected errors; keep it below the
          buffer pool's retry limit and retries always converge *)
  crash_at_write : int option;  (** crash on the n-th disk write (1-based) *)
  crash_at_force : int option;  (** crash on the n-th WAL force (1-based) *)
  torn_writes : bool;
      (** the crashing disk write persists a random prefix of the page *)
  torn_tail : bool;
      (** the crashing WAL force persists a random byte prefix of the
          newly-flushed framed region *)
}

val no_faults : config
(** Seed 0, zero probabilities, no triggers. *)

val enabled_in : config -> bool
(** True iff the config can inject anything. *)

type t
(** A live plan, or the inert {!none}. *)

val none : t
(** Injects nothing, costs one branch per I/O. *)

val create : ?trace:Ivdb_util.Trace.t -> Ivdb_util.Metrics.t -> config -> t

val active : t -> bool
val tears_writes : t -> bool
(** True for a live plan armed with [torn_writes] — the database retains
    the full log (skips checkpoint truncation) while this holds, so a
    torn page can always be rebuilt from scratch. *)

val frozen : t -> bool
(** The crash trigger has fired: stable storage is dead. *)

val forces_seen : t -> int
(** Log forces the plan has seen — run a workload under a trigger-less
    plan to learn how many force crash points it has, then sweep them. *)

type write_action =
  | Write_ok
  | Write_crash  (** persist nothing, then raise {!Crash_point} *)
  | Write_torn
      (** persist the first {!torn_cut} bytes over the old image, then
          raise *)

type force_action =
  | Force_ok
  | Force_crash  (** nothing new reaches the log, then raise *)
  | Force_torn of int
      (** only the first [n] bytes of the new framed region persist *)

val on_read : t -> page:int -> unit
(** May raise {!Io_error}. *)

val on_write : t -> page:int -> write_action
(** May raise {!Io_error}. A crash action freezes the plan; the caller
    persists accordingly and then raises {!Crash_point}. *)

val torn_cut : t -> lo:int -> hi:int -> int
(** For a [Write_torn] verdict: how many leading bytes of the new image
    persist. [lo] and [hi] are the first and last byte at which the old
    and new images differ; the cut falls strictly inside, so the page left
    on disk matches neither image whenever they differ in two bytes or
    more; otherwise the whole new image persists. *)

val on_force : t -> bytes_new:int -> force_action
(** [bytes_new] is the framed byte size about to be flushed; a torn
    verdict picks a cut strictly inside it. *)

val crash : string -> 'a
(** [raise (Crash_point site)]. *)
