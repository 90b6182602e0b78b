(** The lock manager: granted groups, wait queues, conversion, and
    waits-for deadlock detection.

    A request waits behind every conflicting request queued ahead of it;
    fresh requests queue in arrival order, with one exception: a fresh [E]
    request from a transaction that already holds an [E] lock joins ahead
    of the plain [S] requests at the queue's tail, so escrow writers do
    not deadlock with each other through the readers queued between them.

    Integration with the fiber scheduler: an incompatible request suspends
    the calling fiber; grants wake it. Deadlocks are detected at block time
    by cycle search over the waits-for graph; the youngest transaction in
    the cycle is the victim. If the victim is the requester, {!Deadlock} is
    raised here; otherwise the victim's pending wait is cancelled, raising
    {!Deadlock} at *its* suspension point, and the requester keeps
    waiting. *)

exception Deadlock of int
(** Argument: the victim transaction's id. *)

type t

val create : ?trace:Ivdb_util.Trace.t -> Ivdb_util.Metrics.t -> t
(** [trace] defaults to a fresh disabled trace. When enabled, requests
    emit [lock.acquire], blocking requests [lock.wait], grants of blocked
    requests [lock.grant], and deadlock resolution [lock.deadlock_victim]
    (one event per victim, carrying the victim's txn id). *)

val acquire : t -> txn:int -> Lock_name.t -> Lock_mode.t -> unit
(** Blocks until granted. Re-entrant: a held mode that covers the request
    is a no-op; otherwise the request converts the held lock to
    [sup held req]. Counts [lock.acquire]; waits count [lock.wait];
    deadlocks count [lock.deadlock]. *)

val acquire_instant : t -> txn:int -> Lock_name.t -> Lock_mode.t -> unit
(** Instant-duration acquisition (the RangeI_N protocol): waits until the
    mode could be granted, but does not retain it. *)

val release_all : t -> txn:int -> unit
(** End-of-transaction release (strict two-phase locking releases nothing
    earlier, except instant-duration locks). *)

val unlocked : t -> Lock_name.t -> bool
(** True if no transaction holds or awaits any lock on the name — used by
    the garbage-collection system transaction before physically removing a
    zero-count view row. *)

val held_mode : t -> txn:int -> Lock_name.t -> Lock_mode.t option
(** Mode this transaction currently holds on the name, if any. *)

val lock_count : t -> txn:int -> int

type wait_info = {
  w_name : Lock_name.t;  (** resource being waited on *)
  w_txn : int;  (** waiting transaction *)
  w_mode : Lock_mode.t;  (** mode it wants to hold once granted *)
  w_convert : bool;  (** conversion of an already-held lock *)
  w_blockers : int list;  (** transactions it is blocked by, sorted *)
  w_since : int;  (** tick the wait started *)
}

val waits : t -> wait_info list
(** Snapshot of every blocked request, sorted by waiter txn id — the
    blocked/blocker join behind [sys.lock_waits]. Pure read: acquires
    nothing, wakes nobody. Blocked-request wait times also land in the
    ["lock.wait_ticks"] histogram when the wait resolves. *)

val dump :
  t ->
  (Lock_name.t * (int * Lock_mode.t) list * (int * Lock_mode.t * bool * bool) list) list
(** Every lock with holders and waiters (txn, target mode, is-conversion,
    is-instant) — diagnostics. *)
