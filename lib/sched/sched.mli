(** Deterministic cooperative fiber scheduler.

    Stands in for the multi-threaded server of the original system: lock
    conflicts, waits, deadlocks and escrow commutativity are properties of
    the *interleaving*, which this scheduler makes reproducible. Fibers are
    one-shot delimited continuations (OCaml 5 effect handlers); a seeded RNG
    chooses the next runnable fiber, so a seed fully determines a run.

    All operations are usable from *outside* a [run] as well: they degrade
    to sensible sequential behaviour ([yield] is a no-op, [self] is 0), so
    single-threaded engine use needs no scheduler. [suspend] outside a run
    raises {!Stuck} — blocking is meaningless without a scheduler. *)

exception Stuck of int
(** Raised by [run] when no fiber is runnable but [n] fibers are still
    suspended — an undetected deadlock in client code — or by [suspend]
    outside a run. *)

type policy =
  | Fifo  (** round-robin; first-in first-out run queue *)
  | Random  (** seeded uniform choice among runnable fibers *)

val run : ?seed:int -> ?policy:policy -> (unit -> 'a) -> 'a
(** [run main] executes [main] as fiber 0 and schedules fibers spawned by it
    until all finish; returns [main]'s result. Nested runs are not
    supported. *)

val spawn : (unit -> unit) -> int
(** Start a new fiber; returns its id. A fiber's uncaught exception aborts
    the whole [run]. *)

val spawn_group : int -> (int -> unit) -> (unit -> unit) * (unit -> bool)
(** [spawn_group n f] spawns fibers running [f 1] … [f n], in index order,
    and returns [(wait, running)]. Each fiber counts itself down when it
    ends, normally or by an exception. [wait ()] suspends the caller until
    the last of them has ended (at once if none is left), so a group
    whose fibers all block forever ends the run with {!Stuck} instead of
    spinning. [running ()] is [true] until the last fiber ends. *)

val yield : unit -> unit
(** Let the scheduler pick the next fiber (possibly this one again). *)

val self : unit -> int
(** Current fiber id (0 for the main fiber and outside a run). *)

val suspend : ((unit -> unit) -> (exn -> unit) -> unit) -> unit
(** [suspend register] blocks the current fiber. [register wake cancel] is
    called immediately; the fiber resumes when some other fiber calls
    [wake ()], or raises [e] at the suspension point when [cancel e] is
    called. Exactly one of the two may fire, once; later calls are
    ignored. *)

val now : unit -> int
(** Logical clock: number of scheduling steps plus explicit advances. *)

val advance : int -> unit
(** Charge [n] ticks of simulated time (e.g. a simulated disk I/O). *)

val runnable : unit -> int
(** Number of {e other} fibers ready to run: the run queue's length seen
    from the running fiber (0 outside a run). Suspended fibers are not
    counted. Draws nothing from the scheduler's RNG and costs no tick.
    When it is 0, nothing can happen until the caller suspends, yields
    or wakes another fiber. *)

val in_run : unit -> bool
(** [true] iff the caller executes inside a [run] — i.e. [spawn] and
    [suspend] are available. Lets blocking protocols (e.g. group commit)
    degrade to a synchronous path for single-threaded callers. *)
