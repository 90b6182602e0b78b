(** The aggregate delta algebra of incremental view maintenance.

    A base-table change contributes a {!delta} per affected group: a row
    count delta plus one entry per aggregate. COUNT/SUM deltas are additive
    (they commute — the basis of escrow locking); MIN/MAX contribute a
    candidate on insert and a removal on delete, where removing the current
    extremum forces a group recompute. *)

type agg_delta =
  | Add of Ivdb_relation.Value.t  (** additive contribution (COUNT/SUM) *)
  | Consider of Ivdb_relation.Value.t  (** MIN/MAX candidate from an insert *)
  | Retire of Ivdb_relation.Value.t  (** MIN/MAX value leaving on a delete *)

type delta = { dcount : int; daggs : agg_delta array }

val delta_of_row :
  View_def.t -> sign:int -> Ivdb_relation.Row.t -> (string * delta) option
(** The (group key, delta) a source row contributes with [sign] +1 (insert)
    or -1 (delete); [None] when the view's WHERE rejects the row. *)

val zero_row : View_def.t -> Ivdb_relation.Row.t
(** Stored aggregate row of an empty group: COUNT( * ) 0, sums 0, MIN/MAX
    NULL. This is what the group-creating system transaction inserts. *)

val apply :
  View_def.t ->
  Ivdb_relation.Row.t ->
  delta ->
  [ `Ok of Ivdb_relation.Row.t | `Recompute ]
(** Fold a delta into a stored aggregate row. [`Recompute] when a MIN/MAX
    retirement hits the current extremum (the caller recomputes the group
    from base data). *)

val is_additive : delta -> bool
val negate : delta -> delta
(** Inverse of an additive delta (logical undo of an escrow update). Raises
    [Invalid_argument] on non-additive deltas. *)

val combine : delta -> delta -> delta option
(** Sum of two additive deltas on the same group; [None] when either is not
    additive. Used by deferred maintenance to fold the delta queue. *)

val encode : delta -> string
val decode : string -> delta
(** Additive deltas only (escrow log records, deferred queues). *)

val fold_rows : View_def.t -> Ivdb_relation.Row.t Seq.t -> Ivdb_relation.Row.t
(** Aggregate one group's source rows from scratch (MIN/MAX recompute). *)

val fold_groups :
  View_def.t ->
  Ivdb_relation.Row.t Seq.t ->
  (string, Ivdb_relation.Row.t) Hashtbl.t
(** Aggregate source rows from scratch into their groups, by group key:
    initial materialization and the no-view query baseline. Rows the
    view's WHERE rejects contribute nothing. *)

val count_of : Ivdb_relation.Row.t -> int
(** COUNT( * ) cell of a stored aggregate row. *)
