(** Lock modes and their compatibility.

    Beyond the classical multi-granularity modes, two families carry the
    paper's contribution:

    - [E] (escrow / increment): taken on an aggregate view row to apply a
      commutative delta. [E] is compatible with [E] — many writers may
      increment the same group concurrently — but incompatible with [S],
      [U], and [X]: a reader must not observe an in-flight escrow value,
      and an exclusive writer must not race increments.

    - key-range modes [Range*_*] (after SQL Server's KRL): a lock on key
      [k] in an index also speaks for the open gap below [k]. The first
      component is the gap lock, the second the key lock; [RangeI_N] locks
      only the gap (insert protection) and is *instant-duration*. *)

type t =
  | N  (** no lock; identity for {!sup}, never stored *)
  | IS
  | IX
  | S
  | SIX
  | U
  | X
  | E
  | RangeS_S
  | RangeS_U
  | RangeI_N
  | RangeX_X

val compat : requested:t -> granted:t -> bool
(** Asymmetric in general (e.g. [U] may join granted [S], but [S] may not
    join granted [U]). *)

val sup : t -> t -> t
(** Least mode covering both, used for lock conversion (e.g.
    [sup S IX = SIX], [sup RangeS_S X = RangeX_X]). Combinations that never
    arise from the engine's protocols (e.g. [E] with [S]) escalate to a
    safe upper bound ([X] / [RangeX_X]). *)

val covers : held:t -> req:t -> bool
(** [true] iff holding [held] already grants [req]. *)

val to_string : t -> string
