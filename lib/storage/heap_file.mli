(** Heap files: unordered record storage, a chain of heap pages.

    Mutating operations return the [(page_id, diff)] list they produced; the
    transaction layer logs these diffs and stamps the pages. The heap itself
    holds no volatile state that cannot be rebuilt from the page chain, so
    {!attach} after a crash recovers it by walking the chain.

    {b Placement.} {!insert} tries the tail page, then the newest page of
    the handle's free-space map, then appends a fresh page. The map holds
    the non-tail pages that may have room: {!free_ghost} adds its page,
    and a page leaves on its first failed probe, so each freed slot costs
    an insert at most one wasted pin. The map is derived state: it is
    never logged, and {!attach} and {!refresh} drop it, so the next insert
    that misses the tail rebuilds it from the pages' free space. Recovery,
    replication followers and promotion therefore need nothing extra.

    Inserts count [heap.probe] (pages tried) and [heap.grow] (pages
    appended) in the pool's metrics registry. *)

type rid = { rpage : int; rslot : int }

val pp_rid : Format.formatter -> rid -> unit
val rid_compare : rid -> rid -> int

val encode_rid : rid -> string
(** Six bytes: the page as a u32 and the slot as a u16, big-endian, so
    byte order is rid order. No page holds 65,536 slots. *)

val decode_rid : string -> rid
(** Inverse of {!encode_rid}; [Invalid_argument] unless given six bytes. *)

type t

type diffs = (int * Page_diff.t) list

val create : Bufpool.t -> Disk.t -> t * diffs
(** Allocates and formats the first page. *)

val attach : Bufpool.t -> Disk.t -> first_page:int -> t
(** Open an existing heap by its first page (from the catalog). *)

val first_page : t -> int

val insert : t -> string -> rid * diffs
(** Places the record by the rule above. Raises [Invalid_argument] if it
    cannot fit an empty page. *)

val delete : t -> rid -> diffs
(** Ghost-marks the record: readers no longer see it, but the slot and
    bytes remain so rollback can {!revive} the same rid. Raises [Not_found]
    if the rid is not live. *)

val revive : t -> rid -> diffs
(** Undo of {!delete}. Raises [Not_found] if the rid is not a ghost. *)

val free_ghost : t -> rid -> diffs
(** Physically reclaim a ghost slot (post-commit system transaction) and
    put its page in the free-space map. Empty diffs if the rid is not a
    ghost (already cleaned). *)

val update : t -> rid -> string -> diffs
(** In-place when sizes match; raises [Not_found] if not live and
    [Invalid_argument] on size change (callers use delete + insert). *)

val get : t -> rid -> string option

val get_any : t -> rid -> string option
(** Live or ghost: a ghost still holds the bytes it was deleted with. *)

val iter : t -> (rid -> string -> unit) -> unit
(** Live records, ascending rid order. *)

val iter_all : t -> (rid -> string -> ghost:bool -> unit) -> unit
(** Live and ghost records; ghosts are reported with an empty payload.
    Serializable scans use this so an uncommitted delete still blocks the
    reader (via the row lock) instead of being silently invisible. *)

val ghosts : t -> rid list
(** Every ghost slot, descending rid order (the chain's tail first). *)

val refresh : t -> unit
(** Re-walk the next-pointer chain from the cached tail and adopt any
    pages appended to the on-disk chain behind this handle's back — as
    physical redo does on a replication follower, where page diffs grow
    the heap without calling [insert]. Redo also frees slots behind the
    handle, so the free-space map is dropped for the next insert to
    rebuild. One page read per new page, plus one. *)
