(** B+-tree node layout on a page.

    Both node kinds share the header:
    {v
      0..7   pageLSN        8      type (Bt_leaf | Bt_interior)
      9..12  aux: next-leaf page (leaf) / leftmost child (interior)
      13..14 nkeys           15..16 free_end
      17..   slot directory (u16 cell offsets, in key order)
    v}
    Leaf cell: klen u16 | vlen u16 | key | value.
    Interior cell: klen u16 | child u32 | key — the child holds keys
    [>= key]; keys below the first separator live under the aux child.

    Mutators write through an {!Ivdb_storage.Page_writer} (the one
    [Bufpool.update] hands its callback), so the pool logs exactly the
    bytes they change; readers take the page bytes. *)

val init_leaf : Ivdb_storage.Page_writer.t -> unit

val is_leaf : bytes -> bool
val nkeys : bytes -> int

val get_aux : bytes -> int
val set_aux : Ivdb_storage.Page_writer.t -> int -> unit

val key_at : bytes -> int -> string
val leaf_value_at : bytes -> int -> string

val child_at : bytes -> int -> int
(** [child_at p i] for [i] in [0..nkeys]: child 0 is the aux child. *)

val search : bytes -> string -> [ `Found of int | `Gap of int ]
(** Binary search: [`Found i] when slot [i] holds the key, [`Gap i] when the
    key would be inserted at slot [i]. *)

val child_for : bytes -> string -> int
(** Interior: page id of the subtree that covers the key. *)

val leaf_insert : Ivdb_storage.Page_writer.t -> int -> string -> string -> bool
(** [leaf_insert p i key value] inserts at slot [i]; [false] if it cannot
    fit even after compaction. *)

val leaf_delete : Ivdb_storage.Page_writer.t -> int -> unit

val leaf_replace : Ivdb_storage.Page_writer.t -> int -> string -> bool
(** Replace the value of slot [i]; in place when sizes match, re-inserted
    within the page otherwise; [false] when it cannot fit. *)

val interior_insert : Ivdb_storage.Page_writer.t -> int -> string -> int -> bool
(** [interior_insert p i key child]: separator at slot [i] pointing at
    [child]. *)

val free_space : bytes -> int
val max_entry : int
(** Maximum encoded key + value size accepted by the tree (fits a page
    quarter, guaranteeing splits always succeed). *)

(** Splits read a node's cells, and rebuild its two halves from the split
    point [Btree] chooses. *)
val leaf_cells : bytes -> (string * string) list
val leaf_rebuild : Ivdb_storage.Page_writer.t -> (string * string) list -> next:int -> unit

val interior_cells : bytes -> int * (string * int) list
(** [(child0, separators)] in key order. *)

val interior_rebuild : Ivdb_storage.Page_writer.t -> int -> (string * int) list -> unit

val interior_delete : Ivdb_storage.Page_writer.t -> int -> unit
(** Remove separator slot [i] (its subtree pointer goes with it). *)
