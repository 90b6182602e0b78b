(** Fixed-width integer (de)serialization helpers shared by the page,
    row-codec, and log layers. All multi-byte values are big-endian so that
    byte-wise comparison of encoded keys matches numeric order where the
    encoding is order-preserving. *)

val set_u16 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int

val set_u32 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int

val fnv1a32 : ?h:int -> bytes -> int -> int -> int
(** [fnv1a32 b pos len] FNV-1a hash of the byte range, 32-bit. Pass the
    previous result as [?h] to chain discontiguous ranges into one digest.
    Deterministic (unkeyed) — used for page and log-record checksums. *)

val fnv1a32_string : ?h:int -> string -> int -> int -> int

val compare_sub : bytes -> int -> int -> bytes -> int -> int -> int
(** [compare_sub a apos alen b bpos blen] lexicographic comparison of the two
    byte ranges (shorter prefix sorts first). *)

val hex : string -> string
(** Hex dump, for error messages and tests. *)
