(** Order-preserving ("memcomparable") key encoding.

    B-tree keys are raw byte strings compared lexicographically; this codec
    guarantees that [String.compare (encode a) (encode b)] orders rows of
    identical shape lexicographically by {!Value.compare}, which property
    tests verify. Encoding:

    - each cell starts with a type tag chosen so NULL < bool < number < string;
    - ints: sign-bit-flipped 8-byte big-endian;
    - floats: IEEE bits, sign-flipped for positives, fully inverted for
      negatives (total order, -0.0 = 0.0 excepted);
    - strings: 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x01. *)

val encode : Value.t array -> string

val decode : string -> Value.t array
(** Inverse of [encode]; raises [Invalid_argument] on malformed input. *)

val encode_one : Value.t -> string

val successor : string -> string
(** Smallest key strictly greater than every key having the argument as a
    prefix — used as an exclusive upper bound for prefix scans. *)
