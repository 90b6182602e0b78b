module B = Ivdb_util.Bytes_util

let size = 8192
let off_checksum = 9
let header_size = 13

type ty = Free | Heap | Bt_leaf | Bt_interior

let alloc () = Bytes.make size '\000'
let get_lsn p = Bytes.get_int64_be p 0
let set_lsn p lsn = Bytes.set_int64_be p 0 lsn

let ty_code = function Free -> 0 | Heap -> 1 | Bt_leaf -> 2 | Bt_interior -> 3

let get_ty p =
  match Bytes.get_uint8 p 8 with
  | 0 -> Free
  | 1 -> Heap
  | 2 -> Bt_leaf
  | 3 -> Bt_interior
  | n -> invalid_arg (Printf.sprintf "Page.get_ty: corrupt type byte %d" n)

let set_ty w ty = Page_writer.set_u8 w 8 (ty_code ty)

let get_checksum p = B.get_u32 p off_checksum
let set_checksum p v = B.set_u32 p off_checksum v

(* Covers every byte except the checksum field itself, so a torn write that
   changes anything — including the pageLSN — fails verification. *)
let checksum p =
  let h = B.fnv1a32 p 0 off_checksum in
  B.fnv1a32 ~h p header_size (size - header_size)

let verifies p = get_checksum p = checksum p
