let set_u16 b pos v =
  assert (v >= 0 && v < 0x10000);
  Bytes.set_uint8 b pos (v lsr 8);
  Bytes.set_uint8 b (pos + 1) (v land 0xFF)

let get_u16 b pos = (Bytes.get_uint8 b pos lsl 8) lor Bytes.get_uint8 b (pos + 1)

let set_u32 b pos v =
  assert (v >= 0 && v < 0x100000000);
  Bytes.set_uint8 b pos ((v lsr 24) land 0xFF);
  Bytes.set_uint8 b (pos + 1) ((v lsr 16) land 0xFF);
  Bytes.set_uint8 b (pos + 2) ((v lsr 8) land 0xFF);
  Bytes.set_uint8 b (pos + 3) (v land 0xFF)

let get_u32 b pos =
  (Bytes.get_uint8 b pos lsl 24)
  lor (Bytes.get_uint8 b (pos + 1) lsl 16)
  lor (Bytes.get_uint8 b (pos + 2) lsl 8)
  lor Bytes.get_uint8 b (pos + 3)

(* FNV-1a, 32-bit. Not cryptographic — it only has to make a torn or
   corrupted image fail verification with overwhelming probability, and it
   must be deterministic across runs (no keyed hashing). *)
let fnv_basis = 0x811c9dc5
let fnv_prime = 0x01000193

let fnv1a32 ?(h = fnv_basis) b pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := (!h lxor Bytes.get_uint8 b i) * fnv_prime land 0xFFFFFFFF
  done;
  !h

let fnv1a32_string ?h s pos len = fnv1a32 ?h (Bytes.unsafe_of_string s) pos len

let compare_sub a apos alen b bpos blen =
  let n = min alen blen in
  let rec go i =
    if i = n then compare alen blen
    else
      let ca = Char.code (Bytes.get a (apos + i))
      and cb = Char.code (Bytes.get b (bpos + i)) in
      if ca <> cb then compare ca cb else go (i + 1)
  in
  go 0

let hex s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf
