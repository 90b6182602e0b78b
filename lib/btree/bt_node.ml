module B = Ivdb_util.Bytes_util
module Page = Ivdb_storage.Page
module W = Ivdb_storage.Page_writer

let off_aux = Page.header_size
let off_nkeys = off_aux + 4
let off_free_end = off_nkeys + 2
let off_slots = off_free_end + 2
let max_entry = (Page.size - off_slots) / 4

let init kind w =
  Page.set_ty w kind;
  W.set_u32 w off_aux 0;
  W.set_u16 w off_nkeys 0;
  W.set_u16 w off_free_end Page.size

let init_leaf w = init Page.Bt_leaf w
let init_interior w = init Page.Bt_interior w
let is_leaf p = Page.get_ty p = Page.Bt_leaf
let nkeys p = B.get_u16 p off_nkeys
let get_aux p = B.get_u32 p off_aux
let set_aux w v = W.set_u32 w off_aux v
let free_end p = B.get_u16 p off_free_end
let slot_off p i = B.get_u16 p (off_slots + (2 * i))
let set_slot w i v = W.set_u16 w (off_slots + (2 * i)) v

(* cell accessors -------------------------------------------------------- *)

let key_at p i =
  let off = slot_off p i in
  let klen = B.get_u16 p off in
  if is_leaf p then Bytes.sub_string p (off + 4) klen
  else Bytes.sub_string p (off + 6) klen

let leaf_value_at p i =
  let off = slot_off p i in
  let klen = B.get_u16 p off in
  let vlen = B.get_u16 p (off + 2) in
  Bytes.sub_string p (off + 4 + klen) vlen

let cell_child p i =
  let off = slot_off p i in
  B.get_u32 p (off + 2)

let child_at p i = if i = 0 then get_aux p else cell_child p (i - 1)

let cell_size p i =
  let off = slot_off p i in
  let klen = B.get_u16 p off in
  if is_leaf p then 4 + klen + B.get_u16 p (off + 2) else 6 + klen

(* search ---------------------------------------------------------------- *)

let compare_key p i key =
  let off = slot_off p i in
  let klen = B.get_u16 p off in
  let kpos = if is_leaf p then off + 4 else off + 6 in
  B.compare_sub p kpos klen (Bytes.unsafe_of_string key) 0 (String.length key)

let search p key =
  let n = nkeys p in
  let rec go lo hi =
    (* invariant: keys below lo are < key, keys at/above hi are > key *)
    if lo >= hi then `Gap lo
    else
      let mid = (lo + hi) / 2 in
      let c = compare_key p mid key in
      if c = 0 then `Found mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

let child_for p key =
  match search p key with
  | `Found i -> child_at p (i + 1)
  | `Gap i -> child_at p i

(* space management ------------------------------------------------------ *)

let contiguous p = free_end p - (off_slots + (2 * nkeys p))

let live_bytes p =
  let total = ref 0 in
  for i = 0 to nkeys p - 1 do
    total := !total + cell_size p i
  done;
  !total

let free_space p =
  let region = Page.size - free_end p in
  contiguous p + (region - live_bytes p)

let raw_cell p i =
  let off = slot_off p i in
  Bytes.sub_string p off (cell_size p i)

let compact w =
  let p = W.page w in
  let n = nkeys p in
  let cells = List.init n (fun i -> raw_cell p i) in
  let free = ref Page.size in
  List.iteri
    (fun i c ->
      let len = String.length c in
      free := !free - len;
      W.blit_string c 0 w !free len;
      set_slot w i !free)
    cells;
  W.set_u16 w off_free_end !free

(* slots [i, nkeys) move up one, opening slot [i] *)
let shift_slots_right w i =
  let n = nkeys (W.page w) in
  W.blit w (off_slots + (2 * i)) (off_slots + (2 * (i + 1))) (2 * (n - i))

(* slots [i + 1, nkeys) move down one, over slot [i] *)
let shift_slots_left w i =
  let n = nkeys (W.page w) in
  if i < n - 1 then
    W.blit w (off_slots + (2 * (i + 1))) (off_slots + (2 * i)) (2 * (n - 1 - i))

let insert_cell w i cell =
  let p = W.page w in
  let len = String.length cell in
  (* the contiguous gap is part of the free space, so only a cell that
     does not fit the gap pays for [free_space]'s walk over every slot *)
  if contiguous p < len + 2 && free_space p < len + 2 then false
  else begin
    if contiguous p < len + 2 then compact w;
    shift_slots_right w i;
    W.set_u16 w off_nkeys (nkeys p + 1);
    let off = free_end p - len in
    W.set_u16 w off_free_end off;
    W.blit_string cell 0 w off len;
    set_slot w i off;
    true
  end

let leaf_cell key value =
  let klen = String.length key and vlen = String.length value in
  let b = Bytes.create (4 + klen + vlen) in
  B.set_u16 b 0 klen;
  B.set_u16 b 2 vlen;
  Bytes.blit_string key 0 b 4 klen;
  Bytes.blit_string value 0 b (4 + klen) vlen;
  Bytes.to_string b

let interior_cell key child =
  let klen = String.length key in
  let b = Bytes.create (6 + klen) in
  B.set_u16 b 0 klen;
  B.set_u32 b 2 child;
  Bytes.blit_string key 0 b 6 klen;
  Bytes.to_string b

let leaf_insert w i key value = insert_cell w i (leaf_cell key value)
let interior_insert w i key child = insert_cell w i (interior_cell key child)

let delete_at w i =
  shift_slots_left w i;
  W.set_u16 w off_nkeys (nkeys (W.page w) - 1)

let leaf_delete w i = delete_at w i

let leaf_replace w i value =
  let p = W.page w in
  let off = slot_off p i in
  let klen = B.get_u16 p off in
  let vlen = B.get_u16 p (off + 2) in
  if String.length value = vlen then begin
    W.blit_string value 0 w (off + 4 + klen) (String.length value);
    true
  end
  else begin
    (* precheck so that failure leaves the node untouched: deleting the old
       cell reclaims its bytes and frees a slot for the reinsertion *)
    let reclaimed = 4 + klen + vlen + 2 in
    let need = 4 + klen + String.length value + 2 in
    if free_space p + reclaimed < need then false
    else begin
      let key = key_at p i in
      delete_at w i;
      let ok = insert_cell w i (leaf_cell key value) in
      assert ok;
      true
    end
  end

(* wholesale rebuilds (splits) ------------------------------------------- *)

let leaf_cells p = List.init (nkeys p) (fun i -> (key_at p i, leaf_value_at p i))

let leaf_rebuild w cells ~next =
  init_leaf w;
  set_aux w next;
  List.iteri
    (fun i (k, v) ->
      if not (leaf_insert w i k v) then
        invalid_arg "Bt_node.leaf_rebuild: does not fit")
    cells

let interior_cells p =
  (get_aux p, List.init (nkeys p) (fun i -> (key_at p i, cell_child p i)))

let interior_rebuild w child0 seps =
  init_interior w;
  set_aux w child0;
  List.iteri
    (fun i (k, c) ->
      if not (interior_insert w i k c) then
        invalid_arg "Bt_node.interior_rebuild: does not fit")
    seps

let interior_delete w i = delete_at w i
