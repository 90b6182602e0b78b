module B = Ivdb_util.Bytes_util
module W = Page_writer

let off_next = Page.header_size
let off_nslots = off_next + 4
let off_free_end = off_nslots + 2
let off_first_empty = off_free_end + 2
let off_slots = off_first_empty + 2
let ghost_bit = 0x8000
let no_empty = 0xFFFF

let init w =
  Page.set_ty w Page.Heap;
  W.set_u32 w off_next 0;
  W.set_u16 w off_nslots 0;
  W.set_u16 w off_free_end Page.size;
  W.set_u16 w off_first_empty no_empty

let get_next p = B.get_u32 p off_next
let set_next w v = W.set_u32 w off_next v
let nslots p = B.get_u16 p off_nslots
let free_end p = B.get_u16 p off_free_end
let first_empty p = B.get_u16 p off_first_empty
let raw_slot p i = B.get_u16 p (off_slots + (2 * i))
let set_slot w i v = W.set_u16 w (off_slots + (2 * i)) v
let max_record = Page.size - off_slots - 2 - 2

let slot_state p i =
  if i >= nslots p then `Empty
  else
    let v = raw_slot p i in
    if v = 0 then `Empty
    else if v land ghost_bit <> 0 then `Ghost (v land lnot ghost_bit)
    else `Live v

let read_cell p off =
  let len = B.get_u16 p off in
  Bytes.sub_string p (off + 2) len

let get p i = match slot_state p i with `Live off -> Some (read_cell p off) | _ -> None

let get_any p i =
  match slot_state p i with
  | `Live off | `Ghost off -> Some (read_cell p off)
  | `Empty -> None

let cell_bytes p i =
  match slot_state p i with
  | `Live off | `Ghost off -> 2 + B.get_u16 p off
  | `Empty -> 0

let live_bytes p =
  let total = ref 0 in
  for i = 0 to nslots p - 1 do
    total := !total + cell_bytes p i
  done;
  !total

let contiguous p = free_end p - (off_slots + (2 * nslots p))

let free_space p =
  let region = Page.size - free_end p in
  contiguous p + (region - live_bytes p)

(* Cells, live and ghost, move to the end of the page in slot order, slot
   0's cell last, and keep their slots. The new slot directory and cell
   area are assembled in the writer's scratch buffer at their page
   offsets (they are disjoint), then written with one blit each. *)
let compact w =
  let p = W.page w in
  let s = W.scratch w in
  let n = nslots p in
  let free = Page.size - live_bytes p in
  Bytes.blit p off_slots s off_slots (2 * n);
  let pos = ref Page.size in
  for i = 0 to n - 1 do
    let v = raw_slot p i in
    if v <> 0 then begin
      let off = v land lnot ghost_bit in
      let len = 2 + B.get_u16 p off in
      pos := !pos - len;
      Bytes.blit p off s !pos len;
      B.set_u16 s (off_slots + (2 * i)) (!pos lor (v land ghost_bit))
    end
  done;
  W.blit_bytes s off_slots w off_slots (2 * n);
  W.blit_bytes s free w free (Page.size - free);
  W.set_u16 w off_free_end free

(* The lowest empty slot at or above [i], or [no_empty]. *)
let rec empty_from p i =
  if i >= nslots p then no_empty else if raw_slot p i = 0 then i else empty_from p (i + 1)

let insert w record =
  let p = W.page w in
  let len = String.length record in
  if len > max_record then invalid_arg "Heap_page.insert: record too large";
  let slot, slot_cost =
    match first_empty p with e when e = no_empty -> (nslots p, 2) | e -> (e, 0)
  in
  let need = 2 + len + slot_cost in
  (* the contiguous gap is part of the free space, so only a record that
     does not fit the gap pays for [free_space]'s walk over every slot *)
  if contiguous p < need && free_space p < need then None
  else begin
    if contiguous p < need then compact w;
    if slot = nslots p then W.set_u16 w off_nslots (slot + 1);
    let off = free_end p - (2 + len) in
    W.set_u16 w off_free_end off;
    W.set_u16 w off len;
    W.blit_string record 0 w (off + 2) len;
    set_slot w slot off;
    if slot_cost = 0 then W.set_u16 w off_first_empty (empty_from p (slot + 1));
    Some slot
  end

let delete w i =
  match slot_state (W.page w) i with
  | `Live off ->
      set_slot w i (off lor ghost_bit);
      true
  | `Ghost _ | `Empty -> false

let revive w i =
  match slot_state (W.page w) i with
  | `Ghost off ->
      set_slot w i off;
      true
  | `Live _ | `Empty -> false

let free_ghost w i =
  match slot_state (W.page w) i with
  | `Ghost _ ->
      set_slot w i 0;
      if i < first_empty (W.page w) then W.set_u16 w off_first_empty i;
      true
  | `Live _ | `Empty -> false

let set w i record =
  let p = W.page w in
  match slot_state p i with
  | `Live off when B.get_u16 p off = String.length record ->
      W.blit_string record 0 w (off + 2) (String.length record);
      true
  | `Live _ | `Ghost _ | `Empty -> false

let iter p f =
  for i = 0 to nslots p - 1 do
    match slot_state p i with `Live off -> f i (read_cell p off) | `Ghost _ | `Empty -> ()
  done

let iter_ghosts p f =
  for i = 0 to nslots p - 1 do
    match slot_state p i with `Ghost _ -> f i | `Live _ | `Empty -> ()
  done
