type rid = { rpage : int; rslot : int }

let pp_rid ppf r = Format.fprintf ppf "(%d,%d)" r.rpage r.rslot
let rid_compare a b = Stdlib.compare (a.rpage, a.rslot) (b.rpage, b.rslot)

let encode_rid r =
  let b = Bytes.create 6 in
  Ivdb_util.Bytes_util.set_u32 b 0 r.rpage;
  Ivdb_util.Bytes_util.set_u16 b 4 r.rslot;
  Bytes.unsafe_to_string b

let decode_rid s =
  if String.length s <> 6 then invalid_arg "Heap_file.decode_rid";
  let b = Bytes.unsafe_of_string s in
  { rpage = Ivdb_util.Bytes_util.get_u32 b 0; rslot = Ivdb_util.Bytes_util.get_u16 b 4 }

module Metrics = Ivdb_util.Metrics

(* Page ids of one heap ascend along its chain (the disk allocator is
   monotone and [grow] appends), so the largest id in a set is its newest
   page. *)
module Page_set = Set.Make (Int)

type t = {
  pool : Bufpool.t;
  disk : Disk.t;
  first : int;
  mutable pages : int array; (* chain, first..tail, in [0, npages) *)
  mutable npages : int;
  mutable room : Page_set.t option;
      (* free-space map: non-tail pages that may have room; [None] when
         stale, rebuilt from the pages by the next insert that needs it *)
  m_probe : Metrics.counter;
  m_grow : Metrics.counter;
}

type diffs = (int * Page_diff.t) list

let make pool disk ~first pages =
  let metrics = Bufpool.metrics pool in
  {
    pool;
    disk;
    first;
    pages;
    npages = Array.length pages;
    room = None;
    m_probe = Metrics.counter metrics "heap.probe";
    m_grow = Metrics.counter metrics "heap.grow";
  }

let tail t = t.pages.(t.npages - 1)

let push t pid =
  if t.npages = Array.length t.pages then begin
    let bigger = Array.make (2 * t.npages) 0 in
    Array.blit t.pages 0 bigger 0 t.npages;
    t.pages <- bigger
  end;
  t.pages.(t.npages) <- pid;
  t.npages <- t.npages + 1

let create pool disk =
  let pid = Disk.alloc_page disk in
  let (), diff = Bufpool.update pool pid Heap_page.init in
  let t = make pool disk ~first:pid [| pid |] in
  t.room <- Some Page_set.empty;
  (t, [ (pid, diff) ])

(* Adopt pages that appeared past the cached tail. Physical redo (a
   follower applying replicated diffs) grows the on-disk chain without
   going through [grow], so the in-memory chain goes stale; re-walking the
   next pointers from the old tail repairs it. Redo also frees and fills
   slots behind the handle, so the free-space map is dropped too. *)
let refresh t =
  t.room <- None;
  let rec adopt pid =
    let next = Bufpool.read t.pool pid (fun p -> Heap_page.get_next p) in
    if next <> 0 then begin
      push t next;
      adopt next
    end
  in
  adopt (tail t)

let attach pool disk ~first_page =
  let t = make pool disk ~first:first_page [| first_page |] in
  refresh t;
  t

let first_page t = t.first

let grow t =
  let pid = Disk.alloc_page t.disk in
  let (), d_new = Bufpool.update t.pool pid Heap_page.init in
  let old_tail = tail t in
  let (), d_tail = Bufpool.update t.pool old_tail (fun w -> Heap_page.set_next w pid) in
  push t pid;
  Metrics.inc t.m_grow;
  (pid, [ (pid, d_new); (old_tail, d_tail) ])

let room t =
  match t.room with
  | Some set -> set
  | None ->
      let set = ref Page_set.empty in
      for i = 0 to t.npages - 2 do
        let pid = t.pages.(i) in
        if Bufpool.read t.pool pid Heap_page.free_space > 0 then
          set := Page_set.add pid !set
      done;
      t.room <- Some !set;
      !set

(* Placement: the tail, then the newest page of the free-space map, then a
   fresh page. A page leaves the map on its first failed probe, so each
   freed slot costs at most one wasted pin. *)
let insert t record =
  let try_page pid =
    Metrics.inc t.m_probe;
    let slot_opt, diff =
      Bufpool.update t.pool pid (fun w -> Heap_page.insert w record)
    in
    match slot_opt with
    | Some slot -> Some ({ rpage = pid; rslot = slot }, [ (pid, diff) ])
    | None -> None
  in
  let rec from_map () =
    let set = room t in
    match Page_set.max_elt_opt set with
    | None -> None
    | Some pid -> (
        match try_page pid with
        | Some r -> Some r
        | None ->
            t.room <- Some (Page_set.remove pid set);
            from_map ())
  in
  match try_page (tail t) with
  | Some r -> r
  | None -> (
      match from_map () with
      | Some r -> r
      | None -> (
          let pid, grow_diffs = grow t in
          match try_page pid with
          | Some (rid, ds) -> (rid, grow_diffs @ ds)
          | None -> invalid_arg "Heap_file.insert: record too large"))

let delete t rid =
  let ok, diff =
    Bufpool.update t.pool rid.rpage (fun w -> Heap_page.delete w rid.rslot)
  in
  if not ok then raise Not_found;
  [ (rid.rpage, diff) ]

let revive t rid =
  let ok, diff =
    Bufpool.update t.pool rid.rpage (fun w -> Heap_page.revive w rid.rslot)
  in
  if not ok then raise Not_found;
  [ (rid.rpage, diff) ]

let free_ghost t rid =
  let ok, diff =
    Bufpool.update t.pool rid.rpage (fun w -> Heap_page.free_ghost w rid.rslot)
  in
  if not ok then []
  else begin
    (match t.room with
    | Some set when rid.rpage <> tail t -> t.room <- Some (Page_set.add rid.rpage set)
    | Some _ | None -> ());
    [ (rid.rpage, diff) ]
  end

let update t rid record =
  let status, diff =
    Bufpool.update t.pool rid.rpage (fun w ->
        match Heap_page.get (Page_writer.page w) rid.rslot with
        | None -> `Missing
        | Some old ->
            if String.length old <> String.length record then `Size_change
            else begin
              ignore (Heap_page.set w rid.rslot record);
              `Ok
            end)
  in
  match status with
  | `Ok -> [ (rid.rpage, diff) ]
  | `Missing -> raise Not_found
  | `Size_change -> invalid_arg "Heap_file.update: size change"

let get t rid =
  Bufpool.read t.pool rid.rpage (fun p -> Heap_page.get p rid.rslot)

let get_any t rid =
  Bufpool.read t.pool rid.rpage (fun p -> Heap_page.get_any p rid.rslot)

let iter_pages t f =
  for i = 0 to t.npages - 1 do
    f t.pages.(i)
  done

let iter t f =
  iter_pages t
    (fun pid ->
      let records =
        Bufpool.read t.pool pid (fun p ->
            let acc = ref [] in
            Heap_page.iter p (fun slot r -> acc := (slot, r) :: !acc);
            List.rev !acc)
      in
      List.iter (fun (slot, r) -> f { rpage = pid; rslot = slot } r) records)

let iter_all t f =
  iter_pages t
    (fun pid ->
      let records =
        Bufpool.read t.pool pid (fun p ->
            let acc = ref [] in
            Heap_page.iter p (fun slot r -> acc := (slot, r, false) :: !acc);
            Heap_page.iter_ghosts p (fun slot -> acc := (slot, "", true) :: !acc);
            List.sort (fun (a, _, _) (b, _, _) -> compare a b) !acc)
      in
      List.iter
        (fun (slot, r, ghost) -> f { rpage = pid; rslot = slot } r ~ghost)
        records)

let ghosts t =
  let acc = ref [] in
  iter_pages t (fun pid ->
      Bufpool.read t.pool pid (fun p ->
          Heap_page.iter_ghosts p (fun slot -> acc := { rpage = pid; rslot = slot } :: !acc)));
  !acc
