module Bufpool = Ivdb_storage.Bufpool
module Page = Ivdb_storage.Page
module Disk = Ivdb_storage.Disk
module Page_writer = Ivdb_storage.Page_writer
module Txn = Ivdb_txn.Txn
module Log_record = Ivdb_wal.Log_record

exception Duplicate_key of string

module Metrics = Ivdb_util.Metrics

type t = {
  mgr : Txn.mgr;
  idx : int;
  root_pid : int;
  m_split : Metrics.counter;
  m_vacuum_freed : Metrics.counter;
}

let attach mgr ~index_id ~root =
  let m = Txn.metrics mgr in
  {
    mgr;
    idx = index_id;
    root_pid = root;
    m_split = Metrics.counter m "btree.split";
    m_vacuum_freed = Metrics.counter m "btree.vacuum_freed";
  }

let root t = t.root_pid
let pool t = Txn.pool t.mgr

(* Interior nodes are considered full when they might not accommodate one
   more worst-case separator; splitting preemptively on the way down
   guarantees parents always have room for the separator a child split
   promotes. *)
let interior_full p = Bt_node.free_space p < Bt_node.max_entry + 8 + 2

let create mgr ~index_id =
  let pid =
    Txn.system mgr (fun stx ->
        let pid = Disk.alloc_page (Txn.disk mgr) in
        let (), d = Bufpool.update (Txn.pool mgr) pid Bt_node.init_leaf in
        Txn.log_update mgr stx ~undo:Log_record.No_undo [ (pid, d) ];
        pid)
  in
  attach mgr ~index_id ~root:pid

(* --- descent ------------------------------------------------------------ *)

let rec find_leaf t pid key =
  let next =
    Bufpool.read (pool t) pid (fun p ->
        if Bt_node.is_leaf p then None else Some (Bt_node.child_for p key))
  in
  match next with None -> pid | Some child -> find_leaf t child key

let leaf_for t key = find_leaf t t.root_pid key

(* --- structure modifications (system transactions) ---------------------- *)

(* Where a full node splits: the cells that stay left, and the rest. [key]
   is the key the split makes room for. When it sorts after every cell, the
   new right sibling takes only the last cell, so an ascending load leaves
   full nodes behind it. Otherwise a rightmost leaf keeps about 90% of its
   bytes on the left (PostgreSQL's rule, for the nearly ascending keys that
   concurrent writers insert out of order), and any other node splits at
   half its bytes. Both halves keep a cell. *)
let split ~key ~rightmost size cells =
  let n = List.length cells in
  let m =
    if String.compare key (fst (List.nth cells (n - 1))) > 0 then n - 1
    else
      let total = List.fold_left (fun acc c -> acc + size c) 0 cells in
      let target = if rightmost then total * 9 / 10 else total / 2 in
      let rec go i acc = function
        | [] -> i
        | c :: rest ->
            let acc = acc + size c in
            if acc >= target then i else go (i + 1) acc rest
      in
      go 0 0 cells
  in
  let m = max 1 (min (n - 1) m) in
  (List.filteri (fun i _ -> i < m) cells, List.filteri (fun i _ -> i >= m) cells)

(* A leaf's halves and the separator the parent gets: the right half's
   first key. A leaf is rightmost when it has no next leaf. *)
let split_leaf_cells ~key cells ~next =
  let size (k, v) = 4 + String.length k + String.length v in
  let left, right = split ~key ~rightmost:(next = 0) size cells in
  (left, right, fst (List.hd right))

(* An interior node's halves: the right half's first separator moves up,
   and its child becomes the right node's leftmost child. *)
let split_interior_cells ~key seps =
  match split ~key ~rightmost:false (fun (k, _) -> 6 + String.length k) seps with
  | left, (sep_up, right_child0) :: right -> (left, sep_up, right_child0, right)
  | _, [] -> assert false

let split_leaf t stx ~key ~parent ~pid =
  let pl = pool t in
  let disk = Txn.disk t.mgr in
  let cells, next = Bufpool.read pl pid (fun p -> (Bt_node.leaf_cells p, Bt_node.get_aux p)) in
  let left, right, sep = split_leaf_cells ~key cells ~next in
  let rpid = Disk.alloc_page disk in
  let (), d_right =
    Bufpool.update pl rpid (fun w -> Bt_node.leaf_rebuild w right ~next)
  in
  let (), d_left =
    Bufpool.update pl pid (fun w -> Bt_node.leaf_rebuild w left ~next:rpid)
  in
  let (), d_parent =
    Bufpool.update pl parent (fun w ->
        match Bt_node.search (Page_writer.page w) sep with
        | `Found _ -> invalid_arg "Btree.split_leaf: separator already present"
        | `Gap i ->
            if not (Bt_node.interior_insert w i sep rpid) then
              invalid_arg "Btree.split_leaf: parent full")
  in
  Txn.log_update t.mgr stx ~undo:Log_record.No_undo
    [ (rpid, d_right); (pid, d_left); (parent, d_parent) ]

let split_interior t stx ~key ~parent ~pid =
  let pl = pool t in
  let disk = Txn.disk t.mgr in
  let child0, seps = Bufpool.read pl pid (fun p -> Bt_node.interior_cells p) in
  let left, sep_up, right_child0, right = split_interior_cells ~key seps in
  let rpid = Disk.alloc_page disk in
  let (), d_right =
    Bufpool.update pl rpid (fun w -> Bt_node.interior_rebuild w right_child0 right)
  in
  let (), d_left =
    Bufpool.update pl pid (fun w -> Bt_node.interior_rebuild w child0 left)
  in
  let (), d_parent =
    Bufpool.update pl parent (fun w ->
        match Bt_node.search (Page_writer.page w) sep_up with
        | `Found _ -> invalid_arg "Btree.split_interior: separator already present"
        | `Gap i ->
            if not (Bt_node.interior_insert w i sep_up rpid) then
              invalid_arg "Btree.split_interior: parent full")
  in
  Txn.log_update t.mgr stx ~undo:Log_record.No_undo
    [ (rpid, d_right); (pid, d_left); (parent, d_parent) ]

(* The root's page id is pinned: splitting it moves both halves into fresh
   children and turns the root into a one-separator interior node. *)
let split_root t stx ~key =
  let pl = pool t in
  let disk = Txn.disk t.mgr in
  let is_leaf = Bufpool.read pl t.root_pid (fun p -> Bt_node.is_leaf p) in
  let lpid = Disk.alloc_page disk in
  let rpid = Disk.alloc_page disk in
  if is_leaf then begin
    let cells, next =
      Bufpool.read pl t.root_pid (fun p -> (Bt_node.leaf_cells p, Bt_node.get_aux p))
    in
    let left, right, sep = split_leaf_cells ~key cells ~next in
    let (), d_l = Bufpool.update pl lpid (fun w -> Bt_node.leaf_rebuild w left ~next:rpid) in
    let (), d_r = Bufpool.update pl rpid (fun w -> Bt_node.leaf_rebuild w right ~next) in
    let (), d_root =
      Bufpool.update pl t.root_pid (fun w -> Bt_node.interior_rebuild w lpid [ (sep, rpid) ])
    in
    Txn.log_update t.mgr stx ~undo:Log_record.No_undo
      [ (lpid, d_l); (rpid, d_r); (t.root_pid, d_root) ]
  end
  else begin
    let child0, seps = Bufpool.read pl t.root_pid (fun p -> Bt_node.interior_cells p) in
    let left, sep_up, right_child0, right = split_interior_cells ~key seps in
    let (), d_l = Bufpool.update pl lpid (fun w -> Bt_node.interior_rebuild w child0 left) in
    let (), d_r =
      Bufpool.update pl rpid (fun w -> Bt_node.interior_rebuild w right_child0 right)
    in
    let (), d_root =
      Bufpool.update pl t.root_pid (fun w -> Bt_node.interior_rebuild w lpid [ (sep_up, rpid) ])
    in
    Txn.log_update t.mgr stx ~undo:Log_record.No_undo
      [ (lpid, d_l); (rpid, d_r); (t.root_pid, d_root) ]
  end

(* Make room on the path to [key] so that a leaf entry of [need] bytes can
   be inserted: one system transaction, splitting top-down. *)
let make_room t ~key ~need =
  let pl = pool t in
  Txn.system t.mgr (fun stx ->
      let root_needs_split =
        Bufpool.read pl t.root_pid (fun p ->
            if Bt_node.is_leaf p then Bt_node.free_space p < need + 2
            else interior_full p)
      in
      if root_needs_split then split_root t stx ~key;
      let rec descend pid =
        let action =
          Bufpool.read pl pid (fun p ->
              if Bt_node.is_leaf p then `Done
              else
                let child = Bt_node.child_for p key in
                let child_full =
                  Bufpool.read pl child (fun c ->
                      if Bt_node.is_leaf c then Bt_node.free_space c < need + 2
                      else interior_full c)
                in
                let child_is_leaf = Bufpool.read pl child (fun c -> Bt_node.is_leaf c) in
                if child_full then `Split (child, child_is_leaf) else `Descend child)
        in
        match action with
        | `Done -> ()
        | `Descend child -> descend child
        | `Split (child, child_is_leaf) ->
            if child_is_leaf then split_leaf t stx ~key ~parent:pid ~pid:child
            else split_interior t stx ~key ~parent:pid ~pid:child;
            (* re-route: the child for [key] may now be the new sibling *)
            let child' = Bufpool.read pl pid (fun p -> Bt_node.child_for p key) in
            descend child'
      in
      descend t.root_pid);
  Metrics.inc t.m_split

(* --- point operations ---------------------------------------------------- *)

let entry_size key value = 4 + String.length key + String.length value

let check_entry key value =
  if entry_size key value > Bt_node.max_entry then
    invalid_arg "Btree: entry exceeds max size"

let rec insert_apply t ~key ~value =
  let leaf = leaf_for t key in
  let status, diff =
    Bufpool.update (pool t) leaf (fun w ->
        match Bt_node.search (Page_writer.page w) key with
        | `Found _ -> `Dup
        | `Gap i -> if Bt_node.leaf_insert w i key value then `Ok else `Full)
  in
  match status with
  | `Ok -> [ (leaf, diff) ]
  | `Dup -> raise (Duplicate_key key)
  | `Full ->
      make_room t ~key ~need:(entry_size key value);
      insert_apply t ~key ~value

(* MVCC: every logged (transactional) entry mutation records the key's
   before-image against the transaction, so snapshot readers can resolve
   the key to its value as of their begin stamp. The _raw variants (undo
   execution, structure modifications) deliberately do not — undo restores
   storage to exactly the before-image already recorded. *)
let record_version txn t ~key before =
  Ivdb_txn.Mvcc.record_write (Txn.mvcc t.mgr) ~txn:(Txn.id txn) ~obj:t.idx ~key
    ~before

let insert ?undo txn t ~key ~value =
  check_entry key value;
  let diffs = insert_apply t ~key ~value in
  record_version txn t ~key None;
  Txn.log_update t.mgr txn
    ~undo:(Option.value undo ~default:(Log_record.Undo_bt_insert { index = t.idx; key }))
    diffs

let insert_raw t ~key ~value =
  check_entry key value;
  insert_apply t ~key ~value

let delete_apply t ~key =
  let leaf = leaf_for t key in
  let status, diff =
    Bufpool.update (pool t) leaf (fun w ->
        let p = Page_writer.page w in
        match Bt_node.search p key with
        | `Found i ->
            let v = Bt_node.leaf_value_at p i in
            Bt_node.leaf_delete w i;
            `Deleted v
        | `Gap _ -> `Missing)
  in
  match status with
  | `Deleted v -> (v, [ (leaf, diff) ])
  | `Missing -> raise Not_found

let delete txn t ~key =
  let value, diffs = delete_apply t ~key in
  record_version txn t ~key (Some value);
  Txn.log_update t.mgr txn
    ~undo:(Log_record.Undo_bt_delete { index = t.idx; key; value })
    diffs

let delete_raw t ~key = snd (delete_apply t ~key)

let rec update_apply t ~key ~value =
  let leaf = leaf_for t key in
  let status, diff =
    Bufpool.update (pool t) leaf (fun w ->
        let p = Page_writer.page w in
        match Bt_node.search p key with
        | `Found i ->
            let before = Bt_node.leaf_value_at p i in
            if Bt_node.leaf_replace w i value then `Ok before else `Full
        | `Gap _ -> `Missing)
  in
  match status with
  | `Ok before -> (before, [ (leaf, diff) ])
  | `Missing -> raise Not_found
  | `Full ->
      make_room t ~key ~need:(entry_size key value);
      update_apply t ~key ~value

let update ?undo txn t ~key ~value =
  check_entry key value;
  let before, diffs = update_apply t ~key ~value in
  (* An escrow increment's stored before-image includes *other* in-flight
     transactions' uncommitted deltas, so it is not a committed value and
     must not enter a version chain; the committed pre-image is instead
     reconstructed from the in-flight registry when the increment commits
     (Database's end hook). *)
  (match undo with
  | Some (Log_record.Undo_escrow _) -> ()
  | Some _ | None -> record_version txn t ~key (Some before));
  let undo =
    match undo with
    | Some u -> u
    | None -> Log_record.Undo_bt_update { index = t.idx; key; before }
  in
  Txn.log_update t.mgr txn ~undo diffs

let update_raw t ~key ~value =
  check_entry key value;
  snd (update_apply t ~key ~value)

let search t key =
  let leaf = leaf_for t key in
  Bufpool.read (pool t) leaf (fun p ->
      match Bt_node.search p key with
      | `Found i -> Some (Bt_node.leaf_value_at p i)
      | `Gap _ -> None)

(* --- ordered access ------------------------------------------------------ *)

type cursor = { cpid : int; cslot : int; clsn : int64; clast : string }

let entry_at t pid slot =
  Bufpool.read (pool t) pid (fun p ->
      (Bt_node.key_at p slot, Bt_node.leaf_value_at p slot, Page.get_lsn p))

(* Position at the first entry >= key, walking right past empty leaves. *)
let rec position t pid key =
  let outcome =
    Bufpool.read (pool t) pid (fun p ->
        let n = Bt_node.nkeys p in
        let i = match Bt_node.search p key with `Found i -> i | `Gap i -> i in
        if i < n then `Here i else `Chain (Bt_node.get_aux p))
  in
  match outcome with
  | `Here i -> Some (pid, i)
  | `Chain 0 -> None
  | `Chain next -> position t next key

let seek t key =
  match position t (leaf_for t key) key with
  | None -> None
  | Some (pid, slot) ->
      let k, v, lsn = entry_at t pid slot in
      Some (k, v, { cpid = pid; cslot = slot; clsn = lsn; clast = k })

(* Strictly-greater variant used by next-key probes and cursor restarts. *)
let succ_of t key =
  let leaf = leaf_for t key in
  let rec from pid idx_opt =
    let outcome =
      Bufpool.read (pool t) pid (fun p ->
          let n = Bt_node.nkeys p in
          let i =
            match idx_opt with
            | Some i -> i
            | None -> (
                match Bt_node.search p key with `Found i -> i + 1 | `Gap i -> i)
          in
          if i < n then `Here i else `Chain (Bt_node.get_aux p))
    in
    match outcome with
    | `Here i -> Some (pid, i)
    | `Chain 0 -> None
    | `Chain next -> from next (Some 0)
  in
  from leaf None

let next_key t key =
  match succ_of t key with
  | None -> None
  | Some (pid, slot) ->
      let k, v, _ = entry_at t pid slot in
      Some (k, v)

let cursor_next t c =
  (* fast path: same unmodified leaf *)
  let fast =
    Bufpool.read (pool t) c.cpid (fun p ->
        if Page.get_lsn p = c.clsn && c.cslot + 1 < Bt_node.nkeys p then
          Some (Bt_node.key_at p (c.cslot + 1), Bt_node.leaf_value_at p (c.cslot + 1))
        else None)
  in
  match fast with
  | Some (k, v) ->
      Some (k, v, { cpid = c.cpid; cslot = c.cslot + 1; clsn = c.clsn; clast = k })
  | None -> (
      (* the leaf changed (or is exhausted): reposition by key *)
      match succ_of t c.clast with
      | None -> None
      | Some (pid, slot) ->
          let k, v, lsn = entry_at t pid slot in
          Some (k, v, { cpid = pid; cslot = slot; clsn = lsn; clast = k }))

let iter t f =
  let rec go = function
    | None -> ()
    | Some (k, v, c) ->
        f k v;
        go (cursor_next t c)
  in
  go (seek t "")

(* --- vacuum: reclaim the debris of lazy deletion -------------------------- *)

(* One system transaction per pass. A pass walks every interior node and
   drops child pointers to empty leaves and to separator-less interior
   nodes (replacing the latter by their only child); freed pages are
   re-typed Free. Afterwards the leaf chain is re-linked in key order and a
   separator-less root is collapsed into its single child (the root's page
   id is pinned, so the child's contents move up). Passes repeat until a
   fixpoint, which bounds to the tree height. *)
let vacuum t =
  let pl = pool t in
  let freed = ref 0 in
  let read_node pid f = Bufpool.read pl pid f in
  let is_removable pid =
    read_node pid (fun p ->
        if Bt_node.is_leaf p then
          if Bt_node.nkeys p = 0 then `Empty_leaf else `Keep
        else if Bt_node.nkeys p = 0 then `Forward (Bt_node.get_aux p)
        else `Keep)
  in
  let pass stx =
    let changed = ref false in
    let free_page pid =
      let (), d = Bufpool.update pl pid (fun w -> Page.set_ty w Page.Free) in
      Txn.log_update t.mgr stx ~undo:Log_record.No_undo [ (pid, d) ];
      incr freed;
      changed := true
    in
    let rec walk pid =
      let is_interior = read_node pid (fun p -> not (Bt_node.is_leaf p)) in
      if is_interior then begin
        let child0, seps = read_node pid (fun p -> Bt_node.interior_cells p) in
        (* children first, so collapses propagate bottom-up across passes *)
        List.iter walk (child0 :: List.map snd seps);
        let keep_or_forward c =
          match is_removable c with
          | `Keep -> `Keep c
          | `Empty_leaf -> `Drop
          | `Forward c' -> `Forward c'
        in
        let (), d =
          Bufpool.update pl pid (fun w ->
              let p = Page_writer.page w in
              (* separators right-to-left so slot indexes stay valid *)
              let n = Bt_node.nkeys p in
              for i = n - 1 downto 0 do
                let c = Bt_node.child_at p (i + 1) in
                match keep_or_forward c with
                | `Keep _ -> ()
                | `Drop ->
                    Bt_node.interior_delete w i;
                    free_page c
                | `Forward c' ->
                    (* replace the pointer in place: rebuild the separator *)
                    let k = Bt_node.key_at p i in
                    Bt_node.interior_delete w i;
                    ignore (Bt_node.interior_insert w i k c');
                    free_page c
              done;
              (* the aux (leftmost) child *)
              let c0 = Bt_node.get_aux p in
              match keep_or_forward c0 with
              | `Keep _ -> ()
              | `Forward c' ->
                  Bt_node.set_aux w c';
                  free_page c0
              | `Drop ->
                  if Bt_node.nkeys p > 0 then begin
                    (* promote the first separator's child to aux *)
                    let c1 = Bt_node.child_at p 1 in
                    Bt_node.interior_delete w 0;
                    Bt_node.set_aux w c1;
                    free_page c0
                  end
                  (* a node whose only child is an empty leaf keeps it: the
                     tree retains at least one leaf *))
        in
        Txn.log_update t.mgr stx ~undo:Log_record.No_undo [ (pid, d) ]
      end
    in
    walk t.root_pid;
    (* root collapse: a separator-less interior root absorbs its only child
       (the root page id is pinned) *)
    let collapse =
      read_node t.root_pid (fun p ->
          if (not (Bt_node.is_leaf p)) && Bt_node.nkeys p = 0 then
            Some (Bt_node.get_aux p)
          else None)
    in
    (match collapse with
    | Some child ->
        let child_is_leaf, cells, caux, cseps =
          read_node child (fun p ->
              if Bt_node.is_leaf p then (true, Bt_node.leaf_cells p, Bt_node.get_aux p, (0, []))
              else (false, [], 0, Bt_node.interior_cells p))
        in
        let (), d_root =
          Bufpool.update pl t.root_pid (fun w ->
              if child_is_leaf then Bt_node.leaf_rebuild w cells ~next:caux
              else
                let c0, seps = cseps in
                Bt_node.interior_rebuild w c0 seps)
        in
        Txn.log_update t.mgr stx ~undo:Log_record.No_undo [ (t.root_pid, d_root) ];
        free_page child
    | None -> ());
    !changed
  in
  let relink_chain stx =
    (* collect remaining leaves in key order by structural descent *)
    let rec leaves pid =
      read_node pid (fun p ->
          if Bt_node.is_leaf p then [ pid ]
          else
            List.concat_map leaves
              (let c0, seps = Bt_node.interior_cells p in
               c0 :: List.map snd seps))
    in
    let ordered = leaves t.root_pid in
    let rec relink = function
      | [] -> ()
      | [ last ] ->
          let (), d = Bufpool.update pl last (fun w -> Bt_node.set_aux w 0) in
          Txn.log_update t.mgr stx ~undo:Log_record.No_undo [ (last, d) ]
      | a :: (b :: _ as rest) ->
          let (), d = Bufpool.update pl a (fun w -> Bt_node.set_aux w b) in
          Txn.log_update t.mgr stx ~undo:Log_record.No_undo [ (a, d) ];
          relink rest
    in
    relink ordered
  in
  Txn.system t.mgr (fun stx ->
      let rec fixpoint n = if n > 0 && pass stx then fixpoint (n - 1) in
      fixpoint 32;
      relink_chain stx);
  if !freed > 0 then
    Metrics.inc_by t.m_vacuum_freed !freed;
  !freed
