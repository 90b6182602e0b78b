module Txn = Ivdb_txn.Txn
module Btree = Ivdb_btree.Btree
module Row = Ivdb_relation.Row
module Lock_name = Ivdb_lock.Lock_name
module Lock_mgr = Ivdb_lock.Lock_mgr

let zero_keys rt =
  let acc = ref [] in
  Btree.iter rt.Maintain.tree (fun key value ->
      if Aggregate.count_of (Row.decode value) = 0 then acc := key :: !acc);
  List.rev !acc

let zero_count_rows rt = List.length (zero_keys rt)

let run mgr rt =
  let locks = Txn.locks mgr in
  let removed = ref 0 in
  List.iter
    (fun key ->
      (* reclaim only rows no transaction is touching or awaiting; the
         cooperative scheduler makes the probe + delete atomic *)
      if Lock_mgr.unlocked locks (Lock_name.Key (rt.Maintain.vid, key)) then begin
        match Btree.search rt.Maintain.tree key with
        | Some value when Aggregate.count_of (Row.decode value) = 0 ->
            Txn.system mgr (fun stx -> Btree.delete stx rt.Maintain.tree ~key);
            incr removed;
            rt.Maintain.vstats.Maintain.v_gc_zero <-
              rt.Maintain.vstats.Maintain.v_gc_zero + 1;
            rt.Maintain.vstats.Maintain.v_system_txns <-
              rt.Maintain.vstats.Maintain.v_system_txns + 1;
            Maintain.note_gc_removed rt;
            let tr = Txn.trace mgr in
            if Ivdb_util.Trace.enabled tr then
              Ivdb_util.Trace.emit tr
                (Ivdb_util.Trace.Group_gc { view = rt.Maintain.vid; key })
        | Some _ | None -> ()
      end)
    (zero_keys rt);
  !removed
