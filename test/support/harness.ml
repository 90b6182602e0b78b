(* Shared wiring for engine-level tests: a disk, a pool honouring the WAL
   rule, a log, a lock manager, and a transaction manager. *)

module Metrics = Ivdb_util.Metrics
module Disk = Ivdb_storage.Disk
module Bufpool = Ivdb_storage.Bufpool
module Wal = Ivdb_wal.Wal
module Lock_mgr = Ivdb_lock.Lock_mgr
module Txn = Ivdb_txn.Txn
module Heap_file = Ivdb_storage.Heap_file
module Heap_page = Ivdb_storage.Heap_page

type t = {
  metrics : Metrics.t;
  disk : Disk.t;
  pool : Bufpool.t;
  wal : Wal.t;
  locks : Lock_mgr.t;
  mgr : Txn.mgr;
}

let wire ?commit_mode ~metrics ~disk ~pool_capacity () =
  let pool = Bufpool.create disk ~capacity:pool_capacity metrics in
  let wal = Wal.create metrics in
  Bufpool.set_wal_force pool (fun lsn -> Wal.force wal (Int64.to_int lsn));
  let locks = Lock_mgr.create metrics in
  let mgr = Txn.create_mgr ?commit_mode ~wal ~locks ~pool metrics in
  { metrics; disk; pool; wal; locks; mgr }

let make ?commit_mode ?(pool_capacity = 64) ?(read_cost = 0) ?(write_cost = 0) () =
  let metrics = Metrics.create () in
  let disk = Disk.create ~read_cost ~write_cost metrics in
  wire ?commit_mode ~metrics ~disk ~pool_capacity ()

(* Simulated crash: keep the disk and the stable log, lose the pool. *)
let crash t ~pool_capacity =
  let metrics = Metrics.create () in
  let pool = Bufpool.create t.disk ~capacity:pool_capacity metrics in
  let wal = Wal.crash t.wal metrics in
  Bufpool.set_wal_force pool (fun lsn -> Wal.force wal (Int64.to_int lsn));
  let locks = Lock_mgr.create metrics in
  let mgr = Txn.create_mgr ~wal ~locks ~pool metrics in
  { metrics; disk = t.disk; pool; wal; locks; mgr }

(* A heap file's page chain, walked through the next pointers. *)
let heap_pages pool heap =
  let rec walk pid acc =
    let next = Bufpool.read pool pid Heap_page.get_next in
    if next = 0 then List.rev (pid :: acc) else walk next (pid :: acc)
  in
  walk (Heap_file.first_page heap) []
