(** The system catalog: tables, secondary indexes, and indexed views.

    The catalog is volatile state rebuilt on restart: every DDL statement
    logs an opaque {!op} payload, and each checkpoint embeds a full
    {!encode_snapshot}. Recovery restores the snapshot from the governing
    checkpoint and replays the committed DDL records that follow it. *)

type table_meta = {
  tb_id : int;
  tb_name : string;
  tb_cols : (string * Ivdb_relation.Value.ty * bool) array;
      (** (name, type, nullable) *)
  tb_first_page : int;
}

type index_meta = {
  ix_id : int;
  ix_name : string;
  ix_table : int;
  ix_col : int;  (** indexed column position *)
  ix_unique : bool;
  ix_root : int;
}

type view_meta = {
  vw_id : int;
  vw_name : string;
  vw_def : Ivdb_core.View_def.t;
  vw_root : int;
  vw_strategy : Ivdb_core.Maintain.strategy;
  vw_create_mode : Ivdb_core.Maintain.create_mode;
  vw_refresh_threshold : int option;
      (** deferred views: transactional readers drain the queue first when
          staleness exceeds this *)
  vw_queue : (int * int) option;  (** (queue id, queue first page) if deferred *)
}

type op = Add_table of table_meta | Add_index of index_meta | Add_view of view_meta

type t

val create : unit -> t
val fresh_id : t -> int
val apply_op : t -> op -> unit

val tables : t -> table_meta list
val indexes : t -> index_meta list
val views : t -> view_meta list

val table_named : t -> string -> table_meta option
val view_named : t -> string -> view_meta option
val indexes_of_table : t -> int -> index_meta list

val check_name : t -> string -> unit
(** Tables, indexes and views share one namespace: raises
    [Invalid_argument] if [name] already names one of them. *)

val encode_op : op -> string
val decode_op : string -> op
val encode_snapshot : t -> string
val decode_snapshot : string -> t

val schema_of : table_meta -> Ivdb_relation.Schema.t
