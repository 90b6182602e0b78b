(** Execute SQL against an {!Ivdb.Database}.

    A {!session} wraps a database plus an optional open transaction
    (driven by [BEGIN] / [COMMIT] / [ROLLBACK]). Statements outside an open
    transaction autocommit; reads inside a transaction are serializable,
    autocommitted reads are unlocked snapshots of the committed state.

    The dialect (see {!Sql_ast}):
    {v
      CREATE TABLE t (a INT NOT NULL, b TEXT, c FLOAT)
      CREATE [UNIQUE] INDEX ix ON t (a)
      CREATE VIEW v AS
        SELECT a, COUNT( * ), SUM(c) FROM t [JOIN u ON a = d]
        [WHERE ...] GROUP BY a
        [USING ESCROW | EXCLUSIVE | DEFERRED [REFRESH THRESHOLD n]]
      INSERT INTO t VALUES (1, 'x', 2.5), (2, NULL, 0.0)
      DELETE FROM t WHERE a = 1
      UPDATE t SET c = c + 1 WHERE b = 'x'
      SELECT a, b FROM t WHERE c > 2 ORDER BY a DESC LIMIT 10
      SELECT * FROM v                         -- an indexed view, instantly
      SELECT a, sum FROM v WHERE sum > 3      -- a view's columns are its
        ORDER BY sum DESC LIMIT 5             -- GROUP BY columns and its
                                              -- aggregates' labels (count( * ),
                                              -- count, sum, min, max)
      SELECT b, COUNT( * ), AVG(c) FROM t
        GROUP BY b HAVING SUM(c) > 10         -- on-demand aggregation; a
                                              -- matching view is used
                                              -- automatically. HAVING follows
                                              -- WHERE's NULL rules: a NULL
                                              -- aggregate passes no comparison
      EXPLAIN SELECT ...                      -- access-path and view plans
      EXPLAIN ANALYZE SELECT ...              -- runs the query: per-operator
                                              -- row counts, index probes,
                                              -- lock waits, buffer traffic,
                                              -- simulated ticks
      EXPLAIN UPDATE ... / EXPLAIN DELETE ... -- the access plan the write
                                              -- reads its rows through (the
                                              -- SELECT planner's)
      BEGIN / COMMIT / ROLLBACK
      SAVEPOINT name / ROLLBACK TO name
      CHECKPOINT / SHOW TABLES / SHOW VIEWS / SHOW METRICS
      SELECT * FROM sys.transactions          -- live engine introspection:
                                              -- sys.locks, sys.lock_waits,
                                              -- sys.views, sys.bufpool,
                                              -- sys.wal, sys.metrics, ...
    v} *)

exception Sql_error of string
(** A statement the session cannot run: an unknown name, an unsupported
    shape, a value that does not fit its column, or an operand of the
    wrong type ({!Ivdb_relation.Value.Type_error}, reported as
    ["type error: ..."]). *)

type session

val session : Ivdb.Database.t -> session
val db : session -> Ivdb.Database.t
val in_transaction : session -> bool

val prepare_2pc : session -> gtxn:string -> [ `Prepared | `Read_only ]
(** 2PC phase 1 on the session's open transaction (see
    {!Ivdb.Database.prepare_2pc}): force-writes the Prepare record and
    detaches the transaction from the session — after this the handle
    lives in the engine's in-doubt table and only a decision (possibly
    after crash recovery) finishes it; a session disconnect no longer
    rolls it back. A transaction that logged nothing commits on the spot
    and answers [`Read_only]. Raises {!Sql_error} if no read-write
    transaction is open. *)

val add_sys_provider :
  session -> string -> (unit -> string list * Ivdb_relation.Row.t list) -> unit
(** [add_sys_provider s name f] registers (or replaces) an
    environment-supplied [sys.*] table on this session: [f ()] returns the
    header and rows, materialized fresh per query. Registered providers
    shadow the built-ins of {!Sys_tables}; the serving layer uses this to
    inject live [sys.server_sessions] and [sys.slow_queries]. *)

type result =
  | Rows of { header : string list; rows : Ivdb_relation.Row.t list }
  | Affected of int
  | Message of string

val select_over :
  Sql_ast.select -> string list * Ivdb_relation.Row.t list -> result
(** [select_over q (header, rows)] evaluates a parsed SELECT over an
    already-materialized relation, its columns named by [header]: WHERE,
    projection by name, ORDER BY / LIMIT. It is the evaluator for every
    such relation: an indexed view's stored groups (on one engine, and
    combined from a cluster's shards by the coordinator), the [sys.*]
    tables, and the coordinator's own catalogs ([sys.gtxns],
    [sys.coord_shards], [sys.cluster_metrics]). Joins, GROUP BY and
    aggregates are refused with {!Sql_error}, as is an operand of the
    wrong type. *)

val order_limit : Sql_ast.select -> string list * Ivdb_relation.Row.t list -> result
(** ORDER BY and LIMIT alone, over rows already filtered and projected:
    the coordinator's merge of a statement fanned out to its shards. *)

val value_of_lit : Sql_ast.lit -> Ivdb_relation.Value.t

val conjuncts : Sql_ast.expr -> Sql_ast.expr list
(** The top-level [AND] terms of a WHERE. *)

val is_sys_name : string -> bool
(** [sys.]-prefixed relation names, the introspection tables. *)

val is_grouped : Sql_ast.select -> bool
(** Has GROUP BY or an aggregate in its select list. *)

val combine_view_rows :
  groups:int -> string list -> Ivdb_relation.Row.t list -> Ivdb_relation.Row.t list
(** [combine_view_rows ~groups header rows] merges an indexed view's rows
    read from several partitions (the shards of a cluster) into one row
    per group, ordered by group key. The first [groups] columns are the
    group key; each later column combines by the aggregate kind that
    begins its [SELECT * FROM <view>] name (up to the first [_], so
    [sum_a] is a [sum]): [count( * )], [count] and [sum] add, [min] and
    [max] take the least and greatest, and [NULL] is the identity. *)

val exec : session -> string -> result
(** Parse and execute one statement. Raises {!Sql_error} (or
    {!Sql_parser.Parse_error} / {!Sql_lexer.Lex_error}) on bad input; an
    error inside an open transaction leaves the transaction open. An
    expression nested more than 1,000 levels deep is a parse error. *)

val render : result -> string
(** Plain-text table, for REPLs and tests. *)
