(** The SQL execution engine.

    A self-contained, in-memory relational engine covering the SQL surface
    of Table A: DDL, DML, views (including updatable views), stored
    procedures with control flow, triggers, transactions, and built-in
    functions — plus the bookkeeping Ultraverse's retroactive plugin needs:
    a committed-statement log with recorded non-determinism, per-table
    incremental hashes, and a round-trip cost clock.

    Concurrency model: statements execute atomically in commit order (the
    paper's replay likewise serializes commits; parallelism is modelled by
    the scheduler in [Uv_retroactive]). A failed statement (SIGNAL or
    runtime error) is rolled back completely and not logged.

    Constraints: PRIMARY KEY uniqueness and NOT NULL are always enforced;
    single-column UNIQUE constraints likewise; FOREIGN KEYs only when the
    engine is created with [~enforce_fk:true] (the workloads rely on
    MySQL's default of application-managed integrity).

    Dialect extensions beyond MySQL's surface: [ROWCOUNT((SELECT ...))]
    evaluates the subquery and returns its row count — the transpiler
    emits it where MySQL would need a COUNT over a derived table.

    DISTINCT aggregates ([COUNT(DISTINCT x)] and the like) keep one value
    per class of [=] ({!Value.equal_sql}) within one kind: numbers (INT,
    DOUBLE, BOOL as 1/0) by value, so [10^15] and [1e15] merge while two
    different INTs never do, even where their DOUBLE images coincide;
    texts by their string, so ['5'] and ['5.0'] stay apart. A text never
    merges with a number: [=] between the two compares numerically, which
    is not transitive (['5'] = 5 = ['5.0'] yet ['5'] <> ['5.0']). *)

open Uv_sql

exception Sql_error of string
(** Runtime error (unknown table, type error, ...). The offending
    statement's effects are rolled back before this escapes [exec],
    and the message carries the statement text and prospective log
    index ([... [at log index N: <sql>]]) for diagnosis. *)

exception Signal_raised of string
(** A procedure executed [SIGNAL SQLSTATE 's']. Effects rolled back. *)

type result = {
  columns : string list;
  rows : Value.t array list;
  rows_written : int;
  hash_deltas : (string * int64) list;
      (** set by {!exec}: for each table the statement wrote rows of, in
          first-write order (the order of the entry's [written_hashes]),
          the hash delta its row mutations applied — the sum of the row
          digests it added minus those it removed, modulo
          {!Uv_util.Table_hash.modulus}. Empty elsewhere. *)
}

val empty_result : result

type t

val create :
  ?seed:int ->
  ?rtt_ms:float ->
  ?enforce_fk:bool ->
  ?obs:Uv_obs.Trace.t ->
  ?fault:Uv_fault.Fault.t ->
  unit ->
  t
(** Fresh engine with an empty database. [seed] fixes the RAND() stream;
    [rtt_ms] the simulated client-server round trip; [enforce_fk]
    (default false) enables FOREIGN KEY existence checks on insert.
    [obs] (default disabled) collects per-statement execute/rollback
    timings ([db.exec_ms]/[db.rollback_ms]) and log-append/rollback
    counts. [fault] (default disabled) threads the deterministic fault
    injector through [exec]'s probe sites (see {!Uv_fault.Fault.Site}):
    an injected statement failure escapes as [Uv_fault.Fault.Injected]
    after a complete rollback that also restores the PRNG stream, the
    logical clock and [LAST_INSERT_ID], so a retry reenacts exactly. *)

val of_catalog :
  ?seed:int ->
  ?rtt_ms:float ->
  ?enforce_fk:bool ->
  ?obs:Uv_obs.Trace.t ->
  ?fault:Uv_fault.Fault.t ->
  ?log:Log.t ->
  Catalog.t ->
  t
(** Engine over an existing catalog *by reference* (the what-if engine's
    temporary database). Mutations are visible through the catalog.
    [log] seeds the committed history (scenario universes carry their
    merged logs); new commits append to it. *)

val catalog : t -> Catalog.t
val log : t -> Log.t
val clock : t -> Uv_util.Clock.t

val row_filter : Schema.table -> Ast.expr -> Value.t array -> bool
(** [row_filter schema w row]: may a statement whose WHERE clause over
    [schema]'s rows is [w] select [row]? False only where {!exec}'s
    evaluation of [w] on that row image is not true: an AND-reachable
    [column = literal] conjunct does not hold, or the whole of [w]
    evaluates to false or NULL. The whole of [w] is tested with the
    scan's compiled evaluator ({!compile_row}) when it is in the
    compilable subset; otherwise only the conjunct is. A cell past the
    row's width reads as NULL, as ALTER TABLE ADD COLUMN fills it. [w]
    must not read other rows (no subqueries). *)

(** {2 The evaluators}

    {!exec} filters a base table's rows with one evaluator compiled over
    how a cell is read: the typed columns in a scan, a boxed row image in
    {!row_filter}. It covers column references, literals, bound
    variables, arithmetic, comparisons, AND/OR, NOT, negation, IS NULL,
    BETWEEN and IN; anything else (function calls, subqueries, EXISTS,
    other tables' columns) goes through the interpreter. Both compiled
    instances must give the interpreter's value; these entry points let
    a test check it. *)

val interpret :
  t ->
  vars:(string * Value.t) list ->
  prefix:string ->
  Schema.table ->
  Ast.expr ->
  Value.t array ->
  Value.t
(** The interpreter's value of an expression on one row of the table,
    its columns named plainly and under [prefix] as a SELECT names them,
    with procedure variables [vars]. Raises [Sql_error]. *)

val compile_cursor :
  vars:(string * Value.t) list ->
  prefix:string ->
  Schema.table ->
  Ast.expr ->
  (Storage.Col.cur -> Value.t) option
(** The expression compiled for a scan's cursor ({!Storage.Col.select}),
    or [None] outside the compilable subset. *)

val compile_row :
  vars:(string * Value.t) list ->
  prefix:string ->
  Schema.table ->
  Ast.expr ->
  (Value.t array -> Value.t) option
(** The same, compiled for a boxed row image. *)

val exec :
  ?app_txn:string ->
  ?nondet:Value.t list ->
  ?rowid_base:int ->
  ?history:Log.undo list ->
  ?sql:string ->
  t ->
  Ast.stmt ->
  result
(** Execute one top-level client statement: charges one round trip,
    appends a log entry on success. [~nondet] forces recorded values for
    RAND()/NOW()/LAST_INSERT_ID()/AUTO_INCREMENT draws in order
    (retroactive replay); draws beyond the list fall back to fresh values
    (retroactively *added* queries, §4.4). [~app_txn] tags the entry with
    the application-level transaction that issued it. [~rowid_base] pins
    the statement's row inserts, so that replay places rows the same way
    at every worker count: the k-th insert into a table lands at the
    k-th rowid that [~history] (the statement's historical journal,
    default none) inserted into that table, while that rowid is free;
    every other insert lands at [base + n], n counting the statement's
    inserts from 0. [~sql] must be
    [Printer.stmt_compact] of the statement: replay passes the text of
    the log entry it re-executes, so the new entry's [sql] is not
    rendered again. *)

val exec_sql : ?app_txn:string -> ?nondet:Value.t list -> t -> string -> result
(** [exec] after parsing, through the engine's {!memo}: a statement of a
    template the engine has seen is instantiated from it, and its log
    text spliced into the template's rendering
    ({!Uv_sql.Stmt_memo.parse_logged}), equal to
    [exec t (Parser.parse_stmt sql)]. *)

val exec_script : t -> string -> result list
(** [exec] of each statement of a [';']-separated script, parsed whole
    (its statement boundaries come from the parse), so not through the
    memo. *)

val query : t -> Ast.select -> result
(** Evaluate a SELECT without logging it or charging a round trip (used
    internally and by tests to inspect state). *)

val query_sql : t -> string -> result
(** [query] of a SELECT, parsed through the engine's {!memo}. *)

val memo : t -> Stmt_memo.t
(** The templates of the statements {!exec_sql} and {!query_sql} parsed,
    made on the first call: an engine given only ASTs (a replayed
    statement's) never makes one. Not safe to share between domains. *)

val table_hash : t -> string -> int64
(** Raises [Sql_error] for an unknown table. *)

val db_hash : t -> int64

val snapshot : t -> Catalog.t

val restore : t -> Catalog.t -> unit
(** Replace the live database with a deep copy of the snapshot. The log
    is left untouched (callers manage log truncation). *)

val reset_log : t -> unit
(** Truncate the log to empty and drop any checkpoint rungs. *)

val enable_checkpoints : t -> every:int -> unit
(** Attach a {!Checkpoint} ladder recording a catalog snapshot every
    [every] committed statements (at the [engine.checkpoint] fault site;
    an injected [Stmt_fail] skips that rung gracefully). [every <= 0]
    detaches the ladder. [ultraverse dump --checkpoints] writes the
    ladder out as a recovery file; the what-if rollback does not read
    it. *)

val checkpoints : t -> Checkpoint.t option

val set_sim_time : t -> int -> unit
(** Set the logical NOW() clock (seconds). Each statement advances it by
    one second. *)

val memory_bytes : t -> int
