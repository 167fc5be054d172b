(** Row-wise read/write sets (§4.3, Appendix Table B).

    Each table has one or more configured RI (row-identifier) columns —
    dimensions. A statement's row-wise access per table is, per dimension,
    either a concrete set of values or the wildcard [Any]. Two accesses to
    the same table overlap iff *every* dimension overlaps (multi-dimensional
    AND semantics); [Any] overlaps everything.

    The extractor is one staged computation ({!plan}, then {!run}):
    - it pulls equality / IN constraints on RI columns out of WHERE
      clauses (AND intersects, OR unions, anything else degrades to
      [Any]); in a join, each column pins only the source it names;
    - it resolves alias-column constraints through the alias map learned
      from INSERTs (§4.3 "Alias RI Column");
    - it canonicalises values through the merge map maintained when an
      UPDATE rewrites an RI value (§4.3 "Merging RI values");
    - it partially evaluates CALL and trigger bodies, binding procedure
      parameters to the call's literal arguments and treating database
      reads (SELECT INTO) as unknown — unknown RI expressions degrade to
      [Any], matching the paper's "concretized at retroactive time or
      wildcard" rule. *)

open Uv_sql

module Vset : Set.S with type elt = string
(** Sets of serialized values. *)

type riset = Any | Vals of Vset.t

type dim_access = { dr : riset; dw : riset }

type taccess = dim_access array
(** One slot per configured RI dimension of the table. *)

type entry_rows = (string * taccess) list
(** Table name -> access. At most one element per table. *)

type config = {
  ri_columns : (string * string list) list;
      (** table -> RI columns (dimensions). Tables not listed default to
          their primary-key column, or a single always-[Any] dimension. *)
  ri_aliases : (string * string * string) list;
      (** (table, alias_column, ri_column) alias declarations (§D). *)
}

val default_config : config

type t
(** Mutable extraction state: alias maps and RI merge (union-find). *)

val create : config -> t

val seed_aliases : t -> Uv_db.Catalog.t -> unit
(** Learn alias-column mappings from rows already in the database when
    logging began (the checkpoint): for each declared (table, alias_col,
    ri_col), map every existing row's alias value to its RI value. The
    rows are read when this is called. *)

val ri_dims : t -> Schema_view.t -> string -> string list
(** The RI dimensions used for a table: its configured RI columns, or
    else its first PRIMARY KEY column. *)

val dim_name : config -> string -> int -> string
(** [dim_name config table i]: the name dimension [i] of [table]'s row
    values goes by in the merge state ({!merge_parents}, {!canonical}):
    its configured RI column, or ["#i"] when [table] has none (the
    PRIMARY KEY fallback of {!ri_dims}). *)

val merge_rows : entry_rows -> entry_rows -> entry_rows
(** Per-table, per-dimension union of two accesses. *)

type plan
(** The shape-dependent half of one statement's row-set extraction. *)

val plan : t -> Schema_view.t -> Ast.stmt -> plan
(** [plan t sv stmt] decides everything that depends only on [stmt]'s
    shape ({!Uv_sql.Shape}), the schema view [sv] and [t]'s RI config:
    the write table of DML through an updatable view, the triggers it
    fires (the write table's, at top level, inside a transaction and
    inside a body alike), the RI dimensions and alias columns of each
    table, which WHERE conjunct and which side of [=] pins each of them
    (in a join, which source each column names), the INSERT column
    bindings, the AUTO_INCREMENT column and each VALUES row's draw
    count, and which assignments rewrite an RI or alias column.

    The same holds inside what a statement runs: the body of a CALLed
    procedure and of every trigger a write fires are planned once, here,
    under an environment of the body's variables; subqueries, joins and
    [INSERT … SELECT] are planned as reads of their tables, a subquery
    wherever it sits (WHERE, HAVING, projection, VALUES, assigned
    values, [CALL] arguments, [DECLARE]/[SET] values, [IF]/[WHILE]
    conditions, another subquery). In a body, [DECLARE]/[SET] record a
    variable's value when it is known, a [SELECT … INTO] makes its
    variables unknown, [IF] plans every arm and makes unknown a variable
    the arms leave with differing values, and [WHILE] makes unknown
    every variable its body assigns. A trigger already being expanded is
    not expanded again when it fires itself, nor a procedure when it
    calls itself (directly or through another): that [CALL] reads and
    writes any row of every table the procedure's column sets name.

    Nothing of [stmt]'s literals is read here: the plan reads the
    literals of each statement it runs by position ({!run}). A literal
    inside a view's definition or a body is the view's or the body's,
    a constant of the plan.

    A plan belongs to one shape under one schema: it holds while
    {!Schema_view.generation} of [sv] does not move, and only for [t]. It
    reads nothing of [t]'s alias or merge state when it is built. *)

val teaches : plan -> bool
(** May {!run} of this plan learn an alias or a merge into [t]'s state:
    an INSERT that binds both sides of a declared alias pair, or an
    UPDATE that assigns an RI dimension (from a value known from the
    literals) or both sides of an alias pair, at top level, inside a
    transaction or inside a body the statement runs. [false] means
    running the plan leaves [t]'s alias and merge state as it is, so an
    entry of the shape that nobody reads the rows of can be skipped. *)

val run : plan -> Stmt_memo.lits -> Value.t list -> entry_rows
(** [run p lits nondet]: the row-wise access of a statement of [p]'s
    shape, given by its literals alone: [lits] numbers its [Lit] nodes
    in {!Uv_sql.Stmt_memo.map_lits}'s order, and the plan reads
    literal [k] where its statement had its [k]th [Lit] node. So the
    literals may come from an AST ({!Uv_sql.Stmt_memo.lits_of_stmt}) or
    straight from a statement's bytes ({!Uv_sql.Stmt_memo.lits}), and
    the statement itself need not exist. [Invalid_argument] when
    [lits] has another count than the plan's statement. The
    [Value.t list] is the entry's recorded non-determinism
    (AUTO_INCREMENT keys are recovered from it). It reads only [lits]
    and [nondet], then looks aliases up and learns aliases and merges
    into [t]'s state, so entries must be run in commit order. *)

val of_entry : t -> Schema_view.t -> Ast.stmt -> Value.t list -> entry_rows
(** [run (plan t sv stmt) (Stmt_memo.lits_of_stmt stmt) nondet]. *)

val of_question :
  t -> Schema_view.t -> Ast.stmt -> entry_rows * (string * string * string * string) list
(** [of_entry] of a statement a question adds, with no recorded
    non-determinism, leaving [t] as it is: one whose plan {!teaches}
    runs on a copy of [t]'s state, so that it sees what it learns
    itself. With its rows come the merges it made, as
    [(table, dim, v, root)]: [v] joined the class of [root], both
    canonical under [t]. [UPDATE t SET id = 2 WHERE id = 3] reads row
    3, writes rows 2 and 3, and merges [("t", "id", "2", "3")] when
    [id] is [t]'s configured RI column ([("t", "#0", "2", "3")] under
    the PRIMARY KEY fallback, {!dim_name}). *)

val canonical : t -> string -> string -> string -> string
(** [canonical t table dim v] resolves a serialized value through the
    merge map. *)

val merge_generation : t -> int
(** Monotone counter of union-find links added by [of_entry]. The
    incremental analyzer re-derives its row keys only when this moved
    since they were derived. *)

val aliases : t -> ((string * string * string) * string) list
(** The alias map, sorted: [((table, alias_col, alias value), RI value)],
    values serialized. *)

val merge_parents : t -> ((string * string * string) * string) list
(** The union-find links, sorted: [((table, dim, value), parent)]. *)

val overlaps : t -> string -> taccess -> [ `W_then_R | `Any_conflict ] ->
  taccess -> bool
(** [overlaps t table earlier kind later]: does the earlier access's write
    set meet the later access's read set ([`W_then_R], the dependency
    rule) — or do they conflict in any read-write/write-read/write-write
    way ([`Any_conflict], the replay-scheduler rule)? *)

val pp_access : Format.formatter -> taccess -> unit
