(** Member redo: replay a what-if's unchanged members from their journal
    row images instead of executing their SQL (DESIGN.md §5).

    Replay keeps a {e dirty set} of (interned column, row key) cells —
    {!Analyzer.exists_cell}'s cells — holding the cells whose value differs
    from history at the current point of the replay. It starts with the
    target's ({!seed}, or the head's {!settle}). A plain INSERT, UPDATE or
    DELETE member whose read cells meet no dirty cell read what history
    read, so it writes what history wrote: {!reenactment} reenacts its
    historical journal. Every member, redone or executed, is then
    {!settle}d: the rows where its fresh journal and its historical one
    leave different images become (or stay) dirty, and rows where they
    agree again become clean.

    A replayed statement's k-th insert into a table lands at the k-th
    rowid its historical journal inserted into that table, executed or
    redone ({!Uv_db.Engine.exec}'s [~history]), so both journals name a
    row by one rowid; only rows beyond history's count, and an added
    statement's, land at the statement's private [rowid_base + n]. A [t]
    belongs to one question's replay. {!clean}, {!settle} and {!seed}
    run on the caller's lane; the closure {!reenactment} builds, and the
    reenactment that closure returns, may run on any domain. *)

type t

val create : Analyzer.t -> Uv_db.Catalog.t -> t
(** [create analyzer catalog] over the question's temporary catalog. The
    dirty set is keyed by the analyzer's row keys, which no question
    moves ({!Analyzer.target_rw}). *)

val seed : t -> Uv_db.Log.undo list -> unit
(** The removed target's historical journal, which rollback undoes and
    nothing replays: its rows now differ from history. Until
    {!rolled_back}, the catalog holds history's side of those rows, and
    {!clean}'s row test derives the replay's side from it: the row with
    the columns that differ at their replay values, or absent where the
    target inserted it. That holds while no member's journal names one
    of those rows ({!names_dirty}): the rollback then writes them as
    undoing the target alone would. *)

val names_dirty : t -> Uv_db.Log.undo list -> bool
(** Does the journal touch a row of the set? *)

val rolled_back : t -> unit
(** The rollback {!seed} was taken before is now applied to the
    catalog. *)

val clean : t -> int -> Uv_sql.Ast.stmt -> Uv_db.Log.undo list -> bool
(** [clean t idx stmt journal]: may member [idx], whose historical
    journal is [journal], be redone? True for a plain INSERT (VALUES),
    UPDATE or DELETE on a base table without triggers that reads nothing
    dirty:
    - its read cells of other tables (subqueries, FOREIGN KEY parents)
      meet no dirty cell, wildcards included;
    - of its own table, when the row image decides what it reads (an
      UPDATE or DELETE whose WHERE and assigned values read no other
      row; an INSERT of values that read no table): no dirty row that
      its WHERE may select on either side ({!Uv_db.Engine.row_filter})
      appeared, vanished, moved key or differs in a column it reads —
      for an INSERT, no dirty row's PRIMARY KEY or UNIQUE value equals
      an inserted row's on either side. The sides are the row's images
      at the member's point: the row in the catalog now, and that row
      with the columns that differ at their history values;
    - otherwise, its read cells of its own table meet no dirty cell;
    - the PRIMARY KEY and UNIQUE columns an UPDATE assigns, or an
      INSERT without a row-decided scope writes, meet no dirty cell, at
      its own row keys when a duplicate must share the table's first RI
      dimension, else at every key — the constraint check reads them;
    - without a row-decided scope and without a WHERE clause, the
      columns an UPDATE or DELETE writes meet no dirty cell at any key
      (it visits every row).

    Verdicts are memoised per member: one is served while the set has
    not changed since it was computed, and a clean one also while no row
    entered the set or changed in it (a row leaving the set only takes
    reads away). *)

val reenactment :
  t ->
  Uv_sql.Ast.stmt ->
  Uv_db.Log.undo list ->
  Uv_db.Catalog.t ->
  (unit -> Uv_db.Log.redone) option
(** [reenactment t stmt journal catalog]: the reenactment of a {!clean}
    member from its historical [journal] over [catalog] — at history's
    rowids, records in the order its execution visits rows, the
    columns an UPDATE assigns written even where history left them
    unchanged ({!Uv_db.Log.apply_redo}). [None], counted as a fallback,
    when a rowid is missing (update, delete) or taken (insert): the
    member must execute. Nothing is mutated before the reenactment runs.
    The closure reads nothing of the analyzer, so it stays valid after
    the question (the analyzer may be extended or reset since). *)

val is_empty : t -> bool
(** No cell differs from history at this point of the replay. *)

val repeats : t -> int -> Uv_sql.Ast.stmt -> Uv_db.Log.undo list -> bool
(** [repeats t idx stmt journal]: would the member, met at this point,
    be redone and leave the set as it is? True for a plain INSERT,
    UPDATE or DELETE on a base table without triggers whose historical
    journal holds only row and AUTO_INCREMENT records of that table
    ({!reenactment}'s fit test: it is reenacted record for record), and
    that, unless the set is empty, is {!clean} and whose journal names
    no row of the set: its reenactment
    writes history's images over rows that hold them, and {!settle}
    passes over it. The verdict holds until a row enters the set or
    changes in it ({!grown} moves). *)

val grown : t -> int
(** Moves each time a row enters the set or changes its images in it. *)

val replay_rows : t -> (string * (int * Uv_sql.Value.t array option) list) list
(** Each row of the set with its replay image at this point ([None]:
    absent), per table, by ascending rowid: what the replay holds where
    it differs from history. *)

val settle :
  t -> redone:bool -> hist:Uv_db.Log.undo list -> fresh:Uv_db.Log.undo list -> unit
(** After a statement ran, in commit order among statements that may
    share rows: [hist] its historical journal, [fresh] the journal the
    replay produced ([[]] when it failed). [redone] statements skip rows
    outside the set. *)

type stats = {
  fallbacks : int;  (** clean members {!reenactment} sent to execution *)
  dirty_cells : int;  (** cells that entered the set, re-entries included *)
  dirty_emptied : bool;
      (** the set emptied before the last {!settle}: cell-level
          convergence (the Hash-jumper's, §4.5, per cell) *)
  verdicts : int;  (** {!clean} verdicts computed, not served from the memo *)
}

val stats : t -> stats
