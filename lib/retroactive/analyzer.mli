(** The query analyzer: per-entry read/write sets, the query dependency
    graph, and replay-set computation (§4.2–§4.4, §E).

    Given a committed-statement log, the analyzer derives each entry's
    column-wise and row-wise sets (maintaining the evolving schema view and
    RI alias/merge state in commit order), on demand: a question derives
    the entries from its τ on ({!require}), as rolling back and replaying
    reads nothing before τ (§4.4). A what-if request is a
    {!target}; {!replay_set} — the one replay-set entry point, for every
    mode and granularity — computes the set 𝕀 of entries that must be
    rolled back and replayed, as the closure of conflict with the target:

    - an entry joins 𝕀 if it reads something a member (or the target)
      wrote — Rule 1 dependence;
    - an entry joins 𝕀 if it writes something a member read — the
      consulted-table propositions (E.9, E.10);
    - an entry joins 𝕀 if it writes something a member wrote — required
      so that blind overwrites by non-members survive the replay (the
      paper's replay arrows already treat write-write as a conflict,
      §4.4).

    Read-only entries (empty write set) never join 𝕀 (Prop E.7).
    [`Cell] mode intersects the column-wise and row-wise closures
    (Theorem E.20): 𝕀 = 𝕀c ∩ 𝕀r. Each member carries its provenance —
    the closure parents that pulled it in — recorded by the same closures
    that compute 𝕀. *)

open Uv_sql

type op =
  | Add of Ast.stmt  (** execute the new statement right before index τ *)
  | Remove  (** delete the statement committed at τ *)
  | Change of Ast.stmt  (** replace the statement at τ *)

type target = { tau : int; op : op }

type mode = Col_only | Row_only | Cell
(** Which closure {!replay_set} computes: the column-wise closure alone
    ([Col_only]), the row-wise closure alone ([Row_only]), or their
    intersection ([Cell], the paper's replay set, Theorem E.20: the row
    closure's members that the column closure also reached). [Cell] is
    the default; the other two are its constituents, each asked alone.
    The column-wise closure is a relation between statement shapes, so
    [Cell] tests each row-closure member against it and never lists its
    members; only [Col_only], whose answer they are, does. *)

type info = {
  index : int;
  shape : Ast.stmt;
      (** {!Uv_sql.Shape.equal} to the entry's statement: the statement
          itself when [text] is [None], else the statement of the
          template a store named the entry by *)
  text : string option;
      (** the entry's SQL when [shape] is its template's statement *)
  rw : Rwset.rw;
  rows : Rowset.entry_rows;
  app_txn : string option;
}
(** What a pass derived for one entry. Every reader in the analyzer and
    the what-if layer needs only the entry's shape; {!stmt} builds the
    statement itself on demand. *)

val stmt : info -> Ast.stmt
(** The entry's statement: [shape], or [text] parsed in full
    ({!Uv_sql.Parser.parse_stmt}, so it is safe from any domain). *)

type t

(** An entry as a source hands it to a pass. [template] numbers the
    shape's statement among the source's ([-1]: none), so that every
    entry handed with one template has one shape: the pass finds that
    shape's sets by the number.

    A store hands every entry [Scanned], named from its bytes
    ({!Uv_sql.Stmt_memo.template}) with no statement of its own:
    [shape] is its template's statement ({!Uv_sql.Shape.equal} to the
    entry's), and [lits] its literals by position
    ({!Uv_sql.Stmt_memo.lits}), valid while the pass's callback runs.
    Where the memo's scan declines (a comment, an integer above
    [max_int]), [template] is [-1] and [shape] is the statement parsed
    in full. [log] and [at] are the entry's record in its decoded
    segment: the pass reads its non-determinism there when it derives
    the entry's rows, reads its application-transaction tag
    ({!Uv_db.Log_io.app_txn}) only with the read-only tier (see
    {!require}), and copies its text out ({!Uv_db.Log_io.sql}) only
    where it needs the statement or keeps the text ([info.text]). *)
type item =
  | Entry of { template : int; entry : Uv_db.Log.entry }
  | Scanned of {
      template : int;
      shape : Ast.stmt;
      lits : Stmt_memo.lits;
      log : Uv_db.Log_io.decoded;
      at : int;
    }

(** Where entries come from. The analyzer pulls its input through this
    record, so it never requires a materialized {!Uv_db.Log.t}: an
    in-memory log, a segmented {!Uv_db.Log_store} (one segment resident
    at a time) and any custom fold all analyse identically. *)
type source = {
  src_length : unit -> int;  (** entries available right now *)
  src_iter : int -> int -> (item -> unit) -> unit;
      (** [src_iter lo hi f] applies [f] to entries with 1-based
          commit indexes [lo..hi], in order. Called once per pass. *)
}

val source_of_log : Uv_db.Log.t -> source
(** Every entry as an [Entry] with no template ([-1]). *)

val source_of_store : Uv_db.Log_store.t -> source
(** Streams via {!Uv_db.Log_store.iter_decoded}: peak resident log
    memory during a pass is one segment plus the manifest, and every
    segment is decoded and checksum-verified. The source keeps one
    {!Uv_sql.Stmt_memo} across its passes, so it parses each statement
    shape in full once. Every entry is handed [Scanned]: its template
    is named and its literals bound in one scan of its SQL where it lies
    in the segment's text ({!Uv_sql.Stmt_memo.template} over the span;
    a payload with escapes is unescaped first): no record, no AST, no
    tag and no copy of its text of its own. A pass with the read-only
    tier reads each entry's application-transaction tag from the
    segment; one without reads none. A pass
    derives its rows from those literals ({!Rowset.run}), reads its N
    values only when it derives them, and keeps its text for
    {!stmt}. It builds a statement (parsed in full, counted by the
    [analyze.stmts_built] counter) only for an entry whose shape changes
    the schema view; the source parses one only where the scan
    declines. *)

val source_of_fun : length:(unit -> int) -> (int -> Uv_db.Log.entry) -> source
(** A source from a random-access fetch function; every entry an
    [Entry] with no template ([-1]). *)

val of_source :
  ?config:Rowset.config ->
  ?base:Uv_db.Catalog.t ->
  ?obs:Uv_obs.Trace.t ->
  source ->
  t
(** Open an analyzer over the source's entries as of now
    ([src_length]). It derives nothing: a question derives what it
    reads ({!require}). [base] is the catalog state at the start of the
    history (the checkpoint the history grows from); it seeds the
    schema view and RI alias state of every pass and the Hash-jumper's
    initial table hashes. [obs] gets the spans and counters of passes
    that a reader starts without an [obs] of its own (see {!require}). *)

val analyze :
  ?config:Rowset.config ->
  ?base:Uv_db.Catalog.t ->
  ?obs:Uv_obs.Trace.t ->
  Uv_db.Log.t ->
  t
(** [of_source] over [source_of_log]. *)

val require : ?obs:Uv_obs.Trace.t -> ?grouped:bool -> t -> from:int -> unit
(** [require t ~from]: entries [from..length t] are derived in full —
    each entry's column-wise and row-wise sets, its shape posting, its
    row keys and their postings, as {!extend} derives new entries. A
    no-op when they already are ({!covers}). Otherwise one pass over
    the whole source starts again from the [base]: it derives the
    entries at or after [from] in full, and below [from] advances only
    what later entries depend on — the schema view (entries of a shape
    that may change it, {!Schema_view.affects}) and the RI alias and
    merge state (entries of a shape whose row-set plan teaches,
    {!Rowset.teaches}).

    {b The read-only tier.} A read-only entry joins a replay set only
    through its transaction group (Prop. E.7, and Table A's BEGIN
    TRANSACTION rule), so only a grouped question reads it. Grouped
    calls are the D system's ([Uv_workloads.Dsystem], through
    {!replay_set}[ ~grouped:true]) and the whole-history readers'
    ([Template_lint], {!info} below {!derived_from}); a what-if
    question ([Whatif]) is never grouped, and raises the tier only when
    its τ is an entry a pass left underived, through {!replay_set} or,
    in the what-if service, under its write lock. Until the first
    [grouped] (default [false]) call, passes go without the tier:
    they read no application-transaction tag, keep no transaction
    groups, and leave each read-only entry after [from] underived — no
    row sets, no {!info} record, no shape posting, no row keys — unless
    its shape changes the schema view or teaches the RI state. Entry
    [from] and every writer are always derived in full. The first
    [grouped] call, or one whose entry [from] a pass left underived,
    raises the tier: one pass derives again from the [base], from
    [min from (derived_from t)], with the tier on, and every later pass
    ({!extend} included) keeps it. The tier is raised by deriving
    again, not by catching up: a row set is run on the aliases learned
    before its entry. Ungrouped answers are the same with and without
    it. The pass with the tier counts in
    [analyze.grouped_derivations]; the entries a pass leaves underived
    count in [analyze.readonly_deferred].
    A teaching entry runs its plan from its literals; only a
    schema-changing entry needs its statement, so an entry from a store
    source, below [from] or not, gets one built only then (or where its
    scan declines). The answers of
    a question whose entries are derived equal those of an analyzer
    derived from 1: closure members, provenance, counts, replay DAG.

    Every question entry point ({!replay_set}, {!target_rw},
    {!explain_report}) requires from its own bound: τ, or, grouped, τ's
    first transaction-group mate with the tier. Every other reader of an
    entry below {!derived_from} ({!info}, {!replay_dag}, {!exists_cell}
    …) and every reader of the head's state ({!row_state},
    {!row_cells}, {!table_id} …) before the first pass requires from 1;
    a reader of an entry left underived raises the tier; readers that
    take the whole history ([Template_lint]) call
    [require ~grouped:true ~from:1] themselves.

    Concurrency: a pass runs under the analyzer's lock, and a question
    that needs an entry below {!derived_from} derives again from its own
    bound under that lock. Questions that run concurrently must not
    share an analyzer that may still derive: the what-if service
    derives from 1 at publish ([Whatif.Service.publish]), under its
    write lock, and for a question it does not {!covers} requires from
    τ under the same lock, raising the tier, so its questions, under the
    read lock, never write the analyzer. A pass that raises leaves nothing counted
    as derived, so the next reader derives again. [obs] (default: [of_source]'s) gets
    the pass's [analyze.rwsets]/[analyze.index] spans and the
    [analyze.rw_derivations] counter. *)

val covers : t -> from:int -> bool
(** Would {!require}[ t ~from] derive nothing: entries [from ..] derived,
    and entry [from] not left underived? Once a pass derived from 1, it
    is false only for a read-only [from] a pass without the tier left
    underived. *)

val derived_from : t -> int
(** The lowest entry derived in full ([length t + 1] when none is), or
    [max_int] before the first pass and while a pass runs. *)

val extend : ?obs:Uv_obs.Trace.t -> t -> int
(** Fold entries committed to the source since the analyzer was opened
    (or last extended) into the per-entry sets and value indexes,
    without re-scanning the analysed prefix; returns the number of new
    entries. New entries are derived as a pass from {!derived_from}
    derives them: in full, but for the read-only entries a pass without
    the tier leaves underived (see {!require}); before the first pass,
    [extend] only moves the length the next pass covers. Equivalent to a fresh [of_source] of
    the grown history required from the same bound: the evolving schema
    view and RI merge state are carried in the analyzer. Row keys — each
    (table, canonical first-RI-dimension value) interned once as an
    int, with per-key reader and writer postings — are derived for the
    new entries under the merge state after the batch; an RI merge
    learned by a new entry re-derives every derived entry's keys. The
    per-entry arrays grow by doubling, so a growing history copies them
    O(log n) times.

    Column-wise sets and row-set plans are derived once per statement
    shape ({!Uv_sql.Shape}: the statement with its literals erased) and
    schema generation ({!Schema_view.generation}), in a memo the
    analyzer keeps across batches: every later entry of the shape
    shares the shape's [rw] and interned column row, and, if it can join
    a closure, only appends itself to the shape's posting. The shape
    gets an id at its first such entry and is listed under each column
    it touches, so a shape used again after a schema change is a new
    shape with a posting of its own. Its row sets come from
    [Rowset.run] of the shape's {!Rowset.plan}, which reads the entry's
    own literals by position (from its AST on a log source, from its
    bytes on a store source) and learns RI aliases and merges from them
    in commit order. The plan of a CALL or of a DML statement that fires triggers
    holds the plans of the bodies it runs, so the memo and the schema
    generation (which CREATE/DROP PROCEDURE or TRIGGER bump) cover them
    too. A schema change empties the memo, plans included. Each pass
    keeps the schema view of every generation it ends, so the view as
    of any τ is a lookup. [obs]'s [analyze.rw_derivations] counter gets
    the [Rwset.of_stmt] calls made — one per distinct (generation,
    shape) the batch meets first. Questions ({!target_rw}) never read or
    write the memo, and never write the RI state.

    Only sound while the analysed prefix is intact — a truncated log or
    a history rewritten in place requires a fresh [analyze] (the what-if
    service enforces this). New DDL entries extend like any other: each
    one steps the schema view to a new generation. *)

val base_hashes : t -> (string * int64) list
(** Per-table hashes at the start of the history (from [base]). *)

val length : t -> int

val info : t -> int -> info
(** 1-based commit index. Below {!derived_from}, derives the whole
    history first, with the read-only tier ({!require}[ ~grouped:true
    ~from:1]); an entry a pass left underived raises the tier first.
    Without the tier, a writer's record is the one derived, with its tag
    read from the source for the call (one entry; a store decodes its
    segment), so nothing is derived again. Every record equals the one
    an analyzer derived from 1 gives. *)

val written_tables : t -> int -> string list
(** [write_tables (info t i).rw] without reading the entry's tag, so
    a writer's never raises the read-only tier. *)

val target_rw :
  t -> target -> Rwset.rw * Rowset.entry_rows * (string * string * string) list
(** Combined sets of the retroactive target (for [Change], the union of
    the old and new statements' sets), and the merges of the new
    statement, as {!replay_set.target_merges}. A new statement's row
    sets are taken on the analyzer's RI state and leave it as it is
    ({!Rowset.of_question}): one that rewrites an RI value merges on a
    copy of the state. [UPDATE t SET id = 2 WHERE id = 3] reads row 3
    and writes rows 2 and 3, so every entry on row 2 or 3 meets the
    target itself, and the members keep the analyzer's row keys; the
    merge ([("t", "2", "3")]) reaches the replay DAG through the replay
    set. The aliases an added INSERT teaches stay with the question
    too. *)

type provenance = {
  p_col_via : int option;
      (** parent in the column-wise closure: [Some 0] — the member
          conflicts column-wise with the target's own sets; [Some v],
          [v > 0] — otherwise, entry [v] is the earliest member it
          conflicts with column-wise; [Some (-v)] — it conflicts with
          neither and joined as a transaction-group mate of entry [v]
          (grouped only). [None] in [Row_only]. *)
  p_row_via : int option;
      (** parent in the row-wise closure, exact like [p_col_via] ([0],
          [v] and [-v] as above, for the row-wise pair predicate
          {!row_conflict}). [None] in [Col_only]. *)
}
(** Why a member joined. Because the cell-wise set is the intersection
    of two independently computed closures (Theorem E.20), a member
    carries up to two parents; either may itself be outside the final
    intersection. Every parent is exact — the smallest valid one, with
    the target before every member and any conflicting member before a
    group mate — so they do not depend on the order the closure visits
    candidates in. *)

type replay_set = {
  member_indexes : int list;  (** the members' commit indexes, ascending *)
  member_count : int;
  mutated : string list;  (** tables written by 𝕀 ∪ {target} *)
  consulted : string list;  (** tables read but not written *)
  col_only_count : int;  (** |𝕀c| — for the ablation bench *)
  row_only_count : int;  (** |𝕀r| *)
  provenance : provenance list;
      (** one per member, in [member_indexes] order *)
  target_merges : (string * string * string) list;
      (** [(table, v, root)]: the target merged canonical
          first-dimension value [v] into the class of [root]
          ({!Rowset.of_question}), one row the analyzer's keys keep
          apart. Once the head has run, an
          entry addressed by one of them (through an alias, say) and one
          addressed by another meet on one row: {!replay_dag}
          [~merges] orders them. *)
}

val replay_set :
  ?obs:Uv_obs.Trace.t ->
  ?mode:mode ->
  ?grouped:bool ->
  t ->
  target ->
  replay_set
(** Compute 𝕀 for a target, with each member's provenance. [mode]
    defaults to [Cell].

    [grouped] (default [false]) is the transaction granularity of the
    non-transpiled (D) system: the target is its whole [app_txn] group,
    entries sharing a tag join or stay out of 𝕀 as a unit, and a tagged
    read-only entry may join with its group. Only a grouped question
    reads the read-only tier, and its first raises it ({!require});
    an ungrouped question never does unless τ is a read-only entry a
    pass left underived.

    [obs] records one [closure.col]/[closure.row] span per closure run,
    counts each closure's members in [analyze.closure_iters], the
    column-wise closure's heap pops in [analyze.closure_col_visits] and
    the posting entries the row sweep pops in
    [analyze.closure_row_visits].

    Cost: the column-wise closure is a fixpoint over statement shapes
    and column slots. A column a member (or the target) writes reaches
    every shape touching it, and a column it reads every shape writing
    it; a reached shape opens at its first entry past the smallest such
    opener, found by one binary search in its posting, and its entries
    from there on are members, with that opener as their parent. Shapes
    open in ascending order on a heap, so an ungrouped question costs
    O((shapes + slots) log n) and nothing per posting entry: one pop per
    shape with a member. Grouped, members bring in their transaction
    groups, whose mates reach shapes from their own indexes, so each
    reached shape's entries are walked one pop at a time (one pop per
    member, plus one per walk that meets another). The row-wise closure
    is one ascending sweep over the row-key
    postings at or after τ, on a heap of posting cursors: a key match
    decides a conflict on a one-dimension table, and {!row_conflict}
    verifies one on a multi-dimension table, against the members that
    opened the posting in ascending order, up to the first that
    conflicts.
    Membership and parents live in per-analyzer scratch arrays stamped
    per question, grown only when the history outgrows them, so a
    question allocates and clears nothing of the history's length. *)

val row_conflict : t -> Rwset.rw -> Rowset.entry_rows -> info -> bool
(** The row-wise closure's pair predicate: does an entry with these sets
    conflict row-wise with [info] (a shared schema key, or overlapping
    rows of some table under the current RI merge state)? The row sweep
    applies it where a row-key match does not decide the conflict. *)

val canonical_row_value : t -> table:string -> Value.t -> string
(** Canonical first-dimension RI value of [table]'s [v] under the
    analyzer's current alias/merge state — what the analyzer's row keys
    stand for. Stable until {!row_merge_generation} changes. *)

val row_merge_generation : t -> int
(** Generation counter of the RI alias/merge state; external value-keyed
    caches must be rebuilt when it changes. *)

val row_state : t -> Rowset.t
(** The RI alias and merge state the analysed entries' row sets were
    derived under, as it stands at the analysed head. For inspection:
    feeding it statements changes what later batches derive. *)

val conflict_columns : t -> int -> int -> string list
(** Columns through which entries [i] and [j] conflict (W∩R ∪ R∩W ∪ W∩W
    of their column-wise sets). Empty if they don't. *)

val conflict_tables : t -> int -> int -> (string * string list) list
(** Tables through which the row-wise sets of [i] and [j] overlap, each
    with the shared first-dimension RI values (["*"] when either side is
    a wildcard). *)

val explain_report : t -> target -> replay_set -> string list
(** Human-readable provenance of a replay set computed for [target], one
    line per member in [member_indexes] order:
    ["#12 UPDATE <- columns {stock.qty} with #7; rows {stock=42} with #7"].
    Renders the set's recorded [provenance]; it does not run a closure. *)

val replay_dag :
  ?obs:Uv_obs.Trace.t -> ?merges:(string * string * string) list -> t -> members:int list ->
  Conflict_dag.t
(** The replay conflict DAG over [members] (ascending commit indexes, as
    in {!replay_set.member_indexes}): the one DAG a question schedules,
    executes ([Wave_exec]) and costs (the what-if cost model) by. One
    ascending pass over the members emits an edge [(n, m)], [m < n],
    whenever [n] must replay after [m]:

    - {b cell rule}, per (column, row key) accessed, on
      {!Conflict_dag.Cells}: each cell keeps its last writer and the
      readers since. A member that reads the key orders after the last
      writer, one edge; a member that writes it, after the last writer
      and each reader since, and becomes the last writer. A wildcard
      access (row key 0: an [Any] row set, a table without row sets, a
      schema key) meets every key of the column, and a concrete key
      meets 0: a wildcard write becomes the last writer of every key of
      its column. No reader is ordered after another;
    - {b row rule}, per (table, row key) written, whatever the columns:
      a write orders after the key's last writer, with 0 as above.
      [Uv_db.Storage.update] replaces whole rows, so two members writing
      different columns of one row must keep commit order when replayed
      in parallel;
    - {b guard rule}: a member reads every column of each of its
      {!unkeyed_guards} at key 0, as the engine's PRIMARY KEY or UNIQUE
      check reads the rows at every key; so it keeps commit order with
      every member writing a column of the guard, whichever member's
      write would fail the check.

    Row keys are interned by {!extend}: the members' first-RI-dimension
    values canonicalised under the merge state of the last extension,
    one key per value (two values merged into one root give its key
    twice, as each is one access). The call reads those keys and keys
    nothing itself; [merges] (default none: a question's
    {!replay_set.target_merges}) makes the keys of each class one. The
    cells live in the analyzer's
    per-question scratch, reused from one question to the next; the
    analyzer is not mutated, and a concurrent question (under the
    service's shared read lock) builds scratch of its own. [obs] gets a
    [cluster] span over the whole pass and the DAG build, the
    [replay.edges] counter, bumped by the distinct edges, and
    [replay.cell_visits], by the cell states and listed accessors the
    pass visits: one per access, one per writer or reader a write (or a
    wildcard read) walks. *)

val unkeyed_guards : t -> int -> string list list
(** The uniqueness guards entry [i]'s writes are checked against at
    every key: for each table it writes, other than the one a top-level
    DELETE of [i] removes rows from, each PRIMARY KEY or UNIQUE guard
    (under the analysed head's schema) that does not hold the table's
    first RI dimension and of which [i] writes a column, as qualified
    column names. {!replay_dag} orders [i] with every member writing a
    column of one of them. *)

val exists_cell :
  ?column:(int -> bool) -> t -> int -> write:bool -> (int -> int -> bool) -> bool
(** [exists_cell t i ~write f]: does [f column key] hold for some cell
    entry [i] reads ([write] false) or writes, among the columns
    [column] (default all) admits? The cells are those
    {!replay_dag} orders by: each real column of the side's column set
    (as an interned column id) with each of the side's row keys on the
    column's table, or key 0 — any row — when the entry has no row run
    for that table (a wildcard side is key 0 too). Schema keys are left
    out. The keys are the analyzer's own, which no question moves. *)

val column_count : t -> int
(** Column ids handed out: every id {!exists_cell} and {!row_cells} give
    is below it. *)

val table_count : t -> int
(** Table ids handed out: every id {!table_id} and {!column_table} give
    is below it. *)

val table_id : t -> string -> int
(** The table's id, or -1 when no analysed entry names a column of it. *)

val column_table : t -> int -> int
(** The id of a column's table. *)

type row_cells = {
  tid : int;  (** the table's {!table_id} *)
  column : int -> int;
      (** schema column position -> its interned column id, or -1 for a
          column no analysed entry names *)
  dim0 : int;  (** position of the table's first RI dimension, or -1 *)
  pk : int list;  (** positions of the PRIMARY KEY columns *)
  uniques : int list;  (** positions of the (one-column) UNIQUE columns *)
  key : Uv_sql.Value.t array -> int;
      (** the row key of a row image, as {!exists_cell} keys the
          entries' accesses: its first-dimension value canonicalised and
          interned; 0 (any row) for a table without a first dimension,
          -1 for a value no entry names (only a key-0 access meets it) *)
}

val row_cells : t -> Uv_sql.Schema.table -> row_cells
(** How rows of a table map onto {!exists_cell}'s cells. Memoized by the
    schema record until the next {!extend}; safe to call from concurrent
    questions. *)

val changes_schema : t -> int -> bool
(** Is entry [i] DDL, or does it write a schema key (DML that changes a
    schema object's state)? Kept per statement shape. *)

type table_facts = {
  tf_schema : Uv_sql.Schema.table;  (** the schema record described *)
  tf_layout : row_cells;  (** {!row_cells} of [tf_schema] *)
  tf_guard : (int * bool) list;
      (** each PRIMARY KEY or UNIQUE column some entry names, as its
          column id, with whether a duplicate must share the first RI
          dimension (then its check reads the write's own row keys, else
          every key) *)
  tf_triggered : bool;  (** some trigger is defined on the table *)
}

type catalog_facts
(** What a question's replay reads of its catalog's tables, for one
    catalog {!Uv_db.Catalog.epoch}: read-only, and shared by concurrent
    questions. *)

val catalog_facts : t -> Uv_db.Catalog.t -> catalog_facts
(** The facts of [catalog]'s epoch: built on the first question of an
    epoch and kept until the epoch moves or the next {!extend}. A
    snapshot of a catalog shares its epoch, and with it its facts, until
    either moves: no two catalogs that moved apart share an epoch
    ({!Uv_db.Catalog.epoch}). *)

val trigger_tables : catalog_facts -> string list
(** {!Uv_db.Catalog.trigger_tables} at the facts' epoch. *)

val table_facts :
  t -> catalog_facts -> int -> string -> Uv_db.Storage.t -> table_facts
(** [table_facts t facts tid name storage]: the facts of table [name]
    (its {!table_id} [tid]) whose storage is [storage], described once
    per schema record and epoch. *)

val is_schema_key : string -> bool
(** A virtual schema-monitoring column (["_S.name"], see {!Rwset}). *)

val write_tables : Rwset.rw -> string list
(** Real tables whose columns the write set holds, sorted. *)

val to_dot : t -> replay_set -> string
(** Graphviz rendering of {!replay_dag} over a replay set's members,
    under its [target_merges] (Figure 6 style): nodes are member
    statements, edges point from each statement to the earlier ones it
    must replay after. *)
