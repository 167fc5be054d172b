(** The template lint passes (UVA014–UVA017) and the template matching
    they read.

    These passes close the loop on the static template machinery: the
    template set and matrix are computed without ever executing a
    statement, so each real workload log doubles as a test oracle — the
    dynamic per-statement sets and the recorded statements either
    confirm the static model or expose where it leaks.

    Driven through {!Lint.lint_templates}; exposed individually for
    targeted tests. *)

type matching
(** Every entry of an analyzed history matched against an extracted
    template set. *)

val match_history :
  set:Template_extract.set ->
  matrix:Template_matrix.t ->
  Uv_retroactive.Analyzer.t ->
  matching
(** Match every entry (the analyzer derives from 1 first). A history
    with DDL anywhere is left wholly unmatched: the static template sets
    do not hold past a schema change. Each matched entry keeps its
    template id and its guard values, which UVA015 compares under a
    [prunable] matrix pair: a guard on the table's first RI dimension is
    canonicalized through the analyzer's RI merge state as of this call,
    an alias-column guard is the serialized raw value. *)

val template_coverage :
  matching:matching -> Uv_retroactive.Analyzer.t -> Diagnostic.t list
(** UVA014 (warning): log entries matching no extracted template (DDL
    excepted) — statements the static template model does not describe.
    Capped per entry with a summary tail. *)

val matrix_soundness :
  set:Template_extract.set ->
  matrix:Template_matrix.t ->
  matching:matching ->
  Uv_retroactive.Analyzer.t ->
  Diagnostic.t list
(** UVA015 (error): the static matrix must over-approximate the dynamic
    dependencies of this history — template column sets contain every
    matched entry's dynamic sets, and no dynamic cell-level dependency
    between matched entries is refuted by a missing pair, a missing
    conflict column, or the predicate-disjointness refinement. *)

val dynamic_sql : source:string -> Diagnostic.t list
(** UVA016 (warning): [SQL_exec] call sites in the MiniJS sources whose
    argument is not a string or template literal — dynamic SQL escapes
    template extraction entirely. *)

val param_flow : set:Template_extract.set -> Diagnostic.t list
(** UVA017 (info): template slots whose values flow from blackbox native
    calls — unrecorded nondeterminism behind a recorded literal. *)
