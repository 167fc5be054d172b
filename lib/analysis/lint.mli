(** The lint driver: one commit-order walk over a history dispatching to
    the enabled passes, plus standalone entry points for retroactive
    targets and transpiled procedure bodies.

    Everything here is static — no statement is ever executed, no data
    page is read; the only inputs are the committed-statement log (text
    plus recorded metadata), the evolving schema view, and the statically
    derived read/write sets. *)

type pass =
  | Nondet
  | Soundness
  | Cluster
  | Dead_write
  | Coverage
  | Template_coverage
  | Matrix_soundness
  | Dynamic_sql
  | Param_flow

val all_passes : pass list
(** The log-walk passes ([Nondet] … [Coverage]) — what {!lint_log} runs
    by default. The template passes need extraction artifacts and run
    through {!lint_templates}. *)

val template_passes : pass list
(** [Template_coverage; Matrix_soundness; Dynamic_sql; Param_flow]. *)

val pass_name : pass -> string

val pass_of_string : string -> pass option

val lint_log :
  ?base:Uv_db.Catalog.t ->
  ?passes:pass list ->
  Uv_db.Log.t ->
  Diagnostic.t list
(** Walk the history once in commit order, threading the schema view
    (seeded from [base] when the log grows from a checkpoint), and run
    the enabled passes ([all_passes] by default) over every entry.
    Checkpoint-catalog procedures are coverage-checked too. The result
    is sorted with {!Diagnostic.compare}. *)

val lint_target :
  ?base:Uv_db.Catalog.t ->
  Uv_db.Log.t ->
  Uv_retroactive.Analyzer.target ->
  Diagnostic.t list
(** Validate a retroactive target before any analysis runs: τ range
    (UVA009), then — for [Add]/[Change] — type-check the statement
    against the schema view as of τ (UVA007/UVA008/UVA010). *)

type template_ctx = {
  tset : Template_extract.set;
  tmatrix : Template_matrix.t;
  tmatching : Template_lint.matching;
  tsource : string option;  (** MiniJS sources, for [Dynamic_sql] *)
}

val lint_templates :
  ?passes:pass list ->
  ctx:template_ctx ->
  Uv_retroactive.Analyzer.t ->
  Diagnostic.t list
(** Run the template passes ([template_passes] by default) against an
    analyzed history and its extraction artifacts: UVA014 coverage,
    UVA015 matrix soundness, UVA016 dynamic SQL (skipped when [tsource]
    is [None]), UVA017 parameter provenance. Sorted with
    {!Diagnostic.compare}. *)
