(** The template-matrix fast-path for replay-set closure.

    [prepare] matches every log entry against the extracted template set
    once, stamps the matched template ids onto the log entries, and
    builds two bucket families over the history:

    - per template id: every entry matching that template;
    - per (template id, guarded table, canonical guard value): the
      entries whose equality predicate pins that value.

    [replay_set] then runs the analyzer's closure with a column-wise
    candidate generator that consults the precomputed matrix instead of
    per-column scans over the whole history: a member matching template
    [a] offers, for each template [b] with a nonempty matrix pair, the
    [b]-bucket — narrowed to its own guard value's bucket when the pair
    is prunable and [refined] is on (predicate disjointness: equality
    predicates on distinct parameters refute the dependency). Entries
    that match no template (dynamic SQL; any history containing DDL
    degrades wholesale) are kept sound by dynamic per-statement
    fallback on both sides: unmatched candidates are offered after an
    explicit set intersection, and an unmatched member (or a seed that
    matches no template) scans the whole history the oracle way. The
    row-wise closure is untouched, so [`Cell] results intersect with the
    oracle row closure.

    With [refined:false] the candidate sets equal the oracle's per-column
    candidate sets (template sets over-approximate — UVA015 — and here
    coincide with the dynamic sets), so the closure is identical to
    {!Uv_retroactive.Analyzer.replay_set}; [refined:true] additionally
    prunes parameter-disjoint same-table conflicts, which the row-wise
    intersection makes observationally equivalent on the tested
    workloads (the equality property test is the arbiter). *)

type t

val prepare :
  set:Template_extract.set ->
  matrix:Template_matrix.t ->
  Uv_retroactive.Analyzer.t ->
  t
(** Match every analyzed entry and build the buckets. Guard values are
    canonicalized through the analyzer's RI merge state; the buckets
    refresh automatically if the merge generation moves. *)

val replay_set :
  ?obs:Uv_obs.Trace.t ->
  ?refined:bool ->
  ?mode:Uv_retroactive.Analyzer.mode ->
  t ->
  Uv_retroactive.Analyzer.t ->
  Uv_retroactive.Analyzer.target ->
  Uv_retroactive.Analyzer.replay_set
(** Matrix-backed replay set. [refined] defaults to [true]. *)

val unmatched : t -> int list
(** Entries (ascending) no template matched — the UVA014 feed. *)

val assignment : t -> int -> (int * (string * Uv_sql.Value.t) list) option
(** The matched (template id, slot binding) of entry [i], if any. *)

val guard_values : t -> int -> (string * string) list
(** Canonical guard values of entry [i] on each guarded table of its
    matched template — the values the refined buckets key on. Refresh
    them with a closure run before relying on canonicality. *)

val matched_count : t -> int
