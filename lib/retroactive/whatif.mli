(** The retroactive operation driver (§4.4): rollback, replay, update.

    Given an engine holding a committed history and a retroactive target,
    [run]:

    + computes the replay set 𝕀 with the {!Analyzer} (mode-selectable:
      column-only, row-only, or cell-wise);
    + builds a temporary database holding deep copies of the mutated and
      consulted tables (regular service on the original engine is never
      blocked);
    + rolls back 𝕀's entries in reverse commit order by applying their
      logged inverse operations (rollback option (i) of §5's
      implementation list, made selective by the dependency analysis);
    + applies the retroactive operation at τ and replays 𝕀 forward
      through {!Wave_exec}: over the replay conflict DAG's waves on
      [workers] real OCaml 5 domains when the Hash-jumper is off and
      neither the target nor any member is DDL; in commit order on the
      caller's lane otherwise;
    + optionally runs the Hash-jumper after every replayed entry and
      early-terminates on a hash-hit (it selects commit order);
    + on the DAG's waves, stops exactly where the replay rejoins
      history: once nothing left can move a row to a new rowid and
      every member left would be redone over rows outside member
      redo's dirty set, the remaining members could only repeat
      history ([stop_at]);
    + reports three cost views: measured serial-sum time, the simulated
      makespan over the replay conflict DAG (the serial sum at one lane),
      and — when the DAG's waves ran — their measured wall time.

    The original engine is left untouched. [commit] performs the
    database-update step, copying the mutated tables back. *)

open Uv_sql

(** What-if driver knobs, built with {!Config.make} so future options
    don't break existing call sites. A what-if is statement-granular: a
    transpiled history's transaction is one [CALL] entry, and a
    transaction-granular what-if over a raw history is the D system's
    ([Uv_workloads.Dsystem]), which replays the member application
    functions. *)
module Config : sig
  type t

  val make :
    ?mode:Analyzer.mode ->
    ?workers:int ->
    ?hash_jumper:bool ->
    ?obs:Uv_obs.Trace.t ->
    ?deadline_ms:float ->
    ?fault:Uv_fault.Fault.t ->
    ?plans:bool ->
    unit ->
    t
  (** Defaults: [mode = Cell]; [workers = 8] (the paper's testbed width;
      clamped to at least 1); [hash_jumper = false];
      [obs = Uv_obs.Trace.disabled] — pass a live
      collector to trace the run (root [whatif] span, per-phase spans,
      and every instrumented layer underneath); [deadline_ms = None] —
      when set, the run's wall-clock budget: checked at every phase
      boundary, before every statement replayed in commit order and at
      every wave boundary, and exceeded budgets abort the run cleanly (the original
      engine is never touched mid-run, so there is nothing to undo);
      [fault = Uv_fault.Fault.disabled] — a fault-injection plan
      ({!Uv_fault.Fault}) threaded into the temporary engines, the wave
      executor and the domain pool. [plans] is inert: it is accepted
      and ignored, since every replayed statement that is not redone
      runs through the interpreter. It is removed by the next benchmark
      change (ROADMAP item 1). *)

  val default : t
  (** [make ()]. *)

  val mode : t -> Analyzer.mode
  val workers : t -> int
  val hash_jumper : t -> bool
  val obs : t -> Uv_obs.Trace.t
  val deadline_ms : t -> float option
  val fault : t -> Uv_fault.Fault.t
end

(** Why a what-if run could not produce an outcome. *)
module Error : sig
  type code =
    | Deadline  (** the [deadline_ms] budget ran out *)
    | Fault
        (** an injected (or reported) infrastructure fault persisted
            after retry — transient faults are absorbed by statement
            retry, batch redispatch and graceful degradation first *)
    | Internal  (** an unexpected exception; see [message] *)

  type t = {
    code : code;
    phase : string;
        (** the phase the run was in ([analyze], [snapshot], [hash-jump],
            [rollback], [replay], [cost-model], [merge-log], or [init]) *)
    message : string;
  }

  val code_name : code -> string
  (** Stable lowercase name ([deadline] / [fault] / [internal]). *)

  val to_string : t -> string
end

exception Abort of Error.t
(** Raised by {!run_exn} when the run aborts (deadline, or a fault that
    survived retry). {!run} returns it as [Error]. *)

type config = Config.t

val default_config : config
(** [Config.default]. *)

type merge
(** What {!new_log} builds the new universe's history from, captured by
    the run's [merge-log] phase in O(replay set): the original history as
    of the question (an O(1) {!Uv_db.Log.prefix}), τ, the operation, and
    the replayed members' re-executed entries. Immutable. *)

type outcome = {
  replay : Analyzer.replay_set;
  replayed : int;
      (** members actually replayed: those after a hash-hit or skipped
          by a stop are not counted *)
  undone : int;
      (** entries the question rolled back: in the rollback phase, or,
          for a deferred rollback, where the replay applied it; 0 when
          the replay stopped before its first member and left the
          rollback to the merged history *)
  failed_replays : int;
      (** replays that signalled or errored (aborted app transactions) *)
  hash_jump_at : int option;
      (** original commit index at which the Hash-jumper fired *)
  stop_at : (int * int) option;
      (** (members run, members skipped) when the replay stopped where it
          rejoined history: nothing replayed had inserted a row at a
          private rowid, and every member left would be redone over rows
          outside member redo's dirty set and leave the set as it is
          (DESIGN.md §5, "Exact stop"). The universe then holds the
          original affected tables with each row still in the set at
          its replay image and the replay's AUTO_INCREMENT counters,
          [changed] compares its hash with the original's, and
          {!new_log} reenacts the skipped members when it is built. *)
  real_ms : float;  (** measured wall time of the whole operation *)
  serial_cost_ms : float;
      (** sum of per-entry replay costs + one round trip each *)
  simulated_parallel_ms : float;
      (** conflict-DAG list-scheduling makespan with [workers] lanes *)
  measured_parallel_ms : float option;
      (** measured wall time of the replay over the DAG's waves; [None]
          when it ran in commit order (the Hash-jumper, or a DDL target
          or member) *)
  workers : int;  (** the worker count the outcome was computed with *)
  exec_waves : int;
      (** executed wave batches (structural singletons included); [0]
          in commit order *)
  analysis_ms : float;  (** replay-set computation time *)
  phases : (string * float) list;
      (** wall-time breakdown of the run in execution order —
          [analyze], [snapshot], [hash-jump], [rollback], [replay],
          [cost-model], [merge-log] — populated even with observability
          disabled (a handful of clock reads per run). [merge-log] times
          only the capture of {!merge}; the merged history itself is
          built by {!new_log}, outside the run. *)
  final_db_hash : int64;  (** hash of the temporary universe *)
  changed : bool;
      (** the universe's tables differ from the original's (their hash,
          or the objects where the question can change one); false when
          the Hash-jumper proved no effect *)
  degraded : bool;
      (** the parallel replay lost its worker domains and finished on the
          caller lane; results are identical, only parallelism was lost *)
  retries : int;
      (** transient faults absorbed without affecting the outcome:
          statement re-executions and wave redispatches *)
  temp_catalog : Uv_db.Catalog.t;  (** the new universe *)
  merge : merge;  (** what {!new_log} is built from *)
  rollback_strategy : string;
      (** when the rollback phase applied the members' inverse
          operations (newest first, folded per row): ["undo"] — during
          the phase; ["deferred"] — not in the phase, for a removal known
          to stop before its first member: the replay applies them if it
          runs a member after all, and {!new_log} applies them to its
          copy otherwise *)
  plans_used : int;
      (** inert, always 0: compiled statement plans are gone. It is
          removed by the next benchmark change (ROADMAP item 1). *)
  redone : int;
      (** members redone from their historical journal instead of
          executed ({!Redo}); [replayed - redone] members executed *)
}

val run :
  ?config:config ->
  analyzer:Analyzer.t ->
  Uv_db.Engine.t ->
  Analyzer.target ->
  (outcome, Error.t) result
(** The analyzer must have been built over the engine's current log
    (Ultraverse derives R/W sets asynchronously during regular service;
    analysis construction is therefore not part of what-if latency).
    [final_db_hash] and {!new_log} are invariant under [workers]. It
    runs the code a {!Service} question runs, without a service's lock
    or snapshot: the question derives the analyzer's entries from τ if
    they are not yet ({!Analyzer.require}), so questions asked
    concurrently of one analyzer need a {!Service}.

    Returns [Error] instead of raising when the run aborts: the deadline
    expired, an injected fault persisted after retry and degradation, or
    an unexpected exception escaped a phase ([Error.Internal]). In every
    [Error] case the original engine is untouched — what-if runs never
    mutate it before {!commit} — so the caller can simply retry.
    [Out_of_memory], [Stack_overflow] and [Assert_failure] are not
    converted; they propagate. *)

val run_exn :
  ?config:config ->
  analyzer:Analyzer.t ->
  Uv_db.Engine.t ->
  Analyzer.target ->
  outcome
(** {!run} without the conversion to [Error], for callers that configure
    neither deadlines nor fault injection: exceptions propagate raw (an
    abort surfaces as {!Abort}). *)

val new_log : outcome -> Uv_db.Log.t
(** The new universe's committed history: non-members keep their
    original entries, replayed members contribute their re-executed
    entries, and the retroactive operation sits at τ. This is what makes
    scenarios branchable (§6 "Managing Many what-if Scenarios"): a
    further what-if can analyse this log. The DAG schedule restamps
    member [written_hashes] in commit order, so the log is bit-identical
    at every worker count — and identical to what the commit-order
    schedule produces.

    Built on demand in O(history) from the outcome's {!merge}; each call
    returns a fresh log the caller owns. After a stop ([stop_at]) it
    first reenacts the skipped members over a copy of the replay state
    at the stop ({!Wave_exec.complete}), so their entries and the
    restamped hashes are the whole replay's. The result is the same whenever
    it is called: the engine's log may have grown, been truncated and
    grown again since the run. Callable from any domain. *)

val commit : Uv_db.Engine.t -> outcome -> unit
(** Database-update phase: copy the outcome's mutated tables into the
    engine's live catalog (no-op when [changed] is false). The engine's
    log is *not* rewritten — callers exploring scenarios should keep the
    outcome's temporary catalog instead. *)

val query_new_universe : outcome -> Ast.select -> Uv_db.Engine.result
(** Run a read-only query against the outcome's temporary database —
    the "what would X have been" question the analysis exists to answer. *)

(** A thread-safe what-if service over one shared, growing history —
    the long-lived core behind [ultraverse serve], [whatif --repeat] and
    any caller asking more than one question of one engine.

    It caches analysis work across runs, making the second and later
    questions O(Δ) instead of O(history):

    - the {!Analyzer} is built once and {!Analyzer.extend}ed when the
      log grows, DDL included; a log rewritten in place (shrunk, or
      holding another entry at the analysed length), or a catalog epoch
      change with no new DDL entry, rebuilds it from scratch. Each
      publish derives it from 1 without the read-only tier
      ({!Analyzer.require}); a question whose τ a pass left underived
      (a read-only entry) raises the analyzer's tier under the write
      lock, without a publish. An extend keeps the tier; a rebuild
      starts without it.

    One service owns one engine. Committed traffic enters through
    {!Service.ingest} (exclusive); any number of domains concurrently
    ask what-if questions through {!Service.run} (shared). Internally the
    analyzer and the history length and catalog epoch it covers live in
    an immutable {e snapshot} republished atomically after every ingest:
    a reader obtains the whole set with one atomic load and can never
    observe a half-swapped state (analyzer from one history length,
    epoch from another). A readers-writer lock serializes ingest against
    in-flight runs, because [Analyzer.extend] updates the analyzer inside
    the current snapshot in place.

    Everything cached is an accelerator, never a semantic input: a
    service's outcomes (final hash, new log) are bitwise-identical to
    one-shot {!run}s at every worker count and under any
    interleaving of ingest and queries. *)
module Service : sig
  type t

  type reply = {
    outcome : outcome;
    history_len : int;
        (** committed history length the outcome was computed against —
            under concurrent ingest this tells the client exactly which
            universe answered *)
  }

  type stats = {
    runs : int;
    analyzer_builds : int;  (** full history scans *)
    analyzer_extends : int;  (** incremental O(Δ) refreshes *)
    analyzed_entries : int;  (** log length the published snapshot covers *)
    plan_cache_hits : int;
        (** inert, always 0: compiled statement plans are gone. It is
            removed by the next benchmark change (ROADMAP item 1). *)
    ingested : int;  (** statements applied through {!ingest} *)
    publishes : int;  (** snapshot swaps *)
  }

  val create :
    ?config:config ->
    ?rowset:Rowset.config ->
    ?base:Uv_db.Catalog.t ->
    Uv_db.Engine.t ->
    t
  (** Attach a service to an engine. [rowset] and [base] are handed to every analyzer build — pass the
      same values a one-shot caller would give [Analyzer.analyze],
      or the replay sets will differ. The engine must not be mutated
      behind the service's back once serving starts: route committed
      traffic through {!ingest}. *)

  val engine : t -> Uv_db.Engine.t
  val config : t -> config

  val history_len : t -> int
  (** Committed history length, read under the service lock. *)

  val lock_pressure : t -> int * int
  (** [(waiting writers, active readers)] on the service lock, sampled
      without acquiring it — the [health] endpoint's view of ingest
      back-pressure. The lock is writer-priority: a waiting ingest
      blocks new run admissions, so the first component staying [> 0]
      across samples is the signature of a stuck run, not of reader
      starvation. *)

  val ingest : t -> Uv_sql.Ast.stmt list -> int * int
  (** Apply committed transactions to the shared history and republish
      the caches: [(applied, failed)]. Exclusive with every in-flight
      run; a batch refreshes the snapshot in O(Δ) ([extend]), DDL
      included; a log rewritten in place rebuilds.
      Statements that fail ([Sql_error]) are counted and skipped. *)

  val ingest_sql : t -> string -> int * int
  (** {!ingest} of [Uv_sql.Parser.parse_script]. *)

  val publish : t -> unit
  (** Force a snapshot refresh without ingesting (e.g. after attaching
      to an engine that already holds history). Runs refresh on demand,
      so this is an optional warm-up. *)

  val invalidate : t -> unit
  (** Drop every cache; the next run rebuilds from the live engine. *)

  val run : ?config:config -> t -> Analyzer.target -> (reply, Error.t) result
  (** Answer a what-if over the current published snapshot, holding the
      shared (read) side of the service lock for the whole evaluation.
      Safe to call from any domain concurrently. [config] overrides the
      service's default per request — the serve daemon uses it to
      enforce a per-request [deadline_ms] budget. *)

  val stats : t -> stats
end

