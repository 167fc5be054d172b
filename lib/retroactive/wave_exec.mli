(** The replay executor: every what-if replays through [execute], on
    one of two schedules over the same per-item step.

    - {e Commit order}: the head, then each item alone on the caller
      lane, in ascending commit index. Used for DDL members or targets
      and for the Hash-jumper, whose prefix check is the [stop_after]
      hook.
    - {e DAG waves}: the waves of the replay set's conflict DAG
      ({!Conflict_dag.waves}), whose entries are mutually
      conflict-free, run concurrently on a fixed {!Uv_util.Domain_pool},
      each on a lightweight engine sharing the temporary universe's
      catalog by reference. Per-table locking in [Uv_db.Storage]
      serializes physical access; statements marked {e structural}
      (trigger-cascade writers) run alone between the parallel batches
      of their wave. Items must not contain DDL.

    Both schedules run an item the same way: a fresh engine whose PRNG
    seed depends only on the commit index, the item's historical insert
    rowids and private rowid range, its recorded draws, and one retry on
    an injected statement fault. Determinism at every worker count:
    - recorded non-determinism is forced per entry;
    - physical row placement does not depend on scheduling;
    - on the DAG schedule each entry's logged [written_hashes] are
      reconstructed after the run from the per-table hash deltas the
      engine reports for each statement ([hash_deltas] of
      {!Uv_db.Engine.exec}), accumulated in commit order — bit-identical
      to what the commit-order schedule logs;
    - the additive table hash (§4.5) is order-independent, so the final
      universe hash is invariant under intra-wave scheduling. *)

type item = {
  idx : int;  (** commit index; the retroactive operation itself is 0 *)
  stmt : Uv_sql.Ast.stmt;
  sql : string;
      (** [Printer.stmt_compact stmt], logged on the new entry: the text
          of the log entry being re-executed, so replay renders nothing *)
  nondet : Uv_sql.Value.t list;  (** recorded draws, forced on replay *)
  app_txn : string option;
  sim_time : int;  (** logical clock to install before execution *)
  rowid_base : int;
      (** private rowid range for the inserts history gives no rowid *)
  structural : bool;
      (** run exclusively within its wave (trigger-firing writes) *)
  journal : Uv_db.Log.undo list;
      (** the statement's historical journal ([[]] for an added
          statement): its inserts land at the rowids it inserted at
          ({!Uv_db.Engine.exec}'s [~history]), and with [execute ~redo]
          it is what a clean member is redone from and what every item
          is settled against *)
}

type stop
(** What the exact stop left undone (see {!execute}): the skipped
    members and the replay state they would have run over. *)

type t = {
  durations : (int, float) Hashtbl.t;  (** idx -> measured ms *)
  entries : (int, Uv_db.Log.entry) Hashtbl.t;
      (** idx -> the re-executed entry (successful replays only),
          [written_hashes] the commit-order values *)
  failed : int;  (** replays that signalled or errored *)
  wave_count : int;
      (** executed batches, structural singletons included; 0 in commit
          order *)
  measured_ms : float;  (** wall time of the whole replay *)
  retries : int;
      (** transient-fault recoveries: statement re-executions after an
          injected fault plus batch redispatches after a lane death *)
  degraded : bool;
      (** the replay finished on the caller lane after repeated lane
          deaths; results are identical, parallelism was lost *)
  redone : int;  (** items (the head aside) redone from their journal *)
  executed : int;  (** items (the head aside) executed *)
  stop : stop option;
      (** the replay stopped where it rejoined history; [entries] then
          holds the run statements' entries before the restamp, and
          {!complete} gives every entry *)
  undone : int;
      (** entries the [undo] passed to {!execute} undid on [catalog]: all
          of its journals, or 0 when the replay stopped before its first
          member and left it to {!complete} *)
}

val stop_point : stop -> int * int
(** (members run, members skipped). *)

val complete : stop -> (int, Uv_db.Log.entry) Hashtbl.t
(** Every replayed statement's entry (the head's at 0) as the whole
    replay gives it, [written_hashes] restamped in commit order: the
    skipped members are reenacted, in commit order, over a copy of the
    replay state at the stop, through the same per-item step as the
    replay ({!Redo.reenactment}, or execution where the journal does
    not fit). Each call works on its own copy and returns a fresh
    table; callable from any domain. *)

type schedule =
  | Commit_order of { stop_after : int -> item -> bool }
      (** [stop_after pos it] runs after the item at list position [pos]
          (0-based) of [items]; [true] ends the replay there *)
  | Waves of { dag : Conflict_dag.t Lazy.t; workers : int }
      (** [dag]'s nodes are exactly the items' indexes; its waves run on
          [workers] lanes. It is forced after the head while a member
          has not run (see {!execute}). *)

val execute :
  ?obs:Uv_obs.Trace.t ->
  ?fault:Uv_fault.Fault.t ->
  ?check:(unit -> unit) ->
  ?redo:Redo.t ->
  ?undo:Uv_db.Log.undo list list ->
  ?repeating:int ->
  schedule:schedule ->
  rtt_ms:float ->
  catalog:Uv_db.Catalog.t ->
  head:item option ->
  items:item list ->
  unit ->
  t
(** [execute ~schedule ~rtt_ms ~catalog ~head ~items ()] replays [head]
    (the retroactive operation) first, then [items], which ascend by
    [idx], on [schedule]. The catalog is mutated in place. In commit
    order the result has [wave_count = 0].

    [repeating = n] is the caller's verdict that the first [n] items repeat
    history ({!Redo.repeats}) against [redo] as it is passed; the replay
    tests no item the verdict covers until the set grows. [undo], a
    rollback not yet applied to [catalog] (the journals to undo, newest
    first, as {!Uv_db.Log.undo_entries} takes them), comes only with
    [repeating] covering every item: it is applied before anything runs (and
    {!Redo.rolled_back} called), unless the replay stops before its
    first member; then {!complete} applies it to its copy.

    [check] runs before every item in commit order and at every wave
    boundary on the DAG schedule; whatever it raises stops the replay
    and escapes (the catalog is left mid-replay and must be discarded).

    [redo] (a dirty set over [catalog], see {!Redo}) reenacts the items
    it finds clean from their journals instead of executing them, with
    the same entry, hash deltas and row mutations execution would give.
    The decisions for a batch are taken on the caller lane before it runs,
    from the dirty set as the earlier batches left it: a wave's members
    share no cell, so none can dirty what another reads (a constraint
    check that reads every row of its table included: the replay DAG's
    guard rule orders it with every writer of the guard's columns,
    {!Analyzer.replay_dag}). After the
    batch, each item is settled into the set in commit order. The head
    always executes.

    On the DAG schedule with [redo], the replay stops before a batch of
    members once the rest can only repeat history: no statement run so
    far (the head included) inserted a row at a private rowid (at or
    above its [rowid_base]), and every member not yet run repeats
    history ({!Redo.repeats}). Each of those would be redone to its
    historical images over rows outside the set and leave the set as it
    is, so the replay ends there with [stop] set: the catalog is left
    as the stop found it (the caller must not mutate it afterwards;
    {!complete} copies it; the rows still in the set are
    {!Redo.replay_rows}), [entries] holds the run statements' entries
    before the restamp, and [redone], [executed] and [wave_count] count
    what ran. Each test is O(1) amortized: the private-insert test is a
    flag, and a cursor over [items] passes each member once, when it has
    run or repeats history, until the set grows ({!Redo.grown}); then it
    starts again at the first member not run. {!Redo.clean}'s memo
    serves the batch's decisions the verdicts the test found.
    When a stop is possible, or [items] is one member, the first member
    runs alone before [dag] is forced (no member precedes it), and [dag]
    is forced only while a member has not run: a replay that stops
    before or right after its first member, or of one member, never
    forces it. The pool starts at the first batch of several statements,
    and the restamp runs only where the batches were not one statement
    each in ascending order (then every entry already logs its hashes
    and counters in commit order).

    [obs] records a [QIDX] span per replayed statement on the domain
    that ran it (one trace lane per domain; its [redo] arg says whether
    it was redone, and a [replay.redo_fallback] marker precedes a clean
    member whose journal did not fit) and, on the DAG schedule,
    one [wave.N] span per executed batch, the [replay.queue_wait_ms]
    histogram (dispatch-to-start latency per item) and
    [replay.utilization] (busy lane-time fraction per parallel batch).

    Fault handling ([fault] probes, see {!Uv_fault.Fault.Site}):
    - [engine.exec]/[engine.commit] statement faults are retried once on
      a pristine engine (the failed attempt was rolled back); a second
      injection escapes as [Uv_fault.Fault.Injected] — the run aborts.
    - On the DAG schedule, [domain_pool.worker] crashes kill the
      executing lane ({!Uv_util.Domain_pool.Worker_exit}); the batch's
      unfinished items are redispatched once over the surviving lanes,
      and a second death degrades the remainder of the replay to the
      caller lane (reported via [degraded]).
    - [domain_pool.worker]/[wave] [Slow] injections only sleep. *)
