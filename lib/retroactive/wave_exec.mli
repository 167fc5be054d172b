(** Real parallel replay: waves of the conflict DAG on OCaml 5 domains.

    The what-if cost model simulates the parallel replay cost on the
    replay set's conflict DAG ([Analyzer.replay_dag]); this module
    executes the same DAG. The entries of one wave
    ({!Conflict_dag.waves}) are mutually conflict-free and run
    concurrently on a fixed {!Uv_util.Domain_pool}, each on a
    lightweight engine sharing the temporary universe's catalog by
    reference. Per-table locking in
    [Uv_db.Storage] serializes physical access; statements marked
    {e structural} (trigger-cascade writers — DDL never reaches this
    module, the driver falls back to serial replay for it) run alone
    between the parallel batches of their wave.

    Determinism at every worker count:
    - recorded non-determinism is forced per entry, exactly as in serial
      replay;
    - each statement draws rowids from a private range ([rowid_base]),
      so physical row placement does not depend on scheduling;
    - each entry's logged [written_hashes] are reconstructed after the
      run from the per-table hash deltas the engine reports for each
      statement ([hash_deltas] of {!Uv_db.Engine.exec}: the digests its
      own row mutations folded), accumulated in commit order —
      bit-identical to what serial replay would have logged;
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
  rowid_base : int;  (** private rowid range for the statement's inserts *)
  structural : bool;  (** run exclusively (trigger-firing writes) *)
  plan : Uv_db.Engine.plan option;
      (** compiled plan from the what-if session's cache, keyed by this
          entry's identity; immutable and therefore shared read-only
          across domains. A stale plan self-invalidates at bind time, so
          carrying one never changes results. *)
}

type t = {
  durations : (int, float) Hashtbl.t;  (** idx -> measured ms *)
  entries : (int, Uv_db.Log.entry) Hashtbl.t;
      (** idx -> the re-executed entry (successful replays only),
          [written_hashes] already restamped to serial-exact values *)
  failed : int;  (** replays that signalled or errored *)
  wave_count : int;  (** executed batches, structural singletons included *)
  measured_ms : float;  (** wall time of the whole replay *)
  retries : int;
      (** transient-fault recoveries: statement re-executions after an
          injected fault plus batch redispatches after a lane death *)
  degraded : bool;
      (** the replay finished on the caller lane after repeated lane
          deaths; results are identical, parallelism was lost *)
}

exception Aborted of string
(** The replay stopped at a wave boundary because [should_abort]
    returned [true]. The catalog is left mid-replay and must be
    discarded. *)

val execute :
  ?obs:Uv_obs.Trace.t ->
  ?fault:Uv_fault.Fault.t ->
  ?should_abort:(unit -> bool) ->
  workers:int ->
  rtt_ms:float ->
  catalog:Uv_db.Catalog.t ->
  head:item option ->
  items:item list ->
  dag:Conflict_dag.t ->
  unit ->
  t
(** [execute ~workers ~rtt_ms ~catalog ~head ~items ~dag ()] replays
    [head] (the retroactive operation) exclusively first, then [items]
    wave by wave. [dag]'s nodes are exactly the items' indexes; items
    ascend by [idx] and must not contain DDL. The catalog is mutated in
    place.

    [obs] records one [wave.N] span per executed batch, a [QIDX] span
    per replayed
    statement on the domain that ran it (one trace lane per domain),
    the [replay.queue_wait_ms] histogram (dispatch-to-start latency per
    item) and [replay.utilization] (busy lane-time fraction per parallel
    batch).

    Fault handling ([fault] probes, see {!Uv_fault.Fault.Site}):
    - [engine.exec]/[engine.commit] statement faults are retried once on
      a pristine engine (the failed attempt was rolled back); a second
      injection escapes as [Uv_fault.Fault.Injected] — the run aborts.
    - [domain_pool.worker] crashes kill the executing lane
      ({!Uv_util.Domain_pool.Worker_exit}); the batch's unfinished items
      are redispatched once over the surviving lanes, and a second death
      degrades the remainder of the replay to the caller lane
      (reported via [degraded]).
    - [domain_pool.worker]/[wave] [Slow] injections only sleep.

    [should_abort] is polled at every wave boundary; returning [true]
    raises {!Aborted}. *)
