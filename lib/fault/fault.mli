(** Deterministic fault injection for the what-if pipeline.

    Mirrors the {!Uv_obs.Trace} null-hook design: a disabled injector is
    a single immutable constructor and every probe short-circuits on it,
    so production code pays one pattern match per site when faults are
    off. With an injector installed, named sites scattered through the
    engine, the durable-log writer, the domain pool and the wave
    executor ask [check] whether a fault fires {e here, now} — and the
    answer is a pure function of the injector's seed and the probe's
    coordinates, never of wall-clock time or domain scheduling, so a
    failing chaos run replays exactly from its seed.

    {2 Coordinates}

    A probe is identified by [(site, key, hit)]: the site name (see
    {!Site}), a caller-chosen stream key (e.g. the statement's logical
    timestamp, [0] when there is only one stream), and the per-[(site,
    key)] attempt counter maintained internally. A statement retried
    after an injected failure probes the same [(site, key)] with a
    fresh [hit], so retries draw an independent decision rather than
    deterministically re-failing forever. *)

type kind =
  | Stmt_fail  (** statement aborts mid-flight; engine must roll back *)
  | Worker_crash  (** a pool domain dies; its items must be re-run *)
  | Torn_write  (** a file write stops after a prefix of the bytes *)
  | Slow  (** a worker stalls for [arg] milliseconds *)

type injection = {
  site : string;
  key : int;
  hit : int;  (** 1-based attempt number within the [(site, key)] stream *)
  kind : kind;
  arg : float;
      (** [Torn_write]: fraction of the bytes written, in [0, 1);
          [Slow]: stall in milliseconds; [0.] otherwise *)
}

exception Injected of injection
(** The canonical way a site reports a fired fault. Distinct from
    {!Uv_db.Engine.Sql_error}: an injected fault models infrastructure
    failure, so recovery retries the operation instead of treating it as
    an application-level abort. *)

type t

val disabled : t
(** The null injector: every [check] is [None] at the cost of one match. *)

val enabled : t -> bool

val seeded :
  ?stmt_fail:float ->
  ?worker_crash:float ->
  ?torn_write:float ->
  ?slow:float ->
  seed:int ->
  unit ->
  t
(** Probabilistic injector: each probe fires kind [k] with the given
    probability (all default [0.]), decided by hashing
    [(seed, site, key, hit)] — deterministic and schedule-independent. *)

val script : injection list -> t
(** Fire exactly the listed injections: a probe fires when an entry
    matches its [(site, key, hit)] and its kind is applicable. Used by
    tests to aim a single fault at a precise point. *)

val check : ?key:int -> t -> string -> kind list -> injection option
(** [check t site kinds] registers one probe of [site] (stream [key],
    default [0]) and returns the injection to apply, if any. [kinds]
    lists the fault kinds meaningful at this site; others never fire. *)

val fire : ?key:int -> t -> string -> kind list -> unit
(** [check] and raise {!Injected} if a fault fired. *)

val fired : t -> injection list
(** All injections fired so far, in probe order. Empty for {!disabled}. *)

val kind_name : kind -> string

(** The injection sites threaded through the pipeline. *)
module Site : sig
  val engine_exec : string
  (** Probed by [Engine.exec] before the statement runs ([Stmt_fail]);
      key = the statement's logical timestamp. *)

  val engine_commit : string
  (** Probed after the statement executed but before its log entry is
      committed ([Stmt_fail]) — exercises the full journal rollback. *)

  val log_save : string
  (** Probed by every [Log_store] file write ([Torn_write]): the temp
      file receives only a prefix and the rename is skipped. *)

  val dump_save : string
  (** Probed by [Log_store.save_dump_file] ([Torn_write]). *)

  val worker : string
  (** Probed on the pool domain about to replay an item
      ([Worker_crash], [Slow]); key = the item's commit index. *)

  val wave : string
  (** Probed at each wave-batch boundary ([Worker_crash] models a
      domain found dead between waves and triggers degradation). *)

  val checkpoint : string
  (** Probed when the engine is about to record a checkpoint rung
      ([Stmt_fail]: the rung is skipped gracefully — the ladder stays
      valid, the next eligible commit tries again); key = the commit
      index the rung would cover. *)

  val checkpoint_save : string
  (** Probed by [Log_store.save_checkpoints_file] ([Torn_write]): the checkpoint
      file receives only a prefix and the rename is skipped, so recovery
      must reject it on CRC and fall back to undo-only rollback. *)

  val serve_ingest_append : string
  (** Probed by the durable-ingest path after a batch executed but
      before its records reach the store ([Stmt_fail] models the daemon
      dying here); key = the batch's first global commit index. *)

  val serve_ingest_sync : string
  (** Probed inside the group-commit flush, between the intent journal
      and the store sync ([Stmt_fail]): the batch is journalled but its
      records may be only partially durable — recovery must truncate it
      away. *)

  val serve_ack : string
  (** Probed after a batch is fully durable, before the acknowledgment
      frame is written ([Stmt_fail]): the client never sees the ack and
      re-sends; the idempotency key must deduplicate. *)
end
