(** Concurrency-control scheduling from prior R/W knowledge (§6 "Using
    Ultraverse for Concurrency Control").

    Deterministic schedulers like Calvin and Bohm need a transaction's
    read/write sets *before* executing it, and fall back to expensive
    restarts when a prediction misses. Ultraverse's query dependency
    analysis provides those sets statically: given a batch of planned
    statements (not yet executed), [plan] derives each statement's
    column-wise and row-wise sets against the current schema and packs
    the batch into conflict-free waves — statements inside a wave touch
    disjoint cells and may run concurrently, waves execute in order.

    The plan preserves serializability by construction: a statement is
    placed after every earlier statement it conflicts with (read-write,
    write-read or write-write on the same column and RI value). *)



type plan = {
  waves : int list list;
      (** 0-based indexes into the input batch, wave by wave; indexes
          inside a wave are mutually conflict-free *)
  conflict_edges : int;
  statements : int;
}

val plan :
  ?config:Rowset.config -> base:Uv_db.Catalog.t -> Uv_sql.Ast.stmt list -> plan
(** Schedule a batch against the schema/alias state of [base]. *)

val wave_count : plan -> int

val parallelism : plan -> float
(** Average statements per wave — the speedup an ideal executor with
    enough workers achieves over serial execution. *)

val execute :
  Uv_db.Engine.t -> Uv_sql.Ast.stmt list -> plan -> (int * Uv_db.Engine.result) list
(** Execute the batch wave by wave (statements within a wave in index
    order — any order is equivalent by construction). Returns results in
    execution order with their batch indexes. Failed statements are
    skipped. *)
