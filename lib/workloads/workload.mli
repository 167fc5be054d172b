(** Common shape of the paper's five benchmarks (§5, Appendix D).

    A workload bundles: the schema DDL; the application-level transaction
    code in MiniJS; the RI-column/alias configuration of Appendix D; a
    population routine (initial database, sized by [scale]); and a
    generator producing a random-but-reproducible sequence of transaction
    calls with a dependency-rate knob.

    The dependency-rate knob (§5.4) biases calls toward one "hot" entity:
    at rate r, a fraction r of the generated calls touch the hot entity
    that the benchmark's retroactive target also touches, so roughly r of
    the history becomes dependent on the what-if modification. *)

open Uv_sql

type txn_call = { txn : string; args : Value.t list }

type t = {
  name : string;
  schema_sql : string;
  app_source : string;
  ri_config : Uv_retroactive.Rowset.config;
  populate : Uv_db.Engine.t -> scale:int -> Uv_util.Prng.t -> unit;
      (** bulk-load the initial database ([scale] multiplies row counts);
          callers normally [Engine.reset_log] afterwards so history
          analysis starts clean *)
  generate :
    Uv_util.Prng.t -> scale:int -> n:int -> dep_rate:float -> txn_call list;
      (** [n] transaction calls *)
  target_call : txn_call;
      (** a canonical retroactive-target transaction touching the hot
          entity (used as the earliest history entry to remove) *)
  mahif_capable : bool;
      (** false when every update involves string attributes (SEATS) *)
  numeric_history :
    (Uv_util.Prng.t -> n:int -> dep_rate:float -> string list * int) option;
      (** numeric-only projection of the workload (CREATE TABLEs followed
          by DML) used for the Mahif head-to-head of Table 4, together
          with the 1-based index of a canonical hot-entity statement near
          the middle — the deterministic retroactive target. Mahif's
          fragment excludes strings, so the shared history must be
          numeric. [None] when the workload cannot be projected (SEATS). *)
}

val all : unit -> t list
(** TPC-C, TATP, Epinions, SEATS, AStore. *)

val by_name : string -> t
(** Case-insensitive lookup; raises [Not_found]. *)

val setup :
  ?seed:int ->
  ?scale:int ->
  ?mode:Uv_transpiler.Runtime.mode ->
  t ->
  Uv_db.Engine.t * Uv_transpiler.Runtime.t
(** Create an engine, apply the schema, populate at [scale], install the
    application (transpiling when [mode] is [Transpiled]), and reset the
    log so subsequent transactions form the analysable history. *)

val run_history :
  Uv_transpiler.Runtime.t ->
  mode:Uv_transpiler.Runtime.mode ->
  txn_call list ->
  int
(** Execute the calls; returns the number of failed transactions
    (application-level aborts are normal for some generated inputs). *)
