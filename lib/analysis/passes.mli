(** The individual static-analysis passes.

    Each pass is a pure function from a prepared per-entry context (the
    log entry, the schema view as of the entry, and its precise
    column-wise sets) — or from whole-history accumulations — to
    diagnostics. The {!Lint} driver walks a history once, threads the
    schema view, and dispatches to the enabled passes. *)

open Uv_sql

type entry_ctx = {
  index : int;  (** 1-based commit index *)
  entry : Uv_db.Log.entry;
  sv : Uv_retroactive.Schema_view.t;  (** schema state before the entry *)
  rw : Uv_retroactive.Rwset.rw;  (** precise column-wise sets *)
}

val nondet : entry_ctx -> Diagnostic.t list
(** [UVA001]. Statically counts the entry's non-deterministic draw sites
    (RAND/NOW-family and LAST_INSERT_ID calls, AUTO_INCREMENT fills) and
    compares with the recorded draws. Fewer recorded values than
    *guaranteed* sites is an error (replay diverges); a writing entry
    with zero recorded values but branch-dependent sites (procedure
    bodies, trigger chains) is an info — staleness the static analysis
    cannot rule out. *)

val soundness : entry_ctx -> Diagnostic.t list
(** [UVA002]. Diffs {!Coarse_rw.of_stmt} against the precise sets: any
    object the coarse walk reaches that the precise sets do not mention
    on the same side is an under-approximated dependency. *)

val cluster : seen_dml:bool -> entry_ctx -> Diagnostic.t list
(** [UVA003]/[UVA004]. Hash-jumper & commutativity eligibility: DDL
    after DML began (warning), and single statements whose write set
    spans several real tables or goes through a view (info) — both
    merge or serialize replay clusters. *)

val contains_dml : Ast.stmt -> bool
(** A statement that (possibly nested in a transaction) performs DML. *)

val contains_ddl : Ast.stmt -> bool

val coverage : entry_ctx -> Diagnostic.t list
(** [UVA006]. CREATE PROCEDURE entries whose bodies carry unexplored
    branch stubs (SIGNAL '45000'). *)

val coverage_procedure :
  ?index:int -> name:string -> Ast.pstmt list -> Diagnostic.t list
(** The same check over one procedure body — used for checkpoint-catalog
    procedures that predate the log. *)

type dead_state

val dead_create : unit -> dead_state

val dead_record : dead_state -> entry_ctx -> unit
(** Accumulate the entry's reads and writes. *)

val dead_finish : dead_state -> Diagnostic.t list
(** [UVA005]. Columns whose last write is never followed by a read. *)

val target_stmt :
  Uv_retroactive.Schema_view.t -> Ast.stmt -> Diagnostic.t list
(** [UVA007]/[UVA008]/[UVA010]. Type-check a retroactive Add/Change
    statement against the schema view as of τ: unknown objects, unknown
    columns / INSERT arity, unresolvable FOREIGN KEYs. *)
