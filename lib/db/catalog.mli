(** Database catalog: tables, views, stored procedures, triggers, indexes.

    Also the snapshot facility the retroactive engine uses as its rollback
    mechanism (§4.4; the paper's evaluation uses check-pointed backups). *)

open Uv_sql

type procedure = {
  proc_name : string;
  proc_params : (string * Value.ty) list;
  proc_label : string option;
  proc_body : Ast.pstmt list;
}

type trigger = {
  trig_name : string;
  trig_timing : Ast.trigger_timing;
  trig_event : Ast.trigger_event;
  trig_table : string;
  trig_body : Ast.pstmt list;
}

type t

val create : unit -> t

val epoch : t -> int
(** Moves on, to a value no catalog has held, at every object-namespace
    change (table, view, procedure, trigger or index added, removed or
    renamed), on [restore] and on {!copy_objects_into}. Snapshots
    inherit the source's epoch, so two catalogs of one epoch hold the
    same views, procedures, triggers and indexes. Caches keyed on schema
    shape — the what-if session's memoized analyzer, the analyzer's
    catalog facts — compare epochs to detect staleness cheaply. *)

val tables : t -> (string * Storage.t) list
(** Name-sorted. *)

val table : t -> string -> Storage.t option
val view : t -> string -> Ast.select option
val procedure : t -> string -> procedure option
val triggers_for : t -> string -> Ast.trigger_event -> trigger list

val trigger_tables : t -> string list
(** The tables some trigger is defined on, sorted, each once. *)

val add_table : t -> Storage.t -> unit
val remove_table : t -> string -> unit
val add_view : t -> string -> Ast.select -> unit
val remove_view : t -> string -> unit
val add_procedure : t -> procedure -> unit
val remove_procedure : t -> string -> unit
val add_trigger : t -> trigger -> unit
val remove_trigger : t -> string -> unit
val add_index : t -> string -> string * string list -> unit
val remove_index : t -> string -> unit
val rename_table : t -> string -> string -> unit

val indexes : t -> (string * (string * string list)) list
(** All CREATE INDEX definitions: (index name, (table, columns)). *)

val view_names : t -> string list
val procedure_names : t -> string list

val snapshot : t -> t
(** Deep copy of the whole catalog including every table's rows. *)

val snapshot_tables : t -> string list -> t
(** Temporary-database copy (§4.4 rollback phase): deep-copies only the
    listed tables (the mutated and consulted ones) plus every view,
    procedure, trigger and index definition. Tables not listed are absent
    from the copy — replaying a query that touches one is an analysis
    bug and raises inside the engine. *)

val copy_tables_into : t -> into:t -> string list -> unit
(** Database-update step (§4.4): overwrite the listed tables in [into]
    with deep copies from the source catalog. *)

val copy_objects_into : t -> into:t -> unit
(** Replace [into]'s views, procedures, triggers and CREATE INDEX
    definitions with [t]'s (table data is untouched), bumping [into]'s
    {!epoch}. Used by
    [Whatif.commit] so retroactive DDL on schema objects lands in the
    live catalog. *)

val objects_signature : t -> string
(** Canonical rendering of every view/procedure/trigger/index definition,
    in name order — equal strings iff the schema objects are equal. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s contents with a deep copy of [from]. *)

val db_hash : t -> int64
(** Combined hash over all tables in name order. *)

val tables_hash : t -> string list -> int64
(** [db_hash (snapshot_tables t names)] without copying: the listed
    tables that exist, combined in name order. *)

val memory_bytes : t -> int
