(** Schema-only replica maintained by scanning DDL statements in commit
    order.

    The query analyzer works offline over the statement log (§2), so it
    cannot ask the live database for schema information — instead it
    rebuilds just the schema surface (tables, views, procedures, triggers)
    by applying each DDL statement it encounters. *)

open Uv_sql

type t

val create : unit -> t

val of_catalog : Uv_db.Catalog.t -> t
(** Seed the view from a live catalog — the schema state at the start of
    the analysed history (checkpoint databases populated before logging
    began). *)

val apply : t -> Ast.stmt -> unit
(** Apply the schema effects of a statement (non-DDL statements are
    no-ops, except INSERT bumping nothing — data is never tracked). *)

val affects : Ast.stmt -> bool
(** May {!apply} of this statement change a view? [false] for every
    statement whose [apply] is a no-op on every view. It reads only the
    statement's shape ({!Uv_sql.Shape}), never a literal. *)

val generation : t -> int
(** Bumped by every {!apply} of a statement that creates, drops, alters
    or replaces a table, view, procedure or trigger, DDL nested in a
    [Transaction] included. Anything derived from the view alone (the
    analyzer's per-shape column sets) stays valid while it holds. *)

val build : ?base:Uv_db.Catalog.t -> ((Ast.stmt -> unit) -> unit) -> t
(** Fold-style constructor: [build iter] seeds a view from [base] (or
    empty) and hands [iter] an apply function to feed statements in
    commit order — the streaming path for histories too large to
    materialize ({!of_log} is [build] over {!Uv_db.Log.iter}; a
    segmented store streams one segment at a time through the same
    hook). *)

val of_log : ?base:Uv_db.Catalog.t -> Uv_db.Log.t -> upto:int -> t
(** Schema state just before the entry with 1-based commit index [upto]
    executes: [base] (or empty) advanced over entries [1 .. upto-1].
    Shared by the analyzer's τ-time reconstruction and the static lint
    passes' target validation. *)

val table_columns : t -> string -> string list option
val table_schema : t -> string -> Schema.table option
val view : t -> string -> Ast.select option
val procedure : t -> string -> Uv_db.Catalog.procedure option
val triggers_for : t -> string -> Ast.trigger_event -> Uv_db.Catalog.trigger list
val is_view : t -> string -> bool
val is_table : t -> string -> bool

val auto_increment_column : t -> string -> string option

val foreign_keys : t -> string -> (string * string * string) list
(** [(local_col, foreign_table, foreign_col)] for a table. *)

val referencing_tables : t -> string -> (string * string * string) list
(** Tables whose FOREIGN KEYs point *at* the given table:
    [(referencing_table, referencing_col, referenced_col)]. *)

val copy : t -> t
