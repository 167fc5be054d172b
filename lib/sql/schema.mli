(** Table, view, and column definitions — the static shape of a database.

    The retroactive engine's column-wise analysis (§4.2, Table A) needs
    column lists, primary keys, AUTO_INCREMENT flags, and FOREIGN KEY
    references; updatable views need the mapping back to their parent
    tables. This module carries exactly that metadata. *)

type column = {
  col_name : string;
  col_ty : Value.ty;
  primary_key : bool;
  auto_increment : bool;
  not_null : bool;
  unique : bool;  (** enforced one-column UNIQUE constraint *)
  references : (string * string) option;
      (** [Some (table, column)] for a FOREIGN KEY reference. *)
}

val column :
  ?primary_key:bool ->
  ?auto_increment:bool ->
  ?not_null:bool ->
  ?unique:bool ->
  ?references:string * string ->
  string ->
  Value.ty ->
  column

type table = {
  tbl_name : string;
  tbl_columns : column list;
}

val table : string -> column list -> table

val column_index : table -> string -> int option
(** The offset of the named column in a row of the table. *)

val column_names : table -> string list

val primary_key_columns : table -> string list

val unique_columns : table -> string list
(** UNIQUE (non-PK) columns, which get hash indexes and duplicate checks. *)

val auto_increment_column : table -> string option

val foreign_keys : table -> (string * string * string) list
(** [(local_column, foreign_table, foreign_column)] triples. *)

val qualified : string -> string -> string
(** [qualified tbl col] is ["tbl.col"], the canonical column key used
    throughout the dependency analysis. *)

val schema_column : string -> string
(** [schema_column name] is ["_S.name"]: the virtual schema-monitoring
    column for table/view/procedure/trigger [name] (§4.2 "_S"). *)
