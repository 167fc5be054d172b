open Uv_sql
open Ast
module Colset = Set.Make (String)

type rw = { r : Colset.t; w : Colset.t }

let empty = { r = Colset.empty; w = Colset.empty }

let union a b = { r = Colset.union a.r b.r; w = Colset.union a.w b.w }

let add_r key rw = { rw with r = Colset.add key rw.r }

let schema_key name = Schema.schema_column name

(* Qualify every column of a table/view source. For a view we expand to
   the parent tables the view reads, so writers of those columns connect
   to readers of the view. *)
let rec source_read_columns sv name =
  match Schema_view.table_columns sv name with
  | Some cols ->
      Colset.of_list (schema_key name :: List.map (Schema.qualified name) cols)
  | None -> (
      match Schema_view.view sv name with
      | Some q -> Colset.add (schema_key name) (select_reads sv q)
      | None ->
          (* Unknown source (e.g. table created later in a procedure):
             fall back to the schema column only. *)
          Colset.singleton (schema_key name))

(* All columns named [col] across candidate sources; if we cannot place
   an unqualified column we attribute it to every source (conservative). *)
and resolve_column sv sources qual col =
  let qualify table col =
    (* a view column expands to everything the view reads *)
    if Schema_view.is_view sv table then
      match Schema_view.view sv table with
      | Some q -> Colset.add (schema_key table) (select_reads sv q)
      | None -> Colset.singleton (Schema.qualified table col)
    else Colset.singleton (Schema.qualified table col)
  in
  match qual with
  | Some q -> (
      (* The qualifier is an alias or table name; map alias -> table. *)
      match List.assoc_opt q sources with
      | Some table -> qualify table col
      | None -> qualify q col)
  | None ->
      let hits =
        List.filter_map
          (fun (_, table) ->
            match Schema_view.table_columns sv table with
            | Some cols when List.mem col cols ->
                Some (Colset.singleton (Schema.qualified table col))
            | _ -> (
                match Schema_view.view sv table with
                | Some q -> Some (Colset.add (schema_key table) (select_reads sv q))
                | None -> None))
          sources
      in
      if hits <> [] then List.fold_left Colset.union Colset.empty hits
      else
        (* No source claims it: attribute to all sources. *)
        Colset.of_list
          (List.map (fun (_, table) -> Schema.qualified table col) sources)

and expr_reads sv sources e =
  match e with
  | Col (Some ("NEW" | "OLD"), _) -> Colset.empty (* trigger row, not a table *)
  | Col (_, "*") ->
      (* a COUNT star argument reads every column of every source *)
      List.fold_left
        (fun acc (_, table) -> Colset.union acc (source_read_columns sv table))
        Colset.empty sources
  | Col (qual, col) -> resolve_column sv sources qual col
  | Subselect s | Exists s -> select_reads sv s
  | e ->
      (* default: union over the immediate subexpressions *)
      List.fold_left
        (fun acc c -> Colset.union acc (expr_reads sv sources c))
        Colset.empty (Visit.expr_children e)

and select_sources (s : select) =
  let base =
    match s.sel_from with
    | Some (t, alias) -> [ (Option.value alias ~default:t, t) ]
    | None -> []
  in
  base
  @ List.map
      (fun j -> (Option.value j.join_alias ~default:j.join_table, j.join_table))
      s.sel_joins

and select_reads sv (s : select) =
  let sources = select_sources s in
  (* _S keys + full source columns only when projecting *; otherwise the
     schema key plus exactly the referenced columns. *)
  let schema_keys =
    Colset.of_list (List.map (fun (_, t) -> schema_key t) sources)
  in
  let star =
    if List.exists (function Star -> true | _ -> false) s.sel_items then
      List.fold_left
        (fun acc (_, t) -> Colset.union acc (source_read_columns sv t))
        Colset.empty sources
    else Colset.empty
  in
  (* projected items, join conditions, WHERE, GROUP BY, HAVING, ORDER BY *)
  let clause_reads =
    List.fold_left
      (fun acc e -> Colset.union acc (expr_reads sv sources e))
      Colset.empty (Visit.select_exprs s)
  in
  (* FOREIGN KEY remark of Table A: reading a table via FK columns also
     reads the referenced external columns. *)
  let fk =
    List.fold_left
      (fun acc (_, t) ->
        List.fold_left
          (fun acc (_, ftbl, fcol) -> Colset.add (Schema.qualified ftbl fcol) acc)
          acc
          (Schema_view.foreign_keys sv t))
      Colset.empty sources
  in
  List.fold_left Colset.union schema_keys [ star; clause_reads; fk ]

(* Columns a write statement targets on a table, expanding views to their
   parent table (updatable views, §4.2). Returns (real_table, rw). *)
let rec write_target sv name =
  match Schema_view.view sv name with
  | Some q -> (
      match q.sel_from with
      | Some (parent, _) ->
          let parent_tbl, extra = write_target sv parent in
          (parent_tbl, Colset.add (schema_key name) extra)
      | None -> (name, Colset.empty))
  | None -> (name, Colset.empty)

(* FK columns in other tables that reference any of [cols] of [table]
   (Table A: UPDATE/DELETE write-set addendum). *)
let referencing_fk_columns sv table cols =
  List.fold_left
    (fun acc (rtbl, rcol, refd_col) ->
      if Colset.mem (Schema.qualified table refd_col) cols then
        Colset.add (Schema.qualified rtbl rcol) acc
      else acc)
    Colset.empty
    (Schema_view.referencing_tables sv table)

let all_columns_of sv table =
  match Schema_view.table_columns sv table with
  | Some cols -> Colset.of_list (List.map (Schema.qualified table) cols)
  | None -> Colset.empty

(* Trigger bodies fired by a write on [table]. [active] names the
   triggers and procedures whose bodies are being expanded: one of them
   firing or called again adds nothing new, so it is not expanded again
   (a trigger that fires itself, or a procedure that calls itself,
   terminates). *)
let rec trigger_rw active sv table event =
  List.fold_left
    (fun acc (trig : Uv_db.Catalog.trigger) ->
      let name = trig.Uv_db.Catalog.trig_name in
      if List.mem (`Trigger name) active then acc
      else
        let body_rw =
          pstmts_rw (`Trigger name :: active) sv trig.Uv_db.Catalog.trig_body
        in
        add_r (schema_key name) (union acc body_rw))
    empty
    (Schema_view.triggers_for sv table event)

and stmt_rw active sv (s : stmt) : rw =
  match s with
  | Create_table { name; columns; _ } ->
      let fk_reads =
        List.filter_map (fun (c : Schema.column) -> c.Schema.references) columns
        |> List.map (fun (t, _) -> schema_key t)
      in
      {
        r = Colset.of_list (schema_key name :: fk_reads);
        w = Colset.singleton (schema_key name);
      }
  | Drop_table { name; _ } | Truncate_table name ->
      { r = Colset.singleton (schema_key name); w = Colset.singleton (schema_key name) }
  | Alter_table (name, action) ->
      let extra =
        match action with
        | Add_column { Schema.references = Some (t, _); _ } -> [ schema_key t ]
        | Rename_table n2 -> [ schema_key n2 ]
        | _ -> []
      in
      {
        r = Colset.of_list (schema_key name :: extra);
        w =
          Colset.of_list
            (schema_key name
            :: (match action with Rename_table n2 -> [ schema_key n2 ] | _ -> []));
      }
  | Create_view { name; query; _ } ->
      let sources = select_sources query in
      {
        r =
          Colset.of_list
            (schema_key name :: List.map (fun (_, t) -> schema_key t) sources);
        w = Colset.singleton (schema_key name);
      }
  | Drop_view name ->
      { r = Colset.singleton (schema_key name); w = Colset.singleton (schema_key name) }
  | Create_index { table; _ } | Drop_index { table; _ } ->
      let fk_reads =
        List.map (fun (_, t, _) -> schema_key t) (Schema_view.foreign_keys sv table)
      in
      {
        r = Colset.of_list (schema_key table :: fk_reads);
        w = Colset.singleton (schema_key table);
      }
  | Create_procedure { name; _ } | Drop_procedure name ->
      { r = Colset.singleton (schema_key name); w = Colset.singleton (schema_key name) }
  | Create_trigger { name; table; _ } ->
      {
        r = Colset.of_list [ schema_key name; schema_key table ];
        w = Colset.singleton (schema_key name);
      }
  | Drop_trigger name ->
      { r = Colset.singleton (schema_key name); w = Colset.singleton (schema_key name) }
  | Select sel -> { r = select_reads sv sel; w = Colset.empty }
  | Insert { table; columns = _; values } ->
      let real, view_extra = write_target sv table in
      let w = all_columns_of sv real in
      let inner =
        List.fold_left
          (fun acc row ->
            List.fold_left
              (fun acc e -> Colset.union acc (expr_reads sv [ (real, real) ] e))
              acc row)
          Colset.empty values
      in
      let auto =
        match Schema_view.auto_increment_column sv real with
        | Some c -> Colset.singleton (Schema.qualified real c)
        | None -> Colset.empty
      in
      let fk =
        List.fold_left
          (fun acc (_, ftbl, fcol) -> Colset.add (Schema.qualified ftbl fcol) acc)
          Colset.empty
          (Schema_view.foreign_keys sv real)
      in
      let base =
        {
          r =
            List.fold_left Colset.union
              (Colset.singleton (schema_key real))
              [ inner; auto; fk ];
          w = Colset.union w view_extra;
        }
      in
      union base (trigger_rw active sv real Ev_insert)
  | Insert_select { table; columns = _; query } ->
      (* like INSERT, but the row values are the query's reads *)
      let real, view_extra = write_target sv table in
      let w = all_columns_of sv real in
      let inner = select_reads sv query in
      let auto =
        match Schema_view.auto_increment_column sv real with
        | Some c -> Colset.singleton (Schema.qualified real c)
        | None -> Colset.empty
      in
      let fk =
        List.fold_left
          (fun acc (_, ftbl, fcol) -> Colset.add (Schema.qualified ftbl fcol) acc)
          Colset.empty
          (Schema_view.foreign_keys sv real)
      in
      let base =
        {
          r =
            List.fold_left Colset.union
              (Colset.singleton (schema_key real))
              [ inner; auto; fk ];
          w = Colset.union w view_extra;
        }
      in
      union base (trigger_rw active sv real Ev_insert)
  | Update { table; assigns; where } ->
      let real, view_extra = write_target sv table in
      let sources = [ (real, real) ] in
      let written =
        Colset.of_list (List.map (fun (c, _) -> Schema.qualified real c) assigns)
      in
      let assign_reads =
        List.fold_left
          (fun acc (_, e) -> Colset.union acc (expr_reads sv sources e))
          Colset.empty assigns
      in
      let where_reads =
        match where with
        | Some w -> expr_reads sv sources w
        | None -> Colset.empty
      in
      let fk_reads =
        List.fold_left
          (fun acc (_, ftbl, fcol) -> Colset.add (Schema.qualified ftbl fcol) acc)
          Colset.empty
          (Schema_view.foreign_keys sv real)
      in
      let fk_writes = referencing_fk_columns sv real written in
      let base =
        {
          r =
            List.fold_left Colset.union
              (Colset.singleton (schema_key real))
              [ assign_reads; where_reads; fk_reads ];
          w = List.fold_left Colset.union written [ fk_writes; view_extra ];
        }
      in
      union base (trigger_rw active sv real Ev_update)
  | Delete { table; where } ->
      let real, view_extra = write_target sv table in
      let sources = [ (real, real) ] in
      let written = all_columns_of sv real in
      let where_reads =
        match where with
        | Some w -> expr_reads sv sources w
        | None -> Colset.empty
      in
      let fk_reads =
        List.fold_left
          (fun acc (_, ftbl, fcol) -> Colset.add (Schema.qualified ftbl fcol) acc)
          Colset.empty
          (Schema_view.foreign_keys sv real)
      in
      let fk_writes = referencing_fk_columns sv real written in
      let base =
        {
          r =
            Colset.union
              (Colset.add (schema_key real) where_reads)
              fk_reads;
          w = List.fold_left Colset.union written [ fk_writes; view_extra ];
        }
      in
      union base (trigger_rw active sv real Ev_delete)
  | Call (name, args) ->
      let arg_reads =
        List.fold_left
          (fun acc e -> Colset.union acc (expr_reads sv [] e))
          Colset.empty args
      in
      let body =
        match Schema_view.procedure sv name with
        | Some proc when not (List.mem (`Proc name) active) ->
            pstmts_rw (`Proc name :: active) sv proc.Uv_db.Catalog.proc_body
        | Some _ | None -> empty
      in
      add_r (schema_key name) (union { r = arg_reads; w = Colset.empty } body)
  | Transaction stmts ->
      List.fold_left (fun acc s -> union acc (stmt_rw active sv s)) empty stmts

and pstmts_rw active sv body =
  List.fold_left (fun acc p -> union acc (pstmt_rw active sv p)) empty body

and pstmt_rw active sv (p : pstmt) : rw =
  match p with
  | P_stmt s -> stmt_rw active sv s
  | P_declare (_, _, Some e) -> { r = expr_reads sv [] e; w = Colset.empty }
  | P_declare (_, _, None) -> empty
  | P_set (_, e) -> { r = expr_reads sv [] e; w = Colset.empty }
  | P_select_into (s, _) -> { r = select_reads sv s; w = Colset.empty }
  | P_if (branches, else_body) ->
      (* Both arms merged: control direction depends on runtime state. *)
      let arms =
        List.fold_left
          (fun acc (cond, body) ->
            union acc
              (union { r = expr_reads sv [] cond; w = Colset.empty } (pstmts_rw active sv body)))
          empty branches
      in
      union arms (pstmts_rw active sv else_body)
  | P_while (cond, body) ->
      union { r = expr_reads sv [] cond; w = Colset.empty } (pstmts_rw active sv body)
  | P_leave _ | P_signal _ -> empty

let of_stmt sv s = stmt_rw [] sv s

let pp fmt rw =
  Format.fprintf fmt "R={%s} W={%s}"
    (String.concat ", " (Colset.elements rw.r))
    (String.concat ", " (Colset.elements rw.w))
