open Uv_sql
open Ast

type t = {
  tables : (string, Schema.table) Hashtbl.t;
  views : (string, Ast.select) Hashtbl.t;
  procs : (string, Uv_db.Catalog.procedure) Hashtbl.t;
  trigs : (string, Uv_db.Catalog.trigger) Hashtbl.t;
  mutable generation : int; (* bumped by every [apply] that may change the view *)
}

let create () =
  {
    tables = Hashtbl.create 16;
    views = Hashtbl.create 8;
    procs = Hashtbl.create 8;
    trigs = Hashtbl.create 8;
    generation = 0;
  }

let of_catalog cat =
  let t = create () in
  List.iter
    (fun (name, tbl) -> Hashtbl.replace t.tables name (Uv_db.Storage.schema tbl))
    (Uv_db.Catalog.tables cat);
  List.iter
    (fun name ->
      match Uv_db.Catalog.view cat name with
      | Some sel -> Hashtbl.replace t.views name sel
      | None -> ())
    (Uv_db.Catalog.view_names cat);
  List.iter
    (fun name ->
      match Uv_db.Catalog.procedure cat name with
      | Some p -> Hashtbl.replace t.procs name p
      | None -> ())
    (Uv_db.Catalog.procedure_names cat);
  (* triggers: catalog indexes by table+event; enumerate over tables *)
  List.iter
    (fun (tname, _) ->
      List.iter
        (fun ev ->
          List.iter
            (fun (tr : Uv_db.Catalog.trigger) ->
              Hashtbl.replace t.trigs tr.Uv_db.Catalog.trig_name tr)
            (Uv_db.Catalog.triggers_for cat tname ev))
        [ Ev_insert; Ev_update; Ev_delete ])
    (Uv_db.Catalog.tables cat);
  t

(* Apply [s]'s schema effects; [false] when they cannot change the view. *)
let rec changes t (s : stmt) =
  match s with
  | Create_table { name; columns; _ } ->
      Hashtbl.replace t.tables name (Schema.table name columns);
      true
  | Drop_table { name; _ } ->
      Hashtbl.remove t.tables name;
      true
  | Truncate_table _ -> false
  | Alter_table (name, action) -> (
      match Hashtbl.find_opt t.tables name with
      | None -> false
      | Some sch -> (
          match action with
          | Add_column c ->
              Hashtbl.replace t.tables name
                { sch with Schema.tbl_columns = sch.Schema.tbl_columns @ [ c ] };
              true
          | Drop_column cname ->
              Hashtbl.replace t.tables name
                {
                  sch with
                  Schema.tbl_columns =
                    List.filter
                      (fun (c : Schema.column) ->
                        not (String.equal c.Schema.col_name cname))
                      sch.Schema.tbl_columns;
                };
              true
          | Rename_table n2 ->
              Hashtbl.remove t.tables name;
              Hashtbl.replace t.tables n2 { sch with Schema.tbl_name = n2 };
              true
          | Set_auto_increment _ ->
              (* counter pin: no schema shape change *)
              false))
  | Create_view { name; query; _ } ->
      Hashtbl.replace t.views name query;
      true
  | Drop_view name ->
      Hashtbl.remove t.views name;
      true
  | Create_procedure { name; params; label; body } ->
      Hashtbl.replace t.procs name
        {
          Uv_db.Catalog.proc_name = name;
          proc_params = params;
          proc_label = label;
          proc_body = body;
        };
      true
  | Drop_procedure name ->
      Hashtbl.remove t.procs name;
      true
  | Create_trigger { name; timing; event; table; body } ->
      Hashtbl.replace t.trigs name
        {
          Uv_db.Catalog.trig_name = name;
          trig_timing = timing;
          trig_event = event;
          trig_table = table;
          trig_body = body;
        };
      true
  | Drop_trigger name ->
      Hashtbl.remove t.trigs name;
      true
  | Transaction stmts ->
      List.fold_left (fun changed s -> changes t s || changed) false stmts
  | Create_index _ | Drop_index _ | Select _ | Insert _ | Insert_select _ | Update _ | Delete _
  | Call _ ->
      false

let apply t s = if changes t s then t.generation <- t.generation + 1

let rec affects (s : stmt) =
  match s with
  | Create_table _ | Drop_table _ | Alter_table _ | Create_view _ | Drop_view _
  | Create_procedure _ | Drop_procedure _ | Create_trigger _ | Drop_trigger _ ->
      true
  | Transaction stmts -> List.exists affects stmts
  | Truncate_table _ | Create_index _ | Drop_index _ | Select _ | Insert _
  | Insert_select _ | Update _ | Delete _ | Call _ ->
      false

let generation t = t.generation

let build ?base iter =
  let t = match base with Some cat -> of_catalog cat | None -> create () in
  iter (apply t);
  t

let of_log ?base log ~upto =
  build ?base (fun apply ->
      let i = ref 1 in
      Uv_db.Log.iter log (fun e ->
          if !i < upto then apply e.Uv_db.Log.stmt;
          incr i))

let table_schema t name = Hashtbl.find_opt t.tables name

let table_columns t name =
  Option.map Schema.column_names (table_schema t name)

let view t name = Hashtbl.find_opt t.views name
let procedure t name = Hashtbl.find_opt t.procs name

let triggers_for t table event =
  Hashtbl.fold
    (fun _ (trig : Uv_db.Catalog.trigger) acc ->
      if String.equal trig.Uv_db.Catalog.trig_table table && trig.trig_event = event
      then trig :: acc
      else acc)
    t.trigs []
  |> List.sort (fun (a : Uv_db.Catalog.trigger) b -> compare a.trig_name b.trig_name)

let is_view t name = Hashtbl.mem t.views name
let is_table t name = Hashtbl.mem t.tables name

let auto_increment_column t name =
  Option.bind (table_schema t name) Schema.auto_increment_column

let foreign_keys t name =
  match table_schema t name with None -> [] | Some sch -> Schema.foreign_keys sch

let referencing_tables t name =
  Hashtbl.fold
    (fun tname sch acc ->
      List.fold_left
        (fun acc (local, ftbl, fcol) ->
          if String.equal ftbl name then (tname, local, fcol) :: acc else acc)
        acc (Schema.foreign_keys sch))
    t.tables []
  |> List.sort compare

let copy t =
  {
    tables = Hashtbl.copy t.tables;
    views = Hashtbl.copy t.views;
    procs = Hashtbl.copy t.procs;
    trigs = Hashtbl.copy t.trigs;
    generation = t.generation;
  }
