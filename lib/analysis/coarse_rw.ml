open Uv_sql
open Ast
module Schema_view = Uv_retroactive.Schema_view
module Names = Set.Make (String)

type t = { cr : Names.t; cw : Names.t }

let empty = { cr = Names.empty; cw = Names.empty }

let union a b = { cr = Names.union a.cr b.cr; cw = Names.union a.cw b.cw }

let reads names = { cr = Names.of_list names; cw = Names.empty }

let writes names = { cr = Names.empty; cw = Names.of_list names }

let both name = { cr = Names.singleton name; cw = Names.singleton name }

(* ------------------------------------------------------------------ *)
(* Structural source collection                                         *)
(* ------------------------------------------------------------------ *)

(* Source names come from structural positions only — FROM/JOIN clauses
   and DML targets — never from column qualifiers (those are aliases the
   precise analysis resolves; resolving them here would share its
   logic). *)
let rec select_sources_acc acc (s : select) =
  let acc =
    match s.sel_from with Some (t, _) -> Names.add t acc | None -> acc
  in
  let acc =
    List.fold_left (fun acc j -> Names.add j.join_table acc) acc s.sel_joins
  in
  List.fold_left expr_sources_acc acc (Visit.select_exprs s)

and expr_sources_acc acc e =
  let acc = List.fold_left select_sources_acc acc (Visit.expr_selects e) in
  List.fold_left expr_sources_acc acc (Visit.expr_children e)

let select_sources s = Names.elements (select_sources_acc Names.empty s)

let exprs_sources es =
  Names.elements (List.fold_left expr_sources_acc Names.empty es)

let top_level_sources (s : select) =
  (match s.sel_from with Some (t, _) -> [ t ] | None -> [])
  @ List.map (fun j -> j.join_table) s.sel_joins

(* ------------------------------------------------------------------ *)
(* Statement walk                                                       *)
(* ------------------------------------------------------------------ *)

let rec real_target sv name =
  match Schema_view.view sv name with
  | Some q -> (
      match q.sel_from with
      | Some (parent, _) -> real_target sv parent
      | None -> name)
  | None -> name

(* [active] names the triggers and procedures whose bodies are being
   expanded: expanding one again adds no name, so a trigger that fires
   itself or a procedure that calls itself is expanded once. *)
let rec trigger_coarse active sv table event =
  List.fold_left
    (fun acc (trig : Uv_db.Catalog.trigger) ->
      let name = trig.Uv_db.Catalog.trig_name in
      let acc = union acc (reads [ name ]) in
      if List.mem (`Trigger name) active then acc
      else
        union acc
          (pstmts_coarse (`Trigger name :: active) sv trig.Uv_db.Catalog.trig_body))
    empty
    (Schema_view.triggers_for sv table event)

and write_stmt active sv table event inner_reads =
  let base = union (writes [ table ]) (reads inner_reads) in
  union base (trigger_coarse active sv (real_target sv table) event)

and stmt_coarse active sv (s : stmt) : t =
  match s with
  | Create_table { name; columns; _ } ->
      let fk =
        List.filter_map
          (fun (c : Schema.column) -> Option.map fst c.Schema.references)
          columns
      in
      union (both name) (reads fk)
  | Drop_table { name; _ } | Truncate_table name -> both name
  | Alter_table (name, action) ->
      let extra_r =
        match action with
        | Add_column { Schema.references = Some (t, _); _ } -> [ t ]
        | Rename_table n2 -> [ n2 ]
        | _ -> []
      in
      let extra_w =
        match action with Rename_table n2 -> [ n2 ] | _ -> []
      in
      union (both name) (union (reads extra_r) (writes extra_w))
  | Create_view { name; query; _ } ->
      (* the definition depends on its immediate sources (Table A) *)
      union (both name) (reads (top_level_sources query))
  | Drop_view name -> both name
  | Create_index { table; _ } | Drop_index { table; _ } -> both table
  | Create_procedure { name; _ } | Drop_procedure name -> both name
  | Create_trigger { name; table; _ } ->
      union (both name) (reads [ table ])
  | Drop_trigger name -> both name
  | Select sel -> reads (select_sources sel)
  | Insert { table; values; _ } ->
      write_stmt active sv table Ev_insert (exprs_sources (List.concat values))
  | Insert_select { table; query; _ } ->
      (* the copied-from sources are reads; a view source additionally
         reads the real table behind it, which the precise analysis
         expands to — demand the same of the coarse cross-check *)
      let srcs = select_sources query in
      let srcs =
        srcs
        @ List.filter_map
            (fun s ->
              let r = real_target sv s in
              if r <> s then Some r else None)
            srcs
      in
      write_stmt active sv table Ev_insert srcs
  | Update { table; assigns; where } ->
      let inner =
        exprs_sources (List.map snd assigns @ Option.to_list where)
      in
      write_stmt active sv table Ev_update inner
  | Delete { table; where } ->
      write_stmt active sv table Ev_delete (exprs_sources (Option.to_list where))
  | Call (name, args) ->
      let body =
        match Schema_view.procedure sv name with
        | Some proc when not (List.mem (`Proc name) active) ->
            pstmts_coarse (`Proc name :: active) sv proc.Uv_db.Catalog.proc_body
        | Some _ | None -> empty
      in
      union (reads (name :: exprs_sources args)) body
  | Transaction stmts ->
      List.fold_left (fun acc s -> union acc (stmt_coarse active sv s)) empty stmts

and pstmts_coarse active sv body =
  List.fold_left (fun acc p -> union acc (pstmt_coarse active sv p)) empty body

and pstmt_coarse active sv (p : pstmt) : t =
  match p with
  | P_stmt s -> stmt_coarse active sv s
  | P_select_into (s, _) -> reads (select_sources s)
  | P_if (branches, else_body) ->
      let arms =
        List.fold_left
          (fun acc (cond, body) ->
            union acc
              (union (reads (exprs_sources [ cond ])) (pstmts_coarse active sv body)))
          empty branches
      in
      union arms (pstmts_coarse active sv else_body)
  | P_while (cond, body) ->
      union (reads (exprs_sources [ cond ])) (pstmts_coarse active sv body)
  | P_declare _ | P_set _ ->
      reads (exprs_sources (Visit.pstmt_exprs p))
  | P_leave _ | P_signal _ -> empty

let of_stmt sv s = stmt_coarse [] sv s

(* ------------------------------------------------------------------ *)
(* Coverage check                                                       *)
(* ------------------------------------------------------------------ *)

(* [name] is mentioned in a precise column set if the set holds its
   schema key [_S.name] or any qualified column [name.col]. *)
let mentioned set name =
  Uv_retroactive.Rwset.Colset.mem (Schema.schema_column name) set
  || Uv_retroactive.Rwset.Colset.exists
       (fun key ->
         let prefix = name ^ "." in
         let lp = String.length prefix in
         String.length key > lp && String.sub key 0 lp = prefix)
       set

let uncovered (rw : Uv_retroactive.Rwset.rw) coarse =
  let missing side set names =
    Names.fold
      (fun name acc ->
        if mentioned set name then acc else (name, side) :: acc)
      names []
  in
  missing `Read rw.Uv_retroactive.Rwset.r coarse.cr
  @ missing `Write rw.Uv_retroactive.Rwset.w coarse.cw
