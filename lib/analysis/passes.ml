open Uv_sql
open Ast
module Schema_view = Uv_retroactive.Schema_view
module Rwset = Uv_retroactive.Rwset
module Analyzer = Uv_retroactive.Analyzer
module Log = Uv_db.Log
module D = Diagnostic

type entry_ctx = {
  index : int;
  entry : Log.entry;
  sv : Schema_view.t;
  rw : Rwset.rw;
}

(* ------------------------------------------------------------------ *)
(* UVA001 — unrecorded non-determinism                                  *)
(* ------------------------------------------------------------------ *)

let is_nondet_fun name =
  match String.uppercase_ascii name with
  | "RAND" | "NOW" | "CURTIME" | "CURRENT_TIMESTAMP" | "UNIX_TIMESTAMP"
  | "LAST_INSERT_ID" ->
      true
  | _ -> false

let count_site n e =
  match e with Fun_call (f, []) when is_nondet_fun f -> n + 1 | _ -> n

(* Draw sites evaluated exactly once per committed row: skip nested query
   blocks, whose per-row evaluation count is data-dependent. *)
let rec shallow_sites n e =
  let n = count_site n e in
  List.fold_left shallow_sites n (Visit.expr_children e)

let deep_expr_sites n e = Visit.fold_expr count_site n e
let deep_select_sites n s = Visit.fold_select count_site n s

let index_of x l =
  let rec go i = function
    | [] -> None
    | y :: _ when String.equal x y -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 l

(* (definite, possible) AUTO_INCREMENT draws of an INSERT's rows: a row
   that omits the AI column (or supplies a literal NULL) draws exactly
   once; a non-literal value may or may not be NULL at runtime. *)
let insert_ai_rows sv table columns rows =
  let real = Coarse_rw.real_target sv table in
  match Schema_view.auto_increment_column sv real with
  | None -> (0, 0)
  | Some ac ->
      if Schema_view.is_view sv table then (0, List.length rows)
      else
        let pos =
          match columns with
          | Some cols -> index_of ac cols
          | None ->
              Option.bind (Schema_view.table_columns sv real) (index_of ac)
        in
        let classify row =
          match pos with
          | None -> (
              (* AI column absent from an explicit column list: filled *)
              match columns with Some _ -> (1, 0) | None -> (0, 0))
          | Some i -> (
              match List.nth_opt row i with
              | Some (Lit Value.Null) -> (1, 0)
              | Some (Lit _) -> (0, 0)
              | Some _ -> (0, 1)
              | None -> (0, 0) (* arity error: never commits *))
        in
        List.fold_left
          (fun (d, p) row ->
            let d', p' = classify row in
            (d + d', p + p'))
          (0, 0) rows

let rec definite_draws sv (s : stmt) =
  match s with
  | Insert { table; columns; values } ->
      let funs = List.fold_left shallow_sites 0 (List.concat values) in
      let ai, _ = insert_ai_rows sv table columns values in
      funs + ai
  | Transaction stmts ->
      List.fold_left (fun n x -> n + definite_draws sv x) 0 stmts
  | _ -> 0

(* Execution-reachable draw sites, branch- and data-dependent ones
   included: nested query blocks, CALL-expanded procedure bodies, fired
   trigger bodies. Bodies merely being *defined* do not execute. A body
   already being expanded ([active]) is not expanded again: its sites
   are counted once, which is all a test for any site needs, and a
   trigger that fires itself or a procedure that calls itself ends. *)
let rec potential_draws active sv (s : stmt) =
  let base = List.fold_left deep_expr_sites 0 (Visit.stmt_exprs s) in
  let base = List.fold_left deep_select_sites base (Visit.stmt_selects s) in
  let base =
    match s with
    | Insert { table; columns; values } ->
        let d, p = insert_ai_rows sv table columns values in
        base + d + p
    | Insert_select { table; _ } -> (
        match
          Schema_view.auto_increment_column sv (Coarse_rw.real_target sv table)
        with
        | Some _ -> base + 1
        | None -> base)
    | Call (name, _) -> (
        match Schema_view.procedure sv name with
        | Some proc when not (List.mem (`Proc name) active) ->
            base
            + pstmts_potential (`Proc name :: active) sv
                proc.Uv_db.Catalog.proc_body
        | Some _ | None -> base)
    | Transaction stmts ->
        List.fold_left (fun n x -> n + potential_draws active sv x) base stmts
    | _ -> base
  in
  match s with
  | Insert { table; _ } | Insert_select { table; _ } ->
      base + triggers_potential active sv table Ev_insert
  | Update { table; _ } -> base + triggers_potential active sv table Ev_update
  | Delete { table; _ } -> base + triggers_potential active sv table Ev_delete
  | _ -> base

and pstmts_potential active sv body =
  Visit.fold_pstmts
    (fun n p ->
      let n = List.fold_left deep_expr_sites n (Visit.pstmt_exprs p) in
      let n = List.fold_left deep_select_sites n (Visit.pstmt_selects p) in
      List.fold_left
        (fun n s -> n + potential_draws active sv s)
        n (Visit.pstmt_stmts p))
    0 body

and triggers_potential active sv table event =
  List.fold_left
    (fun n (tr : Uv_db.Catalog.trigger) ->
      let name = tr.Uv_db.Catalog.trig_name in
      if List.mem (`Trigger name) active then n
      else
        n
        + pstmts_potential (`Trigger name :: active) sv
            tr.Uv_db.Catalog.trig_body)
    0
    (Schema_view.triggers_for sv (Coarse_rw.real_target sv table) event)

let nondet ctx =
  let stmt = ctx.entry.Log.stmt in
  if Ast.is_read_only stmt then []
  else
    let recorded = Log.nondet_count ctx.entry in
    let definite = definite_draws ctx.sv stmt in
    if recorded < definite then
      [
        D.make ~index:ctx.index ~code:"UVA001" ~severity:D.Error ~pass:"nondet"
          (Printf.sprintf
             "statement draws at least %d nondeterministic value(s) \
              (RAND/NOW/AUTO_INCREMENT) but the log records %d; replaying \
              it diverges from the original history"
             definite recorded);
      ]
    else if
      recorded = 0
      && ctx.entry.Log.rows_written > 0
      && potential_draws [] ctx.sv stmt > 0
    then
      [
        D.make ~index:ctx.index ~code:"UVA001" ~severity:D.Info ~pass:"nondet"
          "statement has branch-dependent nondeterministic draw sites and \
           no recorded values; the static analysis cannot confirm the \
           executed path drew none";
      ]
    else []

(* ------------------------------------------------------------------ *)
(* UVA002 — Rwset soundness cross-check                                 *)
(* ------------------------------------------------------------------ *)

let soundness ctx =
  let coarse = Coarse_rw.of_stmt ctx.sv ctx.entry.Log.stmt in
  List.map
    (fun (name, side) ->
      let side_str = match side with `Read -> "read" | `Write -> "write" in
      D.make ~index:ctx.index ~obj:name ~code:"UVA002" ~severity:D.Error
        ~pass:"soundness"
        (Printf.sprintf
           "the coarse %s-set reaches this object but the precise \
            column-wise sets never mention it on the %s side; the \
            dependency analysis under-approximates here and a replay set \
            may silently be too small"
           side_str side_str))
    (Coarse_rw.uncovered ctx.rw coarse)

(* ------------------------------------------------------------------ *)
(* UVA003/UVA004 — Hash-jumper & commutativity eligibility              *)
(* ------------------------------------------------------------------ *)

let rec contains_ddl = function
  | Transaction stmts -> List.exists contains_ddl stmts
  | s -> Ast.is_ddl s

let rec contains_dml = function
  | Transaction stmts -> List.exists contains_dml stmts
  | Insert _ | Insert_select _ | Update _ | Delete _ | Call _ -> true
  | _ -> false

let cluster ~seen_dml ctx =
  let stmt = ctx.entry.Log.stmt in
  let ddl =
    if contains_ddl stmt && seen_dml then
      [
        D.make ~index:ctx.index ~code:"UVA003" ~severity:D.Warning
          ~pass:"cluster"
          (Printf.sprintf
             "%s committed after DML began; mid-history schema changes \
              conflict with every statement of the touched objects, \
              serializing replay and defeating Hash-jumper clustering"
             (Ast.stmt_kind stmt));
      ]
    else []
  in
  let wt = Analyzer.write_tables ctx.rw in
  let multi =
    if List.length wt >= 2 then
      [
        D.make ~index:ctx.index ~code:"UVA004" ~severity:D.Info ~pass:"cluster"
          (Printf.sprintf
             "single statement writes %d tables (%s) — trigger fan-out, \
              FK write inheritance or transaction grouping; cross-cluster \
              writes merge otherwise independent replay clusters"
             (List.length wt)
             (String.concat ", " wt));
      ]
    else []
  in
  let viewy =
    match stmt with
    | Insert { table; _ }
    | Insert_select { table; _ }
    | Update { table; _ }
    | Delete { table; _ }
      when Schema_view.is_view ctx.sv table ->
        [
          D.make ~index:ctx.index ~obj:table ~code:"UVA004" ~severity:D.Info
            ~pass:"cluster"
            (Printf.sprintf
               "write through view %s expands to its parent table; view \
                indirection couples the view's readers to the parent's \
                replay cluster"
               table);
        ]
    | _ -> []
  in
  ddl @ multi @ viewy

(* ------------------------------------------------------------------ *)
(* UVA006 — unexplored-branch coverage                                  *)
(* ------------------------------------------------------------------ *)

let coverage_procedure ?index ~name body =
  let stubs = Uv_transpiler.Transpile.signal_stubs body in
  if stubs > 0 then
    [
      D.make ?index ~obj:name ~code:"UVA006" ~severity:D.Warning
        ~pass:"coverage"
        (Printf.sprintf
           "%d unexplored branch stub(s) (SIGNAL SQLSTATE '45000'); a \
            retroactive replay taking one aborts the transaction — \
            re-transpile with more DSE runs to close them"
           stubs);
    ]
  else []

let rec coverage_stmt ~index = function
  | Create_procedure { name; body; _ } -> coverage_procedure ~index ~name body
  | Transaction stmts -> List.concat_map (coverage_stmt ~index) stmts
  | _ -> []

let coverage ctx = coverage_stmt ~index:ctx.index ctx.entry.Log.stmt

(* ------------------------------------------------------------------ *)
(* UVA005 — dead writes                                                 *)
(* ------------------------------------------------------------------ *)

type dead_state = {
  lw : (string, int) Hashtbl.t;  (* column -> last writing index *)
  lr : (string, int) Hashtbl.t;  (* column -> last reading index *)
}

let dead_create () = { lw = Hashtbl.create 128; lr = Hashtbl.create 128 }

let is_real_col k = (not (Analyzer.is_schema_key k)) && String.contains k '.'

let dead_record st ctx =
  Rwset.Colset.iter
    (fun k -> if is_real_col k then Hashtbl.replace st.lr k ctx.index)
    ctx.rw.Rwset.r;
  Rwset.Colset.iter
    (fun k -> if is_real_col k then Hashtbl.replace st.lw k ctx.index)
    ctx.rw.Rwset.w

let dead_finish st =
  Hashtbl.fold
    (fun col wi acc ->
      let read_after =
        match Hashtbl.find_opt st.lr col with
        | Some ri -> ri > wi
        | None -> false
      in
      if read_after then acc
      else
        D.make ~index:wi ~obj:col ~code:"UVA005" ~severity:D.Info
          ~pass:"dead-write"
          "column written here is never read by any later statement; a \
           retroactive member writing only dead columns is a replay-set \
           pruning candidate"
        :: acc)
    st.lw []

(* ------------------------------------------------------------------ *)
(* UVA007/UVA008/UVA010 — retroactive-target validation                 *)
(* ------------------------------------------------------------------ *)

let known_object sv name =
  Schema_view.is_table sv name
  || Schema_view.is_view sv name
  || Schema_view.procedure sv name <> None

(* Column references at the statement's own scope (subselects have their
   own sources and are skipped). *)
let shallow_cols e =
  let rec go acc e =
    let acc = match e with Col (q, c) -> (q, c) :: acc | _ -> acc in
    List.fold_left go acc (Visit.expr_children e)
  in
  go [] e

let unknown_col ~table ~col =
  D.make ~obj:(Schema.qualified table col) ~code:"UVA008" ~severity:D.Error
    ~pass:"target"
    (Printf.sprintf "unknown column %s.%s as of the target index" table col)

let check_scope_cols sv table exprs =
  match Schema_view.table_columns sv table with
  | None -> []
  | Some cols ->
      List.concat_map
        (fun e ->
          List.filter_map
            (fun (qual, c) ->
              if String.equal c "*" then None
              else
                match qual with
                | Some ("NEW" | "OLD") -> None
                | Some q when String.equal q table ->
                    if List.mem c cols then None
                    else Some (unknown_col ~table ~col:c)
                | Some q -> (
                    match Schema_view.table_columns sv q with
                    | Some qcols when not (List.mem c qcols) ->
                        Some (unknown_col ~table:q ~col:c)
                    | _ -> None)
                | None ->
                    if List.mem c cols then None
                    else Some (unknown_col ~table ~col:c))
            (shallow_cols e))
        exprs

let fk_checks sv real ~assigned =
  match Schema_view.table_schema sv real with
  | None -> []
  | Some _ ->
      List.concat_map
        (fun (local, ftbl, fcol) ->
          let relevant =
            match assigned with
            | None -> true
            | Some cols -> List.mem local cols
          in
          if not relevant then []
          else
            match Schema_view.table_columns sv ftbl with
            | None ->
                [
                  D.make ~obj:(Schema.qualified real local) ~code:"UVA010"
                    ~severity:D.Error ~pass:"target"
                    (Printf.sprintf
                       "FOREIGN KEY %s.%s references table %s, which does \
                        not exist as of the target index"
                       real local ftbl);
                ]
            | Some fcols ->
                if List.mem fcol fcols then []
                else
                  [
                    D.make ~obj:(Schema.qualified real local) ~code:"UVA010"
                      ~severity:D.Error ~pass:"target"
                      (Printf.sprintf
                         "FOREIGN KEY %s.%s references missing column %s.%s"
                         real local ftbl fcol);
                  ])
        (Schema_view.foreign_keys sv real)

let fk_def_checks sv ~self ~self_columns columns =
  List.concat_map
    (fun (c : Schema.column) ->
      match c.Schema.references with
      | None -> []
      | Some (ftbl, fcol) ->
          let fcols =
            if String.equal ftbl self then Some self_columns
            else Schema_view.table_columns sv ftbl
          in
          (match fcols with
          | None ->
              [
                D.make ~obj:(Schema.qualified self c.Schema.col_name)
                  ~code:"UVA010" ~severity:D.Error ~pass:"target"
                  (Printf.sprintf
                     "FOREIGN KEY %s.%s references table %s, which does \
                      not exist as of the target index"
                     self c.Schema.col_name ftbl);
              ]
          | Some fcols ->
              if List.mem fcol fcols then []
              else
                [
                  D.make ~obj:(Schema.qualified self c.Schema.col_name)
                    ~code:"UVA010" ~severity:D.Error ~pass:"target"
                    (Printf.sprintf
                       "FOREIGN KEY %s.%s references missing column %s.%s"
                       self c.Schema.col_name ftbl fcol);
                ]))
    columns

let rec target_stmt sv (s : stmt) =
  match s with
  | Transaction stmts ->
      let sv = Schema_view.copy sv in
      List.concat_map
        (fun m ->
          let ds = target_stmt sv m in
          Schema_view.apply sv m;
          ds)
        stmts
  | Create_table { name; columns; _ } ->
      fk_def_checks sv ~self:name
        ~self_columns:(List.map (fun c -> c.Schema.col_name) columns)
        columns
  | Alter_table (name, Add_column c) ->
      fk_def_checks sv ~self:name ~self_columns:[ c.Schema.col_name ] [ c ]
  | Create_view { query; _ } ->
      List.filter_map
        (fun src ->
          if known_object sv src then None
          else
            Some
              (D.make ~obj:src ~code:"UVA007" ~severity:D.Error ~pass:"target"
                 (Printf.sprintf
                    "view definition reads unknown table or view %s as of \
                     the target index"
                    src)))
        (Coarse_rw.select_sources query)
  | s when Ast.is_ddl s -> []
  | s ->
      let coarse = Coarse_rw.of_stmt sv s in
      let unknown =
        Coarse_rw.Names.fold
          (fun name acc ->
            if known_object sv name then acc
            else
              D.make ~obj:name ~code:"UVA007" ~severity:D.Error ~pass:"target"
                (Printf.sprintf
                   "unknown table, view or procedure %s as of the target \
                    index"
                   name)
              :: acc)
          (Coarse_rw.Names.union coarse.Coarse_rw.cr coarse.Coarse_rw.cw)
          []
      in
      let shape =
        match s with
        | Insert { table; columns; values }
          when Schema_view.is_table sv table -> (
            let arity_error expected got =
              D.make ~obj:table ~code:"UVA008" ~severity:D.Error ~pass:"target"
                (Printf.sprintf
                   "INSERT arity mismatch: %d value(s) for %d column(s)" got
                   expected)
            in
            match columns with
            | Some cs ->
                let cols =
                  Option.value ~default:[] (Schema_view.table_columns sv table)
                in
                List.filter_map
                  (fun c ->
                    if List.mem c cols then None
                    else Some (unknown_col ~table ~col:c))
                  cs
                @ List.filter_map
                    (fun row ->
                      if List.length row = List.length cs then None
                      else Some (arity_error (List.length cs) (List.length row)))
                    values
            | None ->
                let ncols =
                  match Schema_view.table_columns sv table with
                  | Some cols -> List.length cols
                  | None -> 0
                in
                List.filter_map
                  (fun row ->
                    if List.length row = ncols then None
                    else Some (arity_error ncols (List.length row)))
                  values)
        | Update { table; assigns; where }
          when Schema_view.is_table sv table ->
            let cols =
              Option.value ~default:[] (Schema_view.table_columns sv table)
            in
            List.filter_map
              (fun (c, _) ->
                if List.mem c cols then None
                else Some (unknown_col ~table ~col:c))
              assigns
            @ check_scope_cols sv table
                (List.map snd assigns @ Option.to_list where)
        | Delete { table; where } when Schema_view.is_table sv table ->
            check_scope_cols sv table (Option.to_list where)
        | _ -> []
      in
      let fk =
        match s with
        | Insert { table; _ } | Insert_select { table; _ } ->
            fk_checks sv (Coarse_rw.real_target sv table) ~assigned:None
        | Update { table; assigns; _ } ->
            fk_checks sv
              (Coarse_rw.real_target sv table)
              ~assigned:(Some (List.map fst assigns))
        | _ -> []
      in
      unknown @ shape @ fk
