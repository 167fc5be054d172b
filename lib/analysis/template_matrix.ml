open Uv_sql
module Rwset = Uv_retroactive.Rwset
module Rowset = Uv_retroactive.Rowset
module Schema_view = Uv_retroactive.Schema_view
module T = Template_extract

type gsource = Gslot of string | Gconst of Value.t

type guard = { gcol : string; gsrc : gsource }

type pair = {
  ww : string list;
  wr : string list;
  rw : string list;
  prunable : bool;
  guard_tables : string list;
}

type t = {
  config : Rowset.config;
  guards : (int, (string * guard) list) Hashtbl.t;
  pairs : (int * int, pair) Hashtbl.t;
  ids : int list;
}

let gsource_label = function
  | Gslot s -> "$" ^ s
  | Gconst v -> "=" ^ Value.serialize v

(* ------------------------------------------------------------------ *)
(* Guard detection                                                      *)
(* ------------------------------------------------------------------ *)

(* Guard columns usable for a table: its first RI dimension, plus any
   declared alias columns targeting that dimension. Tables without an RI
   configuration are never guarded (conservative). *)
let gcols_of (config : Rowset.config) table =
  match List.assoc_opt table config.Rowset.ri_columns with
  | Some (dim0 :: _) ->
      dim0
      :: List.filter_map
           (fun (t, acol, rcol) ->
             if t = table && rcol = dim0 then Some acol else None)
           config.Rowset.ri_aliases
  | _ -> []

let rec conjuncts e =
  match e with
  | Ast.Binop (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* A guard source: a template slot or a constant. Locals declared inside
   a procedure body are not slots — equality against them never prunes. *)
let rhs_source ~locals e =
  match e with
  | Ast.Var s when not (List.mem s locals) -> Some (Gslot s)
  | Ast.Lit v -> Some (Gconst v)
  | Ast.Unop (Ast.Neg, Ast.Lit (Value.Int n)) -> Some (Gconst (Value.Int (-n)))
  | Ast.Unop (Ast.Neg, Ast.Lit (Value.Float x)) ->
      Some (Gconst (Value.Float (-.x)))
  | _ -> None

let where_guard ~locals ~table ~alias ~gcols where =
  match (where, gcols) with
  | None, _ | _, [] -> None
  | Some w, _ ->
      let cs = conjuncts w in
      let qual_ok q =
        q = None || q = Some table || (alias <> None && q = alias)
      in
      let find_on col =
        List.find_map
          (fun c ->
            match c with
            | Ast.Binop (Ast.Eq, Ast.Col (q, cc), rhs)
              when cc = col && qual_ok q ->
                rhs_source ~locals rhs
            | Ast.Binop (Ast.Eq, rhs, Ast.Col (q, cc))
              when cc = col && qual_ok q ->
                rhs_source ~locals rhs
            | _ -> None)
          cs
      in
      List.find_map
        (fun col -> Option.map (fun g -> { gcol = col; gsrc = g }) (find_on col))
        gcols

let insert_guard ~sv ~config ~locals ~table ~columns ~values =
  match values with
  | [ row ] -> (
      let cols =
        match columns with
        | Some cs -> Some cs
        | None -> Schema_view.table_columns sv table
      in
      match cols with
      | None -> None
      | Some cs ->
          List.find_map
            (fun gcol ->
              let rec pos i = function
                | [] -> None
                | c :: _ when c = gcol -> Some i
                | _ :: rest -> pos (i + 1) rest
              in
              match pos 0 cs with
              | None -> None
              | Some i -> (
                  match List.nth_opt row i with
                  | None -> None
                  | Some e ->
                      Option.map
                        (fun g -> { gcol; gsrc = g })
                        (rhs_source ~locals e)))
            (gcols_of config table))
  | _ -> None

(* Collect every (table, guard option) access of a template statement:
   DML targets, every query-block source (a block guards its single
   source through an equality conjunct; joined blocks guard nothing),
   and — for CALL templates — the embedded statements of the transpiled
   procedure body, whose parameter names are the call's slot names. *)
let rec select_accesses ~sv ~config ~locals acc (s : Ast.select) =
  let sources =
    (match s.Ast.sel_from with Some (t, a) -> [ (t, a) ] | None -> [])
    @ List.map (fun (j : Ast.join) -> (j.Ast.join_table, j.Ast.join_alias))
        s.Ast.sel_joins
  in
  let acc =
    match sources with
    | [ (t, alias) ] ->
        let g =
          where_guard ~locals ~table:t ~alias ~gcols:(gcols_of config t)
            s.Ast.sel_where
        in
        (t, g) :: acc
    | _ -> List.fold_left (fun acc (t, _) -> (t, None) :: acc) acc sources
  in
  List.fold_left
    (fun acc e -> expr_accesses ~sv ~config ~locals acc e)
    acc (Visit.select_exprs s)

and expr_accesses ~sv ~config ~locals acc e =
  let acc =
    List.fold_left
      (select_accesses ~sv ~config ~locals)
      acc (Visit.expr_selects e)
  in
  List.fold_left (expr_accesses ~sv ~config ~locals) acc (Visit.expr_children e)

let rec stmt_accesses ~sv ~config ~locals ~active acc (s : Ast.stmt) =
  match s with
  | Ast.Select sel -> select_accesses ~sv ~config ~locals acc sel
  | Ast.Insert { table; columns; values } ->
      let g = insert_guard ~sv ~config ~locals ~table ~columns ~values in
      List.fold_left
        (expr_accesses ~sv ~config ~locals)
        ((table, g) :: acc)
        (List.concat values)
  | Ast.Insert_select { table; query; _ } ->
      select_accesses ~sv ~config ~locals ((table, None) :: acc) query
  | Ast.Update { table; assigns; where } ->
      let g =
        where_guard ~locals ~table ~alias:None ~gcols:(gcols_of config table)
          where
      in
      List.fold_left
        (expr_accesses ~sv ~config ~locals)
        ((table, g) :: acc)
        (List.map snd assigns @ Option.to_list where)
  | Ast.Delete { table; where } ->
      let g =
        where_guard ~locals ~table ~alias:None ~gcols:(gcols_of config table)
          where
      in
      List.fold_left
        (expr_accesses ~sv ~config ~locals)
        ((table, g) :: acc)
        (Option.to_list where)
  | Ast.Call (name, _) -> (
      match Schema_view.procedure sv name with
      | Some proc ->
          let body = proc.Uv_db.Catalog.proc_body in
          let locals = declared_locals body @ locals in
          if List.mem name active then
            (* a procedure calling itself: the inner call binds its
               parameters to other values, so it reaches, unguarded, the
               tables its column sets name; its body is not expanded
               again *)
            Rwset.Colset.fold
              (fun c acc ->
                match String.index_opt c '.' with
                | Some i when not (String.starts_with ~prefix:"_S." c) ->
                    (String.sub c 0 i, None) :: acc
                | _ -> acc)
              (let rw = Rwset.of_stmt sv s in
               Rwset.Colset.union rw.Rwset.r rw.Rwset.w)
              acc
          else pstmts_accesses ~sv ~config ~locals ~active:(name :: active) acc body
      | None -> acc)
  | Ast.Transaction ss ->
      List.fold_left (stmt_accesses ~sv ~config ~locals ~active) acc ss
  | _ -> acc

and declared_locals body =
  let rec go acc ps =
    List.fold_left
      (fun acc p ->
        let acc =
          match p with
          | Ast.P_declare (n, _, _) -> n :: acc
          | Ast.P_select_into (_, ns) -> ns @ acc
          | _ -> acc
        in
        go acc (Visit.pstmt_children p))
      acc ps
  in
  go [] body

and pstmts_accesses ~sv ~config ~locals ~active acc ps =
  List.fold_left
    (fun acc p ->
      let acc =
        List.fold_left
          (stmt_accesses ~sv ~config ~locals ~active)
          acc (Visit.pstmt_stmts p)
      in
      let acc =
        match p with
        | Ast.P_select_into (s, _) -> select_accesses ~sv ~config ~locals acc s
        | _ -> acc
      in
      pstmts_accesses ~sv ~config ~locals ~active acc (Visit.pstmt_children p))
    acc ps

(* A table is guarded iff every one of its accesses in the template is
   constrained by the same (column, source) equality. *)
let template_guards ~sv ~config (tpl : T.template) =
  let accesses = stmt_accesses ~sv ~config ~locals:[] ~active:[] [] tpl.T.stmt in
  let tables = List.sort_uniq compare (List.map fst accesses) in
  List.filter_map
    (fun table ->
      let gs = List.filter_map (fun (t, g) -> if t = table then Some g else None) accesses in
      match gs with
      | Some g0 :: rest
        when List.for_all (function Some g -> g = g0 | None -> false) rest ->
          Some (table, g0)
      | _ -> None)
    tables

(* ------------------------------------------------------------------ *)
(* Matrix build                                                         *)
(* ------------------------------------------------------------------ *)

let table_of_col c =
  match String.index_opt c '.' with
  | Some i -> Some (String.sub c 0 i)
  | None -> None

let build ~config set =
  let sv = T.base_sv set in
  let templates = T.templates set in
  let guards = Hashtbl.create 64 in
  List.iter
    (fun (tpl : T.template) ->
      Hashtbl.replace guards tpl.T.id (template_guards ~sv ~config tpl))
    templates;
  let pairs = Hashtbl.create 256 in
  let inter x y = Rwset.Colset.elements (Rwset.Colset.inter x y) in
  List.iter
    (fun (a : T.template) ->
      List.iter
        (fun (b : T.template) ->
          let ww = inter a.T.rw.Rwset.w b.T.rw.Rwset.w in
          let wr = inter a.T.rw.Rwset.w b.T.rw.Rwset.r in
          let rw = inter a.T.rw.Rwset.r b.T.rw.Rwset.w in
          if ww <> [] || wr <> [] || rw <> [] then begin
            let cols = List.sort_uniq compare (ww @ wr @ rw) in
            let ga = Hashtbl.find guards a.T.id
            and gb = Hashtbl.find guards b.T.id in
            let col_guarded c =
              (not (Uv_retroactive.Analyzer.is_schema_key c))
              &&
              match table_of_col c with
              | None -> false
              | Some t -> (
                  match (List.assoc_opt t ga, List.assoc_opt t gb) with
                  | Some x, Some y -> x.gcol = y.gcol
                  | _ -> false)
            in
            let prunable = List.for_all col_guarded cols in
            let guard_tables =
              List.sort_uniq compare (List.filter_map table_of_col cols)
            in
            Hashtbl.replace pairs (a.T.id, b.T.id)
              { ww; wr; rw; prunable; guard_tables }
          end)
        templates)
    templates;
  {
    config;
    guards;
    pairs;
    ids = List.map (fun (t : T.template) -> t.T.id) templates;
  }

let guards t id = Option.value (Hashtbl.find_opt t.guards id) ~default:[]

let pair t a b = Hashtbl.find_opt t.pairs (a, b)

let all_pairs t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pairs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let ids t = t.ids

let config t = t.config

(* Resolve a matched entry's guard value on one table: the slot binding
   (or the constant), serialized the way the row index serializes. *)
let guard_value t ~id ~table binding =
  match List.assoc_opt table (guards t id) with
  | None -> None
  | Some { gsrc = Gconst v; gcol } -> Some (gcol, v)
  | Some { gsrc = Gslot s; gcol } ->
      Option.map (fun v -> (gcol, v)) (List.assoc_opt s binding)

(* Is the (table, first-RI-dimension) pair the one the analyzer's merge
   map canonicalises? Alias-column guards live in their own raw value
   space. *)
let guard_on_dim0 t ~id ~table =
  match List.assoc_opt table (guards t id) with
  | None -> false
  | Some { gcol; _ } -> (
      match List.assoc_opt table t.config.Rowset.ri_columns with
      | Some (d :: _) -> d = gcol
      | _ -> false)
