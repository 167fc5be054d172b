module A = Uv_applang.Ast
module Analyzer = Uv_retroactive.Analyzer
module Rwset = Uv_retroactive.Rwset
module D = Diagnostic
module T = Template_extract
module M = Template_matrix

(* ------------------------------------------------------------------ *)
(* Matching a history against the templates                             *)
(* ------------------------------------------------------------------ *)

type assigned = {
  tid : int;
  gvals : (string * string) list;  (* table -> canonical guard value *)
}

type matching = {
  assign : assigned option array;  (* entry i at [i - 1] *)
  unmatched : int list;  (* ascending *)
}

let guard_values m i =
  match m.assign.(i - 1) with None -> [] | Some a -> a.gvals

(* A guard on the table's first RI dimension compares in the analyzer's
   canonical (merge-mapped) value space; an alias-column guard compares
   raw. *)
let canonical_guard_values anl matrix ~tid binding =
  List.filter_map
    (fun (table, _) ->
      match M.guard_value matrix ~id:tid ~table binding with
      | None -> None
      | Some (_gcol, v) ->
          Some
            ( table,
              if M.guard_on_dim0 matrix ~id:tid ~table then
                Analyzer.canonical_row_value anl ~table v
              else Uv_sql.Value.serialize v ))
    (M.guards matrix tid)

let match_history ~set ~matrix anl =
  (* every entry is matched against the templates, read-only ones too *)
  Analyzer.require ~grouped:true anl ~from:1;
  let n = Analyzer.length anl in
  (* DDL anywhere in the history invalidates the statically computed
     template sets for entries after it: leave the whole history
     unmatched (workload histories carry no DDL) *)
  let has_ddl = ref false in
  for i = 1 to n do
    if Passes.contains_ddl (Analyzer.info anl i).Analyzer.shape then
      has_ddl := true
  done;
  let assign = Array.make n None in
  let unmatched = ref [] in
  for i = 1 to n do
    match
      if !has_ddl then None
      else T.match_entry set (Analyzer.stmt (Analyzer.info anl i))
    with
    | Some (tpl, binding) ->
        let tid = tpl.T.id in
        assign.(i - 1) <-
          Some { tid; gvals = canonical_guard_values anl matrix ~tid binding }
    | None -> unmatched := i :: !unmatched
  done;
  { assign; unmatched = List.rev !unmatched }

(* ------------------------------------------------------------------ *)
(* The passes                                                           *)
(* ------------------------------------------------------------------ *)

let coverage_cap = 10

let pairwise_cap = 25

(* UVA014: log entries no extracted template covers. DDL is expected to
   be uncovered (templates are application statements); everything else
   escapes the static template model and is worth surfacing. *)
let template_coverage ~matching anl =
  let uncovered =
    List.filter
      (fun i -> not (Passes.contains_ddl (Analyzer.info anl i).Analyzer.shape))
      matching.unmatched
  in
  let shown = List.filteri (fun k _ -> k < coverage_cap) uncovered in
  let per_entry =
    List.map
      (fun i ->
        D.make ~index:i ~code:"UVA014" ~severity:D.Warning
          ~pass:"template-coverage"
          (Printf.sprintf "statement matches no extracted template: %s"
             (Uv_sql.Printer.stmt_compact (Analyzer.stmt (Analyzer.info anl i)))))
      shown
  in
  let total = List.length uncovered in
  if total > List.length shown then
    per_entry
    @ [
        D.make ~code:"UVA014" ~severity:D.Warning ~pass:"template-coverage"
          (Printf.sprintf
             "%d further statement(s) match no extracted template (first %d \
              shown)"
             (total - List.length shown)
             (List.length shown));
      ]
  else per_entry

(* UVA015: the static matrix must over-approximate the dynamic
   dependencies on this history. Two obligations:
   - per entry: the matched template's static column sets contain the
     entry's dynamically derived sets;
   - per pair of matched entries: a dynamic cell-level dependency
     (shared conflict columns AND overlapping rows) is never refuted by
     the matrix — the pair exists, covers the dynamic conflict columns,
     and the disjointness refinement does not prune it in either
     direction. *)
let matrix_soundness ~set ~matrix ~matching anl =
  (* every entry's sets are checked *)
  Analyzer.require ~grouped:true anl ~from:1;
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let matched = ref [] in
  for i = Array.length matching.assign downto 1 do
    match matching.assign.(i - 1) with
    | Some a -> matched := (i, a.tid) :: !matched
    | None -> ()
  done;
  (* entry sets contained in the template's static sets *)
  List.iter
    (fun (i, tid) ->
      match T.find set tid with
      | None ->
          emit
            (D.make ~index:i ~code:"UVA015" ~severity:D.Error
               ~pass:"matrix-soundness"
               (Printf.sprintf "entry matched unknown template id %d" tid))
      | Some tpl ->
          let dyn = (Analyzer.info anl i).Analyzer.rw in
          let miss =
            Rwset.Colset.union
              (Rwset.Colset.diff dyn.Rwset.r tpl.T.rw.Rwset.r)
              (Rwset.Colset.diff dyn.Rwset.w tpl.T.rw.Rwset.w)
          in
          if not (Rwset.Colset.is_empty miss) then
            emit
              (D.make ~index:i ~code:"UVA015" ~severity:D.Error
                 ~pass:"matrix-soundness"
                 (Printf.sprintf
                    "template %d static sets miss dynamic column(s) %s of \
                     this entry"
                    tid
                    (String.concat ", " (Rwset.Colset.elements miss)))))
    !matched;
  (* pairwise: a [prunable] pair claims that entry j cannot depend on
     entry i when, on every conflict table, i has a guard value and j
     has none or a different one; that claim must never refute a real
     cell-level dependency, in either direction *)
  let prunes (p : M.pair) gi gj =
    p.M.prunable && p.M.guard_tables <> []
    && List.for_all
         (fun tbl ->
           match List.assoc_opt tbl gi with
           | None -> false (* i is not pinned on this table *)
           | Some cv -> (
               match List.assoc_opt tbl gj with
               | Some cv' -> cv <> cv'
               | None -> true))
         p.M.guard_tables
  in
  let errors = ref 0 in
  (try
     List.iter
       (fun (i, tid_i) ->
         List.iter
           (fun (j, tid_j) ->
             if i < j then begin
               let cols = Analyzer.conflict_columns anl i j in
               if cols <> [] && Analyzer.conflict_tables anl i j <> [] then begin
                 let fail msg =
                   emit
                     (D.make ~index:i ~code:"UVA015" ~severity:D.Error
                        ~pass:"matrix-soundness" msg);
                   incr errors;
                   if !errors >= pairwise_cap then raise Exit
                 in
                 match M.pair matrix tid_i tid_j with
                 | None ->
                     fail
                       (Printf.sprintf
                          "entries %d and %d conflict dynamically on %s but \
                           the matrix has no pair (%d, %d)"
                          i j (String.concat ", " cols) tid_i tid_j)
                 | Some p ->
                     let pcols = p.M.ww @ p.M.wr @ p.M.rw in
                     let missing =
                       List.filter (fun c -> not (List.mem c pcols)) cols
                     in
                     if missing <> [] then
                       fail
                         (Printf.sprintf
                            "matrix pair (%d, %d) misses dynamic conflict \
                             column(s) %s of entries %d and %d"
                            tid_i tid_j
                            (String.concat ", " missing)
                            i j)
                     else begin
                       let gi = guard_values matching i
                       and gj = guard_values matching j in
                       let back = M.pair matrix tid_j tid_i in
                       if
                         prunes p gi gj
                         || (match back with
                            | Some p' -> prunes p' gj gi
                            | None -> false)
                       then
                         fail
                           (Printf.sprintf
                              "disjointness refinement of pair (%d, %d) \
                               prunes the real dependency between entries \
                               %d and %d"
                              tid_i tid_j i j)
                     end
               end
             end)
           !matched)
       !matched
   with Exit ->
     emit
       (D.make ~code:"UVA015" ~severity:D.Error ~pass:"matrix-soundness"
          (Printf.sprintf "further pairwise violations suppressed after %d"
             pairwise_cap)));
  List.rev !diags

(* UVA016: SQL_exec receiving anything but a string or template literal
   in the MiniJS sources — dynamic SQL the extractor cannot close over,
   so its entries match no template (UVA014 shows the dynamic side of
   the same gap). *)
let dynamic_sql ~source =
  let program = Uv_applang.Parser.parse_program source in
  let diags = ref [] in
  let hit fn (arg : A.expr option) =
    let detail =
      match arg with
      | None -> "no argument"
      | Some (A.Ident v) -> Printf.sprintf "variable '%s'" v
      | Some (A.Binop ("+", _, _)) -> "string concatenation"
      | Some (A.Call _) -> "call result"
      | Some _ -> "computed expression"
    in
    diags :=
      D.make ~obj:fn ~code:"UVA016" ~severity:D.Warning ~pass:"dynamic-sql"
        (Printf.sprintf
           "SQL_exec argument is %s, not a string or template literal: the \
            statement escapes template extraction"
           detail)
      :: !diags
  in
  let rec expr fn (e : A.expr) =
    (match e with
    | A.Call (A.Ident "SQL_exec", args) -> (
        match args with
        | [ (A.Template _ | A.Str _) ] -> ()
        | [ a ] -> hit fn (Some a)
        | _ -> hit fn None)
    | _ -> ());
    match e with
    | A.Num _ | A.Str _ | A.Bool _ | A.Null | A.Undefined | A.Ident _ -> ()
    | A.Template parts ->
        List.iter
          (function A.Ptext _ -> () | A.Phole e -> expr fn e)
          parts
    | A.Binop (_, a, b) -> expr fn a; expr fn b
    | A.Unop (_, a) -> expr fn a
    | A.Cond (a, b, c) -> expr fn a; expr fn b; expr fn c
    | A.Call (f, args) -> expr fn f; List.iter (expr fn) args
    | A.Member (o, _) -> expr fn o
    | A.Index (o, i) -> expr fn o; expr fn i
    | A.Object_lit fields -> List.iter (fun (_, e) -> expr fn e) fields
    | A.Array_lit es -> List.iter (expr fn) es
    | A.Fun_expr (_, body) -> List.iter (stmt fn) body
  and lvalue fn (l : A.lvalue) =
    match l with
    | A.L_ident _ -> ()
    | A.L_member (o, _) -> expr fn o
    | A.L_index (o, i) -> expr fn o; expr fn i
  and stmt fn (s : A.stmt) =
    match s with
    | A.Expr_stmt e -> expr fn e
    | A.Let (_, e) -> Option.iter (expr fn) e
    | A.Assign (l, e) -> lvalue fn l; expr fn e
    | A.If (c, t, e) ->
        expr fn c;
        List.iter (stmt fn) t;
        List.iter (stmt fn) e
    | A.While (c, body) -> expr fn c; List.iter (stmt fn) body
    | A.For (init, cond, step, body) ->
        Option.iter (stmt fn) init;
        Option.iter (expr fn) cond;
        Option.iter (stmt fn) step;
        List.iter (stmt fn) body
    | A.Return e -> Option.iter (expr fn) e
    | A.Break | A.Continue -> ()
    | A.Fun_decl (name, _, body) ->
        let fn = if fn = "<toplevel>" then name else fn in
        List.iter (stmt fn) body
  in
  List.iter (stmt "<toplevel>") program;
  List.rev !diags

(* UVA017: template slots whose values flow from blackbox native APIs —
   unrecorded nondeterminism. The logged literal still replays
   faithfully, but a what-if change upstream of the blackbox cannot be
   reflected in the parameter; flag the provenance. *)
let param_flow ~set =
  List.filter_map
    (fun (tpl : T.template) ->
      let bad =
        List.filter_map
          (fun (slot, src) ->
            match src with T.Sblackbox -> Some slot | _ -> None)
          tpl.T.slots
      in
      if bad = [] then None
      else
        Some
          (D.make ~obj:tpl.T.txn ~code:"UVA017" ~severity:D.Info
             ~pass:"param-flow"
             (Printf.sprintf
                "template %d: slot(s) %s flow from blackbox native calls \
                 (unrecorded nondeterminism)"
                tpl.T.id (String.concat ", " bad))))
    (T.templates set)
