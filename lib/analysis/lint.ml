module Schema_view = Uv_retroactive.Schema_view
module Rwset = Uv_retroactive.Rwset
module Analyzer = Uv_retroactive.Analyzer
module Log = Uv_db.Log
module Catalog = Uv_db.Catalog
module D = Diagnostic

type pass =
  | Nondet
  | Soundness
  | Cluster
  | Dead_write
  | Coverage
  | Template_coverage
  | Matrix_soundness
  | Dynamic_sql
  | Param_flow

let all_passes = [ Nondet; Soundness; Cluster; Dead_write; Coverage ]

let template_passes =
  [ Template_coverage; Matrix_soundness; Dynamic_sql; Param_flow ]

let pass_name = function
  | Nondet -> "nondet"
  | Soundness -> "soundness"
  | Cluster -> "cluster"
  | Dead_write -> "dead-write"
  | Coverage -> "coverage"
  | Template_coverage -> "template-coverage"
  | Matrix_soundness -> "matrix-soundness"
  | Dynamic_sql -> "dynamic-sql"
  | Param_flow -> "param-flow"

let pass_of_string s =
  match String.lowercase_ascii s with
  | "nondet" -> Some Nondet
  | "soundness" -> Some Soundness
  | "cluster" -> Some Cluster
  | "dead-write" | "dead_write" | "dead" -> Some Dead_write
  | "coverage" -> Some Coverage
  | "template-coverage" | "template_coverage" -> Some Template_coverage
  | "matrix-soundness" | "matrix_soundness" -> Some Matrix_soundness
  | "dynamic-sql" | "dynamic_sql" -> Some Dynamic_sql
  | "param-flow" | "param_flow" -> Some Param_flow
  | _ -> None

let lint_log ?base ?(passes = all_passes) log =
  let on p = List.mem p passes in
  let sv =
    match base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let dead = Passes.dead_create () in
  let seen_dml = ref false in
  let diags = ref [] in
  let emit ds = diags := List.rev_append ds !diags in
  (* procedures that predate the log still run during replay *)
  (if on Coverage then
     match base with
     | None -> ()
     | Some cat ->
         List.iter
           (fun name ->
             match Catalog.procedure cat name with
             | Some p ->
                 emit
                   (Passes.coverage_procedure ~name
                      p.Uv_db.Catalog.proc_body)
             | None -> ())
           (Catalog.procedure_names cat));
  let i = ref 0 in
  Log.iter log (fun entry ->
      incr i;
      let rw = Rwset.of_stmt sv entry.Log.stmt in
      let ctx = { Passes.index = !i; entry; sv; rw } in
      if on Nondet then emit (Passes.nondet ctx);
      if on Soundness then emit (Passes.soundness ctx);
      if on Cluster then emit (Passes.cluster ~seen_dml:!seen_dml ctx);
      if on Coverage then emit (Passes.coverage ctx);
      if on Dead_write then Passes.dead_record dead ctx;
      if Passes.contains_dml entry.Log.stmt then seen_dml := true;
      Schema_view.apply sv entry.Log.stmt);
  if on Dead_write then emit (Passes.dead_finish dead);
  List.sort D.compare !diags

let lint_target ?base log (t : Analyzer.target) =
  let n = Log.length log in
  let hi = match t.Analyzer.op with Analyzer.Add _ -> n + 1 | _ -> n in
  if t.Analyzer.tau < 1 || t.Analyzer.tau > hi then
    [
      D.make ~code:"UVA009" ~severity:D.Error ~pass:"target"
        (Printf.sprintf
           "target index tau=%d out of range [1, %d] for a history of %d \
            statement(s)"
           t.Analyzer.tau hi n);
    ]
  else
    let sv = Schema_view.of_log ?base log ~upto:t.Analyzer.tau in
    match t.Analyzer.op with
    | Analyzer.Remove -> []
    | Analyzer.Add s | Analyzer.Change s ->
        List.sort D.compare (Passes.target_stmt sv s)

type template_ctx = {
  tset : Template_extract.set;
  tmatrix : Template_matrix.t;
  tmatching : Template_lint.matching;
  tsource : string option;
}

let lint_templates ?(passes = template_passes) ~ctx anl =
  let on p = List.mem p passes in
  let diags = ref [] in
  let emit ds = diags := List.rev_append ds !diags in
  if on Template_coverage then
    emit (Template_lint.template_coverage ~matching:ctx.tmatching anl);
  if on Matrix_soundness then
    emit
      (Template_lint.matrix_soundness ~set:ctx.tset ~matrix:ctx.tmatrix
         ~matching:ctx.tmatching anl);
  (if on Dynamic_sql then
     match ctx.tsource with
     | Some source -> emit (Template_lint.dynamic_sql ~source)
     | None -> ());
  if on Param_flow then emit (Template_lint.param_flow ~set:ctx.tset);
  List.sort D.compare !diags
