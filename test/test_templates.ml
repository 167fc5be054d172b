(* The static template machinery: extraction determinism, template
   coverage (UVA014) and matrix soundness (UVA015) on every bundled
   workload, and the template lint passes on synthetic sources. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module T = Uv_analysis.Template_extract
module M = Uv_analysis.Template_matrix
module L = Uv_analysis.Lint
module D = Uv_analysis.Diagnostic

let check = Alcotest.check

(* one Raw-mode history per workload, reused by every scenario *)
let build (w : W.t) ~n ~dep_rate =
  let eng, rt = W.setup ~mode:R.Raw w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate in
  ignore (W.run_history rt ~mode:R.Raw calls);
  (eng, base)

let artifacts (w : W.t) =
  let set = T.extract ~schema:w.W.schema_sql ~source:w.W.app_source () in
  let matrix = M.build ~config:w.W.ri_config set in
  (set, matrix)

let render (tpl : T.template) =
  Printf.sprintf "%d|%s|%s|%s|%s" tpl.T.id tpl.T.txn
    (match tpl.T.kind with T.Kstmt -> "stmt" | T.Kcall -> "call")
    (Uv_sql.Printer.stmt_compact tpl.T.stmt)
    (String.concat ","
       (List.map (fun (s, src) -> s ^ ":" ^ T.source_label src) tpl.T.slots))

(* -------------------------------------------------------------- *)
(* extraction determinism                                          *)
(* -------------------------------------------------------------- *)

let test_extract_deterministic (w : W.t) () =
  let a = T.extract ~schema:w.W.schema_sql ~source:w.W.app_source () in
  let b = T.extract ~schema:w.W.schema_sql ~source:w.W.app_source () in
  check
    Alcotest.(list string)
    (w.W.name ^ " same template set across runs")
    (List.map render (T.templates a))
    (List.map render (T.templates b))

(* -------------------------------------------------------------- *)
(* UVA015 matrix soundness on every workload                       *)
(* -------------------------------------------------------------- *)

let test_matrix_sound (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let anl = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let set, matrix = artifacts w in
  let ctx =
    {
      L.tset = set;
      tmatrix = matrix;
      tmatching = Uv_analysis.Template_lint.match_history ~set ~matrix anl;
      tsource = None;
    }
  in
  let diags = L.lint_templates ~passes:[ L.Matrix_soundness ] ~ctx anl in
  check
    Alcotest.(list string)
    (w.W.name ^ " UVA015 clean")
    []
    (List.map D.to_string (D.errors diags));
  (* the workloads are fully templated: raw-mode histories are covered *)
  let cov = L.lint_templates ~passes:[ L.Template_coverage ] ~ctx anl in
  check
    Alcotest.(list string)
    (w.W.name ^ " UVA014 clean")
    [] (List.map D.to_string cov)

(* -------------------------------------------------------------- *)
(* template lint passes on synthetic sources                       *)
(* -------------------------------------------------------------- *)

let test_dynamic_sql_detection () =
  let source =
    {js|
function ok(id) { SQL_exec(`SELECT a FROM t WHERE id = ${id}`); }
function bad(id) {
  let q = "SELECT a FROM t WHERE id = " + id;
  SQL_exec(q);
}
function worse(id) { SQL_exec("SELECT a FROM t WHERE id = " + id); }
|js}
  in
  let diags = Uv_analysis.Template_lint.dynamic_sql ~source in
  check Alcotest.int "two dynamic call sites" 2 (List.length diags);
  List.iter
    (fun (d : D.t) ->
      check Alcotest.string "code" "UVA016" d.D.code;
      check Alcotest.string "severity" "warning" (D.severity_label d.D.severity))
    diags;
  check
    Alcotest.(list (option string))
    "attributed to the enclosing functions"
    [ Some "bad"; Some "worse" ]
    (List.map (fun (d : D.t) -> d.D.obj) diags)

(* -------------------------------------------------------------- *)
(* coarse INSERT ... SELECT regression: view source reads parent   *)
(* -------------------------------------------------------------- *)

let test_coarse_insert_select_view () =
  let sv = Schema_view.create () in
  List.iter (Schema_view.apply sv)
    (Uv_sql.Parser.parse_script
       "CREATE TABLE t (a INT, b INT);\n\
        CREATE VIEW v AS SELECT a, b FROM t;\n\
        CREATE TABLE u (x INT, y INT);");
  let stmt = Uv_sql.Parser.parse_stmt "INSERT INTO u SELECT a, b FROM v" in
  let coarse = Uv_analysis.Coarse_rw.of_stmt sv stmt in
  let has name = Uv_analysis.Coarse_rw.Names.mem name coarse.Uv_analysis.Coarse_rw.cr in
  check Alcotest.bool "view read" true (has "v");
  check Alcotest.bool "parent table read" true (has "t");
  (* and the precise sets keep covering the widened coarse sets *)
  let rw = Rwset.of_stmt sv stmt in
  check
    Alcotest.(list (pair string string))
    "no uncovered objects" []
    (List.map
       (fun (o, side) -> (o, match side with `Read -> "r" | `Write -> "w"))
       (Uv_analysis.Coarse_rw.uncovered rw coarse))

(* -------------------------------------------------------------- *)
(* a procedure that calls itself builds a matrix                    *)
(* -------------------------------------------------------------- *)

let test_recursive_procedure_matrix () =
  let schema =
    "CREATE TABLE t (id INT PRIMARY KEY, v INT);\n\
     CREATE TABLE u (id INT PRIMARY KEY, w INT);\n\
     CREATE PROCEDURE p(IN x INT) BEGIN IF x > 0 THEN INSERT INTO t VALUES \
     (x, x); CALL p(x - 1); END IF; END;\n\
     CREATE PROCEDURE q(IN x INT) BEGIN IF x > 0 THEN UPDATE u SET w = x \
     WHERE id = x; CALL r(x - 1); END IF; END;\n\
     CREATE PROCEDURE r(IN x INT) BEGIN CALL q(x); END;"
  in
  let source =
    {js|
function self(n) { SQL_exec(`CALL p(${n})`); }
function mutual(n) { SQL_exec(`CALL q(${n})`); }
|js}
  in
  let set = T.extract ~schema ~source () in
  let config = Rowset.default_config in
  let matrix = M.build ~config set in
  let guarded name =
    match List.find_opt (fun tpl -> tpl.T.txn = name) (T.templates set) with
    | None -> Alcotest.failf "no template in %s" name
    | Some tpl -> List.map fst (M.guards matrix tpl.T.id)
  in
  (* the inner calls reach rows the outer call's parameter does not name *)
  check Alcotest.(list string) "self: t unguarded" [] (guarded "self");
  check Alcotest.(list string) "mutual: u unguarded" [] (guarded "mutual")

let workload_cases (w : W.t) =
  ( "templates:" ^ w.W.name,
    [
      Alcotest.test_case "extraction deterministic" `Quick
        (test_extract_deterministic w);
      Alcotest.test_case "matrix sound (UVA014/UVA015)" `Quick
        (test_matrix_sound w);
    ] )

let () =
  Alcotest.run "uv_templates"
    (List.map workload_cases (W.all ())
    @ [
        ( "template-lint",
          [
            Alcotest.test_case "dynamic SQL detection" `Quick
              test_dynamic_sql_detection;
            Alcotest.test_case "coarse INSERT..SELECT view source" `Quick
              test_coarse_insert_select_view;
            Alcotest.test_case "recursive procedure matrix" `Quick
              test_recursive_procedure_matrix;
          ] );
      ])
