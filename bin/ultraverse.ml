(* The ultraverse command-line tool.

   Subcommands:
     transpile <app.js>                 — DSE-transpile every database-updating
                                          transaction and print the SQL procedures
     analyze <history.sql> --tau N      — dependency analysis for a retroactive
                                          target: replay set, mutated/consulted
     whatif <history.sql> --tau N ...   — run the retroactive operation and
                                          report the alternate universe
     serve <history.sql> --socket S     — long-running multi-client what-if
                                          service (uv.serve/1 framed protocol)
     client ACTION --socket S           — talk to a running serve daemon
     workloads                          — list the bundled benchmarks

   Shared flags (--json, --workers, --deadline, --tau/--op/--stmt, …)
   live in Cli_args; subcommands compose those terms instead of
   re-declaring them. *)

open Cmdliner
open Uv_db
open Uv_retroactive

let read_file = Cli_args.read_file

(* ------------------------------------------------------------------ *)
(* transpile                                                            *)
(* ------------------------------------------------------------------ *)

let transpile_cmd =
  let run path verbose =
    let source = read_file path in
    let program = Uv_applang.Parser.parse_program source in
    let results = Uv_transpiler.Transpile.transpile_all ~program () in
    if results = [] then print_endline "no database-updating transactions found"
    else
      List.iter
        (fun (t : Uv_transpiler.Transpile.t) ->
          Printf.printf
            "-- %s: %d path(s), %d DSE run(s), %d unexplored stub(s)\n%s\n\n"
            t.Uv_transpiler.Transpile.txn_name t.Uv_transpiler.Transpile.paths
            t.Uv_transpiler.Transpile.runs t.Uv_transpiler.Transpile.unexplored
            (Uv_sql.Printer.stmt t.Uv_transpiler.Transpile.procedure);
          if verbose then
            print_endline
              (Uv_transpiler.Transpile.augmented_source program
                 t.Uv_transpiler.Transpile.txn_name))
        results;
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"APP.JS"
           ~doc:"application source (MiniJS)")
  in
  let verbose =
    Arg.(value & flag & info [ "augmented" ] ~doc:"also print the augmented application code")
  in
  Cmd.v
    (Cmd.info "transpile"
       ~doc:"transpile application-level transactions into SQL procedures")
    Term.(const run $ path $ verbose)

(* ------------------------------------------------------------------ *)
(* shared: build an engine from a history script                        *)
(* ------------------------------------------------------------------ *)

let load_history = Cli_args.load_history
let parse_op = Cli_args.parse_op

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run path tau op stmt_text dot explain =
    let eng = load_history path in
    let analyzer = Analyzer.analyze (Engine.log eng) in
    let target = { Analyzer.tau; op = parse_op op stmt_text } in
    let rs = Analyzer.replay_set analyzer target in
    Printf.printf "history:        %d statements\n" (Log.length (Engine.log eng));
    Printf.printf "replay set:     %d (column-only %d, row-only %d)\n"
      rs.Analyzer.member_count rs.Analyzer.col_only_count rs.Analyzer.row_only_count;
    Printf.printf "mutated:        %s\n" (String.concat ", " rs.Analyzer.mutated);
    Printf.printf "consulted:      %s\n" (String.concat ", " rs.Analyzer.consulted);
    print_endline "members:";
    List.iter
      (fun i ->
        Printf.printf "  Q%-5d %s\n" i (Log.entry (Engine.log eng) i).Log.sql)
      rs.Analyzer.member_indexes;
    if explain then begin
      print_endline "provenance:";
      let lines = Analyzer.explain_report analyzer target rs in
      List.iter (fun l -> print_endline ("  " ^ l)) lines
    end;
    (match dot with
    | Some out_path ->
        let oc = open_out out_path in
        output_string oc (Analyzer.to_dot analyzer rs);
        close_out oc;
        Printf.printf "conflict graph written to %s\n" out_path
    | None -> ());
    0
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~doc:"write the replay conflict graph as Graphviz DOT")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"print per-member provenance (which conflict pulled each \
                   statement into the replay set)")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"query dependency analysis for a retroactive target")
    Term.(const run $ Cli_args.history_pos $ Cli_args.tau $ Cli_args.op
          $ Cli_args.stmt_text $ dot $ explain)

(* ------------------------------------------------------------------ *)
(* whatif                                                               *)
(* ------------------------------------------------------------------ *)

let cache_json (s : Whatif.Service.stats) =
  let module J = Uv_obs.Json in
  J.Obj
    [
      ("runs", J.Int s.Whatif.Service.runs);
      ("analyzer_builds", J.Int s.Whatif.Service.analyzer_builds);
      ("analyzer_extends", J.Int s.Whatif.Service.analyzer_extends);
      ("analyzed_entries", J.Int s.Whatif.Service.analyzed_entries);
    ]

let whatif_payload ~path ~tau ~op ~cache (out : Whatif.outcome) =
  let module J = Uv_obs.Json in
  J.Obj
    [
      ("history", J.Str path);
      ("tau", J.Int tau);
      ("op", J.Str (String.lowercase_ascii op));
      ("replay_set", J.Int out.Whatif.replay.Analyzer.member_count);
      ("replayed", J.Int out.Whatif.replayed);
      ("undone", J.Int out.Whatif.undone);
      ("failed_replays", J.Int out.Whatif.failed_replays);
      ( "hash_jump_at",
        match out.Whatif.hash_jump_at with Some i -> J.Int i | None -> J.Null );
      ( "stop_at",
        match out.Whatif.stop_at with
        | Some (ran, skipped) ->
            J.Obj [ ("ran", J.Int ran); ("skipped", J.Int skipped) ]
        | None -> J.Null );
      ("analysis_ms", J.Float out.Whatif.analysis_ms);
      ("real_ms", J.Float out.Whatif.real_ms);
      ("serial_cost_ms", J.Float out.Whatif.serial_cost_ms);
      ("simulated_parallel_ms", J.Float out.Whatif.simulated_parallel_ms);
      ( "measured_parallel_ms",
        match out.Whatif.measured_parallel_ms with
        | Some m -> J.Float m
        | None -> J.Null );
      ("workers", J.Int out.Whatif.workers);
      ("waves", J.Int out.Whatif.exec_waves);
      ("changed", J.Bool out.Whatif.changed);
      ("degraded", J.Bool out.Whatif.degraded);
      ("retries", J.Int out.Whatif.retries);
      ("rollback_strategy", J.Str out.Whatif.rollback_strategy);
      ("redone", J.Int out.Whatif.redone);
      ("cache", cache);
      ("aborted", J.Null);
      ("final_db_hash", J.Str (Printf.sprintf "%Lx" out.Whatif.final_db_hash));
      ( "phases",
        J.Obj (List.map (fun (n, ms) -> (n, J.Float ms)) out.Whatif.phases) );
    ]

(* the failure shape of uv.whatif/2: same envelope, [aborted] object
   instead of outcome fields *)
let whatif_abort_payload ~path ~tau ~op (e : Whatif.Error.t) =
  let module J = Uv_obs.Json in
  J.Obj
    [
      ("history", J.Str path);
      ("tau", J.Int tau);
      ("op", J.Str (String.lowercase_ascii op));
      ( "aborted",
        J.Obj
          [
            ("code", J.Str (Whatif.Error.code_name e.Whatif.Error.code));
            ("phase", J.Str e.Whatif.Error.phase);
            ("message", J.Str e.Whatif.Error.message);
          ] );
    ]

let whatif_cmd =
  let run path tau op stmt_text hash_jumper workers deadline json query
      trace metrics repeat =
    let obs =
      if trace <> None || metrics then Uv_obs.Trace.create ()
      else Uv_obs.Trace.disabled
    in
    let eng = load_history path in
    let target = { Analyzer.tau; op = parse_op op stmt_text } in
    let config =
      Whatif.Config.make ~hash_jumper ~workers ?deadline_ms:deadline ~obs ()
    in
    (* a service so the analyzer amortizes across --repeat runs of the
       same question *)
    let svc = Whatif.Service.create ~config eng in
    let ask () =
      Result.map (fun r -> r.Whatif.Service.outcome) (Whatif.Service.run svc target)
    in
    let repeat = max 1 repeat in
    let result = ref (ask ()) in
    for k = 2 to repeat do
      (match !result with
      | Ok out ->
          if not json then
            Printf.printf "run %d/%d: %.2f ms (rollback: %s, redone: %d)\n"
              (k - 1) repeat out.Whatif.real_ms out.Whatif.rollback_strategy
              out.Whatif.redone
      | Error _ -> ());
      result := ask ()
    done;
    let result = !result in
    (match trace with
    | Some trace_path ->
        let oc = open_out trace_path in
        output_string oc (Uv_obs.Trace.chrome_string obs);
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "trace written to %s\n" trace_path
    | None -> ());
    match result with
    | Error e ->
        if json then
          print_endline
            (Uv_obs.Report.to_string ~schema:"uv.whatif/2"
               (whatif_abort_payload ~path ~tau ~op e))
        else prerr_endline (Whatif.Error.to_string e);
        1
    | Ok out ->
    if json then
      print_endline
        (Uv_obs.Report.to_string ~schema:"uv.whatif/2"
           (whatif_payload ~path ~tau ~op
              ~cache:(cache_json (Whatif.Service.stats svc))
              out))
    else begin
      Printf.printf "replayed %d of %d statements (%d rolled back) in %.2f ms\n"
        out.Whatif.replayed
        (Log.length (Engine.log eng))
        out.Whatif.undone out.Whatif.real_ms;
      Printf.printf "rollback strategy %s\n" out.Whatif.rollback_strategy;
      Printf.printf "redone %d of %d members\n"
        out.Whatif.redone out.Whatif.replayed;
      Printf.printf "serial cost %.2f ms, simulated parallel (%d workers) %.2f ms\n"
        out.Whatif.serial_cost_ms out.Whatif.workers
        out.Whatif.simulated_parallel_ms;
      (match out.Whatif.measured_parallel_ms with
      | Some m ->
          Printf.printf "measured parallel replay %.2f ms over %d waves\n" m
            out.Whatif.exec_waves
      | None -> print_endline "replay: commit order, no waves");
      if out.Whatif.retries > 0 || out.Whatif.degraded then
        Printf.printf "fault recovery: %d retries%s\n" out.Whatif.retries
          (if out.Whatif.degraded then ", degraded to the caller lane" else "");
      (match out.Whatif.hash_jump_at with
      | Some i -> Printf.printf "hash-hit at commit %d: the change is effectless\n" i
      | None -> ());
      (match out.Whatif.stop_at with
      | Some (ran, skipped) ->
          Printf.printf
            "stopped after %d of %d members: the rest only repeat history\n"
            ran (ran + skipped)
      | None -> ());
      Printf.printf "alternate universe %s the original\n"
        (if out.Whatif.changed then "DIFFERS from" else "equals")
    end;
    if metrics then
      print_endline
        (Uv_obs.Report.to_string ~schema:"uv.metrics/1"
           (Uv_obs.Trace.metrics_payload obs));
    (match query with
    | None -> ()
    | Some q -> (
        match Uv_sql.Parser.parse_stmt q with
        | Uv_sql.Ast.Select sel ->
            let r = Whatif.query_new_universe out sel in
            print_endline (String.concat " | " r.Engine.columns);
            List.iter
              (fun row ->
                print_endline
                  (String.concat " | "
                     (Array.to_list (Array.map Uv_sql.Value.to_string row))))
              r.Engine.rows
        | _ -> prerr_endline "--query must be a SELECT"));
    0
  in
  let hash_jumper =
    Arg.(value & flag & info [ "hash-jumper" ] ~doc:"enable early termination")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"OUT.JSON"
             ~doc:"write a Chrome trace-event file of the run (open in \
                   chrome://tracing or Perfetto, or pretty-print with \
                   $(b,ultraverse trace))")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"print the run's counters and histograms as a uv.metrics/1 \
                   report")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"ask the same what-if question N times through one cached \
                   service; later runs reuse the analyzer (cache statistics \
                   land in the JSON report)")
  in
  Cmd.v
    (Cmd.info "whatif" ~doc:"run a retroactive operation on a history")
    Term.(const run $ Cli_args.history_pos $ Cli_args.tau $ Cli_args.op
          $ Cli_args.stmt_text $ hash_jumper $ Cli_args.workers
          $ Cli_args.deadline $ Cli_args.json $ Cli_args.query $ trace
          $ metrics $ repeat)

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

(* Template artifacts of a workload: extraction, matrix, fast-path match
   against an analyzed history. Shared by lint --workload and templates. *)
let template_artifacts (w : Uv_workloads.Workload.t) =
  let set =
    Uv_analysis.Template_extract.extract ~schema:w.Uv_workloads.Workload.schema_sql
      ~source:w.Uv_workloads.Workload.app_source ()
  in
  let matrix =
    Uv_analysis.Template_matrix.build ~config:w.Uv_workloads.Workload.ri_config
      set
  in
  (set, matrix)

(* Run a reproducible workload history for linting: raw mode so the log
   carries the application's SQL statements themselves. *)
let workload_history ?(seed = 7) ?(n = 120) (w : Uv_workloads.Workload.t) =
  let module W = Uv_workloads.Workload in
  let mode = Uv_transpiler.Runtime.Raw in
  let eng, rt = W.setup ~seed ~mode w in
  let prng = Uv_util.Prng.create seed in
  let calls = w.W.generate prng ~scale:1 ~n ~dep_rate:0.2 in
  ignore (W.run_history rt ~mode calls);
  eng

let print_lint_report ~format diags =
  match format with
  | "json" ->
      (* uv_analysis stays dependency-free: re-parse its hand-rolled
         report and wrap it in the versioned envelope *)
      let payload =
        match Uv_obs.Json.parse (Uv_analysis.Diagnostic.json_report diags) with
        | Ok j -> j
        | Error e -> failwith ("internal: lint report is not JSON: " ^ e)
      in
      print_endline (Uv_obs.Report.to_string ~schema:"uv.lint/1" payload)
  | "sarif" ->
      print_endline
        (Uv_analysis.Sarif.report ~tool_version:Uv_obs.Report.version diags)
  | _ -> Format.printf "%a" Uv_analysis.Diagnostic.pp_report diags

let lint_cmd =
  let run path workload n json format pass_names tau op stmt_text =
    let format = if json && format = "text" then "json" else format in
    if not (List.mem format [ "text"; "json"; "sarif" ]) then begin
      Printf.eprintf "unknown --format %S (text | json | sarif)\n" format;
      2
    end
    else
    let passes =
      match pass_names with
      | [] ->
          Ok
            (Uv_analysis.Lint.all_passes
            @ if workload <> None then Uv_analysis.Lint.template_passes else [])
      | names ->
          List.fold_left
            (fun acc nm ->
              match (acc, Uv_analysis.Lint.pass_of_string nm) with
              | Error e, _ -> Error e
              | Ok ps, Some p -> Ok (ps @ [ p ])
              | Ok _, None -> Error nm)
            (Ok []) names
    in
    match passes with
    | Error bad ->
        Printf.eprintf
          "unknown pass %S (available: nondet soundness cluster dead-write \
           coverage template-coverage matrix-soundness dynamic-sql \
           param-flow)\n"
          bad;
        2
    | Ok passes -> (
        match
          match tau with
          | None -> Ok None
          | Some tau -> (
              try Ok (Some { Analyzer.tau; op = parse_op op stmt_text })
              with Failure msg -> Error msg)
        with
        | Error msg ->
            prerr_endline msg;
            2
        | Ok target -> (
        let wanted_template =
          List.filter
            (fun p -> List.mem p Uv_analysis.Lint.template_passes)
            passes
        in
        match (path, workload) with
        | None, None | Some _, Some _ ->
            prerr_endline "lint needs a HISTORY.SQL or --workload (not both)";
            2
        | Some path, None ->
            if wanted_template <> [] && pass_names <> [] then
              prerr_endline
                "warning: template passes need --workload (application \
                 sources); skipped";
            let eng = load_history path in
            let log = Engine.log eng in
            let history_diags = Uv_analysis.Lint.lint_log ~passes log in
            let target_diags =
              match target with
              | None -> []
              | Some t -> Uv_analysis.Lint.lint_target log t
            in
            let diags = history_diags @ target_diags in
            print_lint_report ~format diags;
            if Uv_analysis.Diagnostic.errors diags = [] then 0 else 1
        | None, Some wname ->
            let w = Uv_workloads.Workload.by_name wname in
            let eng = workload_history ~n w in
            let log = Engine.log eng in
            let base = Engine.catalog eng in
            let history_diags = Uv_analysis.Lint.lint_log ~base ~passes log in
            let template_diags =
              if wanted_template = [] then []
              else begin
                let anl =
                  Analyzer.analyze
                    ~config:w.Uv_workloads.Workload.ri_config ~base log
                in
                let set, matrix = template_artifacts w in
                let ctx =
                  {
                    Uv_analysis.Lint.tset = set;
                    tmatrix = matrix;
                    tmatching =
                      Uv_analysis.Template_lint.match_history ~set ~matrix
                        anl;
                    tsource = Some w.Uv_workloads.Workload.app_source;
                  }
                in
                Uv_analysis.Lint.lint_templates ~passes:wanted_template ~ctx
                  anl
              end
            in
            let target_diags =
              match target with
              | None -> []
              | Some t -> Uv_analysis.Lint.lint_target ~base log t
            in
            let diags = history_diags @ template_diags @ target_diags in
            print_lint_report ~format diags;
            if Uv_analysis.Diagnostic.errors diags = [] then 0 else 1))
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"lint a generated history of the named bundled benchmark \
                   instead of a history file; enables the template passes \
                   (UVA014–UVA017)")
  in
  let n =
    Arg.(value & opt int 120
         & info [ "n" ] ~doc:"transaction count for $(b,--workload) histories")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ] ~docv:"FMT" ~doc:"text | json | sarif")
  in
  let pass_names =
    Arg.(value & opt_all string []
         & info [ "pass" ]
             ~doc:"run only the named pass (repeatable): nondet, soundness, \
                   cluster, dead-write, coverage, template-coverage, \
                   matrix-soundness, dynamic-sql, param-flow")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"static soundness & eligibility checks over a history (exit 1 \
             if any error-level diagnostic fires)")
    Term.(const run $ Cli_args.history_pos_opt $ workload $ n $ Cli_args.json
          $ format $ pass_names $ Cli_args.tau_opt $ Cli_args.op
          $ Cli_args.stmt_text)

(* ------------------------------------------------------------------ *)
(* templates                                                            *)
(* ------------------------------------------------------------------ *)

let templates_cmd =
  let module T = Uv_analysis.Template_extract in
  let module M = Uv_analysis.Template_matrix in
  let module J = Uv_obs.Json in
  let run workload app schema json =
    match
      match (workload, app, schema) with
      | Some wname, None, None ->
          let w = Uv_workloads.Workload.by_name wname in
          Ok
            ( w.Uv_workloads.Workload.name,
              w.Uv_workloads.Workload.schema_sql,
              w.Uv_workloads.Workload.app_source,
              w.Uv_workloads.Workload.ri_config )
      | None, Some app_path, Some schema_path ->
          Ok
            ( Filename.basename app_path,
              read_file schema_path,
              read_file app_path,
              Rowset.default_config )
      | _ -> Error "templates needs --workload NAME, or --app and --schema"
    with
    | Error msg ->
        prerr_endline msg;
        2
    | Ok (name, schema_sql, source, config) ->
        let set = T.extract ~schema:schema_sql ~source () in
        let matrix = M.build ~config set in
        let pairs = M.all_pairs matrix in
        let kind_label = function T.Kstmt -> "stmt" | T.Kcall -> "call" in
        if json then begin
          let template_json (tpl : T.template) =
            J.Obj
              [
                ("id", J.Int tpl.T.id);
                ("txn", J.Str tpl.T.txn);
                ("kind", J.Str (kind_label tpl.T.kind));
                ("sql", J.Str (Uv_sql.Printer.stmt_compact tpl.T.stmt));
                ( "slots",
                  J.List
                    (List.map
                       (fun (slot, src) ->
                         J.Obj
                           [
                             ("name", J.Str slot);
                             ("source", J.Str (T.source_label src));
                           ])
                       tpl.T.slots) );
                ( "guards",
                  J.List
                    (List.map
                       (fun (table, (g : M.guard)) ->
                         J.Obj
                           [
                             ("table", J.Str table);
                             ("column", J.Str g.M.gcol);
                             ("source", J.Str (M.gsource_label g.M.gsrc));
                           ])
                       (M.guards matrix tpl.T.id)) );
              ]
          in
          let pair_json ((a, b), (p : M.pair)) =
            J.Obj
              [
                ("a", J.Int a);
                ("b", J.Int b);
                ("ww", J.List (List.map (fun c -> J.Str c) p.M.ww));
                ("wr", J.List (List.map (fun c -> J.Str c) p.M.wr));
                ("rw", J.List (List.map (fun c -> J.Str c) p.M.rw));
                ("prunable", J.Bool p.M.prunable);
              ]
          in
          let payload =
            J.Obj
              [
                ("source", J.Str name);
                ( "txns",
                  J.List
                    (List.map
                       (fun (txn, unexplored) ->
                         J.Obj
                           [
                             ("name", J.Str txn);
                             ("unexplored", J.Int unexplored);
                           ])
                       (T.txns set)) );
                ("templates", J.List (List.map template_json (T.templates set)));
                ("matrix", J.List (List.map pair_json pairs));
                ( "stats",
                  J.Obj
                    [
                      ("templates", J.Int (List.length (T.templates set)));
                      ("pairs", J.Int (List.length pairs));
                      ( "prunable_pairs",
                        J.Int
                          (List.length
                             (List.filter
                                (fun (_, (p : M.pair)) -> p.M.prunable)
                                pairs)) );
                    ] );
              ]
          in
          print_endline
            (Uv_obs.Report.to_string ~schema:"uv.templates/1" payload)
        end
        else begin
          Printf.printf "%s: %d transaction(s), %d template(s)\n" name
            (List.length (T.txns set))
            (List.length (T.templates set));
          List.iter
            (fun (tpl : T.template) ->
              Printf.printf "T%-3d %-5s [%s] %s\n" tpl.T.id
                (kind_label tpl.T.kind) tpl.T.txn
                (Uv_sql.Printer.stmt_compact tpl.T.stmt);
              List.iter
                (fun (table, (g : M.guard)) ->
                  Printf.printf "       guard %s.%s %s\n" table g.M.gcol
                    (M.gsource_label g.M.gsrc))
                (M.guards matrix tpl.T.id))
            (T.templates set);
          Printf.printf "matrix: %d conflicting pair(s), %d prunable\n"
            (List.length pairs)
            (List.length
               (List.filter (fun (_, (p : M.pair)) -> p.M.prunable) pairs));
          List.iter
            (fun ((a, b), (p : M.pair)) ->
              Printf.printf "  T%d-T%d%s ww{%s} wr{%s} rw{%s}\n" a b
                (if p.M.prunable then " [prunable]" else "")
                (String.concat " " p.M.ww)
                (String.concat " " p.M.wr)
                (String.concat " " p.M.rw))
            pairs
        end;
        0
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "workload" ] ~docv:"NAME" ~doc:"a bundled benchmark")
  in
  let app_arg =
    Arg.(value & opt (some file) None
         & info [ "app" ] ~docv:"APP.JS" ~doc:"application source (MiniJS)")
  in
  let schema_arg =
    Arg.(value & opt (some file) None
         & info [ "schema" ] ~docv:"SCHEMA.SQL" ~doc:"schema DDL script")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"emit a uv.templates/1 report envelope")
  in
  Cmd.v
    (Cmd.info "templates"
       ~doc:"extract the closed query-template set of an application and \
             print the column-wise template-pair dependency matrix")
    Term.(const run $ workload $ app_arg $ schema_arg $ json)

(* ------------------------------------------------------------------ *)
(* serve / client                                                       *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run path socket host port store_dir sync_every sync_ms pool_workers
      replay_workers queue_capacity max_clients deadline json =
    match Cli_args.addr_of ~socket ~host ~port with
    | Error msg ->
        prerr_endline msg;
        2
    | Ok _ when path = None && store_dir = None ->
        prerr_endline "serve: a HISTORY.SQL argument or --store DIR is required";
        2
    | Ok addr ->
        let obs = Uv_obs.Trace.create () in
        let eng = Uv_db.Engine.create () in
        (* with --store, the store is the source of truth: the engine is
           rebuilt from the salvaged acknowledged prefix, and HISTORY.SQL
           only seeds a store that is still empty *)
        let durable =
          match store_dir with
          | None ->
              Option.iter (fun p -> Cli_args.exec_history eng p) path;
              None
          | Some dir ->
              let dcfg =
                {
                  Uv_retroactive.Durable.default_config with
                  Uv_retroactive.Durable.sync_every;
                  sync_ms;
                }
              in
              let dur, recovery =
                Uv_retroactive.Durable.attach ~config:dcfg ~dir eng
              in
              let module D = Uv_retroactive.Durable in
              (match (recovery.D.rec_records, path) with
              | 0, Some p ->
                  Cli_args.exec_history eng p;
                  D.seed dur
              | n, Some p when n > 0 ->
                  Printf.eprintf
                    "warning: store %s already holds %d records; %s ignored\n"
                    dir n p
              | _ -> ());
              if not json then begin
                Printf.printf
                  "recovered %d records from %s (%d truncated as \
                   unacknowledged, %d idempotency keys%s)\n"
                  recovery.D.rec_records dir recovery.D.rec_truncated
                  recovery.D.rec_keys
                  (if recovery.D.rec_salvaged then "; store needed salvage"
                   else "");
                flush stdout
              end;
              Some dur
        in
        let config =
          Whatif.Config.make ~workers:replay_workers ~obs ()
        in
        let service = Whatif.Service.create ~config eng in
        (* analyze the loaded history up front so the first client
           request pays O(Δ), not O(history) *)
        Whatif.Service.publish service;
        let scfg =
          {
            Serve.default_config with
            Serve.workers = pool_workers;
            queue_capacity;
            max_clients;
            default_deadline_ms = deadline;
          }
        in
        let srv = Serve.start ~config:scfg ~obs ?durable service addr in
        let endpoint =
          match addr with
          | Serve.Unix_sock p -> "unix:" ^ p
          | Serve.Tcp (h, _) ->
              Printf.sprintf "tcp:%s:%d" h
                (Option.value (Serve.port srv) ~default:0)
        in
        let module J = Uv_obs.Json in
        if json then
          print_endline
            (Uv_obs.Report.to_string ~schema:"uv.serve/1"
               (J.Obj
                  [
                    ("type", J.Str "listening");
                    ("endpoint", J.Str endpoint);
                    ("history_len", J.Int (Whatif.Service.history_len service));
                    ("workers", J.Int pool_workers);
                    ("queue_capacity", J.Int queue_capacity);
                    ("max_clients", J.Int max_clients);
                  ]))
        else
          Printf.printf
            "serving %d statements on %s (%d what-if workers, queue %d, up \
             to %d clients)\n"
            (Whatif.Service.history_len service)
            endpoint pool_workers queue_capacity max_clients;
        flush stdout;
        let on_signal _ = Serve.request_stop srv in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        Serve.wait srv;
        Serve.stop srv;
        if not json then print_endline "stopped";
        0
  in
  let pool_workers =
    Arg.(
      value & opt int Serve.default_config.Serve.workers
      & info [ "workers" ]
          ~doc:"concurrent what-if worker domains draining the request queue")
  in
  let replay_workers =
    Arg.(
      value & opt int 2
      & info [ "replay-workers" ]
          ~doc:
            "parallel replay domains per what-if run (total transient \
             domains ≈ workers × replay-workers; outcomes are identical at \
             any value)")
  in
  let queue_capacity =
    Arg.(
      value & opt int Serve.default_config.Serve.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "queued what-ifs admitted before requests are rejected with a \
             typed saturated error carrying retry_after_ms")
  in
  let max_clients =
    Arg.(
      value & opt int Serve.default_config.Serve.max_clients
      & info [ "max-clients" ] ~doc:"concurrent client connections")
  in
  let store_dir =
    Arg.(
      value & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "durable history store: ingest acknowledgments are withheld \
             until the batch is fsynced here, and on startup the daemon \
             recovers the acknowledged history from it (HISTORY.SQL then \
             only seeds an empty store)")
  in
  let sync_every =
    Arg.(
      value & opt int 1
      & info [ "sync-every" ] ~docv:"N"
          ~doc:
            "group-commit width: flush as soon as N ingest batches are \
             pending (1 = sync every batch)")
  in
  let sync_ms =
    Arg.(
      value & opt float 0.
      & info [ "sync-ms" ] ~docv:"MS"
          ~doc:
            "group-commit window: a batch waits at most MS milliseconds \
             for companions before the flush runs (0 = no window)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "serve what-if questions to concurrent clients over a framed \
          uv.serve/1 socket protocol while ingesting new transactions \
          (stop with SIGINT or a client shutdown request)")
    Term.(const run $ Cli_args.history_pos_opt $ Cli_args.socket
          $ Cli_args.tcp_host $ Cli_args.tcp_port $ store_dir $ sync_every
          $ sync_ms $ pool_workers $ replay_workers $ queue_capacity
          $ max_clients $ Cli_args.deadline $ Cli_args.json)

let client_cmd =
  let module J = Uv_obs.Json in
  let run action socket host port tau op stmt_text deadline sql idem_key
      retries json =
    match Cli_args.addr_of ~socket ~host ~port with
    | Error msg ->
        prerr_endline msg;
        2
    | Ok addr -> (
        (* every action reduces to one request payload; the transport —
           single connection or bounded retry with reconnect — is chosen
           by --retries *)
        let payload =
          match action with
          | "ping" | "stats" | "metrics" | "health" | "shutdown" ->
              Ok (J.Obj [ ("type", J.Str action) ])
          | "ingest" -> (
              match sql with
              | Some sql ->
                  Ok (Serve.Client.ingest_payload ?idem_key sql)
              | None -> Error "ingest needs --sql")
          | "whatif" -> (
              match tau with
              | Some tau ->
                  Ok
                    (Serve.Client.whatif_payload ?deadline_ms:deadline ~tau
                       ~op ?stmt:stmt_text ())
              | None -> Error "whatif needs --tau")
          | a -> Error (Printf.sprintf "unknown action %S" a)
        in
        let result, attempts =
          match payload with
          | Error e -> (Error e, 0)
          | Ok payload ->
              if retries > 0 then
                let r, attempts =
                  Serve.Client.call_retry ~retries addr payload
                in
                (Result.map_error Serve.Client.error_to_string r, attempts)
              else
                ( (match
                     let c = Serve.Client.connect addr in
                     Fun.protect
                       ~finally:(fun () -> Serve.Client.close c)
                       (fun () -> Serve.Client.call c payload)
                   with
                  | r -> r
                  | exception Unix.Unix_error (e, _, _) ->
                      Error (Unix.error_message e)),
                  1 )
        in
        let note_attempts () =
          if retries > 0 && not json then
            Printf.printf "(%d attempt%s)\n" attempts
              (if attempts = 1 then "" else "s")
        in
        match result with
        | Error e ->
            prerr_endline ("client: " ^ e);
            if retries > 0 then
              Printf.eprintf "(%d attempt%s)\n" attempts
                (if attempts = 1 then "" else "s");
            2
        | Ok (Serve.Client.Refused { code; message; retry_after_ms; phase }) ->
            if json then
              print_endline
                (Uv_obs.Report.to_string ~schema:"uv.serve/1"
                   (J.Obj
                      ([
                         ("ok", J.Bool false);
                         ("type", J.Str action);
                         ("code", J.Str code);
                         ("message", J.Str message);
                       ]
                      @ (match retry_after_ms with
                        | Some ms -> [ ("retry_after_ms", J.Float ms) ]
                        | None -> [])
                      @ (match phase with
                        | Some p -> [ ("phase", J.Str p) ]
                        | None -> [])
                      @
                      if retries > 0 then [ ("attempts", J.Int attempts) ]
                      else [])))
            else begin
              Printf.eprintf "refused [%s]%s: %s%s\n" code
                (match phase with Some p -> " in " ^ p | None -> "")
                message
                (match retry_after_ms with
                | Some ms -> Printf.sprintf " (retry after %.0f ms)" ms
                | None -> "");
              note_attempts ()
            end;
            1
        | Ok (Serve.Client.Result payload) ->
            (* metrics answers with a uv.metrics/1 payload; re-envelope
               it under its own schema so scrapers see the registry *)
            let schema =
              if action = "metrics" then "uv.metrics/1" else "uv.serve/1"
            in
            let payload =
              match payload with
              | J.Obj fields when json && retries > 0 && action <> "metrics" ->
                  J.Obj (fields @ [ ("attempts", J.Int attempts) ])
              | p -> p
            in
            if json then
              print_endline (Uv_obs.Report.to_string ~schema payload)
            else begin
              print_endline (J.pretty payload);
              note_attempts ()
            end;
            0)
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:"ping | stats | metrics | health | whatif | ingest | shutdown")
  in
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~doc:"SQL script to ingest (for $(b,ingest))")
  in
  let idem_key =
    Arg.(
      value
      & opt (some string) None
      & info [ "idem-key" ] ~docv:"KEY"
          ~doc:
            "idempotency key for $(b,ingest): the server deduplicates \
             re-sends under the same key, making retries after a lost \
             acknowledgment safe")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "retry the request up to N times on connection resets and \
             saturated refusals (exponential backoff with jitter; \
             deadline refusals are never retried); the attempt count is \
             reported in the output")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"one-shot client for a running $(b,ultraverse serve) daemon")
    Term.(const run $ action $ Cli_args.socket $ Cli_args.tcp_host
          $ Cli_args.tcp_port $ Cli_args.tau_opt $ Cli_args.op
          $ Cli_args.stmt_text $ Cli_args.deadline $ sql $ idem_key
          $ retries $ Cli_args.json)

(* ------------------------------------------------------------------ *)
(* workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* log: durable statement-log tooling                                   *)
(* ------------------------------------------------------------------ *)

let log_save_cmd =
  let run history out segment_cap =
    let eng = load_history history in
    let as_store =
      segment_cap <> None || (Sys.file_exists out && Sys.is_directory out)
    in
    if as_store then begin
      let store = Log_store.open_ ?segment_cap out in
      Log_store.append_log store (Engine.log eng);
      Log_store.close store;
      Printf.printf "%d records -> %s (segmented store, cap %d)\n"
        (Log.length (Engine.log eng))
        out
        (Log_store.segment_cap store)
    end
    else begin
      Log_store.save_log_file (Engine.log eng) ~path:out;
      Printf.printf "%d records -> %s\n" (Log.length (Engine.log eng)) out
    end;
    0
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ]
             ~doc:"destination ULOGv2 file, or store directory with \
                   $(b,--segment-cap)")
  in
  Cmd.v
    (Cmd.info "save" ~doc:"execute a history and persist its durable log")
    Term.(const run $ Cli_args.history_pos $ out $ Cli_args.segment_cap)

let log_replay_cmd =
  let run path query =
    let eng = Engine.create () in
    let replayed, skipped =
      if Log_store.is_store path then begin
        let store = Log_store.open_ path in
        let skipped = Log_store.replay store eng in
        let n = Log_store.length store in
        Log_store.close store;
        (n, skipped)
      end
      else
        let records = Log_store.load_log_file ~path in
        (List.length records, Log_io.replay eng records)
    in
    Printf.printf "replayed %d records; db hash %Lx\n" replayed
      (Engine.db_hash eng);
    if skipped <> [] then
      Printf.printf "skipped %d record(s): %s\n" (List.length skipped)
        (String.concat ", " (List.map string_of_int skipped));
    (match query with
    | None -> ()
    | Some q ->
        let r = Engine.query_sql eng q in
        print_endline (String.concat " | " r.Engine.columns);
        List.iter
          (fun row ->
            print_endline
              (String.concat " | "
                 (Array.to_list (Array.map Uv_sql.Value.to_string row))))
          r.Engine.rows);
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG.ULOG")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"rebuild a database from a persisted log")
    Term.(const run $ path $ Cli_args.query)

let dump_cmd =
  let run history out checkpoints checkpoint_every =
    let checkpoint_every =
      if checkpoints <> None && checkpoint_every <= 0 then 64
      else checkpoint_every
    in
    let eng = load_history ~checkpoint_every history in
    Log_store.save_dump_file (Engine.catalog eng) ~path:out;
    Printf.printf "dumped %d tables -> %s\n"
      (List.length (Catalog.tables (Engine.catalog eng)))
      out;
    (match (checkpoints, Engine.checkpoints eng) with
    | Some cp_path, Some ladder ->
        Log_store.save_checkpoints_file ladder ~path:cp_path;
        Printf.printf "checkpoint ladder (%d rungs) -> %s\n"
          (Checkpoint.count ladder) cp_path
    | Some cp_path, None ->
        Printf.printf "checkpoint ladder empty; %s not written\n" cp_path
    | None, _ -> ());
    0
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~doc:"destination SQL dump file")
  in
  let checkpoints =
    Arg.(value & opt (some string) None
         & info [ "checkpoints" ] ~docv:"OUT.UCKP"
             ~doc:"also write the periodic checkpoint ladder recorded while \
                   executing the history (UCKPv1)")
  in
  let checkpoint_every =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"rung stride for $(b,--checkpoints) (default 64)")
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"execute a history and write a logical dump (checkpoint)")
    Term.(const run $ Cli_args.history_pos $ out $ checkpoints $ checkpoint_every)

let log_cmd =
  Cmd.group
    (Cmd.info "log" ~doc:"durable statement-log tooling (ULOGv2)")
    [ log_save_cmd; log_replay_cmd ]

(* ------------------------------------------------------------------ *)
(* fsck / recover: crash-consistency tooling                            *)
(* ------------------------------------------------------------------ *)

let is_uckp path =
  if Sys.is_directory path then false
  else
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try really_input_string ic 6 = "UCKPv1" with End_of_file -> false)

let fsck_cmd =
  let module D = Uv_analysis.Diagnostic in
  (* checkpoint-ladder files get their own validation: framing, per-rung
     CRC, and a restore dry-run of every rung *)
  let run_uckp path json =
    let diags =
      match Log_store.load_checkpoints_file ~path with
      | rungs ->
          Printf.ksprintf
            (fun s -> if not json then print_endline s)
            "%s: UCKPv1, %d rung(s)%s" path (List.length rungs)
            (match rungs with
            | [] -> ""
            | _ ->
                Printf.sprintf " (commits %s)"
                  (String.concat ", "
                     (List.map (fun (at, _) -> string_of_int at) rungs)));
          []
      | exception Log_store.Error err ->
          let msg =
            match err with
            | Log_store.Store_error.Corrupt_checkpoints { reason; _ } -> reason
            | e -> Log_store.Store_error.to_string e
          in
          [
            D.make ~index:1 ~obj:path ~code:"UVA013" ~severity:D.Error
              ~pass:"fsck"
              (Printf.sprintf "checkpoint ladder damaged: %s" msg);
          ]
    in
    if json then begin
      let payload =
        match Uv_obs.Json.parse (D.json_report diags) with
        | Ok j -> j
        | Error e -> failwith ("internal: fsck report is not JSON: " ^ e)
      in
      print_endline (Uv_obs.Report.to_string ~schema:"uv.lint/1" payload)
    end
    else Format.printf "%a" D.pp_report diags;
    if D.errors diags = [] then 0 else 1
  in
  let emit path json diags summary =
    if json then begin
      let payload =
        match Uv_obs.Json.parse (D.json_report diags) with
        | Ok j -> j
        | Error e -> failwith ("internal: fsck report is not JSON: " ^ e)
      in
      print_endline (Uv_obs.Report.to_string ~schema:"uv.lint/1" payload)
    end
    else begin
      (match summary with Some s -> print_endline (path ^ ": " ^ s) | None -> ());
      Format.printf "%a" D.pp_report diags
    end;
    if D.errors diags = [] then 0 else 1
  in
  let replay_diags path replay =
    (* replay check: the salvaged prefix must rebuild from an empty
       database — records that fail indicate a non-self-contained log
       (e.g. the tail of a checkpointed history) *)
    List.map
      (fun i ->
        D.make ~index:i ~obj:path ~code:"UVA012" ~severity:D.Warning
          ~pass:"fsck"
          (Printf.sprintf "record %d does not replay on a fresh database" i))
      (replay (Engine.create ()))
  in
  (* a segmented store: every diagnostic byte offset is relative to the
     chunk file it names, and --segment scopes the check to one chunk *)
  let run_store path segment json =
    match Log_store.open_ path with
    | exception Log_store.Error err ->
        let offset, reason =
          match err with
          | Log_store.Store_error.Corrupt_manifest { offset; reason; _ } ->
              (offset, reason)
          | e -> (0, Log_store.Store_error.to_string e)
        in
        emit path json
          [
            D.make ~index:1 ~obj:path ~code:"UVA011" ~severity:D.Error
              ~pass:"fsck"
              (Printf.sprintf "store manifest damaged at byte %d (%s)" offset
                 reason);
          ]
          None
    | store ->
        let checks = Log_store.verify ?segment store in
        let structural =
          List.filter_map
            (fun (c : Log_store.check) ->
              Option.map
                (fun (d : Log_io.diagnosis) ->
                  D.make ~index:c.Log_store.chk_segment
                    ~obj:(Filename.concat path c.Log_store.chk_file)
                    ~code:"UVA011" ~severity:D.Error ~pass:"fsck"
                    (Printf.sprintf
                       "segment %d damaged at byte %d of %d (%s); %d valid \
                        record(s) precede the cut"
                       c.Log_store.chk_segment
                       (Option.value d.Log_io.cut_at ~default:0)
                       d.Log_io.total_bytes
                       (Option.value d.Log_io.reason ~default:"unknown damage")
                       c.Log_store.chk_records))
                c.Log_store.chk_diag)
            checks
        in
        let ladder_diags =
          if segment <> None then []
          else
            match Log_store.read_checkpoints store with
            | _ -> []
            | exception Log_store.Error err ->
                [
                  D.make ~index:1 ~obj:path ~code:"UVA013" ~severity:D.Error
                    ~pass:"fsck"
                    (Printf.sprintf "checkpoint ladder damaged: %s"
                       (Log_store.Store_error.to_string err));
                ]
        in
        let replay =
          (* the replay dry-run streams the salvaged prefix; skipped when
             the check is scoped to one segment (a mid-history chunk is
             not self-contained by construction) *)
          if segment <> None then []
          else if structural = [] then
            replay_diags path (fun eng -> Log_store.replay store eng)
          else
            let salvaged, _ = Log_store.open_salvage path in
            replay_diags path (fun eng -> Log_store.replay salvaged eng)
        in
        let diags = structural @ ladder_diags @ replay in
        let summary =
          Printf.sprintf "ULSTv1, %d segment(s), %d record(s)%s"
            (List.length (Log_store.segments store))
            (Log_store.length store)
            (if structural = [] then ", clean"
             else
               Printf.sprintf ", %d damaged segment(s)"
                 (List.length structural))
        in
        Log_store.close store;
        emit path json diags (Some summary)
  in
  let run path segment json =
    if Log_store.is_store path then run_store path segment json
    else if is_uckp path then run_uckp path json
    else
      let records, diag = Log_store.salvage_log_file ~path in
      let structural =
        match diag.Log_io.cut_at with
        | None -> []
        | Some off ->
            [
              D.make ~index:(diag.Log_io.valid_records + 1) ~obj:path
                ~code:"UVA011" ~severity:D.Error ~pass:"fsck"
                (Printf.sprintf
                   "log damaged at byte %d of %d (%s); %d valid record(s) \
                    precede the cut"
                   off diag.Log_io.total_bytes
                   (Option.value diag.Log_io.reason ~default:"unknown damage")
                   diag.Log_io.valid_records);
            ]
      in
      let diags = structural @ replay_diags path (fun eng -> Log_io.replay eng records) in
      emit path json diags
        (Some
           (Printf.sprintf "ULOGv%d, %d bytes, %d valid record(s)%s"
              diag.Log_io.version diag.Log_io.total_bytes
              diag.Log_io.valid_records
              (match diag.Log_io.cut_at with
              | None -> ", clean"
              | Some off -> Printf.sprintf ", damaged at byte %d" off)))
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG.ULOG")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"check a persisted statement log (single ULOGv2 file or \
             segmented store directory): framing, per-record and \
             per-segment checksums, and a replay dry-run (exit 1 if the \
             log is damaged); $(b,--segment) scopes a store check to one \
             chunk file")
    Term.(const run $ path $ Cli_args.segment_scope $ Cli_args.json)

let recover_cmd =
  let run path checkpoint out segment_cap query =
    let eng = Engine.create () in
    (* the checkpoint (a logical dump) replays first; its statements land
       in the engine's log too, so a log written with --out is a complete,
       self-contained history *)
    (match checkpoint with
    | Some cp when is_uckp cp -> (
        (* a checkpoint ladder: restore the newest rung as the base state *)
        match List.rev (Log_store.load_checkpoints_file ~path:cp) with
        | (at, cat) :: _ ->
            Dump.restore eng (Dump.to_sql cat);
            Printf.printf "restored checkpoint rung at commit %d\n" at
        | [] -> ())
    | Some cp -> Log_store.load_dump_file eng ~path:cp
    | None -> ());
    let total, skipped, cut =
      if Log_store.is_store path then begin
        let store, report = Log_store.open_salvage path in
        let skipped = Log_store.replay store eng in
        let n = Log_store.length store in
        let cut =
          match (report.Log_store.sr_cut_segment, report.Log_store.sr_cut_at)
          with
          | Some seg, Some off ->
              Some
                (Printf.sprintf "segment %d cut at byte %d: %s" seg off
                   (Option.value report.Log_store.sr_reason
                      ~default:"unknown damage"))
          | _ ->
              if report.Log_store.sr_manifest_rebuilt then
                Some "manifest rebuilt from segment files"
              else None
        in
        (n, skipped, cut)
      end
      else begin
        let records, diag = Log_store.salvage_log_file ~path in
        let skipped = Log_io.replay eng records in
        let cut =
          Option.map
            (fun off ->
              Printf.sprintf "tail cut at byte %d: %s" off
                (Option.value diag.Log_io.reason ~default:"unknown damage"))
            diag.Log_io.cut_at
        in
        (List.length records, skipped, cut)
      end
    in
    Printf.printf "recovered %d of %d record(s)%s; db hash %Lx\n"
      (total - List.length skipped)
      total
      (match cut with None -> "" | Some c -> Printf.sprintf " (%s)" c)
      (Engine.db_hash eng);
    if skipped <> [] then
      Printf.printf "skipped %d record(s): %s\n" (List.length skipped)
        (String.concat ", " (List.map string_of_int skipped));
    (match out with
    | Some out_path ->
        let as_store =
          segment_cap <> None
          || (Sys.file_exists out_path && Sys.is_directory out_path)
        in
        if as_store then begin
          let store = Log_store.open_ ?segment_cap out_path in
          Log_store.append_log store (Engine.log eng);
          Log_store.close store
        end
        else Log_store.save_log_file (Engine.log eng) ~path:out_path;
        Printf.printf "clean log (%d records) -> %s\n"
          (Log.length (Engine.log eng))
          out_path
    | None -> ());
    (match query with
    | None -> ()
    | Some q ->
        let r = Engine.query_sql eng q in
        print_endline (String.concat " | " r.Engine.columns);
        List.iter
          (fun row ->
            print_endline
              (String.concat " | "
                 (Array.to_list (Array.map Uv_sql.Value.to_string row))))
          r.Engine.rows);
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG.ULOG")
  in
  let checkpoint =
    Arg.(value & opt (some file) None
         & info [ "checkpoint" ] ~docv:"DUMP.SQL"
             ~doc:"logical dump — or UCKPv1 checkpoint ladder, of which the \
                   newest rung is used — to restore before replaying the \
                   log tail")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ]
             ~doc:"write the recovered history as a clean ULOGv2 file, or \
                   store directory with $(b,--segment-cap)")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"rebuild a database from a (possibly damaged) statement log \
             or segmented store, salvaging the valid record prefix, \
             optionally on top of a checkpoint dump")
    Term.(const run $ path $ checkpoint $ out $ Cli_args.segment_cap
          $ Cli_args.query)

(* ------------------------------------------------------------------ *)
(* trace: pretty-print a Chrome trace-event file                        *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let module J = Uv_obs.Json in
  let run path =
    match J.parse (read_file path) with
    | Error e ->
        Printf.eprintf "error: %s is not a trace file: %s\n" path e;
        2
    | Ok doc ->
        let events =
          match J.member "traceEvents" doc with
          | Some (J.List l) -> l
          | _ -> []
        in
        let str k e =
          match J.member k e with Some (J.Str s) -> Some s | _ -> None
        in
        let num k e = Option.bind (J.member k e) J.to_float in
        (* (tid, ts µs, dur µs, marker?, name, cat) per drawable event *)
        let rows =
          List.filter_map
            (fun e ->
              match (str "ph" e, str "name" e, num "tid" e, num "ts" e) with
              | Some "X", Some name, Some tid, Some ts ->
                  Some
                    ( int_of_float tid, ts,
                      Option.value (num "dur" e) ~default:0.0, false, name,
                      Option.value (str "cat" e) ~default:"" )
              | Some "i", Some name, Some tid, Some ts ->
                  Some (int_of_float tid, ts, 0.0, true, name, "")
              | _ -> None)
            events
        in
        if rows = [] then begin
          print_endline "no span events";
          0
        end
        else begin
          let tids =
            List.sort_uniq compare (List.map (fun (t, _, _, _, _, _) -> t) rows)
          in
          List.iter
            (fun tid ->
              Printf.printf "domain-%d\n" tid;
              let lane =
                List.filter (fun (t, _, _, _, _, _) -> t = tid) rows
                |> List.sort (fun (_, ts1, d1, _, _, _) (_, ts2, d2, _, _, _) ->
                       (* parents (longer spans) before children at equal start *)
                       compare (ts1, -.d1) (ts2, -.d2))
              in
              (* nesting is recovered from time containment: a stack of
                 enclosing spans' end timestamps *)
              let stack = ref [] in
              List.iter
                (fun (_, ts, dur, marker, name, cat) ->
                  stack := List.filter (fun e -> ts < e -. 0.001) !stack;
                  let indent = String.make (2 * List.length !stack) ' ' in
                  if marker then
                    Printf.printf "  %s* %-22s @ %10.3f ms\n" indent name
                      (ts /. 1000.0)
                  else begin
                    Printf.printf "  %s%-24s %10.3f ms%s\n" indent name
                      (dur /. 1000.0)
                      (if cat = "" then "" else "  [" ^ cat ^ "]");
                    stack := (ts +. dur) :: !stack
                  end)
                lane)
            tids;
          Printf.printf "%d events, %d lanes\n" (List.length rows)
            (List.length tids);
          0
        end
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.JSON")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"pretty-print a Chrome trace-event file produced by $(b,whatif \
             --trace): one lane per domain, spans nested by containment")
    Term.(const run $ path)

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Uv_workloads.Workload.t) ->
        Printf.printf "%-10s mahif-comparable: %b\n" w.Uv_workloads.Workload.name
          w.Uv_workloads.Workload.mahif_capable)
      (Uv_workloads.Workload.all ());
    0
  in
  Cmd.v (Cmd.info "workloads" ~doc:"list bundled benchmarks") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "ultraverse" ~version:Uv_obs.Report.version
      ~doc:"what-if analysis for database-backed applications"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ transpile_cmd; analyze_cmd; whatif_cmd; serve_cmd; client_cmd;
            lint_cmd; templates_cmd; trace_cmd; log_cmd; dump_cmd; fsck_cmd;
            recover_cmd; workloads_cmd ]))
