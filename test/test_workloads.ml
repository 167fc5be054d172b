(* End-to-end tests over the five benchmark workloads: histories run in
   both execution modes, transactions transpile, and what-if results
   match the full-replay oracle (Definition E.1) in every analysis mode.
   These are the system-level acceptance tests for the whole pipeline. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let check = Alcotest.check

let all_hashes cat =
  List.map (fun (n, t) -> (n, Storage.hash t)) (Catalog.tables cat)

let oracle_replay eng base ~skip =
  let e2 = Engine.of_catalog (Catalog.snapshot base) in
  Log.iter (Engine.log eng) (fun entry ->
      if entry.Log.index <> skip then
        try
          ignore
            (Engine.exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn e2
               entry.Log.stmt)
        with Engine.Sql_error _ | Engine.Signal_raised _ -> ());
  Engine.catalog e2

let build (w : W.t) ~mode ~n ~dep_rate =
  let eng, rt = W.setup ~mode w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate in
  let failures = W.run_history rt ~mode calls in
  (eng, rt, base, failures)

let whatif_vs_oracle (w : W.t) ~mode ~analysis_mode =
  let eng, _rt, base, _ = build w ~mode ~n:80 ~dep_rate:0.3 in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  let config = Whatif.Config.make ~mode:analysis_mode () in
  let out = Whatif.run_exn ~config ~analyzer eng { Analyzer.tau = 1; op = Analyzer.Remove } in
  let truth = oracle_replay eng base ~skip:1 in
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog eng)) in
  Whatif.commit merged out;
  check
    Alcotest.(list (pair string int64))
    (w.W.name ^ " matches oracle")
    (all_hashes truth)
    (all_hashes (Engine.catalog merged));
  out

let test_whatif_cell (w : W.t) () =
  ignore (whatif_vs_oracle w ~mode:R.Transpiled ~analysis_mode:Analyzer.Cell)

let test_whatif_col_only (w : W.t) () =
  ignore (whatif_vs_oracle w ~mode:R.Transpiled ~analysis_mode:Analyzer.Col_only)

(* The D system replays application functions; the oracle is the whole
   application rerun from the checkpoint skipping the target invocation,
   with the same recorded blackbox draws. Targets: the first, a middle
   and the last invocation, and the first whose transaction writes after
   its first entry, so that the whole transaction is removed, not its
   first statement (Epinions' transactions are one statement each). *)
let test_dsystem_app_oracle (w : W.t) () =
  let eng, rt, base, _ = build w ~mode:R.Raw ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let invocations = R.invocations rt in
  let tag = Uv_workloads.Dsystem.tag_of_invocation in
  (* each transaction's entries, in commit order *)
  let entries t =
    let acc = ref [] in
    Log.iter log (fun e -> if e.Log.app_txn = Some t then acc := e :: !acc);
    List.rev !acc
  in
  let writes_late inv =
    match entries (tag inv) with
    | _ :: rest -> List.exists (fun e -> e.Log.undo <> []) rest
    | [] -> false
  in
  let late = List.find_opt writes_late invocations in
  (* only a workload whose transactions are one statement each has none *)
  if late = None && List.exists (fun inv -> List.length (entries (tag inv)) > 1) invocations
  then Alcotest.failf "%s: no transaction writes after its first entry" w.W.name;
  let n = List.length invocations in
  let targets =
    List.sort_uniq compare
      (List.map tag
         (Option.to_list late
         @ [ List.hd invocations; List.nth invocations (n / 2); List.nth invocations (n - 1) ]))
  in
  List.iter
    (fun target_tag ->
      let out = Uv_workloads.Dsystem.run ~analyzer ~runtime:rt eng ~target_tag in
      (* app-level oracle: rerun everything but the target, forcing each
         transaction's recorded statement-level non-determinism so past
         AUTO_INCREMENT keys are reused (the paper's replay semantics) *)
      let oracle_eng = Engine.of_catalog (Catalog.snapshot base) in
      let oracle_rt = R.create_from_program oracle_eng (R.program rt) in
      List.iter
        (fun inv ->
          let t = tag inv in
          if t <> target_tag then
            ignore
              (R.replay_invocation
                 ~stmt_nondet:(List.map (fun e -> e.Log.nondet) (entries t))
                 oracle_rt ~mode:R.Raw inv))
        invocations;
      (* merge D's temporary tables into a copy of the live database *)
      let merged = Catalog.snapshot (Engine.catalog eng) in
      Catalog.copy_tables_into out.Uv_workloads.Dsystem.temp_catalog ~into:merged
        (List.map fst (Catalog.tables out.Uv_workloads.Dsystem.temp_catalog));
      check
        Alcotest.(list (pair string int64))
        (Printf.sprintf "%s D without %s matches app-level oracle" w.W.name target_tag)
        (all_hashes (Engine.catalog oracle_eng))
        (all_hashes merged))
    targets

let test_transpilation (w : W.t) () =
  let eng, rt = W.setup ~mode:R.Raw w in
  ignore eng;
  let trs = R.transpile_install rt in
  Alcotest.(check bool)
    (w.W.name ^ " transpiles update transactions")
    true
    (List.length trs >= 3);
  List.iter
    (fun (tr : Uv_transpiler.Transpile.t) ->
      Alcotest.(check bool)
        (tr.Uv_transpiler.Transpile.txn_name ^ " explored some path")
        true
        (tr.Uv_transpiler.Transpile.paths >= 1))
    trs

let test_modes_agree (w : W.t) () =
  (* Raw and Transpiled histories produce the same final database when
     fed the same calls and the same blackbox draws (§3.4 correctness of
     transpilation, checked end-to-end) *)
  let prng = Uv_util.Prng.create 777 in
  let calls = w.W.generate prng ~scale:1 ~n:50 ~dep_rate:0.2 in
  let run mode =
    let eng, rt = W.setup ~mode w in
    ignore (W.run_history rt ~mode calls);
    eng
  in
  let raw = run R.Raw and trans = run R.Transpiled in
  check
    Alcotest.(list (pair string int64))
    (w.W.name ^ " raw == transpiled final state")
    (all_hashes (Engine.catalog raw))
    (all_hashes (Engine.catalog trans))

let test_dep_rate_monotone (w : W.t) () =
  (* higher dependency rate => replay set at least roughly grows *)
  let member_count rate =
    let eng, _rt, base, _ = build w ~mode:R.Transpiled ~n:80 ~dep_rate:rate in
    let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
    let rs = Analyzer.replay_set analyzer { Analyzer.tau = 1; op = Analyzer.Remove } in
    rs.Analyzer.member_count
  in
  let low = member_count 0.01 and high = member_count 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: dep 0.9 (%d) >= dep 0.01 (%d)" w.W.name high low)
    true (high >= low)

let test_hash_jumper_overhead_only (w : W.t) () =
  (* enabling the jumper never changes the answer *)
  let eng, _rt, base, _ = build w ~mode:R.Transpiled ~n:60 ~dep_rate:0.3 in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  let run hj =
    let config = Whatif.Config.make ~hash_jumper:hj () in
    Whatif.run_exn ~config ~analyzer eng { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  let a = run false and b = run true in
  check Alcotest.int64 "same final hash" a.Whatif.final_db_hash b.Whatif.final_db_hash

let test_b_replay_deterministic (w : W.t) () =
  (* the B baseline (serial re-interpretation with recorded draws) must
     reconstruct the exact final database — this underpins every speedup
     comparison *)
  let eng, rt, base, _ = build w ~mode:R.Raw ~n:50 ~dep_rate:0.3 in
  let replay_eng = Engine.of_catalog (Catalog.snapshot base) in
  let rt2 = R.create_from_program replay_eng (R.program rt) in
  List.iter
    (fun inv -> ignore (R.replay_invocation rt2 ~mode:R.Raw inv))
    (R.invocations rt);
  check
    Alcotest.(list (pair string int64))
    (w.W.name ^ " B replay reproduces the final state")
    (all_hashes (Engine.catalog eng))
    (all_hashes (Engine.catalog replay_eng))

let workload_cases (w : W.t) =
  ( w.W.name,
    [
      Alcotest.test_case "transpiles" `Quick (test_transpilation w);
      Alcotest.test_case "raw == transpiled" `Quick (test_modes_agree w);
      Alcotest.test_case "whatif cell == oracle" `Quick (test_whatif_cell w);
      Alcotest.test_case "whatif col-only == oracle" `Quick (test_whatif_col_only w);
      Alcotest.test_case "D == app-level oracle" `Quick
        (test_dsystem_app_oracle w);
      Alcotest.test_case "dep-rate knob" `Quick (test_dep_rate_monotone w);
      Alcotest.test_case "hash-jumper neutral" `Quick (test_hash_jumper_overhead_only w);
      Alcotest.test_case "B replay deterministic" `Quick
        (test_b_replay_deterministic w);
    ] )

let () = Alcotest.run "uv_workloads" (List.map workload_cases (W.all ()))
