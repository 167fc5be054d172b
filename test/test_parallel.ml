(* Determinism and correctness of the real parallel replay executor
   (Wave_exec): at every worker count the what-if outcome must be
   bit-identical — same final database hash, same new-universe log —
   and identical to what the serial path produces. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let check = Alcotest.check

let run e sql = ignore (Engine.exec_sql e sql)

(* A log digest covering everything scenario-stacking depends on:
   commit index, rendered SQL, recorded draws, row counts, the
   restamped per-table hashes, and the transaction tag. *)
let log_digest log =
  let buf = Buffer.create 4096 in
  Log.iter log (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%s|%s|%d|%s|%s\n" e.Log.index e.Log.sql
           (String.concat ","
              (List.map Uv_sql.Value.to_string e.Log.nondet))
           e.Log.rows_written
           (String.concat ","
              (List.map
                 (fun (t, h) -> Printf.sprintf "%s=%Lx" t h)
                 e.Log.written_hashes))
           (Option.value e.Log.app_txn ~default:"-")));
  Buffer.contents buf

let build (w : W.t) ~n ~dep_rate =
  let eng, rt = W.setup ~mode:R.Transpiled w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate in
  ignore (W.run_history rt ~mode:R.Transpiled calls);
  (eng, base)

(* ------------------------------------------------------------------ *)
(* Worker-count invariance on the five workloads                        *)
(* ------------------------------------------------------------------ *)

let test_workers_invariant (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let run_with config = Whatif.run_exn ~config ~analyzer eng target in
  let serial = run_with (Whatif.Config.make ~parallel_exec:false ()) in
  check Alcotest.bool
    (w.W.name ^ ": serial path reports no measured parallel time")
    true
    (serial.Whatif.measured_parallel_ms = None);
  let want_hash = serial.Whatif.final_db_hash in
  let want_log = log_digest (Whatif.new_log serial) in
  List.iter
    (fun workers ->
      let out = run_with (Whatif.Config.make ~workers ()) in
      check Alcotest.bool
        (Printf.sprintf "%s: workers=%d ran the wave executor" w.W.name workers)
        true
        (out.Whatif.measured_parallel_ms <> None);
      check Alcotest.int64
        (Printf.sprintf "%s: workers=%d final hash == serial" w.W.name workers)
        want_hash out.Whatif.final_db_hash;
      check Alcotest.string
        (Printf.sprintf "%s: workers=%d new log == serial" w.W.name workers)
        want_log
        (log_digest (Whatif.new_log out)))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* The merged history outlives later changes to the engine's log        *)
(* ------------------------------------------------------------------ *)

(* An outcome captures the history by sharing the log's backing array;
   neither appends nor a truncation followed by fresh appends may change
   the merged history it builds later. *)
let test_merged_log_after_truncation () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  for i = 1 to 4 do
    run e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i)
  done;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  for i = 1 to 6 do
    run e
      (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" i
         (1 + (i mod 2)))
  done;
  let svc = Whatif.Service.create ~base e in
  let out =
    match Whatif.Service.run svc { Analyzer.tau = 1; op = Analyzer.Remove } with
    | Ok r -> r.Whatif.Service.outcome
    | Error err -> Alcotest.fail (Whatif.Error.to_string err)
  in
  let want = log_digest (Whatif.new_log out) in
  check Alcotest.bool "the question replayed something" true
    (out.Whatif.replay.Analyzer.member_count > 0);
  ignore
    (Whatif.Service.ingest_sql svc
       "UPDATE acct SET bal = bal - 1 WHERE id = 3; UPDATE acct SET bal = \
        bal - 2 WHERE id = 4;");
  Engine.reset_log e;
  for i = 1 to 6 do
    run e
      (Printf.sprintf "UPDATE acct SET bal = bal * 2 WHERE id = %d"
         (1 + (i mod 4)))
  done;
  check Alcotest.string "merged history as of the question" want
    (log_digest (Whatif.new_log out))

(* ------------------------------------------------------------------ *)
(* Structural (trigger-firing) statements serialize inside their wave   *)
(* ------------------------------------------------------------------ *)

let test_trigger_wave_serializes () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  run e "CREATE TABLE audit (id INT PRIMARY KEY, n INT)";
  run e
    "CREATE TRIGGER taud AFTER UPDATE ON acct FOR EACH ROW BEGIN UPDATE \
     audit SET n = n + 1 WHERE id = 1; END";
  run e "INSERT INTO audit VALUES (1, 0)";
  for i = 1 to 8 do
    run e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i)
  done;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  (* DML-only history: every UPDATE fires the trigger, so every entry is
     structural and they all funnel through the shared audit row *)
  for i = 1 to 8 do
    run e (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" i i)
  done;
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let serial =
    Whatif.run_exn
      ~config:(Whatif.Config.make ~parallel_exec:false ())
      ~analyzer e target
  in
  let par =
    Whatif.run_exn ~config:(Whatif.Config.make ~workers:4 ()) ~analyzer e target
  in
  check Alcotest.bool "wave executor ran" true
    (par.Whatif.measured_parallel_ms <> None);
  check Alcotest.int64 "trigger cascades produce the serial state"
    serial.Whatif.final_db_hash par.Whatif.final_db_hash;
  check Alcotest.string "trigger cascades produce the serial log"
    (log_digest (Whatif.new_log serial))
    (log_digest (Whatif.new_log par));
  (* the oracle value: removing UPDATE #1 leaves 7 trigger firings *)
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
  Whatif.commit merged par;
  match Engine.query_sql merged "SELECT n FROM audit WHERE id = 1" with
  | { Engine.rows = [ [| Uv_sql.Value.Int n |] ]; _ } ->
      check Alcotest.int "audit counter" 7 n
  | _ -> Alcotest.fail "audit row missing"

(* ------------------------------------------------------------------ *)
(* Serial fallback on ineligible histories                              *)
(* ------------------------------------------------------------------ *)

let test_ddl_member_falls_back () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "INSERT INTO t VALUES (1, 10)";
  (* TRUNCATE writes every row of t, so removing the INSERT pulls this
     DDL into the replay set through the write-write conflict *)
  run e "TRUNCATE TABLE t";
  run e "INSERT INTO t VALUES (2, 20)";
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  (* row-only mode: the TRUNCATE's wildcard row write joins the closure *)
  let out =
    Whatif.run_exn
      ~config:(Whatif.Config.make ~mode:Analyzer.Row_only ())
      ~analyzer e
      { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  check Alcotest.bool "DDL joined the replay set" true
    out.Whatif.replay.Analyzer.members.(1);
  check Alcotest.bool "mid-history DDL forces the serial path" true
    (out.Whatif.measured_parallel_ms = None)

let test_hash_jumper_falls_back () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "INSERT INTO t VALUES (1, 10)";
  run e "UPDATE t SET v = v + 1 WHERE id = 1";
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let out =
    Whatif.run_exn
      ~config:(Whatif.Config.make ~hash_jumper:true ())
      ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  check Alcotest.bool "hash-jumper needs commit-prefix replay" true
    (out.Whatif.measured_parallel_ms = None)

(* ------------------------------------------------------------------ *)
(* Conflict_dag unit tests                                              *)
(* ------------------------------------------------------------------ *)

let test_waves_layering () =
  (* 1 -> 2 -> 4, 3 independent: waves [1;3] [2] [4] *)
  let dag =
    Conflict_dag.build ~nodes:[ 1; 2; 3; 4 ]
      ~edges:[ (2, 1); (4, 2) ]
  in
  check
    Alcotest.(list (list int))
    "longest-path layers"
    [ [ 1; 3 ]; [ 2 ]; [ 4 ] ]
    (Conflict_dag.waves dag);
  check Alcotest.int "wave count" 3 (Conflict_dag.wave_count dag);
  check Alcotest.int "edge count (deduped)" 2
    (Conflict_dag.edge_count
       (Conflict_dag.build ~nodes:[ 1; 2; 3; 4 ]
          ~edges:[ (2, 1); (4, 2); (2, 1) ]))

let test_waves_empty_and_chain () =
  let empty = Conflict_dag.build ~nodes:[] ~edges:[] in
  check Alcotest.(list (list int)) "empty" [] (Conflict_dag.waves empty);
  let chain =
    Conflict_dag.build ~nodes:[ 10; 20; 30 ] ~edges:[ (20, 10); (30, 20) ]
  in
  check
    Alcotest.(list (list int))
    "pure chain: one node per wave"
    [ [ 10 ]; [ 20 ]; [ 30 ] ]
    (Conflict_dag.waves chain)

let test_makespan_matches_scheduler () =
  let entries = [ 1; 2; 3; 4; 5 ] in
  let edges = [ (3, 1); (4, 2); (5, 3); (5, 4) ] in
  let weight i = float_of_int i *. 1.5 in
  let direct =
    Conflict_dag.makespan
      (Conflict_dag.build ~nodes:entries ~edges)
      ~weight ~workers:2
  in
  let via_wrapper = Scheduler.makespan ~entries ~edges ~weight ~workers:2 in
  check (Alcotest.float 1e-9) "Scheduler is a thin wrapper" direct via_wrapper

let workload_cases (w : W.t) =
  ( "determinism: " ^ w.W.name,
    [
      Alcotest.test_case "workers in {1,2,4,8} == serial" `Slow
        (test_workers_invariant w);
    ] )

let () =
  Alcotest.run "uv_parallel"
    (List.map workload_cases (W.all ())
    @ [
        ( "merged history",
          [
            Alcotest.test_case "survives append and truncation" `Quick
              test_merged_log_after_truncation;
          ] );
        ( "structural",
          [
            Alcotest.test_case "trigger wave serializes" `Quick
              test_trigger_wave_serializes;
          ] );
        ( "fallback",
          [
            Alcotest.test_case "mid-history DDL" `Quick
              test_ddl_member_falls_back;
            Alcotest.test_case "hash-jumper" `Quick
              test_hash_jumper_falls_back;
          ] );
        ( "conflict-dag",
          [
            Alcotest.test_case "wave layering" `Quick test_waves_layering;
            Alcotest.test_case "empty & chain" `Quick
              test_waves_empty_and_chain;
            Alcotest.test_case "makespan parity" `Quick
              test_makespan_matches_scheduler;
          ] );
      ])
