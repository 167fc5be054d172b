(* Fault injection, crash-consistent recovery and graceful degradation.

   The contract under test (DESIGN.md §8): with any seeded fault
   schedule, a what-if run either ends bitwise-identical to the
   fault-free run (final database hash and new-universe log) or in a
   clean, reported abort — never in a torn state, never with an escaped
   exception — and the original engine is untouched either way. *)

open Uv_db
open Uv_retroactive
module F = Uv_fault.Fault
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let check = Alcotest.check

let run e sql = ignore (Engine.exec_sql e sql)

(* ------------------------------------------------------------------ *)
(* The fault library itself                                             *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_null () =
  check Alcotest.bool "disabled" false (F.enabled F.disabled);
  check Alcotest.bool "no injection" true
    (F.check F.disabled F.Site.engine_exec [ F.Stmt_fail ] = None);
  check Alcotest.int "nothing fired" 0 (List.length (F.fired F.disabled))

let test_seeded_deterministic () =
  let drive fault =
    List.map
      (fun key -> F.check ~key fault F.Site.worker [ F.Worker_crash; F.Slow ])
      [ 3; 1; 4; 1; 5; 9; 2; 6; 1; 3 ]
  in
  let a = drive (F.seeded ~worker_crash:0.5 ~slow:0.3 ~seed:99 ()) in
  let b = drive (F.seeded ~worker_crash:0.5 ~slow:0.3 ~seed:99 ()) in
  check Alcotest.bool "same seed, same probes => same decisions" true (a = b);
  check Alcotest.bool "something fired at p=0.8 over 10 probes" true
    (List.exists Option.is_some a);
  (* the decision is a function of (site, key, hit), not of probe order *)
  let shuffled =
    let f = F.seeded ~worker_crash:0.5 ~slow:0.3 ~seed:99 () in
    List.map
      (fun key -> (key, F.check ~key f F.Site.worker [ F.Worker_crash; F.Slow ]))
      [ 9; 5; 6; 2; 4; 3 ]
  in
  List.iter
    (fun (key, d) ->
      (* keys probed once in both orders must agree (hit = 1 for both) *)
      if List.mem key [ 4; 5; 9; 2; 6 ] then
        let original = List.nth a (if key = 4 then 2 else
                                   if key = 5 then 4 else
                                   if key = 9 then 5 else
                                   if key = 2 then 6 else 7) in
        check Alcotest.bool
          (Printf.sprintf "key %d schedule-independent" key)
          true
          (match (d, original) with
          | None, None -> true
          | Some x, Some y -> x.F.kind = y.F.kind
          | _ -> false))
    shuffled

let test_hits_are_independent () =
  (* retrying the same (site, key) draws a fresh decision: with p = 1.0
     every hit fires, and the hit counter advances *)
  let f = F.seeded ~stmt_fail:1.0 ~seed:7 () in
  let i1 = Option.get (F.check ~key:5 f F.Site.engine_exec [ F.Stmt_fail ]) in
  let i2 = Option.get (F.check ~key:5 f F.Site.engine_exec [ F.Stmt_fail ]) in
  check Alcotest.int "first hit" 1 i1.F.hit;
  check Alcotest.int "second hit" 2 i2.F.hit;
  check Alcotest.int "fired log" 2 (List.length (F.fired f))

let test_script_aims_precisely () =
  let f =
    F.script
      [ { F.site = F.Site.engine_exec; key = 2; hit = 1; kind = F.Stmt_fail; arg = 0.0 } ]
  in
  check Alcotest.bool "key 1 clean" true
    (F.check ~key:1 f F.Site.engine_exec [ F.Stmt_fail ] = None);
  check Alcotest.bool "key 2 hit 1 fires" true
    (F.check ~key:2 f F.Site.engine_exec [ F.Stmt_fail ] <> None);
  check Alcotest.bool "key 2 hit 2 clean (the retry succeeds)" true
    (F.check ~key:2 f F.Site.engine_exec [ F.Stmt_fail ] = None);
  check Alcotest.bool "wrong site never fires" true
    (F.check ~key:2 f F.Site.engine_commit [ F.Stmt_fail ] = None)

(* ------------------------------------------------------------------ *)
(* Engine: statement atomicity under injected faults                    *)
(* ------------------------------------------------------------------ *)

let setup_auto fault =
  let e = Engine.create ~fault () in
  run e
    "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
  Engine.set_sim_time e 100;
  e

let test_commit_fault_rolls_back_and_retries () =
  (* the fault fires after the statement executed, just before its log
     entry commits: the journal rollback must erase the row, restore the
     AUTO_INCREMENT counter, the PRNG and the clock — so the retry
     reenacts the statement exactly *)
  let fault =
    F.script
      [ { F.site = F.Site.engine_commit; key = 101; hit = 1;
          kind = F.Stmt_fail; arg = 0.0 } ]
  in
  let e = setup_auto fault in
  let clean = setup_auto F.disabled in
  let h0 = Engine.db_hash e in
  let log0 = Log.length (Engine.log e) in
  (match Engine.exec_sql e "INSERT INTO t (v) VALUES (RAND())" with
  | _ -> Alcotest.fail "expected the injected fault to escape"
  | exception F.Injected inj ->
      check Alcotest.string "site" F.Site.engine_commit inj.F.site);
  check Alcotest.int64 "rolled back bit-exact" h0 (Engine.db_hash e);
  check Alcotest.int "no log entry" log0 (Log.length (Engine.log e));
  (* retry on the faulted engine vs. first try on a clean engine *)
  run e "INSERT INTO t (v) VALUES (RAND())";
  run clean "INSERT INTO t (v) VALUES (RAND())";
  check Alcotest.int64 "retry reenacts exactly (hash)" (Engine.db_hash clean)
    (Engine.db_hash e);
  let entry eng = (Log.entry (Engine.log eng) 1).Log.nondet in
  check Alcotest.bool "retry reenacts exactly (draws)" true
    (entry e = entry clean)

let test_exec_fault_preserves_auto_counter () =
  let fault =
    F.script
      [ { F.site = F.Site.engine_exec; key = 101; hit = 1;
          kind = F.Stmt_fail; arg = 0.0 } ]
  in
  let e = setup_auto fault in
  (match Engine.exec_sql e "INSERT INTO t (v) VALUES (1)" with
  | _ -> Alcotest.fail "expected the injected fault to escape"
  | exception F.Injected _ -> ());
  run e "INSERT INTO t (v) VALUES (1)";
  match Engine.query_sql e "SELECT id FROM t" with
  | { Engine.rows = [ [| Uv_sql.Value.Int id |] ]; _ } ->
      check Alcotest.int "first key not burned by the failed insert" 1 id
  | _ -> Alcotest.fail "row missing"

let test_sql_error_context () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY)";
  match Engine.exec_sql e "INSERT INTO missing VALUES (1)" with
  | _ -> Alcotest.fail "expected Sql_error"
  | exception Engine.Sql_error msg ->
      check Alcotest.bool "message names the statement" true
        (let has needle =
           let n = String.length needle and m = String.length msg in
           let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
           go 0
         in
         has "at log index 2" && has "INSERT INTO missing")

(* ------------------------------------------------------------------ *)
(* Dump: AUTO_INCREMENT counters survive the round trip                 *)
(* ------------------------------------------------------------------ *)

let test_dump_roundtrips_highest_key_deleted () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
  run e "INSERT INTO t (v) VALUES (10)";
  run e "INSERT INTO t (v) VALUES (20)";
  run e "INSERT INTO t (v) VALUES (30)";
  run e "DELETE FROM t WHERE id = 3";
  let restored = Engine.create () in
  Dump.restore restored (Dump.to_sql (Engine.catalog e));
  check Alcotest.int64 "rows round-trip" (Engine.db_hash e)
    (Engine.db_hash restored);
  (* both databases must now hand out the same fresh key — 4, not 3 *)
  run e "INSERT INTO t (v) VALUES (40)";
  run restored "INSERT INTO t (v) VALUES (40)";
  check Alcotest.int64 "counter round-trips past a deleted max key"
    (Engine.db_hash e) (Engine.db_hash restored);
  match Engine.query_sql restored "SELECT id FROM t WHERE v = 40" with
  | { Engine.rows = [ [| Uv_sql.Value.Int id |] ]; _ } ->
      check Alcotest.int "fresh key skips the deleted one" 4 id
  | _ -> Alcotest.fail "row missing"

(* ------------------------------------------------------------------ *)
(* ULOGv2: corruption, truncation, torn writes                          *)
(* ------------------------------------------------------------------ *)

let nasty_history e =
  run e "CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, s TEXT)";
  run e "INSERT INTO notes (s) VALUES ('line\\nbreak and back\\\\slash')";
  run e "INSERT INTO notes (s) VALUES ('plain')";
  ignore
    (Engine.exec ~app_txn:"txn:9" e
       (Uv_sql.Parser.parse_stmt "INSERT INTO notes (s) VALUES (RAND())"));
  run e "UPDATE notes SET s = 'x' WHERE id = 2"

let test_truncate_every_byte () =
  let e = Engine.create () in
  nasty_history e;
  let full = Log_io.records_of_log (Engine.log e) in
  let text = Log_io.print full in
  let n = String.length text in
  for i = 0 to n do
    let cut = String.sub text 0 i in
    (* salvage never raises and always returns a valid record prefix *)
    let decoded, diag = Log_io.salvage cut in
    let records = Log_io.records decoded in
    let k = List.length records in
    check Alcotest.int
      (Printf.sprintf "cut at %d: diagnosis counts the records" i)
      k diag.Log_io.valid_records;
    check Alcotest.bool
      (Printf.sprintf "cut at %d: salvaged records are a prefix" i)
      true
      (k <= List.length full
      && List.for_all2
           (fun a b -> a = b)
           records
           (List.filteri (fun j _ -> j < k) full));
    (* parse agrees with the diagnosis: clean prefix parses, damage raises *)
    match diag.Log_io.cut_at with
    | None ->
        check Alcotest.bool
          (Printf.sprintf "cut at %d: clean file parses" i)
          true
          (Log_io.parse cut = records)
    | Some off -> (
        check Alcotest.bool
          (Printf.sprintf "cut at %d: cut offset within the file" i)
          true
          (off <= i);
        match Log_io.parse cut with
        | _ -> Alcotest.fail "damaged text must not parse"
        | exception Log_io.Corrupt _ -> ())
  done;
  check Alcotest.bool "the full file is clean" true
    ((snd (Log_io.salvage text)).Log_io.cut_at = None)

let test_bitflip_detected () =
  let e = Engine.create () in
  nasty_history e;
  let text = Log_io.print (Log_io.records_of_log (Engine.log e)) in
  (* flip one content byte inside the second record's Q line *)
  let q2 =
    let first = String.index_from text (String.index text 'Q') '\n' in
    String.index_from text (first + 1) 'Q'
  in
  let flipped = Bytes.of_string text in
  Bytes.set flipped (q2 + 3) (Char.chr (Char.code (Bytes.get flipped (q2 + 3)) lxor 1));
  let decoded, diag = Log_io.salvage (Bytes.to_string flipped) in
  let records = Log_io.records decoded in
  check Alcotest.bool "scan stops at the flipped record" true
    (diag.Log_io.cut_at <> None);
  check Alcotest.bool "prefix before the flip survives" true
    (List.length records < 4);
  match Log_io.parse (Bytes.to_string flipped) with
  | _ -> Alcotest.fail "bit flip must not parse"
  | exception Log_io.Corrupt msg ->
      check Alcotest.bool "reason mentions the checksum" true
        (let n = String.length msg in
         let rec go i = i + 8 <= n && (String.sub msg i 8 = "checksum" || go (i + 1)) in
         go 0)

let test_v1_still_parses () =
  let v1 = "ULOGv1\nQ INSERT INTO t VALUES (1)\nE\nQ SELECT 1\nA tag\nE\n" in
  let records = Log_io.parse v1 in
  check Alcotest.int "two records" 2 (List.length records);
  check Alcotest.bool "tag survives" true
    ((List.nth records 1).Log_io.r_app_txn = Some "tag")

let test_torn_save_keeps_old_file () =
  let path = Filename.temp_file "uv_fault" ".ulog" in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
  @@ fun () ->
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY)";
  run e "INSERT INTO t VALUES (1)";
  Log_store.save_log_file (Engine.log e) ~path;
  let before = Log_store.load_log_file ~path in
  run e "INSERT INTO t VALUES (2)";
  (* every save attempt tears (p = 1.0): the temp file gets a prefix,
     the rename never happens, the previous good log survives *)
  let fault = F.seeded ~torn_write:1.0 ~seed:3 () in
  (match Log_store.save_log_file ~fault (Engine.log e) ~path with
  | () -> Alcotest.fail "expected the torn write to escape"
  | exception F.Injected inj ->
      check Alcotest.string "site" F.Site.log_save inj.F.site);
  check Alcotest.bool "previous log intact" true
    (Log_store.load_log_file ~path = before);
  (* and the torn temp file itself salvages without raising *)
  if Sys.file_exists (path ^ ".tmp") then
    ignore (Log_store.salvage_log_file ~path:(path ^ ".tmp"))

let test_replay_reports_skips () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY)";
  run e "INSERT INTO t VALUES (1)";
  let records = Log_io.records_of_log (Engine.log e) in
  (* replaying only the tail (as if the CREATE lived in a checkpoint)
     on an empty database: the INSERT cannot apply and must be reported,
     not raised *)
  let tail = [ List.nth records 1 ] in
  let fresh = Engine.create () in
  let skipped = Log_io.replay fresh tail in
  check Alcotest.(list int) "skip indices are 1-based" [ 1 ] skipped;
  (* the full log replays cleanly *)
  let fresh2 = Engine.create () in
  check Alcotest.(list int) "full log has no skips" []
    (Log_io.replay fresh2 records);
  check Alcotest.int64 "faithful replay" (Engine.db_hash e)
    (Engine.db_hash fresh2)

(* ------------------------------------------------------------------ *)
(* UCKPv1: checkpoint-ladder persistence                                *)
(* ------------------------------------------------------------------ *)

let laddered_engine () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  Engine.reset_log e;
  Engine.enable_checkpoints e ~every:4;
  for i = 1 to 20 do
    run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 10))
  done;
  (e, Option.get (Engine.checkpoints e))

let with_temp f =
  let path = Filename.temp_file "uv_fault" ".uckp" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

let test_uckp_roundtrip () =
  let _, ladder = laddered_engine () in
  with_temp @@ fun path ->
  Log_store.save_checkpoints_file ladder ~path;
  let rungs = Log_store.load_checkpoints_file ~path in
  check Alcotest.int "every rung round-trips" (Checkpoint.count ladder)
    (List.length rungs);
  (* each restored catalog is bit-identical to re-restoring the live
     rung's SQL dump *)
  List.iter
    (fun (at, cat) ->
      match List.assoc_opt at (Checkpoint.rungs ladder) with
      | Some live ->
          let a = Engine.create () and b = Engine.create () in
          Dump.restore a (Dump.to_sql cat);
          Dump.restore b (Dump.to_sql live);
          check Alcotest.int64
            (Printf.sprintf "rung at commit %d restores bit-exact" at)
            (Engine.db_hash b) (Engine.db_hash a)
      | _ -> Alcotest.failf "rung at commit %d missing from the ladder" at)
    rungs

let test_uckp_torn_save_keeps_old_file () =
  let _, ladder = laddered_engine () in
  with_temp @@ fun path ->
  Log_store.save_checkpoints_file ladder ~path;
  let before = Log_store.load_checkpoints_file ~path in
  let fault = F.seeded ~torn_write:1.0 ~seed:5 () in
  (match Log_store.save_checkpoints_file ~fault ladder ~path with
  | () -> Alcotest.fail "expected the torn write to escape"
  | exception F.Injected inj ->
      check Alcotest.string "site" F.Site.checkpoint_save inj.F.site);
  check Alcotest.int "previous ladder file intact" (List.length before)
    (List.length (Log_store.load_checkpoints_file ~path))

let test_uckp_bitflip_rejected () =
  let _, ladder = laddered_engine () in
  with_temp @@ fun path ->
  Log_store.save_checkpoints_file ladder ~path;
  let text =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* flip one payload byte: the per-rung CRC must catch it *)
  let flipped = Bytes.of_string text in
  let mid = String.length text / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  (match Log_store.load_checkpoints_file ~path with
  | _ -> Alcotest.fail "a flipped byte must not load"
  | exception Log_store.Error _ -> ());
  (* and truncation at any point is Corrupt, never an escape or a torn
     partial ladder *)
  for cut = 0 to String.length text - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub text 0 cut);
    close_out oc;
    match Log_store.load_checkpoints_file ~path with
    | rungs ->
        if cut < String.length text then
          Alcotest.failf "cut at %d silently loaded %d rungs" cut
            (List.length rungs)
    | exception Log_store.Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Whatif: deadline and degradation                                     *)
(* ------------------------------------------------------------------ *)

let small_history () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  for i = 1 to 12 do
    run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 10))
  done;
  (e, base)

let test_deadline_aborts_cleanly () =
  let e, base = small_history () in
  let pristine = Engine.db_hash e in
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let config = Whatif.Config.make ~deadline_ms:0.0 () in
  (match Whatif.run ~config ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove } with
  | Ok _ -> Alcotest.fail "a 0 ms budget cannot finish"
  | Error err ->
      check Alcotest.string "code" "deadline" (Whatif.Error.code_name err.Whatif.Error.code));
  check Alcotest.int64 "original engine untouched" pristine (Engine.db_hash e);
  (* and run_exn surfaces the same abort as the documented exception *)
  match Whatif.run_exn ~config ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove } with
  | _ -> Alcotest.fail "run_exn must raise on abort"
  | exception Whatif.Abort err ->
      check Alcotest.string "exception code" "deadline"
        (Whatif.Error.code_name err.Whatif.Error.code)

let test_certain_crash_degrades () =
  (* a history whose replay set is non-empty: every update reads and
     writes the row the removed insert created, so removal drags them
     all in and the executor actually runs waves *)
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "INSERT INTO t VALUES (1, 10)";
  for i = 1 to 8 do
    run e (Printf.sprintf "UPDATE t SET v = v + %d WHERE id = 1" i)
  done;
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let baseline =
    Whatif.run_exn ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  (* every worker probe kills its lane and every wave probe reports a
     dead domain: the run must degrade to the caller lane, not die *)
  let fault = F.seeded ~worker_crash:1.0 ~seed:11 () in
  let config = Whatif.Config.make ~workers:4 ~fault () in
  match Whatif.run ~config ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove } with
  | Error err -> Alcotest.fail ("unexpected abort: " ^ Whatif.Error.to_string err)
  | Ok out ->
      check Alcotest.bool "degraded" true out.Whatif.degraded;
      check Alcotest.int64 "degraded run is bitwise-identical"
        baseline.Whatif.final_db_hash out.Whatif.final_db_hash

(* ------------------------------------------------------------------ *)
(* Chaos harness: seeded schedules across the five workloads            *)
(* ------------------------------------------------------------------ *)

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

let seeds_per_workload = 40

(* [checkpoint_every > 0] runs the same schedules over a history that
   committed with a checkpoint ladder attached, as [dump --checkpoints]
   records one, and a target late in the history, where the rungs lie
   between τ and the head. The what-if neither reads nor disturbs the
   ladder: every outcome is bitwise-identical to the fault-free run, and
   the engine keeps every rung it recorded. *)
let test_chaos ?(checkpoint_every = 0) ?(seeds = seeds_per_workload) (w : W.t)
    () =
  let eng, rt = W.setup ~mode:R.Transpiled w in
  let base = Engine.snapshot eng in
  if checkpoint_every > 0 then
    Engine.enable_checkpoints eng ~every:checkpoint_every;
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:24 ~dep_rate:0.3 in
  ignore (W.run_history rt ~mode:R.Transpiled calls);
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  let target =
    if checkpoint_every > 0 then
      { Analyzer.tau = max 1 (Log.length (Engine.log eng) - 8);
        op = Analyzer.Remove }
    else { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  let pristine = Engine.db_hash eng in
  let pristine_log = log_digest (Engine.log eng) in
  let rungs () =
    Option.fold ~none:[] ~some:(fun l -> List.map fst (Checkpoint.rungs l))
      (Engine.checkpoints eng)
  in
  let pristine_rungs = rungs () in
  let baseline = Whatif.run_exn ~analyzer eng target in
  let want_hash = baseline.Whatif.final_db_hash in
  let want_log = log_digest (Whatif.new_log baseline) in
  let oks = ref 0 and aborts = ref 0 in
  for seed = 1 to seeds do
    let fault =
      F.seeded ~stmt_fail:0.03 ~worker_crash:0.05 ~slow:0.02 ~seed ()
    in
    (* a quarter of the schedules also exercise the commit-order schedule *)
    let config =
      if seed mod 4 = 0 then
        Whatif.Config.make ~workers:1 ~fault ()
      else Whatif.Config.make ~workers:4 ~fault ()
    in
    (match Whatif.run ~config ~analyzer eng target with
    | Ok out ->
        incr oks;
        check Alcotest.int64
          (Printf.sprintf "%s seed %d: hash == fault-free run" w.W.name seed)
          want_hash out.Whatif.final_db_hash;
        check Alcotest.string
          (Printf.sprintf "%s seed %d: log == fault-free run" w.W.name seed)
          want_log
          (log_digest (Whatif.new_log out))
    | Error err ->
        incr aborts;
        check Alcotest.bool
          (Printf.sprintf "%s seed %d: abort is typed" w.W.name seed)
          true
          (match err.Whatif.Error.code with
          | Whatif.Error.Fault | Whatif.Error.Deadline -> true
          | Whatif.Error.Internal -> false));
    check Alcotest.int64
      (Printf.sprintf "%s seed %d: original engine untouched" w.W.name seed)
      pristine (Engine.db_hash eng);
    check Alcotest.string
      (Printf.sprintf "%s seed %d: original log untouched" w.W.name seed)
      pristine_log
      (log_digest (Engine.log eng));
    check
      Alcotest.(list int)
      (Printf.sprintf "%s seed %d: ladder untouched" w.W.name seed)
      pristine_rungs (rungs ())
  done;
  (* the schedule rates are mild: most runs must survive via retry and
     degradation rather than abort *)
  check Alcotest.bool
    (Printf.sprintf "%s: recovery works more often than not (%d ok, %d aborted)"
       w.W.name !oks !aborts)
    true
    (!oks > !aborts)

(* ------------------------------------------------------------------ *)
(* Decode verdicts: CRC-32 and salvage on damaged records               *)
(* ------------------------------------------------------------------ *)

let test_crc32_known_answers () =
  let hex s = Uv_util.Crc32.(to_hex (digest s)) in
  check Alcotest.string "check value" "cbf43926" (hex "123456789");
  check Alcotest.string "empty string" "00000000" (hex "");
  check Alcotest.string "update continues a digest" "cbf43926"
    Uv_util.Crc32.(to_hex (update (digest "1234") "56789"));
  check Alcotest.string "range of a longer string" "cbf43926"
    Uv_util.Crc32.(to_hex (update_sub 0 "xx123456789yy" 2 9));
  List.iter
    (fun (off, len) ->
      match Uv_util.Crc32.update_sub 0 "abc" off len with
      | _ -> Alcotest.failf "range (%d, %d) of a 3-byte string accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, 4); (3, 1); (2, -1) ]

let prop_crc32_range =
  QCheck.Test.make ~count:500 ~name:"range CRC == digest of the substring"
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let crc0 = Uv_util.Crc32.digest "seed" in
      Uv_util.Crc32.update_sub 0 s off len
      = Uv_util.Crc32.digest (String.sub s off len)
      && Uv_util.Crc32.update_sub crc0 s off len
         = Uv_util.Crc32.update crc0 (String.sub s off len))

(* Damaged variants of the nasty history's ULOGv2 text, each with the
   salvage verdict (records kept, cut offset, reason) that the
   line-copying decoder gave. The in-place decoder must give the same:
   blank lines are skipped (so one inside a record leaves its checksum
   intact), and a damaged line costs its whole record. *)
let decode_cases text =
  let n = String.length text in
  let starts tag =
    (* offsets of the lines that start with [tag], in order *)
    let rec go off acc =
      if off >= n then List.rev acc
      else
        let nl = Option.value (String.index_from_opt text off '\n') ~default:n in
        go (nl + 1) (if nl > off && text.[off] = tag then off :: acc else acc)
    in
    go 0 []
  in
  let line_end off = String.index_from text off '\n' in
  let insert off s = String.sub text 0 off ^ s ^ String.sub text off (n - off) in
  let q2 = List.nth (starts 'Q') 1 in
  let n1 = List.hd (starts 'N') in
  let c1 = List.hd (starts 'C') in
  let c_last = List.hd (List.rev (starts 'C')) in
  let flip off =
    let b = Bytes.of_string text in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
    Bytes.to_string b
  in
  [
    ("blank line after a Q line", insert (line_end q2 + 1) "\n");
    ("blank lines before a C line", insert c1 "\n\n");
    ("blank line between records", insert q2 "\n");
    ("flipped byte in an N line", flip (n1 + 3));
    ("flipped tag of an N line", flip n1);
    ("C line missing two hex digits",
     String.sub text 0 (line_end c1 - 2) ^ String.sub text (line_end c1) (n - line_end c1));
    ("file cut inside the last C line", String.sub text 0 (c_last + 5));
    ("file cut after the last C line", String.sub text 0 (line_end c_last + 1));
  ]

let expected_decode_verdicts =
  [
    ("blank line after a Q line", 5, None, None);
    ("blank lines before a C line", 5, None, None);
    ("blank line between records", 5, None, None);
    ( "flipped byte in an N line", 1, Some 88,
      Some "checksum mismatch (stored fec23ad6, computed e7d90b97)" );
    ("flipped tag of an N line", 1, Some 88, Some "unknown line tag 'O'");
    ( "C line missing two hex digits", 0, Some 7,
      Some "malformed checksum \"C 9fa856\"" );
    ( "file cut inside the last C line", 4, Some 317,
      Some "malformed checksum \"C 30f\"" );
    ("file cut after the last C line", 4, Some 317, Some "truncated final record");
  ]

let test_decode_verdicts () =
  let e = Engine.create () in
  nasty_history e;
  let text = Log_io.print (Log_io.records_of_log (Engine.log e)) in
  let got =
    List.map
      (fun (name, damaged) ->
        let decoded, d = Log_io.salvage damaged in
        let records = Log_io.records decoded in
        check Alcotest.int (name ^ ": diagnosis counts the records")
          (List.length records) d.Log_io.valid_records;
        (name, d.Log_io.valid_records, d.Log_io.cut_at, d.Log_io.reason))
      (decode_cases text)
  in
  check
    Alcotest.(list (pair string (triple int (option int) (option string))))
    "salvage verdicts"
    (List.map (fun (n, k, c, r) -> (n, (k, c, r))) expected_decode_verdicts)
    (List.map (fun (n, k, c, r) -> (n, (k, c, r))) got)

(* ------------------------------------------------------------------ *)
(* Escape/unescape properties                                           *)
(* ------------------------------------------------------------------ *)

let prop_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"escape/unescape round-trip"
    QCheck.string (fun s -> Log_io.unescape (Log_io.escape s) = s)

let prop_escape_single_line =
  QCheck.Test.make ~count:500 ~name:"escaped text is newline-free"
    QCheck.string (fun s ->
      let e = Log_io.escape s in
      not (String.contains e '\n') && not (String.contains e '\r'))

let prop_salvage_never_raises =
  QCheck.Test.make ~count:500 ~name:"salvage total on arbitrary bytes"
    QCheck.string (fun s ->
      let decoded, diag = Log_io.salvage s in
      let records = Log_io.records decoded in
      List.length records = diag.Log_io.valid_records)

let () =
  Alcotest.run "uv_fault"
    ([
       ( "library",
         [
           Alcotest.test_case "disabled is null" `Quick test_disabled_is_null;
           Alcotest.test_case "seeded is deterministic" `Quick
             test_seeded_deterministic;
           Alcotest.test_case "hits are independent" `Quick
             test_hits_are_independent;
           Alcotest.test_case "script aims precisely" `Quick
             test_script_aims_precisely;
         ] );
       ( "engine",
         [
           Alcotest.test_case "commit fault rolls back & retries" `Quick
             test_commit_fault_rolls_back_and_retries;
           Alcotest.test_case "exec fault preserves auto counter" `Quick
             test_exec_fault_preserves_auto_counter;
           Alcotest.test_case "Sql_error carries context" `Quick
             test_sql_error_context;
         ] );
       ( "dump",
         [
           Alcotest.test_case "auto counter round-trips" `Quick
             test_dump_roundtrips_highest_key_deleted;
         ] );
       ( "ulog",
         [
           Alcotest.test_case "truncate at every byte" `Slow
             test_truncate_every_byte;
           Alcotest.test_case "bit flip detected" `Quick test_bitflip_detected;
           Alcotest.test_case "crc32 known answers" `Quick
             test_crc32_known_answers;
           Alcotest.test_case "decode verdicts == recorded" `Quick
             test_decode_verdicts;
           Alcotest.test_case "v1 still parses" `Quick test_v1_still_parses;
           Alcotest.test_case "torn save keeps old file" `Quick
             test_torn_save_keeps_old_file;
           Alcotest.test_case "replay reports skips" `Quick
             test_replay_reports_skips;
         ] );
       ( "uckp",
         [
           Alcotest.test_case "ladder round-trips" `Quick test_uckp_roundtrip;
           Alcotest.test_case "torn save keeps old file" `Quick
             test_uckp_torn_save_keeps_old_file;
           Alcotest.test_case "bit flip & truncation rejected" `Quick
             test_uckp_bitflip_rejected;
         ] );
       ( "whatif",
         [
           Alcotest.test_case "deadline aborts cleanly" `Quick
             test_deadline_aborts_cleanly;
           Alcotest.test_case "certain crash degrades" `Quick
             test_certain_crash_degrades;
         ] );
       ( "properties",
         List.map QCheck_alcotest.to_alcotest
           [
             prop_escape_roundtrip;
             prop_escape_single_line;
             prop_salvage_never_raises;
             prop_crc32_range;
           ] );
     ]
    @ List.map
        (fun (w : W.t) ->
          ( "chaos: " ^ w.W.name,
            [
              Alcotest.test_case
                (Printf.sprintf "%d seeded schedules" seeds_per_workload)
                `Slow (test_chaos w);
              Alcotest.test_case "20 schedules, checkpoint ladder" `Slow
                (test_chaos ~checkpoint_every:8 ~seeds:20 w);
            ] ))
        (W.all ()))
