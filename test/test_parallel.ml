(* Determinism and correctness of the replay executor (Wave_exec): at
   every worker count the what-if outcome must be bit-identical — same
   final database hash, same new-universe log — and the DAG's waves must
   replay exactly what the commit-order schedule does. The replay DAG the
   waves run is checked edge for edge against a reference builder. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let check = Alcotest.check

let run e sql = ignore (Engine.exec_sql e sql)

(* A log digest covering everything scenario-stacking depends on:
   commit index, rendered SQL, recorded draws, row counts, the
   restamped per-table hashes, and the transaction tag. *)
let entry_line (e : Log.entry) =
  Printf.sprintf "%d|%s|%s|%d|%s|%s\n" e.Log.index e.Log.sql
    (String.concat "," (List.map Uv_sql.Value.to_string e.Log.nondet))
    e.Log.rows_written
    (String.concat ","
       (List.map (fun (t, h) -> Printf.sprintf "%s=%Lx" t h) e.Log.written_hashes))
    (Option.value e.Log.app_txn ~default:"-")

let log_digest log =
  let buf = Buffer.create 4096 in
  Log.iter log (fun e -> Buffer.add_string buf (entry_line e));
  Buffer.contents buf

(* An entry's AUTO_INCREMENT records: the counters undoing it restores.
   A replayed entry's must not depend on the schedule. *)
let auto_line (e : Log.entry) =
  Printf.sprintf "%d auto %s\n" e.Log.index
    (String.concat ","
       (List.filter_map
          (function
            | Log.U_auto_value (t, v) -> Some (Printf.sprintf "%s=%d" t v)
            | _ -> None)
          e.Log.undo))

let auto_digest log =
  let buf = Buffer.create 4096 in
  Log.iter log (fun e -> Buffer.add_string buf (auto_line e));
  Buffer.contents buf

let build ?(mode = R.Transpiled) (w : W.t) ~n ~dep_rate =
  let eng, rt = W.setup ~mode w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate in
  ignore (W.run_history rt ~mode calls);
  (eng, base)

(* ------------------------------------------------------------------ *)
(* Worker-count invariance on the five workloads                        *)
(* ------------------------------------------------------------------ *)

let table_hashes cat =
  List.map (fun (n, t) -> (n, Storage.hash t)) (Catalog.tables cat)

(* the full-replay oracle (Definition E.1): every entry but [skip]
   re-executed over the base state, on a fresh engine *)
let oracle eng base ~skip =
  let e2 = Engine.of_catalog (Catalog.snapshot base) in
  Log.iter (Engine.log eng) (fun entry ->
      if entry.Log.index <> skip then
        try
          ignore
            (Engine.exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn e2
               entry.Log.stmt)
        with Engine.Sql_error _ | Engine.Signal_raised _ -> ());
  e2

let oracle_hashes eng base ~skip =
  table_hashes (Engine.catalog (oracle eng base ~skip))

(* The full-replay oracle of any target: the history re-executed over
   the base state with the added statement run before τ, or τ changed to
   it, or τ skipped. *)
let target_oracle eng base (target : Analyzer.target) =
  let e2 = Engine.of_catalog (Catalog.snapshot base) in
  let exec ?(nondet = []) ?app_txn stmt =
    try ignore (Engine.exec ~nondet ?app_txn e2 stmt)
    with Engine.Sql_error _ | Engine.Signal_raised _ -> ()
  in
  Log.iter (Engine.log eng) (fun entry ->
      let historical () =
        exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn entry.Log.stmt
      in
      if entry.Log.index <> target.Analyzer.tau then historical ()
      else
        match target.Analyzer.op with
        | Analyzer.Add s ->
            exec s;
            historical ()
        | Analyzer.Change s -> exec s
        | Analyzer.Remove -> ());
  e2

let test_workers_invariant (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let run_with config = Whatif.run_exn ~config ~analyzer eng target in
  let one = run_with (Whatif.Config.make ~workers:1 ()) in
  check (Alcotest.float 0.0)
    (w.W.name ^ ": one lane's makespan is the serial sum")
    one.Whatif.serial_cost_ms one.Whatif.simulated_parallel_ms;
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog eng)) in
  Whatif.commit merged one;
  check
    Alcotest.(list (pair string int64))
    (w.W.name ^ ": workers=1 universe == full-replay oracle")
    (oracle_hashes eng base ~skip:1)
    (table_hashes (Engine.catalog merged));
  let want_hash = one.Whatif.final_db_hash in
  let want_log = log_digest (Whatif.new_log one) in
  let want_auto = auto_digest (Whatif.new_log one) in
  List.iter
    (fun workers ->
      let out = run_with (Whatif.Config.make ~workers ()) in
      check Alcotest.bool
        (Printf.sprintf "%s: workers=%d ran the DAG's waves" w.W.name workers)
        true
        (out.Whatif.measured_parallel_ms <> None);
      check Alcotest.int64
        (Printf.sprintf "%s: workers=%d final hash == workers=1" w.W.name workers)
        want_hash out.Whatif.final_db_hash;
      check Alcotest.string
        (Printf.sprintf "%s: workers=%d new log == workers=1" w.W.name workers)
        want_log
        (log_digest (Whatif.new_log out));
      check Alcotest.string
        (Printf.sprintf "%s: workers=%d counters == workers=1" w.W.name workers)
        want_auto
        (auto_digest (Whatif.new_log out)))
    [ 1; 2; 4; 8 ]

(* [Whatif]'s replay items for [members] over [catalog] (its temporary
   universe after rollback): each carries its historical journal, whose
   insert rowids its inserts take, and a private rowid range for the
   rest. Also the base of those ranges, which the head of an added or
   changed statement takes. *)
let replay_items ~analyzer ~catalog log members =
  let stride = 1 lsl 20 in
  let r0 =
    let mx =
      List.fold_left
        (fun acc (_, st) -> max acc (Storage.next_rowid st))
        0 (Catalog.tables catalog)
    in
    ((mx / stride) + 1) * stride
  in
  let triggered =
    List.filter_map
      (fun (name, _) ->
        if
          List.exists
            (fun ev -> Catalog.triggers_for catalog name ev <> [])
            [ Uv_sql.Ast.Ev_insert; Uv_sql.Ast.Ev_update; Uv_sql.Ast.Ev_delete ]
        then Some name
        else None)
      (Catalog.tables catalog)
  in
  ( r0,
    List.map
      (fun i ->
        let e = Log.entry log i in
        {
          Wave_exec.idx = i;
          stmt = e.Log.stmt;
          sql = e.Log.sql;
          nondet = e.Log.nondet;
          app_txn = e.Log.app_txn;
          sim_time = 1_700_000_000 + i;
          rowid_base = r0 + (i * stride);
          structural =
            List.exists
              (fun t -> List.mem t triggered)
              (Analyzer.write_tables (Analyzer.info analyzer i).Analyzer.rw);
          journal = e.Log.undo;
        })
      members )

(* Both schedules over one replay set — the whole history, re-executed
   over its base state — each on a fresh copy of the base: commit order,
   then the DAG's waves on 1, 2, 4 and 8 lanes. Each must leave the
   tables the full-replay oracle leaves and log the same entries. *)
let test_schedules_agree (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let members = List.init (Log.length log) (fun k -> k + 1) in
  check Alcotest.bool (w.W.name ^ ": the waves can run every entry") false
    (List.exists (fun i -> Uv_sql.Ast.is_ddl (Log.entry log i).Log.stmt) members);
  let _, items = replay_items ~analyzer ~catalog:base log members in
  let replay schedule =
    let cat = Catalog.snapshot base in
    let res =
      Wave_exec.execute ~schedule ~rtt_ms:0.0 ~catalog:cat ~head:None ~items ()
    in
    let logged =
      String.concat ""
        (List.map
           (fun i ->
             match Hashtbl.find_opt res.Wave_exec.entries i with
             | Some e -> entry_line e ^ auto_line e
             | None -> Printf.sprintf "%d failed\n" i)
           members)
    in
    (res, table_hashes cat, logged)
  in
  let ordered, want_tables, want_log =
    replay (Wave_exec.Commit_order { stop_after = (fun _ _ -> false) })
  in
  check Alcotest.int (w.W.name ^ ": commit order runs no waves") 0
    ordered.Wave_exec.wave_count;
  check
    Alcotest.(list (pair string int64))
    (w.W.name ^ ": commit order == full-replay oracle")
    (oracle_hashes eng base ~skip:0) want_tables;
  let dag = Analyzer.replay_dag analyzer ~members in
  List.iter
    (fun workers ->
      let where = Printf.sprintf "%s: %d-lane waves" w.W.name workers in
      let res, tables, logged = replay (Wave_exec.Waves { dag = Lazy.from_val dag; workers }) in
      if res.Wave_exec.wave_count = 0 then Alcotest.fail (where ^ " ran no wave");
      check Alcotest.int (where ^ ": failed replays") ordered.Wave_exec.failed
        res.Wave_exec.failed;
      check
        Alcotest.(list (pair string int64))
        (where ^ ": tables == commit order") want_tables tables;
      check Alcotest.string (where ^ ": entries == commit order") want_log logged)
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
  let one =
    Whatif.run_exn ~config:(Whatif.Config.make ~workers:1 ()) ~analyzer e target
  in
  let par =
    Whatif.run_exn ~config:(Whatif.Config.make ~workers:4 ()) ~analyzer e target
  in
  check Alcotest.bool "wave executor ran" true
    (par.Whatif.measured_parallel_ms <> None);
  check Alcotest.int64 "trigger cascades produce the one-lane state"
    one.Whatif.final_db_hash par.Whatif.final_db_hash;
  check Alcotest.string "trigger cascades produce the one-lane log"
    (log_digest (Whatif.new_log one))
    (log_digest (Whatif.new_log par));
  (* the oracle value: removing UPDATE #1 leaves 7 trigger firings *)
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
  Whatif.commit merged par;
  match Engine.query_sql merged "SELECT n FROM audit WHERE id = 1" with
  | { Engine.rows = [ [| Uv_sql.Value.Int n |] ]; _ } ->
      check Alcotest.int "audit counter" 7 n
  | _ -> Alcotest.fail "audit row missing"

(* ------------------------------------------------------------------ *)
(* Commit order on histories the waves cannot run                       *)
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
    (List.mem 2 out.Whatif.replay.Analyzer.member_indexes);
  check Alcotest.bool "mid-history DDL selects commit order" true
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
(* Commit-order replay against goldens of the old serial loop           *)
(* ------------------------------------------------------------------ *)

(* Final hash and MD5 of [log_digest (new_log _)], recorded from the
   serial replay loop that replayed DDL members and the Hash-jumper
   before every what-if went through [Wave_exec]. Each question must
   reproduce them at every worker count. *)
let check_goldens ~label ~config ~analyzer e target (want_hash, want_log) =
  List.map
    (fun workers ->
      let out = Whatif.run_exn ~config:(config workers) ~analyzer e target in
      let where = Printf.sprintf "%s, workers=%d" label workers in
      check Alcotest.int64 (where ^ ": final hash") want_hash
        out.Whatif.final_db_hash;
      check Alcotest.string (where ^ ": new log digest") want_log
        (Digest.to_hex (Digest.string (log_digest (Whatif.new_log out))));
      check Alcotest.int (where ^ ": no waves in commit order") 0
        out.Whatif.exec_waves;
      out)
    [ 1; 2; 4; 8 ]

let ddl_member_history () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, n INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e)
    [
      "INSERT INTO t VALUES (1, 10)";
      "INSERT INTO t VALUES (2, 20)";
      "UPDATE t SET v = v + 1 WHERE id = 1";
      "ALTER TABLE t ADD COLUMN w INT";
      "UPDATE t SET w = v * 2 WHERE id = 1";
      "CREATE TRIGGER tr AFTER UPDATE ON t FOR EACH ROW BEGIN INSERT INTO \
       audit (n) VALUES (NEW.v); END";
      "UPDATE t SET v = v + 5 WHERE id = 1";
      "CREATE INDEX ix ON t (v)";
      "INSERT INTO t VALUES (3, 30, 0)";
      "TRUNCATE TABLE t";
      "INSERT INTO t VALUES (4, 40, 1)";
      "UPDATE t SET v = v * 3 WHERE id = 4";
      "INSERT INTO t VALUES (5, 50, 2)";
    ];
  (e, base)

let test_ddl_members_golden () =
  let e, base = ddl_member_history () in
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  List.iter
    (fun (label, mode, target, golden) ->
      let outs =
        check_goldens ~label
          ~config:(fun workers -> Whatif.Config.make ~mode ~workers ())
          ~analyzer e target golden
      in
      let out = List.hd outs in
      check Alcotest.bool (label ^ ": DDL joined the replay set") true
        (List.exists
           (fun i -> Uv_sql.Ast.is_ddl (Log.entry (Engine.log e) i).Log.stmt)
           out.Whatif.replay.Analyzer.member_indexes))
    [
      ( "remove #1, row-only", Analyzer.Row_only,
        { Analyzer.tau = 1; op = Analyzer.Remove },
        (828389214224976993L, "8aeb700aac3a26b10b550b8abafb5052") );
      ( "remove #1, cell", Analyzer.Cell,
        { Analyzer.tau = 1; op = Analyzer.Remove },
        (828389214224976993L, "8aeb700aac3a26b10b550b8abafb5052") );
      ( "change #4's DDL", Analyzer.Cell,
        {
          Analyzer.tau = 4;
          op =
            Analyzer.Change
              (Uv_sql.Parser.parse_stmt
                 "ALTER TABLE t ADD COLUMN w INT DEFAULT 7");
        },
        (575316172678585951L, "75b5c9847133c901c16095aa05d68c6f") );
    ]

let hash_jumper_history () =
  let e = Engine.create () in
  run e "CREATE TABLE m (uid INT PRIMARY KEY, level VARCHAR(8))";
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e)
    [
      "INSERT INTO m VALUES (1, 'gold')";
      "INSERT INTO t VALUES (1, 10)";
      "INSERT INTO m VALUES (2, 'gold')";
      "UPDATE m SET level = 'diamond' WHERE uid = 1";
      "UPDATE t SET v = v + 1 WHERE id = 1";
      "UPDATE m SET level = 'silver' WHERE uid = 1";
      "UPDATE t SET v = v * 2 WHERE id = 1";
      "UPDATE m SET level = 'gold' WHERE uid = 1";
    ];
  (e, base)

let test_hash_jumper_golden () =
  let e, base = hash_jumper_history () in
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let change tau sql =
    { Analyzer.tau; op = Analyzer.Change (Uv_sql.Parser.parse_stmt sql) }
  in
  List.iter
    (fun (label, target, want_jump, want_replayed, golden) ->
      let outs =
        check_goldens ~label
          ~config:(fun workers ->
            Whatif.Config.make ~hash_jumper:true ~workers ())
          ~analyzer e target golden
      in
      List.iter
        (fun out ->
          check Alcotest.(option int) (label ^ ": hash-jump index") want_jump
            out.Whatif.hash_jump_at;
          check Alcotest.int (label ^ ": members replayed") want_replayed
            out.Whatif.replayed)
        outs)
    [
      (* the overwrite at #4 converges: #6 and #8 are never replayed *)
      ( "hit", change 1 "INSERT INTO m VALUES (1, 'bronze')", Some 4, 1,
        (1432839337826228394L, "c00a954365a26ea4c121256ab11015b6") );
      (* every later increment differs: no hit *)
      ( "miss", change 2 "INSERT INTO t VALUES (1, 100)", None, 2,
        (1543857700070610874L, "fbe6cfd9afff5145e0e8445acf21c8f9") );
    ]

(* One injected statement fault is retried and leaves the outcome as it
   was; a second injection on the same statement aborts the run with a
   typed fault, on every schedule. *)
let test_retry_then_abort () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "INSERT INTO t VALUES (1, 10)";
  for i = 1 to 8 do
    run e (Printf.sprintf "UPDATE t SET v = v + %d WHERE id = 1" i)
  done;
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let clean =
    Whatif.run_exn ~config:(Whatif.Config.make ~workers:1 ()) ~analyzer e target
  in
  (* the engine probes a statement under its logical clock, one past the
     [sim_time] replay installs for entry #5 *)
  let fault hits =
    Uv_fault.Fault.script
      (List.map
         (fun hit ->
           {
             Uv_fault.Fault.site = Uv_fault.Fault.Site.engine_exec;
             key = 1_700_000_000 + 5 + 1;
             hit;
             kind = Uv_fault.Fault.Stmt_fail;
             arg = 0.0;
           })
         hits)
  in
  List.iter
    (fun workers ->
      let where = Printf.sprintf "workers=%d" workers in
      let config hits = Whatif.Config.make ~workers ~fault:(fault hits) () in
      (match Whatif.run ~config:(config [ 1 ]) ~analyzer e target with
      | Error err -> Alcotest.fail (where ^ ": " ^ Whatif.Error.to_string err)
      | Ok out ->
          check Alcotest.int (where ^ ": one retry") 1 out.Whatif.retries;
          check Alcotest.int64 (where ^ ": hash after a retry")
            clean.Whatif.final_db_hash out.Whatif.final_db_hash;
          check Alcotest.string (where ^ ": log after a retry")
            (log_digest (Whatif.new_log clean))
            (log_digest (Whatif.new_log out)));
      match Whatif.run_exn ~config:(config [ 1; 2 ]) ~analyzer e target with
      | _ -> Alcotest.fail (where ^ ": a second injection must abort")
      | exception Whatif.Abort err ->
          check Alcotest.string (where ^ ": abort code") "fault"
            (Whatif.Error.code_name err.Whatif.Error.code);
          check Alcotest.string (where ^ ": abort phase") "replay"
            err.Whatif.Error.phase)
    [ 1; 2; 4; 8 ]

(* The commit-order hooks: [check] runs before every item and stops the
   replay with whatever it raises; [stop_after] ends it after an item. *)
let test_commit_order_hooks () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let items =
    List.init 5 (fun k ->
        let stmt =
          Uv_sql.Parser.parse_stmt
            (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k)
        in
        {
          Wave_exec.idx = k + 1;
          stmt;
          sql = Uv_sql.Printer.stmt_compact stmt;
          nondet = [];
          app_txn = None;
          sim_time = 1_700_000_000 + k + 1;
          rowid_base = (k + 1) lsl 20;
          structural = false;
          journal = [];
        })
  in
  let rows cat = Storage.row_count (Option.get (Catalog.table cat "t")) in
  let cat = Catalog.snapshot (Engine.catalog e) in
  let checked = ref 0 in
  let stop_at_four () = if !checked = 3 then raise Exit else incr checked in
  (match
     Wave_exec.execute ~check:stop_at_four
       ~schedule:(Wave_exec.Commit_order { stop_after = (fun _ _ -> false) })
       ~rtt_ms:0.0 ~catalog:cat ~head:None ~items ()
   with
  | _ -> Alcotest.fail "check raised, the replay must stop"
  | exception Exit ->
      check Alcotest.int "items before the check raised" 3 (rows cat));
  let cat = Catalog.snapshot (Engine.catalog e) in
  let seen = ref [] in
  let res =
    Wave_exec.execute
      ~schedule:
        (Wave_exec.Commit_order
           {
             stop_after =
               (fun pos it ->
                 seen := (pos, it.Wave_exec.idx) :: !seen;
                 pos = 1);
           })
      ~rtt_ms:0.0 ~catalog:cat ~head:None ~items ()
  in
  check Alcotest.(list (pair int int)) "hook after each item, in order"
    [ (0, 1); (1, 2) ] (List.rev !seen);
  check Alcotest.int "items run" 2 (Hashtbl.length res.Wave_exec.durations);
  check Alcotest.int "rows" 2 (rows cat);
  check Alcotest.int "no waves" 0 res.Wave_exec.wave_count

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

(* The list scheduler [Conflict_dag] replaced: a DFS topological order
   over dependency lists, then the same greedy lanes. Makespans must stay
   bit-identical for the same edges. *)
let reference_makespan ~n ~edges ~weights ~workers =
  let deps = Array.make n [] in
  List.iter (fun (l, e) -> deps.(l) <- e :: deps.(l)) edges;
  let deps = Array.map (List.sort_uniq compare) deps in
  let state = Array.make n 0 and order = ref [] in
  let rec visit i =
    if state.(i) = 0 then begin
      state.(i) <- 1;
      List.iter visit deps.(i);
      state.(i) <- 2;
      order := i :: !order
    end
  in
  for i = 0 to n - 1 do
    visit i
  done;
  let order = List.rev !order in
  let finish = Array.make n 0.0 in
  List.iter
    (fun i ->
      let ready = List.fold_left (fun acc d -> Float.max acc finish.(d)) 0.0 deps.(i) in
      finish.(i) <- ready +. weights.(i))
    order;
  if workers >= n then Array.fold_left Float.max 0.0 finish
  else begin
    let lanes = Array.make (max workers 1) 0.0 in
    let sched = Array.make n 0.0 in
    List.iter
      (fun i ->
        let ready = List.fold_left (fun acc d -> Float.max acc sched.(d)) 0.0 deps.(i) in
        let best = ref 0 in
        for l = 1 to Array.length lanes - 1 do
          if lanes.(l) < lanes.(!best) then best := l
        done;
        let fin = Float.max ready lanes.(!best) +. weights.(i) in
        lanes.(!best) <- fin;
        sched.(i) <- fin)
      order;
    Array.fold_left Float.max 0.0 lanes
  end

let test_makespan_parity () =
  let prng = Uv_util.Prng.create 99 in
  for _ = 1 to 200 do
    let n = 1 + Uv_util.Prng.int prng 30 in
    let edges =
      List.concat
        (List.init n (fun l ->
             List.init (Uv_util.Prng.int prng 4) (fun _ ->
                 if l = 0 then None else Some (l, Uv_util.Prng.int prng l))
             |> List.filter_map Fun.id))
    in
    let weights =
      Array.init n (fun _ -> 0.1 +. float_of_int (Uv_util.Prng.int prng 1000) /. 7.0)
    in
    let dag = Conflict_dag.build ~nodes:(List.init n Fun.id) ~edges in
    List.iter
      (fun workers ->
        let want = reference_makespan ~n ~edges ~weights ~workers in
        let got = Conflict_dag.makespan dag ~weight:(fun i -> weights.(i)) ~workers in
        if not (Float.equal want got) then
          Alcotest.failf "n=%d workers=%d: makespan %h, reference %h" n workers
            got want)
      [ 1; 2; 3; 8; max_int ];
    (* one lane: the commit-order sum the what-if cost model takes
       instead of building the DAG *)
    let sum = Array.fold_left ( +. ) 0.0 weights in
    let one = Conflict_dag.makespan dag ~weight:(fun i -> weights.(i)) ~workers:1 in
    if not (Float.equal sum one) then
      Alcotest.failf "n=%d: one-lane makespan %h, commit-order sum %h" n one sum
  done

(* ------------------------------------------------------------------ *)
(* Replay DAG == the string-keyed edge builders it replaced             *)
(* ------------------------------------------------------------------ *)

let test_replay_dag_workload (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let anl = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let n = Analyzer.length anl in
  let prng = Uv_util.Prng.create 1616 in
  for k = 1 to 6 do
    (* early targets for wide replay sets, then anywhere *)
    let tau = 1 + Uv_util.Prng.int prng (if k <= 3 then max 1 (n / 8) else n) in
    let target = { Analyzer.tau; op = Analyzer.Remove } in
    List.iter
      (fun (name, rs) ->
        Dag_reference.check
          ~label:(Printf.sprintf "%s tau=%d %s" w.W.name tau name)
          anl rs.Analyzer.member_indexes)
      [
        ("cell", Analyzer.replay_set ~mode:Analyzer.Cell anl target);
        ("grouped cell", Analyzer.replay_set ~mode:Analyzer.Cell ~grouped:true anl target);
      ]
  done;
  (* the whole history, read-only entries included *)
  Dag_reference.check ~label:(w.W.name ^ " every entry") anl (List.init n (fun i -> i + 1))

(* Every rule on purpose. Table [t] keys rows by [id]; values 2 and 9
   alias once #132 rewrites 2 to 9, so #129 reads and writes row 2 twice
   over, after the 128 readers #1-#128 of (t.v, 2); #133-#272 read row 2
   again and #273 writes it after all 140 of them. The rest: two writers
   of disjoint columns of one row (#130, #131: the write-write rule
   alone orders them), a wildcard write and read, and a schema change
   with a later reader of the schema key. *)
let hand_built_dag_history () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
  List.iter
    (fun id -> run e (Printf.sprintf "INSERT INTO t VALUES (%d, 0, 0)" id))
    [ 2; 3; 4 ];
  let base = Engine.snapshot e in
  Engine.reset_log e;
  let readers k =
    for _ = 1 to k do
      run e "SELECT v FROM t WHERE id = 2"
    done
  in
  readers 128;
  run e "UPDATE t SET v = v + 1 WHERE id IN (2, 9)";
  run e "UPDATE t SET v = 7 WHERE id = 3";
  run e "UPDATE t SET w = 8 WHERE id = 3";
  run e "UPDATE t SET id = 9 WHERE id = 2";
  readers 140;
  List.iter (run e)
    [
      "UPDATE t SET v = 0 WHERE id = 2";
      "UPDATE t SET w = 5";
      "SELECT SUM(v) FROM t";
      "UPDATE t SET w = 6 WHERE id = 4";
      "ALTER TABLE t ADD COLUMN x INT";
      "UPDATE t SET x = 1 WHERE id = 3";
      "SELECT x FROM t WHERE id = 4";
    ];
  let config = { Rowset.ri_columns = [ ("t", [ "id" ]) ]; ri_aliases = [] } in
  Analyzer.analyze ~config ~base (Engine.log e)

let test_replay_dag_hand_built () =
  let anl = hand_built_dag_history () in
  let n = Analyzer.length anl in
  check Alcotest.int "history length" 279 n;
  let canon v = Analyzer.canonical_row_value anl ~table:"t" (Uv_sql.Value.Int v) in
  check Alcotest.string "2 and 9 alias" (canon 2) (canon 9);
  let all = List.init n (fun i -> i + 1) in
  let reader i = Rwset.Colset.is_empty (Analyzer.info anl i).Analyzer.rw.Rwset.w in
  let writers = List.filter (fun i -> not (reader i)) all in
  Dag_reference.check ~label:"hand-built, every entry" anl all;
  Dag_reference.check ~label:"hand-built, writers only" anl writers;
  (* the cases above really arise *)
  let edges = Conflict_dag.edges (Analyzer.replay_dag anl ~members:all) in
  let preds i = List.filter_map (fun (l, e) -> if l = i then Some e else None) edges in
  check Alcotest.bool "disjoint columns of one row ordered" true
    (List.mem (131, 130) edges);
  check Alcotest.(list int) "#273 after the 140 readers since the last write"
    (List.init 140 (fun k -> 133 + k))
    (List.filter reader (preds 273));
  check Alcotest.(list (pair int int)) "no reader ordered after a reader" []
    (List.filter (fun (l, e) -> reader l && reader e) edges)

(* ------------------------------------------------------------------ *)
(* Engine-reported hash deltas == the journal-derived reference          *)
(* ------------------------------------------------------------------ *)

(* The reference the wave executor used before the engine reported
   deltas: re-serialize the row images of one statement's journal on
   one table and fold their digests. *)
let serialize_row name row =
  let buf = Buffer.create 64 in
  Buffer.add_string buf name;
  Array.iter
    (fun v ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (Uv_sql.Value.serialize v))
    row;
  Buffer.contents buf

let delta_of table undo =
  let th = Uv_util.Table_hash.create () in
  List.iter
    (function
      | Log.U_row_update (t, _, before, after) when String.equal t table ->
          Uv_util.Table_hash.remove_row th (serialize_row t before);
          Uv_util.Table_hash.add_row th (serialize_row t after)
      | Log.U_row_delete (t, _, row) when String.equal t table ->
          Uv_util.Table_hash.remove_row th (serialize_row t row)
      | Log.U_row_insert (t, _, image) when String.equal t table ->
          Uv_util.Table_hash.add_row th (serialize_row t image)
      | _ -> ())
    (List.rev undo);
  Uv_util.Table_hash.value th

type delta_coverage = {
  mutable stmts : int;
  mutable upd_del : int;  (* statements that updated or deleted a row *)
  mutable multi_row : int;  (* UPDATE/DELETE statements writing > 1 row *)
  mutable multi_table : int;
}

let no_coverage () = { stmts = 0; upd_del = 0; multi_row = 0; multi_table = 0 }

(* Re-execute every entry of [log] in commit order over a copy of [base],
   the way [Wave_exec] runs a replayed statement: a fresh engine over the
   shared catalog, the recorded draws, the historical insert rowids, a
   private rowid range and the logged text. Each statement's
   reported deltas must name exactly the tables of its [written_hashes],
   equal the journal reference, and equal the change of each table's
   hash across the statement. *)
let check_engine_deltas ~label cov base log =
  let cat = Catalog.snapshot base in
  let stride = 1 lsl 20 in
  Log.iter log (fun e ->
      let i = e.Log.index in
      let before name =
        Option.map Storage.hash (Catalog.table cat name)
        |> Option.value ~default:0L
      in
      let names_before =
        List.map (fun (n, _) -> (n, before n)) (Catalog.tables cat)
      in
      let eng = Engine.of_catalog ~seed:i cat in
      Engine.set_sim_time eng (1_700_000_000 + i);
      match
        Engine.exec ?app_txn:e.Log.app_txn ~nondet:e.Log.nondet
          ~rowid_base:((i + 1) * stride) ~history:e.Log.undo ~sql:e.Log.sql eng
          e.Log.stmt
      with
      | exception (Engine.Sql_error _ | Engine.Signal_raised _) -> ()
      | r ->
          let got = Log.entry (Engine.log eng) 1 in
          let where = Printf.sprintf "%s #%d %s" label i e.Log.sql in
          cov.stmts <- cov.stmts + 1;
          if
            List.exists
              (function Log.U_row_update _ | Log.U_row_delete _ -> true | _ -> false)
              got.Log.undo
          then cov.upd_del <- cov.upd_del + 1;
          (match e.Log.stmt with
          | (Uv_sql.Ast.Update _ | Uv_sql.Ast.Delete _)
            when r.Engine.rows_written > 1 ->
              cov.multi_row <- cov.multi_row + 1
          | _ -> ());
          if List.length r.Engine.hash_deltas > 1 then
            cov.multi_table <- cov.multi_table + 1;
          check
            Alcotest.(list string)
            (where ^ ": delta tables")
            (List.map fst got.Log.written_hashes)
            (List.map fst r.Engine.hash_deltas);
          List.iter
            (fun (n, d) ->
              check Alcotest.int64 (where ^ ": delta of " ^ n)
                (delta_of n got.Log.undo) d;
              let h0 = Option.value (List.assoc_opt n names_before) ~default:0L in
              check Alcotest.int64 (where ^ ": hash change of " ^ n)
                (Uv_util.Table_hash.sub_mod (before n) h0) d)
            r.Engine.hash_deltas)

let test_engine_deltas_workload (w : W.t) () =
  let cov = no_coverage () in
  List.iter
    (fun (mname, mode) ->
      let eng, rt = W.setup ~mode w in
      let base = Engine.snapshot eng in
      let prng = Uv_util.Prng.create 4242 in
      let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:60 ~dep_rate:0.3 in
      ignore (W.run_history rt ~mode calls);
      check_engine_deltas ~label:(w.W.name ^ " " ^ mname) cov base (Engine.log eng))
    [ ("raw", R.Raw); ("transpiled", R.Transpiled) ];
  check Alcotest.bool (w.W.name ^ ": statements replayed") true (cov.stmts > 60);
  (* the interpreter is the only path for these; the multi-row batches
     are covered by the hand-built case, since most of these histories
     hold no UPDATE/DELETE that writes more than one row *)
  check Alcotest.bool (w.W.name ^ ": UPDATE/DELETE replayed") true
    (cov.upd_del > 0)

(* Trigger-firing statements (deltas on the cascaded table), batched
   multi-row updates and deletes and pinned-rowid inserts. *)
let test_engine_deltas_hand_built () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT, note TEXT)";
  run e "CREATE TABLE audit (id INT PRIMARY KEY, n INT)";
  run e
    "CREATE TRIGGER taud AFTER UPDATE ON acct FOR EACH ROW BEGIN UPDATE \
     audit SET n = n + 1 WHERE id = 1; END";
  run e "CREATE TABLE plain (id INT PRIMARY KEY, v INT, f FLOAT)";
  run e "INSERT INTO audit VALUES (1, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  for i = 1 to 6 do
    run e (Printf.sprintf "INSERT INTO acct VALUES (%d, %d, 'n%d')" i (100 * i) i);
    run e (Printf.sprintf "INSERT INTO plain VALUES (%d, %d, %d.5)" i (-i) i)
  done;
  List.iter (run e)
    [
      "UPDATE acct SET bal = bal + 1 WHERE id <= 3";
      "UPDATE plain SET v = v * 2 WHERE id > 2";
      "UPDATE plain SET f = -0.0 WHERE id = 1";
      "DELETE FROM plain WHERE id >= 5";
      "DELETE FROM acct WHERE id = 6";
      "UPDATE plain SET v = 0 WHERE id = 99";
      "INSERT INTO plain VALUES (7, 7, NULL)";
    ];
  let cov = no_coverage () in
  check_engine_deltas ~label:"hand-built" cov base (Engine.log e);
  check Alcotest.int "every statement replayed" 19 cov.stmts;
  check Alcotest.bool "trigger cascades" true (cov.multi_table > 0);
  check Alcotest.bool "multi-row batches" true (cov.multi_row > 0)

(* ------------------------------------------------------------------ *)
(* Replay reuses the logged text: it must be the statement's rendering  *)
(* ------------------------------------------------------------------ *)

(* Replayed entries log the [sql] of the entry they re-execute instead of
   rendering the statement again; that is bitwise-identical only because
   every logged entry satisfies [stmt_compact stmt = sql], in memory and
   after a Log_store round trip (which re-parses [stmt] from [sql]). *)
let test_logged_sql_is_rendering (w : W.t) () =
  List.iter
    (fun (mname, mode) ->
      let eng, rt = W.setup ~mode w in
      let prng = Uv_util.Prng.create 4242 in
      let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:60 ~dep_rate:0.3 in
      ignore (W.run_history rt ~mode calls);
      let log = Engine.log eng in
      let label = w.W.name ^ " " ^ mname in
      let check_entry where (e : Log.entry) =
        check Alcotest.string
          (Printf.sprintf "%s %s #%d" label where e.Log.index)
          e.Log.sql
          (Uv_sql.Printer.stmt_compact e.Log.stmt)
      in
      Log.iter log (check_entry "in memory");
      let path = Filename.temp_file "uv_sql_reuse" ".ulog" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Log_store.save_log_file log ~path;
          let records = Log_store.load_log_file ~path in
          check Alcotest.int (label ^ ": records") (Log.length log)
            (List.length records);
          let memo = Uv_sql.Stmt_memo.create () in
          List.iteri
            (fun k r ->
              check_entry "after a round trip"
                (Log_store.entry_of_record ~memo ~index:(k + 1) r))
            records))
    [ ("raw", R.Raw); ("transpiled", R.Transpiled) ]

(* ------------------------------------------------------------------ *)
(* Member redo: redone members == executed members                      *)
(* ------------------------------------------------------------------ *)

let image img =
  String.concat "," (Array.to_list (Array.map Uv_sql.Value.serialize img))

let undo_line = function
  | Log.U_row_insert (t, r, img) -> Printf.sprintf "+%s@%d(%s)" t r (image img)
  | Log.U_row_delete (t, r, img) -> Printf.sprintf "-%s@%d(%s)" t r (image img)
  | Log.U_row_update (t, r, b, a) ->
      Printf.sprintf "~%s@%d(%s)->(%s)" t r (image b) (image a)
  | Log.U_auto_value (t, v) -> Printf.sprintf "auto %s=%d" t v
  | _ -> "ddl"

(* Every table's rows with their rowids, and the rowid and
   AUTO_INCREMENT counters its next insert draws from: what a universe
   leaves to the next statement beyond its table hashes. *)
let table_layout cat =
  String.concat ""
    (List.map
       (fun (n, st) ->
         Printf.sprintf "%s next_rowid=%d auto=%d\n%s" n (Storage.next_rowid st)
           (Storage.next_auto_value st)
           (String.concat ""
              (List.map
                 (fun (r, img) -> Printf.sprintf "  %d: %s\n" r (image img))
                 (Storage.to_rows st))))
       (Catalog.tables cat))

let rowids cat name =
  List.map fst (Storage.to_rows (Option.get (Catalog.table cat name)))

(* An entry down to its journal's rowids, images and AUTO_INCREMENT
   counters, its index aside (the merged history renumbers). *)
let redo_line (e : Log.entry) =
  let line = entry_line { e with Log.index = 0 } in
  String.sub line 0 (String.length line - 1)
  ^ " | "
  ^ String.concat "; " (List.map undo_line e.Log.undo)
  ^ "\n"

(* The question [out] answered, replayed again with every member
   executed: [Whatif]'s rollback, items and schedule, no redo. The
   tables it leaves and the merged history [Whatif.new_log] would build
   from its entries. *)
let execute_all eng analyzer (out : Whatif.outcome) (target : Analyzer.target)
    ~workers =
  let log = Engine.log eng in
  let rs = out.Whatif.replay in
  let members = rs.Analyzer.member_indexes in
  let cat =
    Catalog.snapshot_tables (Engine.catalog eng)
      (List.sort_uniq compare (rs.Analyzer.mutated @ rs.Analyzer.consulted))
  in
  let undone =
    match target.Analyzer.op with
    | Analyzer.Add _ -> members
    | Analyzer.Remove | Analyzer.Change _ -> target.Analyzer.tau :: members
  in
  ignore
    (Log.undo_entries cat
       (List.map
          (fun i -> (Log.entry log i).Log.undo)
          (List.rev (List.sort_uniq compare undone)))
      : Log.undo_stats);
  let r0, items = replay_items ~analyzer ~catalog:cat log members in
  let head =
    match target.Analyzer.op with
    | Analyzer.Add s | Analyzer.Change s ->
        Some
          {
            Wave_exec.idx = 0;
            stmt = s;
            sql = Uv_sql.Printer.stmt_compact s;
            nondet = [];
            app_txn = None;
            sim_time = 1_700_000_000 + target.Analyzer.tau;
            rowid_base = r0;
            structural = true;
            journal =
              (match target.Analyzer.op with
              | Analyzer.Change _ -> (Log.entry log target.Analyzer.tau).Log.undo
              | _ -> []);
          }
    | Analyzer.Remove -> None
  in
  let dag = Analyzer.replay_dag ~merges:rs.Analyzer.target_merges analyzer ~members in
  let res =
    Wave_exec.execute
      ~schedule:(Wave_exec.Waves { dag = Lazy.from_val dag; workers })
      ~rtt_ms:0.0 ~catalog:cat ~head ~items ()
  in
  let buf = Buffer.create 4096 in
  let push e = Buffer.add_string buf (redo_line e) in
  let replayed i = Hashtbl.find_opt res.Wave_exec.entries i in
  for i = 1 to Log.length log do
    if i = target.Analyzer.tau then begin
      (match target.Analyzer.op with
      | Analyzer.Add _ | Analyzer.Change _ -> Option.iter push (replayed 0)
      | Analyzer.Remove -> ());
      match target.Analyzer.op with
      | Analyzer.Add _ -> push (Log.entry log i)
      | _ -> ()
    end
    else if List.mem i members then Option.iter push (replayed i)
    else push (Log.entry log i)
  done;
  (table_hashes cat, table_layout cat, Catalog.db_hash cat, Buffer.contents buf)

(* Ask [target] at each worker count; the redo path must leave the
   tables (their rows at their rowids, and their next rowid and
   AUTO_INCREMENT value), the final hash and every member's entry
   (journal rowids, images and counters, restamped hashes) that
   executing every member leaves, and the merged history must be the
   same at every worker count. Returns the outcomes. *)
let check_redo ?mode ?hash_jumper ~label eng analyzer target workers =
  let first = ref None in
  List.map
    (fun workers ->
      let where = Printf.sprintf "%s, workers=%d" label workers in
      let out =
        Whatif.run_exn
          ~config:(Whatif.Config.make ?mode ?hash_jumper ~workers ())
          ~analyzer eng target
      in
      let tables, layout, db_hash, merged =
        execute_all eng analyzer out target ~workers
      in
      check
        Alcotest.(list (pair string int64))
        (where ^ ": tables") tables
        (table_hashes out.Whatif.temp_catalog);
      check Alcotest.string (where ^ ": rowids and counters") layout
        (table_layout out.Whatif.temp_catalog);
      check Alcotest.int64 (where ^ ": final hash") db_hash
        out.Whatif.final_db_hash;
      let got = Buffer.create 4096 in
      Log.iter (Whatif.new_log out) (fun e ->
          Buffer.add_string got (redo_line e));
      check Alcotest.string (where ^ ": entries") merged (Buffer.contents got);
      (match !first with
      | None -> first := Some merged
      | Some want ->
          check Alcotest.string (where ^ ": entries == first worker count")
            want merged);
      out)
    workers

(* A history over [setup] (the base state) for the hand-built cases. *)
let redo_history ?config setup history =
  let e = Engine.create () in
  List.iter (run e) setup;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e) history;
  (e, Analyzer.analyze ?config ~base (Engine.log e))

let remove tau = { Analyzer.tau; op = Analyzer.Remove }

let stop_at = Alcotest.(option (pair int int))

let query_ints out sql =
  List.map
    (fun row -> Array.to_list (Array.map Uv_sql.Value.to_int row))
    (match Uv_sql.Parser.parse_stmt sql with
    | Uv_sql.Ast.Select sel -> Whatif.query_new_universe out sel
    | _ -> invalid_arg "query_ints: not a SELECT")
      .Engine.rows

(* (a) The removed UPDATE and member #2 write the same value: history
   journalled #2's [bit_1] as unchanged, yet redone over τ's undone cell
   it must write it. *)
let test_redo_blind_write () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE subscriber (s_id INT PRIMARY KEY, bit_1 INT)";
        "INSERT INTO subscriber VALUES (64, 0)";
      ]
      [
        "UPDATE subscriber SET bit_1 = 1 WHERE s_id = 64";
        "UPDATE subscriber SET bit_1 = 1 WHERE s_id = 64";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.int "the blind write is redone" 1 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "bit_1 as #2 left it" [ [ 1 ] ]
        (query_ints out "SELECT bit_1 FROM subscriber WHERE s_id = 64"))
    (check_redo ~label:"blind write" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (b) Without τ, executed #2 leaves row 1's email at 'a', so #3's INSERT
   of 'a' — fine in history — now breaks UNIQUE. #3 reads no changed
   cell; only the UNIQUE guard sends it to execution, where it fails. All
   rows share one first RI dimension ([grp]). *)
let test_redo_unique_guard () =
  let e, analyzer =
    redo_history
      ~config:
        { Rowset.default_config with Rowset.ri_columns = [ ("acct", [ "grp" ]) ] }
      [
        "CREATE TABLE acct (id INT PRIMARY KEY, grp INT, email VARCHAR(8) \
         UNIQUE, n INT)";
        "INSERT INTO acct VALUES (1, 1, 'a', 0)";
      ]
      [
        "UPDATE acct SET n = 5 WHERE grp = 1 AND id = 1";
        "UPDATE acct SET email = 'z' WHERE grp = 1 AND n = 5";
        "INSERT INTO acct VALUES (2, 1, 'a', 0)";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "nothing redone" 0 out.Whatif.redone;
      check Alcotest.int "the duplicate insert fails" 1
        out.Whatif.failed_replays)
    (check_redo ~label:"UNIQUE guard" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (b') The same UNIQUE clash across row keys: #2 and #3 touch rows of
   different first RI dimensions, so they share no cell. But #3's
   constraint check reads [email] at every row, a guard #2 writes, so
   the replay DAG orders #3 after #2 on every number of lanes: #3 is
   decided once #2 is settled, its check meets the row #2 left dirty,
   and it executes and fails as it does after #2 in commit order. *)
let test_redo_unique_in_wave () =
  let e, analyzer =
    redo_history
      ~config:
        { Rowset.default_config with Rowset.ri_columns = [ ("acct", [ "grp" ]) ] }
      [
        "CREATE TABLE acct (id INT PRIMARY KEY, grp INT, email VARCHAR(8) \
         UNIQUE, n INT)";
        "INSERT INTO acct VALUES (1, 1, 'a', 0)";
        "INSERT INTO acct VALUES (3, 2, 'c', 0)";
      ]
      [
        "UPDATE acct SET n = 5 WHERE id IN (1, 3)";
        "UPDATE acct SET email = 'z' WHERE grp = 1 AND n = 5";
        "INSERT INTO acct VALUES (2, 2, 'a', 0)";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "two waves" 2 out.Whatif.exec_waves;
      check Alcotest.int "nothing redone" 0 out.Whatif.redone;
      check Alcotest.int "the duplicate insert fails" 1
        out.Whatif.failed_replays)
    (check_redo ~label:"UNIQUE across keys" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (c) τ inserts the parent row a child INSERT references: the FOREIGN
   KEY's parent column is one of the child's read cells, so the child
   executes. The rows of different tables never overlap, so only the
   column-wise closure makes the child a member. *)
let test_redo_fk_parent () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE parent (id INT PRIMARY KEY, name VARCHAR(8))";
        "CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES \
         parent(id))";
      ]
      [ "INSERT INTO parent VALUES (7, 'p')"; "INSERT INTO child VALUES (1, 7)" ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "the child executes" 0 out.Whatif.redone)
    (check_redo ~mode:Analyzer.Col_only ~label:"FK parent" e analyzer (remove 1)
       [ 1; 2; 4; 8 ])

(* (d) An UPDATE without WHERE visits every row: after τ changed one
   row's [x], the increment reads [x] at every key and executes; after
   τ deleted a row, the blind rewrite must reach the row undoing τ
   brings back. *)
let test_redo_wildcard () =
  let setup =
    [
      "CREATE TABLE t (id INT PRIMARY KEY, x INT)";
      "INSERT INTO t VALUES (1, 0)";
      "INSERT INTO t VALUES (2, 0)";
      "INSERT INTO t VALUES (3, 0)";
    ]
  in
  let e, analyzer =
    redo_history setup
      [ "UPDATE t SET x = 5 WHERE id = 1"; "UPDATE t SET x = x + 1" ]
  in
  List.iter
    (fun out ->
      check Alcotest.int "the increment executes" 0 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "every row incremented from 0" [ [ 1 ]; [ 1 ]; [ 1 ] ]
        (query_ints out "SELECT x FROM t"))
    (check_redo ~label:"wildcard read" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  let e, analyzer =
    redo_history setup [ "DELETE FROM t WHERE id = 3"; "UPDATE t SET x = 7" ]
  in
  List.iter
    (fun out ->
      check Alcotest.int "the blind rewrite executes" 0 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "the restored row rewritten too" [ [ 7 ]; [ 7 ]; [ 7 ] ]
        (query_ints out "SELECT x FROM t"))
    (check_redo ~label:"wildcard write" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (e) Executed members insert rows 2 and 3 at their historical rowids;
   the members that later update row 2 and delete row 3 read no changed
   cell, are redone, and find those rows at the rowids their journals
   name. Every row keeps the rowid history gave it. *)
let test_redo_historical_rowids () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
        "INSERT INTO t VALUES (1, 0, 0)";
      ]
      [
        "UPDATE t SET v = 9 WHERE id = 1";
        "INSERT INTO t VALUES (2, (SELECT v FROM t WHERE id = 1), 0)";
        "INSERT INTO t VALUES (3, (SELECT v FROM t WHERE id = 1), 0)";
        "UPDATE t SET w = 1 WHERE id = 2";
        "DELETE FROM t WHERE id = 3";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3; 4; 5 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "the update and the delete are redone" 2
        out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 0; 0 ]; [ 2; 0; 1 ] ]
        (query_ints out "SELECT id, v, w FROM t");
      check
        Alcotest.(list int)
        "history's rowids" (rowids (Engine.catalog e) "t")
        (rowids out.Whatif.temp_catalog "t"))
    (check_redo ~label:"historical rowids" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (l) With τ's delete removed, member #2 selects three rows where
   history selected two: its first two inserts take #2's historical
   rowids, the third lands in #2's private range. No stop follows a
   row at a private rowid. *)
let test_redo_extra_insert () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
        "CREATE TABLE s (id INT PRIMARY KEY, v INT)";
        "INSERT INTO t VALUES (1, 0)";
        "INSERT INTO t VALUES (2, 0)";
        "INSERT INTO t VALUES (3, 5)";
      ]
      [
        "DELETE FROM t WHERE id = 2";
        "INSERT INTO s SELECT id, v FROM t";
        "UPDATE s SET v = 7 WHERE id = 1";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "no stop" None out.Whatif.stop_at;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 7 ]; [ 2; 0 ]; [ 3; 5 ] ]
        (query_ints out "SELECT id, v FROM s");
      match rowids out.Whatif.temp_catalog "s" with
      | [ a; b; c ] ->
          check
            Alcotest.(list int)
            "#2's historical rowids" (rowids (Engine.catalog e) "s") [ a; b ];
          check Alcotest.bool "the third in the private range" true
            (c >= 1 lsl 20)
      | l -> Alcotest.failf "three rows expected, got %d" (List.length l))
    (check_redo ~label:"extra insert" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (m) A changed INSERT takes τ's rowid. Changed to a statement that
   inserts τ's row, it leaves nothing dirty, and the replay stops before
   its first member; changed to another row, the member that updates it
   executes over the head's row at τ's rowid. *)
let test_redo_change_head () =
  let e, analyzer =
    redo_history
      [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
      [
        "INSERT INTO t VALUES (2, 5)";
        "UPDATE t SET v = v + 1 WHERE id = 2";
        "INSERT INTO t VALUES (3, 0)";
      ]
  in
  let change sql =
    { Analyzer.tau = 1; op = Analyzer.Change (Uv_sql.Parser.parse_stmt sql) }
  in
  let history = rowids (Engine.catalog e) "t" in
  List.iter
    (fun out ->
      check stop_at "stopped before the first member" (Some (0, 1))
        out.Whatif.stop_at;
      check Alcotest.(list int) "history's rowids" history
        (rowids out.Whatif.temp_catalog "t"))
    (check_redo ~label:"same row" e analyzer
       (change "INSERT INTO t VALUES (2, 2 + 3)")
       [ 1; 2; 4; 8 ]);
  List.iter
    (fun out ->
      check stop_at "no stop" None out.Whatif.stop_at;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 0 ]; [ 2; 10 ]; [ 3; 0 ] ]
        (query_ints out "SELECT id, v FROM t");
      check Alcotest.(list int) "history's rowids" history
        (rowids out.Whatif.temp_catalog "t"))
    (check_redo ~label:"another row" e analyzer
       (change "INSERT INTO t VALUES (2, 9)")
       [ 1; 2; 4; 8 ])

(* (n) An executed member re-inserts its row at its historical rowid,
   below a row a later non-member inserted: a SELECT without ORDER BY
   lists the rows in the order the full-replay oracle's fresh engine
   does. *)
let test_redo_scan_order () =
  let setup =
    [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
  in
  let e, analyzer =
    redo_history setup
      [
        "UPDATE t SET v = 1 WHERE id = 1";
        "INSERT INTO t VALUES (2, (SELECT v FROM t WHERE id = 1))";
        "INSERT INTO t VALUES (3, 0)";
      ]
  in
  let base =
    let b = Engine.create () in
    List.iter (run b) setup;
    Engine.snapshot b
  in
  let want =
    List.map
      (fun row -> Array.to_list (Array.map Uv_sql.Value.to_int row))
      (Engine.query_sql (oracle e base ~skip:1) "SELECT id, v FROM t").Engine.rows
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "the member executes" 0 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "the oracle's order" want
        (query_ints out "SELECT id, v FROM t"))
    (check_redo ~label:"scan order" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (f) Removing τ leaves row 1 dirty in [w] with [v = 10] on both
   sides; non-member #2 then sets [v = 67] in history and in the replay.
   Member #3's WHERE selects row 1 on the images at its own point, not
   on the ones τ's journal recorded, so it reads the dirty [w] and
   executes. *)
let test_redo_stale_where () =
  let setup =
    [
      "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
      "INSERT INTO t VALUES (1, 10, 0)";
    ]
  in
  let e, analyzer =
    redo_history setup
      [
        "UPDATE t SET w = w + 4 WHERE v > 2";
        "UPDATE t SET v = 67 WHERE id = 1";
        "UPDATE t SET w = w + 2 WHERE v > 51";
      ]
  in
  let base =
    let b = Engine.create () in
    List.iter (run b) setup;
    Engine.snapshot b
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "the member executes" 0 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "row 1" [ [ 1; 67; 2 ] ]
        (query_ints out "SELECT id, v, w FROM t");
      let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
      Whatif.commit merged out;
      check
        Alcotest.(list (pair string int64))
        "universe == full-replay oracle"
        (oracle_hashes e base ~skip:1)
        (table_hashes (Engine.catalog merged)))
    (check_redo ~label:"stale WHERE" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* ---- the exact stop: the replay ends where it rejoins history ---- *)

(* (g) τ matches no row, so its removal changes nothing: the set is empty
   before the first member, every member is a plain UPDATE, and the
   replay stops there without building the replay DAG, and without
   rolling anything back. In the second history a skipped member draws
   a key and a later non-member draws the next: the universe's counter
   is the one rollback and replay leave (check_redo), read from the
   journals, and stays past the non-member's key, as the full-replay
   oracle's does, so a branch's next insert into [t] draws a free key. *)
let test_stop_noop_tau () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
        "INSERT INTO t VALUES (1, 0, 0)";
        "INSERT INTO t VALUES (2, 0, 0)";
      ]
      [
        "UPDATE t SET v = 9 WHERE id = 99";
        "UPDATE t SET v = v + 1 WHERE v < 100";
        "UPDATE t SET w = v WHERE id = 1";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped before the first member" (Some (0, 2))
        out.Whatif.stop_at;
      check Alcotest.int "nothing replayed" 0 out.Whatif.replayed;
      check Alcotest.int "no wave" 0 out.Whatif.exec_waves;
      check Alcotest.bool "unchanged" false out.Whatif.changed)
    (check_redo ~label:"no-op tau" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  List.iter
    (fun workers ->
      let obs = Uv_obs.Trace.create () in
      let out =
        Whatif.run_exn ~config:(Whatif.Config.make ~workers ~obs ()) ~analyzer
          e (remove 1)
      in
      let counter name = Uv_obs.Trace.counter_value obs name in
      let where = Printf.sprintf "workers=%d: " workers in
      check Alcotest.int (where ^ "no replay-DAG edge") 0 (counter "replay.edges");
      check Alcotest.int (where ^ "one stop") 1 (counter "replay.stops");
      check Alcotest.int (where ^ "two members skipped") 2
        (counter "replay.stop_skipped");
      check Alcotest.int (where ^ "rollback deferred") 0
        (counter "rollback.undo_records");
      check Alcotest.string (where ^ "reported deferred") "deferred"
        out.Whatif.rollback_strategy)
    [ 1; 2 ];
  (* removing #2, which changed both rows, rolls back in the phase *)
  check Alcotest.string "a rolling-back removal reports undo" "undo"
    (Whatif.run_exn ~analyzer e (remove 2)).Whatif.rollback_strategy;
  let setup =
    [
      "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
      "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
      "INSERT INTO t (v) VALUES (0)";
      "INSERT INTO u VALUES (1, 0)";
    ]
  in
  let e, analyzer =
    redo_history setup
      [
        "UPDATE u SET w = 9 WHERE id = 99";
        "INSERT INTO t (v) VALUES ((SELECT COUNT(*) FROM u WHERE w < 100))";
        "INSERT INTO t (v) VALUES (7)";
      ]
  in
  let base =
    let b = Engine.create () in
    List.iter (run b) setup;
    Engine.snapshot b
  in
  let auto cat = Storage.next_auto_value (Option.get (Catalog.table cat "t")) in
  let want = auto (Engine.catalog (oracle e base ~skip:1)) in
  check Alcotest.int "the oracle's counter passes the non-member's key" 4 want;
  List.iter2
    (fun workers out ->
      check Alcotest.(list int) "members" [ 2 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped before the first member" (Some (0, 1))
        out.Whatif.stop_at;
      check Alcotest.int
        (Printf.sprintf "workers=%d: counter == the oracle's" workers)
        want (auto out.Whatif.temp_catalog);
      let branch, _ =
        Scenario.branch
          ~config:(Whatif.Config.make ~workers ())
          (Scenario.root ~base e) (remove 1)
      in
      match
        Engine.exec_sql (Scenario.engine branch) "INSERT INTO t (v) VALUES (1)"
      with
      | _ -> ()
      | exception Engine.Sql_error err ->
          Alcotest.failf "workers=%d: the branch's next insert into t: %s"
            workers err)
    [ 1; 2; 4; 8 ]
    (check_redo ~label:"no-op tau, inserting member" e analyzer (remove 1)
       [ 1; 2; 4; 8 ])

(* (h) The Epinions shape: #2 rewrites the row τ changed, so the set
   empties after it, and the replay, having run only its first member,
   builds no replay DAG; skipped #3 writes another row of the same
   table, on which non-member #4 later rewrites [name]. The merged history's #3 is
   the full replay's, not history's: its before-image holds #4's [name],
   and its [written_hashes] continue the replay's chain. In the second
   history the first wave runs #2 and #4, which clean the two rows τ
   changed, and #3 waits on #2: skipped #3's [written_hashes] follow
   commit order, not the order the replay ran in. *)
let test_stop_mid_replay () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE useracct (u_id INT PRIMARY KEY, n INT, name VARCHAR(8))";
        "INSERT INTO useracct VALUES (1, 0, 'a')";
        "INSERT INTO useracct VALUES (2, 0, 'b')";
      ]
      [
        "UPDATE useracct SET n = 5 WHERE u_id = 1";
        "UPDATE useracct SET n = 7 WHERE u_id = 1";
        "UPDATE useracct SET n = (SELECT n FROM useracct WHERE u_id = 1) WHERE \
         u_id = 2";
        "UPDATE useracct SET name = 'z' WHERE u_id = 2";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped after #2" (Some (1, 1)) out.Whatif.stop_at;
      check Alcotest.int "#2 replayed" 1 out.Whatif.replayed;
      check Alcotest.int "#2 redone" 1 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 7 ]; [ 2; 7 ] ]
        (query_ints out "SELECT u_id, n FROM useracct"))
    (check_redo ~label:"stop mid-replay" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  List.iter
    (fun workers ->
      let obs = Uv_obs.Trace.create () in
      ignore
        (Whatif.run_exn ~config:(Whatif.Config.make ~workers ~obs ()) ~analyzer
           e (remove 1)
          : Whatif.outcome);
      check Alcotest.int
        (Printf.sprintf "workers=%d: no replay-DAG edge after the first member"
           workers)
        0
        (Uv_obs.Trace.counter_value obs "replay.edges"))
    [ 1; 2 ];
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE t (id INT PRIMARY KEY, n INT, x INT)";
        "INSERT INTO t VALUES (1, 0, 0)";
        "INSERT INTO t VALUES (2, 0, 0)";
      ]
      [
        "UPDATE t SET n = 5 WHERE id IN (1, 2)";
        "UPDATE t SET n = 7 WHERE id = 1";
        "UPDATE t SET x = n WHERE id = 1";
        "UPDATE t SET n = 9 WHERE id = 2";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3; 4 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped after #2 and #4" (Some (2, 1)) out.Whatif.stop_at)
    (check_redo ~label:"stop out of commit order" e analyzer (remove 1)
       [ 1; 2; 4; 8 ])

(* (i) The set empties after #2. Inserting member #3 would be redone at
   its historical rowid, where history's row sits, and #4 updates that
   row: both are quiet, and the replay stops before them. *)
let test_stop_before_insert () =
  let e, analyzer =
    redo_history
      [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
      [
        "UPDATE t SET v = 1 WHERE id = 1";
        "UPDATE t SET v = 2 WHERE id = 1";
        "INSERT INTO t VALUES (3, (SELECT v FROM t WHERE id = 1))";
        "UPDATE t SET v = 5 WHERE id = 3";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3; 4 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped after #2" (Some (1, 2)) out.Whatif.stop_at;
      check Alcotest.int "#2 redone" 1 out.Whatif.redone;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 2 ]; [ 3; 5 ] ]
        (query_ints out "SELECT id, v FROM t"))
    (check_redo ~label:"member insert" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (j) The set is empty after #2, and the member left inserts: its row
   would land at its historical rowid, so the replay stops before it. *)
let test_stop_insert_left () =
  let e, analyzer =
    redo_history
      [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
      [
        "UPDATE t SET v = 1 WHERE id = 1";
        "UPDATE t SET v = 2 WHERE id = 1";
        "INSERT INTO t VALUES (3, (SELECT v FROM t WHERE id = 1))";
      ]
  in
  List.iter
    (fun out ->
      check stop_at "stopped after #2" (Some (1, 1)) out.Whatif.stop_at;
      check Alcotest.int "#2 replayed" 1 out.Whatif.replayed)
    (check_redo ~label:"insert left" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (k) Removing τ's AUTO_INCREMENT insert resets the counter, and #2's
   delete of τ's row then leaves nothing dirty: the replay stops before
   #3, and the universe draws the next key where the full replay would,
   not where history did. The Hash-jumper's hit at #2 leaves the same
   counter. In the second history a skipped member inserts with a drawn
   key: the universe's counter is the replay's, raised past that key as
   redoing the member would raise it (#3 counts the rows, so it joins
   the replay set). *)
let test_stop_auto_increment () =
  let setup =
    [
      "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
      "INSERT INTO t (v) VALUES (0)";
    ]
  in
  let next_key out =
    Storage.next_auto_value (Option.get (Catalog.table out.Whatif.temp_catalog "t"))
  in
  let e, analyzer =
    redo_history setup
      [
        "INSERT INTO t (v) VALUES (5)";
        "DELETE FROM t WHERE id = 2";
        "UPDATE t SET v = v + 1 WHERE v < 100";
      ]
  in
  List.iter
    (fun out ->
      check stop_at "stopped after #2" (Some (1, 1)) out.Whatif.stop_at;
      check Alcotest.int "the next key is τ's" 2 (next_key out))
    (check_redo ~label:"AUTO_INCREMENT" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  List.iter
    (fun out ->
      check Alcotest.(option int) "hash-jump at #2" (Some 2)
        out.Whatif.hash_jump_at;
      check Alcotest.int "the next key is τ's" 2 (next_key out))
    (check_redo ~hash_jumper:true ~label:"AUTO_INCREMENT, Hash-jumper" e
       analyzer (remove 1) [ 1; 2; 4; 8 ]);
  let e, analyzer =
    redo_history setup
      [
        "INSERT INTO t (v) VALUES (5)";
        "DELETE FROM t WHERE id = 2";
        "INSERT INTO t (v) VALUES ((SELECT COUNT(*) FROM t))";
        "UPDATE t SET v = v + 1 WHERE v < 100";
      ]
  in
  List.iter
    (fun out ->
      check stop_at "stopped after #2" (Some (1, 2)) out.Whatif.stop_at;
      check Alcotest.int "the next key follows #3's" 4 (next_key out))
    (check_redo ~label:"skipped AUTO_INCREMENT insert" e analyzer (remove 1)
       [ 1; 2; 4; 8 ])

(* Only plain DML on a base table without triggers is redone: a member
   that fires a trigger, a CALL or DDL executes even with nothing
   dirty. *)
let test_redo_plain_dml_only () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
        "CREATE TABLE u (id INT PRIMARY KEY, v INT)";
        "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, n INT)";
        "CREATE TRIGGER tu AFTER UPDATE ON u FOR EACH ROW BEGIN INSERT INTO \
         audit (n) VALUES (NEW.v); END";
        "CREATE PROCEDURE bump(IN k INT) BEGIN UPDATE t SET v = v + 1 WHERE \
         id = k; END";
        "INSERT INTO t VALUES (1, 0)";
        "INSERT INTO u VALUES (1, 0)";
      ]
      [
        "UPDATE t SET v = 1 WHERE id = 1";
        "UPDATE u SET v = 1 WHERE id = 1";
        "CALL bump(1)";
        "CREATE INDEX iv ON t (v)";
      ]
  in
  let log = Engine.log e in
  let r = Redo.create analyzer (Catalog.snapshot (Engine.catalog e)) in
  let clean i = Redo.clean r i (Log.entry log i).Log.stmt (Log.entry log i).Log.undo in
  check Alcotest.bool "a plain UPDATE is clean" true (clean 1);
  check Alcotest.bool "an UPDATE that fires a trigger executes" false (clean 2);
  check Alcotest.bool "a CALL executes" false (clean 3);
  check Alcotest.bool "DDL executes" false (clean 4)

(* The existence guard: a journal naming a row the replay lacks, or an
   insert whose rowid is taken, is not reenacted. *)
let test_redo_existence_guard () =
  let e, analyzer =
    redo_history
      [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
      [ "UPDATE t SET v = 1 WHERE id = 1" ]
  in
  let cat = Catalog.snapshot (Engine.catalog e) in
  let r = Redo.create analyzer cat in
  let row = [| Uv_sql.Value.Int 5; Uv_sql.Value.Int 0 |] in
  let stmt = (Log.entry (Engine.log e) 1).Log.stmt in
  let try_ journal = Option.is_some (Redo.reenactment r stmt journal cat) in
  check Alcotest.bool "an update of a missing row falls back" false
    (try_ [ Log.U_row_update ("t", 99, row, row) ]);
  check Alcotest.bool "an insert at a taken rowid falls back" false
    (try_ [ Log.U_row_insert ("t", 1, row) ]);
  check Alcotest.bool "the historical journal fits" true
    (try_ (Log.entry (Engine.log e) 1).Log.undo)

(* (p) A removal whose τ left every row as it found it, with a loud
   member between quiet ones: the rollback phase's quiet prefix ends at
   the loud member, and the stop cursor starts there. Nothing stops
   before the loud member has run; the replay stops right after it,
   skipping the last member. *)
let test_stop_cursor_at_loud_member () =
  let e, analyzer =
    redo_history
      [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
        "CREATE TABLE u (id INT PRIMARY KEY, v INT)";
        "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, n INT)";
        "CREATE TRIGGER tu AFTER UPDATE ON u FOR EACH ROW BEGIN INSERT INTO \
         audit (n) VALUES (NEW.v); END";
        "INSERT INTO t VALUES (1, 0)";
        "INSERT INTO u VALUES (1, 0)";
      ]
      [
        "UPDATE t SET v = 9 WHERE id = 99";
        "UPDATE t SET v = 1 WHERE v < 100";
        "UPDATE u SET v = (SELECT v FROM t WHERE id = 1) WHERE id = 1";
        "UPDATE t SET v = 3 WHERE v < 100";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3; 4 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped after the loud member" (Some (2, 1)) out.Whatif.stop_at;
      check Alcotest.string "rollback" "undo" out.Whatif.rollback_strategy;
      check Alcotest.bool "unchanged" false out.Whatif.changed)
    (check_redo ~label:"loud member" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (q) A member moves a row's first-dimension value (its primary key,
   declared as the RI dimension) where history moved it elsewhere: the
   row is dirty under both keys, so the next member, which updates the
   row under the replay's key (history's run selected nothing there),
   reads a dirty row and executes. *)
let test_redo_key_move () =
  let e, analyzer =
    redo_history
      ~config:{ Rowset.default_config with Rowset.ri_columns = [ ("t", [ "id" ]) ] }
      [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
      [
        "UPDATE t SET v = 4 WHERE id = 1";
        "UPDATE t SET id = id + v WHERE id = 1";
        "UPDATE t SET v = 7 WHERE id = 1";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ] out.Whatif.replay.Analyzer.member_indexes;
      check Alcotest.int "executed" 0 out.Whatif.redone;
      check Alcotest.(list (list int)) "the row kept its key" [ [ 1; 7 ] ]
        (query_ints out "SELECT id, v FROM t"))
    (check_redo ~label:"key move" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (s) A key rewritten on a table with no configured RI column: under
   the PRIMARY KEY fallback, the merge of 3 and 5 is named as the row
   keys and the overlap test read it, so removing the first UPDATE of
   row 3 reaches the later update of row 5. At every worker count the
   answer equals the full-replay oracle's and the answer with [id]
   configured as [p]'s RI column. *)
let test_redo_pk_dimension () =
  let e = Engine.create () in
  List.iter (run e) [ "CREATE TABLE p (id INT PRIMARY KEY, v INT)"; "INSERT INTO p VALUES (3, 0)" ];
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e)
    [
      "UPDATE p SET v = 1 WHERE id = 3";
      "UPDATE p SET id = 5 WHERE id = 3";
      "UPDATE p SET v = v + 1 WHERE id = 5";
    ];
  let want = oracle_hashes e base ~skip:1 in
  let answers config label =
    let analyzer = Analyzer.analyze ~config ~base (Engine.log e) in
    List.map
      (fun out ->
        let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
        Whatif.commit merged out;
        check
          Alcotest.(list (pair string int64))
          (label ^ ": universe == full-replay oracle")
          want
          (table_hashes (Engine.catalog merged));
        check Alcotest.(list (list int)) (label ^ ": rows") [ [ 5; 1 ] ]
          (query_ints out "SELECT id, v FROM p");
        out.Whatif.final_db_hash)
      (check_redo ~label e analyzer (remove 1) [ 1; 2; 4; 8 ])
  in
  check Alcotest.(list int64) "PRIMARY KEY fallback == configured RI column"
    (answers { Rowset.default_config with Rowset.ri_columns = [ ("p", [ "id" ]) ] } "configured")
    (answers Rowset.default_config "fallback")

(* (o) A table's facts are kept per catalog epoch, and follow its
   trigger DDL: through one warm service, a removal whose one member is
   a plain UPDATE of [t] redoes it; after an INSERT trigger on [t] is
   ingested, the same question executes it (it never fires the trigger)
   and answers as a fresh service and the full-replay oracle do; after
   the trigger is dropped, the member is redone again. One analyzer's
   facts name the triggered tables of the catalog's epoch throughout. *)
let test_redo_facts_follow_ddl () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
      "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, n INT)";
      "INSERT INTO t VALUES (1, 0)";
      "INSERT INTO t VALUES (2, 0)";
    ];
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e) [ "UPDATE t SET v = 5 WHERE id = 1"; "UPDATE t SET v = 7 WHERE id = 1" ];
  let ask svc =
    match Whatif.Service.run svc (remove 1) with
    | Ok r -> r.Whatif.Service.outcome
    | Error err -> Alcotest.fail (Whatif.Error.to_string err)
  in
  let svc = Whatif.Service.create ~config:(Whatif.Config.make ~workers:1 ()) ~base e in
  (* one analyzer's facts move with the catalog's epoch *)
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let triggered () =
    Analyzer.trigger_tables (Analyzer.catalog_facts analyzer (Engine.catalog e))
  in
  let expect label ~redone =
    check Alcotest.(list string) (label ^ ": triggered tables")
      (if redone = 1 then [] else [ "t" ])
      (triggered ());
    let out = ask svc in
    check Alcotest.(list int) (label ^ ": the one member")
      [ 2 ] out.Whatif.replay.Analyzer.member_indexes;
    check Alcotest.int (label ^ ": redone") redone out.Whatif.redone;
    check Alcotest.int64 (label ^ ": a fresh service's answer")
      (ask (Whatif.Service.create ~base e)).Whatif.final_db_hash
      out.Whatif.final_db_hash;
    let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
    Whatif.commit merged out;
    check
      Alcotest.(list (pair string int64))
      (label ^ ": universe == full-replay oracle")
      (oracle_hashes e base ~skip:1)
      (table_hashes (Engine.catalog merged))
  in
  expect "no trigger" ~redone:1;
  ignore
    (Whatif.Service.ingest_sql svc
       "CREATE TRIGGER ti AFTER INSERT ON t FOR EACH ROW BEGIN INSERT INTO \
        audit (n) VALUES (NEW.v); END;"
      : int * int);
  expect "an INSERT trigger on t" ~redone:0;
  ignore (Whatif.Service.ingest_sql svc "DROP TRIGGER ti;" : int * int);
  expect "the trigger dropped" ~redone:1

(* ------------------------------------------------------------------ *)
(* Small replays                                                        *)
(* ------------------------------------------------------------------ *)

(* What a question's replay phase decides, on one line. *)
let small_line (o : Whatif.outcome) =
  Printf.sprintf
    "hash=%Lx changed=%b waves=%d replayed=%d redone=%d stop=%s rollback=%s \
     measured=%b"
    o.Whatif.final_db_hash o.Whatif.changed o.Whatif.exec_waves o.Whatif.replayed
    o.Whatif.redone
    (match o.Whatif.stop_at with
    | None -> "-"
    | Some (ran, skipped) -> Printf.sprintf "%d+%d" ran skipped)
    o.Whatif.rollback_strategy
    (o.Whatif.measured_parallel_ms <> None)

(* (r) Two questions of one analyzer each remove a different trigger:
   rolling either back moves its own catalog on from the live epoch, to
   a different set of triggers, and the analyzer's facts name each
   catalog's own. Each question's members are two independent INSERTs
   into the table whose trigger is gone, so no trigger fires on them and
   they share a batch. Asked in turn at each worker count, each question
   decides as on a fresh analyzer and answers as the full-replay oracle
   does. *)
let test_facts_two_ddl_questions () =
  let setup =
    [
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
      "CREATE TABLE u (id INT PRIMARY KEY, v INT)";
      "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, n INT)";
      "INSERT INTO t VALUES (1, 0)";
      "INSERT INTO u VALUES (1, 0)";
    ]
  in
  let e, analyzer =
    redo_history setup
      [
        "CREATE TRIGGER tt AFTER INSERT ON t FOR EACH ROW BEGIN INSERT INTO \
         audit (n) VALUES (NEW.v); END";
        "CREATE TRIGGER tu AFTER INSERT ON u FOR EACH ROW BEGIN INSERT INTO \
         audit (n) VALUES (NEW.v + 100); END";
        "INSERT INTO t VALUES (3, 1)";
        "INSERT INTO t VALUES (4, 1)";
        "INSERT INTO u VALUES (3, 2)";
        "INSERT INTO u VALUES (4, 2)";
      ]
  in
  let base =
    let b = Engine.create () in
    List.iter (run b) setup;
    Engine.catalog b
  in
  let without trig =
    let c = Catalog.snapshot (Engine.catalog e) in
    Catalog.remove_trigger c trig;
    c
  in
  List.iter
    (fun c ->
      check Alcotest.(list string) "the facts name the catalog's trigger tables"
        (Catalog.trigger_tables c)
        (Analyzer.trigger_tables (Analyzer.catalog_facts analyzer c)))
    (let c1 = without "tt" and c2 = without "tu" in
     [ c1; c2; c1 ]);
  let ask ~analyzer workers tau =
    Whatif.run_exn ~config:(Whatif.Config.make ~workers ()) ~analyzer e (remove tau)
  in
  List.iter
    (fun workers ->
      List.iter
        (fun tau ->
          let where = Printf.sprintf "remove %d, workers=%d" tau workers in
          let out = ask ~analyzer workers tau in
          let fresh = ask ~analyzer:(Analyzer.analyze ~base (Engine.log e)) workers tau in
          check Alcotest.string (where ^ ": decides as a fresh analyzer") (small_line fresh)
            (small_line out);
          check Alcotest.int (where ^ ": the two inserts share a batch") 1
            out.Whatif.exec_waves;
          let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
          Whatif.commit merged out;
          check
            Alcotest.(list (pair string int64))
            (where ^ ": universe == full-replay oracle")
            (oracle_hashes e base ~skip:tau)
            (table_hashes (Engine.catalog merged)))
        [ 1; 2 ])
    [ 1; 2; 4; 8 ]

let replay_counters =
  [
    "replay.redone"; "replay.executed"; "replay.redo_fallbacks";
    "replay.dirty_cells"; "replay.dirty_emptied"; "replay.stops";
    "replay.stop_skipped"; "replay.stop_rows"; "replay.verdicts"; "replay.edges";
    "replay.cell_visits";
  ]

let recorded obs name =
  match Uv_obs.Trace.metrics_payload obs with
  | Uv_obs.Json.Obj fields -> (
      match List.assoc_opt "counters" fields with
      | Some (Uv_obs.Json.Obj counters) -> List.mem_assoc name counters
      | _ -> false)
  | _ -> false

(* [target] at workers 1/2/4/8 leaves the tables, hash and merged
   history executing every member leaves ([check_redo]), decides the
   same at every worker count, and decides so traced, with every replay
   counter recorded and no DAG edge or cell visit. *)
let check_small ~label eng analyzer target =
  match check_redo ~label eng analyzer target [ 1; 2; 4; 8 ] with
  | [] -> ()
  | first :: rest ->
      let want = small_line first in
      List.iter2
        (fun workers o ->
          check Alcotest.string
            (Printf.sprintf "%s: workers=%d decides as workers=1" label workers)
            want (small_line o))
        [ 2; 4; 8 ] rest;
      let obs = Uv_obs.Trace.create () in
      let traced =
        Whatif.run_exn ~config:(Whatif.Config.make ~workers:1 ~obs ()) ~analyzer eng
          target
      in
      check Alcotest.string (label ^ ": traced decisions") want (small_line traced);
      List.iter
        (fun name ->
          check Alcotest.bool (label ^ ": " ^ name ^ " recorded") true
            (recorded obs name))
        replay_counters;
      check Alcotest.int (label ^ ": replay.edges") 0
        (Uv_obs.Trace.counter_value obs "replay.edges");
      check Alcotest.int (label ^ ": replay.cell_visits") 0
        (Uv_obs.Trace.counter_value obs "replay.cell_visits")

(* ---- the exact stop over a dirty set: rows no member left meets ---- *)

(* One RI group: every row of [t] shares the key [grp], so a statement
   on one row meets every other row's cells. *)
let grp_config = { Rowset.default_config with Rowset.ri_columns = [ ("t", [ "grp" ]) ] }

let grp_rows =
  [
    "CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT)";
    "INSERT INTO t VALUES (1, 1, 0)";
    "INSERT INTO t VALUES (2, 1, 0)";
    "INSERT INTO t VALUES (3, 1, 0)";
  ]

(* [redo_history] and the base state, for the full-replay oracle. *)
let stop_history ?config setup history =
  let e, analyzer = redo_history ?config setup history in
  let b = Engine.create () in
  List.iter (run b) setup;
  (e, Engine.snapshot b, analyzer)

(* The original with [out] committed holds the full-replay oracle's
   tables: the universe's rows, and [changed] where they differ. *)
let check_oracle ~label e base tau out =
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
  Whatif.commit merged out;
  check
    Alcotest.(list (pair string int64))
    (label ^ ": universe == full-replay oracle")
    (oracle_hashes e base ~skip:tau)
    (table_hashes (Engine.catalog merged))

(* Remove [tau] traced at one lane: the outcome and its counters. *)
let traced_remove ~analyzer e tau =
  let obs = Uv_obs.Trace.create () in
  let out =
    Whatif.run_exn ~config:(Whatif.Config.make ~workers:1 ~obs ()) ~analyzer e
      (remove tau)
  in
  (out, Uv_obs.Trace.counter_value obs)

(* (t) τ leaves row 1 dirty, and the members update rows 2 and 3 of its
   RI group: each would be redone over clean rows and leave the set as
   it is, so the replay stops before its first member, and the universe
   takes row 1 at its replay image. No member reads a rolled-back row,
   so the rollback is deferred. *)
let test_stop_over_dirty_row () =
  let e, base, analyzer =
    stop_history ~config:grp_config grp_rows
      [
        "UPDATE t SET x = 5 WHERE id = 1";
        "UPDATE t SET x = x + 1 WHERE id = 2";
        "UPDATE t SET x = x + 2 WHERE id = 3";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped before the first member" (Some (0, 2))
        out.Whatif.stop_at;
      check Alcotest.string "rollback" "deferred" out.Whatif.rollback_strategy;
      check Alcotest.bool "changed" true out.Whatif.changed;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 2 ] ]
        (query_ints out "SELECT id, x FROM t");
      check_oracle ~label:"dirty row" e base 1 out)
    (check_redo ~label:"dirty row" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  let _, counter = traced_remove ~analyzer e 1 in
  check Alcotest.int "one stop" 1 (counter "replay.stops");
  check Alcotest.int "two members skipped" 2 (counter "replay.stop_skipped");
  check Alcotest.int "one row written at the stop" 1 (counter "replay.stop_rows");
  check Alcotest.int "the set did not empty" 0 (counter "replay.dirty_emptied");
  check Alcotest.int "rollback deferred" 0 (counter "rollback.undo_records")

(* (u) τ inserted row 4, or deleted row 3, of the member's RI group: the
   universe has the row absent, or present again at its rowid, as the
   full replay leaves it (check_redo compares rowids and counters). *)
let test_stop_row_presence () =
  List.iter
    (fun (label, tau_sql, want) ->
      let e, base, analyzer =
        stop_history ~config:grp_config grp_rows
          [ tau_sql; "UPDATE t SET x = x + 1 WHERE id = 2" ]
      in
      List.iter
        (fun out ->
          check stop_at (label ^ ": stopped before the member") (Some (0, 1))
            out.Whatif.stop_at;
          check Alcotest.string (label ^ ": rollback") "deferred"
            out.Whatif.rollback_strategy;
          check
            Alcotest.(list (list int))
            (label ^ ": rows") want
            (query_ints out "SELECT id, x FROM t");
          check_oracle ~label e base 1 out)
        (check_redo ~label e analyzer (remove 1) [ 1; 2; 4; 8 ]);
      let _, counter = traced_remove ~analyzer e 1 in
      check Alcotest.int (label ^ ": one row written at the stop") 1
        (counter "replay.stop_rows"))
    [
      ( "inserted row",
        "INSERT INTO t VALUES (4, 1, 9)",
        [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 0 ] ] );
      ("deleted row", "DELETE FROM t WHERE id = 3", [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 0 ] ]);
    ]

(* (v) τ set row 1's [x] from 3 to 7, and #2's WHERE selects the row only
   on the replay's side: #2 reads the dirty row, so nothing stops before
   it and the rollback is not deferred. #2 then writes row 1's [y] in the
   replay only; #3 updates row 2, and the replay stops before it with
   row 1 written at the replay's image. *)
let test_stop_replay_side_where () =
  let e, base, analyzer =
    stop_history ~config:grp_config
      [
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT, y INT)";
        "INSERT INTO t VALUES (1, 1, 3, 0)";
        "INSERT INTO t VALUES (2, 1, 0, 0)";
      ]
      [
        "UPDATE t SET x = 7 WHERE id = 1";
        "UPDATE t SET y = 1 WHERE x = 3";
        "UPDATE t SET x = x + 1 WHERE id = 2";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped after #2" (Some (1, 1)) out.Whatif.stop_at;
      check Alcotest.int "#2 executed" 0 out.Whatif.redone;
      check Alcotest.string "rollback" "undo" out.Whatif.rollback_strategy;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 3; 1 ]; [ 2; 1; 0 ] ]
        (query_ints out "SELECT id, x, y FROM t");
      check_oracle ~label:"replay-side WHERE" e base 1 out)
    (check_redo ~label:"replay-side WHERE" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  let _, counter = traced_remove ~analyzer e 1 in
  check Alcotest.int "one row written at the stop" 1 (counter "replay.stop_rows")

(* (w) Executed #2 leaves row 2 dirty (its subquery reads τ's row); #3
   rewrites row 1, which τ left dirty, and cleans it; #4 updates row 3
   over clean rows. The replay stops before #4 with row 2, a row of #2's,
   still dirty, and the universe takes it at the replay's image. *)
let test_stop_after_executed () =
  let e, base, analyzer =
    stop_history ~config:grp_config grp_rows
      [
        "UPDATE t SET x = 5 WHERE id = 1";
        "UPDATE t SET x = (SELECT x FROM t WHERE id = 1) + 1 WHERE id = 2";
        "UPDATE t SET x = 7 WHERE id = 1";
        "UPDATE t SET x = x + 1 WHERE id = 3";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.(list int) "members" [ 2; 3; 4 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check stop_at "stopped before #4" (Some (2, 1)) out.Whatif.stop_at;
      check
        Alcotest.(list (list int))
        "rows" [ [ 1; 7 ]; [ 2; 1 ]; [ 3; 1 ] ]
        (query_ints out "SELECT id, x FROM t");
      check_oracle ~label:"after executed" e base 1 out)
    (check_redo ~label:"after executed" e analyzer (remove 1) [ 1; 2; 4; 8 ]);
  let _, counter = traced_remove ~analyzer e 1 in
  check Alcotest.int "one row written at the stop" 1 (counter "replay.stop_rows");
  check Alcotest.int "the set did not empty" 0 (counter "replay.dirty_emptied")

(* (x) A clean verdict is not served once the set changed under it. τ
   dirties [x] and [y] of rows 1 and 2 (one RI group). #3's WHERE
   selects neither image of row 1, so #3 is clean. Executed #2 then
   moves row 1's history side ([y] from 5 to 10) under marks that row 2
   holds too, so no mark enters the set; #3 now selects row 1 on
   history's side, and must execute. *)
let test_redo_verdict_memo () =
  let e, base, analyzer =
    stop_history ~config:grp_config
      [
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT, y INT)";
        "INSERT INTO t VALUES (1, 1, 0, 0)";
        "INSERT INTO t VALUES (2, 1, 0, 0)";
      ]
      [
        "UPDATE t SET x = 5, y = 5 WHERE grp = 1";
        "UPDATE t SET y = y + x WHERE id = 1";
        "UPDATE t SET x = 1 WHERE y = 10 AND id = 1";
      ]
  in
  let log = Engine.log e in
  let journal i = (Log.entry log i).Log.undo in
  let cat = Catalog.snapshot (Engine.catalog e) in
  ignore (Log.undo_entries cat [ journal 3; journal 2; journal 1 ] : Log.undo_stats);
  let r = Redo.create analyzer cat in
  Redo.seed r (journal 1);
  Redo.rolled_back r;
  let clean3 () = Redo.clean r 3 (Log.entry log 3).Log.stmt (journal 3) in
  check Alcotest.bool "#3 is clean before #2" true (clean3 ());
  let marked = (Redo.stats r).Redo.dirty_cells in
  let eng = Engine.of_catalog cat in
  ignore
    (Engine.exec ~history:(journal 2) eng (Log.entry log 2).Log.stmt
      : Engine.result);
  Redo.settle r ~redone:false ~hist:(journal 2)
    ~fresh:(Log.entry (Engine.log eng) 1).Log.undo;
  check Alcotest.int "no mark entered the set" marked (Redo.stats r).Redo.dirty_cells;
  check Alcotest.bool "#3 reads the dirty row after #2" false (clean3 ());
  List.iter
    (fun out ->
      check Alcotest.int "nothing redone" 0 out.Whatif.redone;
      check_oracle ~label:"verdict memo" e base 1 out)
    (check_redo ~label:"verdict memo" e analyzer (remove 1) [ 1; 2; 4; 8 ])

(* (y) [undone] counts the entries the question's rollback undid. (t)'s
   removal defers its rollback and stops before its first member: the
   question undoes nothing, and the merged history applies the rollback.
   (v)'s removal rolls back #3, #2 and τ in the phase. A deferred
   rollback that the replay applies (commit order, or a head that runs
   before any stop) counts every journal it undid. *)
let test_undone_counts_the_rollback_run () =
  let e, _, analyzer =
    stop_history ~config:grp_config grp_rows
      [
        "UPDATE t SET x = 5 WHERE id = 1";
        "UPDATE t SET x = x + 1 WHERE id = 2";
        "UPDATE t SET x = x + 2 WHERE id = 3";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.string "(t): rollback" "deferred" out.Whatif.rollback_strategy;
      check Alcotest.int "(t): nothing undone" 0 out.Whatif.undone)
    (check_redo ~label:"undone (t)" e analyzer (remove 1) [ 1; 2 ]);
  let log = Engine.log e in
  let journals = List.map (fun i -> (Log.entry log i).Log.undo) [ 3; 2; 1 ] in
  let head =
    let stmt = Uv_sql.Parser.parse_stmt "UPDATE t SET x = 7 WHERE id = 1" in
    {
      Wave_exec.idx = 0;
      stmt;
      sql = Uv_sql.Printer.stmt_compact stmt;
      nondet = [];
      app_txn = None;
      sim_time = 1_700_000_001;
      rowid_base = 1 lsl 30;
      structural = true;
      journal = (Log.entry log 1).Log.undo;
    }
  in
  List.iter
    (fun (label, schedule, head, want) ->
      let cat = Catalog.snapshot (Engine.catalog e) in
      let _, items = replay_items ~analyzer ~catalog:cat log [ 2; 3 ] in
      let res = Wave_exec.execute ~undo:journals ~schedule ~rtt_ms:0.0 ~catalog:cat ~head ~items () in
      check Alcotest.int (label ^ ": every journal undone") 3 res.Wave_exec.undone;
      let eng = Engine.of_catalog cat in
      check
        Alcotest.(list (list int))
        (label ^ ": rows") want
        (List.map
           (fun row -> Array.to_list (Array.map Uv_sql.Value.to_int row))
           (Engine.query_sql eng "SELECT id, x FROM t").Engine.rows))
    [
      ( "commit order",
        Wave_exec.Commit_order { stop_after = (fun _ _ -> false) },
        None,
        [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 2 ] ] );
      ( "waves after a head",
        Wave_exec.Waves
          { dag = lazy (Analyzer.replay_dag analyzer ~members:[ 2; 3 ]); workers = 1 },
        Some head,
        [ [ 1; 7 ]; [ 2; 1 ]; [ 3; 2 ] ] );
    ];
  let e, _, analyzer =
    stop_history ~config:grp_config
      [
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT, y INT)";
        "INSERT INTO t VALUES (1, 1, 3, 0)";
        "INSERT INTO t VALUES (2, 1, 0, 0)";
      ]
      [
        "UPDATE t SET x = 7 WHERE id = 1";
        "UPDATE t SET y = 1 WHERE x = 3";
        "UPDATE t SET x = x + 1 WHERE id = 2";
      ]
  in
  List.iter
    (fun out ->
      check Alcotest.string "(v): rollback" "undo" out.Whatif.rollback_strategy;
      check Alcotest.int "(v): #3, #2 and tau undone" 3 out.Whatif.undone)
    (check_redo ~label:"undone (v)" e analyzer (remove 1) [ 1; 2 ])

(* On each workload's plain-SQL history, the latest removals whose
   replay sets have no member and one member. *)
let test_small_replays (w : W.t) () =
  let eng, base = build ~mode:R.Raw w ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let size tau =
    (Analyzer.replay_set analyzer (remove tau)).Analyzer.member_count
  in
  List.iter
    (fun members ->
      let rec latest tau =
        if tau < 1 then Alcotest.failf "%s: no removal of %d members" w.W.name members
        else if (Log.entry log tau).Log.undo <> [] && size tau = members then tau
        else latest (tau - 1)
      in
      let tau = latest (Log.length log) in
      let label = Printf.sprintf "%s tau=%d (%d members)" w.W.name tau members in
      check_small ~label eng analyzer (remove tau);
      let out = Whatif.run_exn ~analyzer eng (remove tau) in
      check Alcotest.int (label ^ ": replayed") members
        (out.Whatif.replayed + Option.fold ~none:0 ~some:snd out.Whatif.stop_at))
    [ 0; 1 ]

(* A removed CREATE VIEW, which no member reads: the replay set is
   empty, and the view is gone from the answer. *)
let test_small_ddl_tau () =
  let e, analyzer =
    redo_history
      [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)"; "INSERT INTO t VALUES (1, 0)" ]
      [ "CREATE VIEW vt AS SELECT v FROM t"; "UPDATE t SET v = 1 WHERE id = 1" ]
  in
  check Alcotest.(list int) "no member" []
    (Analyzer.replay_set analyzer (remove 1)).Analyzer.member_indexes;
  check_small ~label:"removed CREATE VIEW" e analyzer (remove 1);
  let out = Whatif.run_exn ~analyzer e (remove 1) in
  check Alcotest.bool "the answer changed" true out.Whatif.changed;
  check Alcotest.bool "the view is gone" true
    (Catalog.view out.Whatif.temp_catalog "vt" = None)

(* The per-question constant does not grow with the history: on a warm
   service, removing the same statement, appended last (so its replay
   set is empty), allocates the same minor words over one app's
   history of about 1 000 and of about 5 000 entries. *)
let test_small_alloc_flat () =
  let w = List.find (fun (w : W.t) -> w.W.name = "TPC-C") (W.all ()) in
  let question ~entries =
    let eng, rt = W.setup ~mode:R.Raw w in
    let base = Engine.snapshot eng in
    let prng = Uv_util.Prng.create 4242 in
    let rec grow () =
      if Log.length (Engine.log eng) < entries then begin
        ignore (W.run_history rt ~mode:R.Raw (w.W.generate prng ~scale:1 ~n:50 ~dep_rate:0.3));
        grow ()
      end
    in
    grow ();
    run eng "UPDATE warehouse SET w_ytd = 7 WHERE w_id = 1";
    let n = Log.length (Engine.log eng) in
    let svc =
      Whatif.Service.create ~config:(Whatif.Config.make ~workers:1 ()) ~rowset:w.W.ri_config
        ~base eng
    in
    let ask () =
      match Whatif.Service.run svc (remove n) with
      | Ok r -> r.Whatif.Service.outcome.Whatif.replay.Analyzer.member_count
      | Error err -> Alcotest.fail (Whatif.Error.to_string err)
    in
    ignore (ask () : int);
    ignore (ask () : int);
    let members, minor, _ = Alloc.words_of ask in
    check Alcotest.int (Printf.sprintf "%d entries: no member" n) 0 members;
    (n, minor)
  in
  let n1, small = question ~entries:1000 and n2, large = question ~entries:5000 in
  if small <> large then
    Alcotest.failf "an empty removal allocated %.0f minor words at %d entries, %.0f at %d" small
      n1 large n2

(* Generated questions on the five workloads' plain-SQL histories (a
   transpiled history's members are CALLs, which always execute) —
   removals, a no-op change and a re-added statement at seeded τ — at
   workers 1, 2, 4 and 8: redo == execute on every one, and a removal's
   universe == the full-replay oracle. *)
let test_redo_generated (w : W.t) () =
  let eng, base = build ~mode:R.Raw w ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let writers =
    Array.of_list
      (List.filter
         (fun i -> (Log.entry log i).Log.undo <> [])
         (List.init (Log.length log) (fun k -> k + 1)))
  in
  let redone = ref 0 in
  let prop =
    QCheck.Test.make ~count:6 ~name:(w.W.name ^ ": redo == execute")
      QCheck.(pair (int_bound (Array.length writers - 1)) (int_bound 4))
      (fun (pick, op) ->
        let tau = writers.(pick) in
        let stmt = (Log.entry log tau).Log.stmt in
        let target =
          {
            Analyzer.tau;
            op =
              (match op with
              | 0 -> Analyzer.Change stmt
              | 1 -> Analyzer.Add stmt
              | _ -> Analyzer.Remove);
          }
        in
        let label = Printf.sprintf "%s tau=%d op=%d" w.W.name tau op in
        List.iter
          (fun out ->
            redone := !redone + out.Whatif.redone;
            match target.Analyzer.op with
            | Analyzer.Remove ->
                let merged =
                  Engine.of_catalog (Catalog.snapshot (Engine.catalog eng))
                in
                Whatif.commit merged out;
                check
                  Alcotest.(list (pair string int64))
                  (label ^ ": universe == full-replay oracle")
                  (oracle_hashes eng base ~skip:tau)
                  (table_hashes (Engine.catalog merged))
            | Analyzer.Add _ | Analyzer.Change _ -> ())
          (check_redo ~label eng analyzer target [ 1; 2; 4; 8 ]);
        true)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 5 |]) prop;
  check Alcotest.bool (w.W.name ^ ": some member was redone") true (!redone > 0)

(* [Ri_history]'s merge history asked the targets that merge two RI
   values at question time, and ones whose rewrite succeeds (row 3 moves
   to the free id 5), and its alias history the targets that move row 1
   to id 3, under which members addressed by the alias [c1] and by id 3
   meet on one row, at workers 1, 2, 4 and 8: redo == execute on every
   one, and the universe equals the full-replay oracle with the target
   applied, rows at their rowids and AUTO_INCREMENT counters included.
   The merge stays in the question, so redo runs for them. *)
let test_redo_merge_targets () =
  let redone = ref 0 in
  let ask (config, base, eng) targets =
    let analyzer = Analyzer.analyze ~config ~base (Engine.log eng) in
    List.iter
      (fun (target : Analyzer.target) ->
        let label =
          Printf.sprintf "%s@%d: %s"
            (match target.Analyzer.op with
            | Analyzer.Add _ -> "add"
            | Analyzer.Change _ -> "change"
            | Analyzer.Remove -> "remove")
            target.Analyzer.tau
            (match target.Analyzer.op with
            | Analyzer.Add s | Analyzer.Change s -> Uv_sql.Printer.stmt_compact s
            | Analyzer.Remove -> "")
        in
        let want = Engine.catalog (target_oracle eng base target) in
        List.iter
          (fun out ->
            redone := !redone + out.Whatif.redone;
            let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog eng)) in
            Whatif.commit merged out;
            check
              Alcotest.(list (pair string int64))
              (label ^ ": universe == full-replay oracle")
              (table_hashes want)
              (table_hashes (Engine.catalog merged));
            check Alcotest.string (label ^ ": rowids and counters == full-replay oracle")
              (table_layout want)
              (table_layout (Engine.catalog merged)))
          (check_redo ~label eng analyzer target [ 1; 2; 4; 8 ]))
      targets
  in
  let moved = Uv_sql.Parser.parse_stmt "UPDATE t SET id = 5 WHERE id = 3" in
  ask (Ri_history.merge_engine ())
    (Ri_history.merge_targets
    @ List.concat_map
        (fun tau -> [ { Analyzer.tau; op = Analyzer.Add moved }; { Analyzer.tau; op = Analyzer.Change moved } ])
        [ 1; 2; 5 ]);
  ask (Ri_history.alias_engine ()) Ri_history.alias_targets;
  check Alcotest.bool "some member was redone" true (!redone > 0)

(* Questions that teach the RI state — the merge targets and an INSERT
   that teaches an alias of [u] — asked beside removals on one service
   by four domains at once: every answer equals a fresh service's and
   the full-replay oracle's. *)
let test_service_teaching_questions () =
  let config, base, eng = Ri_history.merge_engine () in
  let rowset = { config with Rowset.ri_aliases = [ ("u", "w", "id") ] } in
  let svc_config = Whatif.Config.make ~workers:1 () in
  let svc = Whatif.Service.create ~config:svc_config ~rowset ~base eng in
  Whatif.Service.publish svc;
  let alias = Uv_sql.Parser.parse_stmt "INSERT INTO u VALUES (5, 50)" in
  let targets =
    Array.of_list
      (Ri_history.merge_targets
      @ List.concat_map
          (fun tau -> [ { Analyzer.tau; op = Analyzer.Add alias }; { Analyzer.tau; op = Analyzer.Remove } ])
          [ 1; 2; 5; 6; 9 ])
  in
  let ask svc target =
    match Whatif.Service.run svc target with
    | Ok r -> r.Whatif.Service.outcome
    | Error e -> Alcotest.fail (Whatif.Error.to_string e)
  in
  let m = Array.length targets in
  let answers =
    List.map Domain.join
      (List.init 4 (fun d ->
           Domain.spawn (fun () ->
               List.init (2 * m) (fun k ->
                   let i = ((k * 5) + (d * 3)) mod m in
                   (i, ask svc targets.(i))))))
  in
  let fresh = Array.map (fun target -> ask (Whatif.Service.create ~config:svc_config ~rowset ~base eng) target) targets in
  List.iteri
    (fun d outs ->
      List.iter
        (fun (i, (out : Whatif.outcome)) ->
          let label = Printf.sprintf "domain %d, question %d" d i in
          check Alcotest.int64 (label ^ ": == a fresh service")
            fresh.(i).Whatif.final_db_hash out.Whatif.final_db_hash;
          check Alcotest.(list int) (label ^ ": members")
            fresh.(i).Whatif.replay.Analyzer.member_indexes
            out.Whatif.replay.Analyzer.member_indexes;
          let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog eng)) in
          Whatif.commit merged out;
          check
            Alcotest.(list (pair string int64))
            (label ^ ": universe == full-replay oracle")
            (table_hashes (Engine.catalog (target_oracle eng base targets.(i))))
            (table_hashes (Engine.catalog merged)))
        outs)
    answers

(* The session's incremental analyzer is an accelerator only: through
   a service, the first answer and two repeated ones carry the final
   hash a cold analyzer and an uncached run give, at workers 1 and 4. *)
let test_cached_equals_cold (w : W.t) () =
  let eng, rt = W.setup ~mode:R.Raw w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 92 in
  let calls =
    w.W.target_call :: w.W.generate prng ~scale:1 ~n:150 ~dep_rate:0.3
  in
  ignore (W.run_history rt ~mode:R.Raw calls);
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let cold workers =
    let analyzer =
      Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng)
    in
    (Whatif.run_exn ~config:(Whatif.Config.make ~workers ()) ~analyzer eng
       target)
      .Whatif.final_db_hash
  in
  let want = cold 1 in
  check Alcotest.int64 (w.W.name ^ ": cold, workers=4 == workers=1") want
    (cold 4);
  List.iter
    (fun workers ->
      let s =
        Whatif.Service.create
          ~config:(Whatif.Config.make ~workers ())
          ~rowset:w.W.ri_config ~base eng
      in
      List.iter
        (fun run ->
          match Whatif.Service.run s target with
          | Ok r ->
              check Alcotest.int64
                (Printf.sprintf "%s: workers=%d, %s answer == cold" w.W.name
                   workers run)
                want r.Whatif.Service.outcome.Whatif.final_db_hash
          | Error e -> Alcotest.fail (Whatif.Error.to_string e))
        [ "primed"; "repeated"; "repeated again" ];
      let st = Whatif.Service.stats s in
      check Alcotest.bool (w.W.name ^ ": one analyzer build") true
        (st.Whatif.Service.analyzer_builds = 1))
    [ 1; 4 ]

(* The read-only tier through a warm service. Removals of writers leave
   it down. A [Remove] and a [Change] at a read-only τ, an entry the
   service's pass left underived, asked while removals run on another
   domain, raise the analyzer's own tier once, under the write lock and
   without a publish. DML and DDL ingests extend the analyzer, which
   keeps it; the history rewritten in place rebuilds the analyzer
   without it, and the next question at a read-only τ raises it again.
   At workers 1/2/4/8 every answer equals a fresh service's and the
   full-replay oracle's, and each question answers with the same hash
   at every worker count. *)
let test_service_tier (w : W.t) () =
  let hashes = Hashtbl.create 16 in
  List.iter
    (fun workers ->
      let eng, base = build ~mode:R.Raw w ~n:40 ~dep_rate:0.3 in
      let log = Engine.log eng and rowset = w.W.ri_config in
      let anl = Analyzer.analyze ~config:rowset ~base log in
      let n = Log.length log in
      let history = List.init n (fun i -> Log.entry log (i + 1)) in
      let writes i = (Analyzer.info anl i).Analyzer.rw.Rwset.w <> Rwset.Colset.empty in
      let writers, readers = List.partition writes (List.init (n - 1) (fun i -> i + 2)) in
      if readers = [] then Alcotest.failf "%s: no read-only entry after the first" w.W.name;
      let tau_ro = List.nth readers (List.length readers / 2) in
      let updates =
        List.filter
          (fun i -> String.starts_with ~prefix:"UPDATE" (Log.entry log i).Log.sql)
          writers
      in
      if updates = [] then Alcotest.failf "%s: no UPDATE" w.W.name;
      let writer_qs = List.map remove [ List.hd writers; List.nth writers (List.length writers / 2) ] in
      let read_only_qs =
        [ remove tau_ro;
          { Analyzer.tau = tau_ro; op = Analyzer.Change (Log.entry log (List.hd updates)).Log.stmt } ]
      in
      let obs = Uv_obs.Trace.create () in
      let config = Whatif.Config.make ~workers ~obs () in
      let svc = Whatif.Service.create ~config ~rowset ~base eng in
      Whatif.Service.publish svc;
      let ask svc target =
        match Whatif.Service.run svc target with
        | Ok r -> r.Whatif.Service.outcome
        | Error e -> Alcotest.fail (Whatif.Error.to_string e)
      in
      let check_answer ~phase (target : Analyzer.target) (out : Whatif.outcome) =
        let question =
          Printf.sprintf "%s@%d"
            (match target.Analyzer.op with Analyzer.Remove -> "remove" | _ -> "change")
            target.Analyzer.tau
        in
        let label = Printf.sprintf "%s workers=%d %s: %s" w.W.name workers phase question in
        (* untraced, so that the counters stay the warm service's *)
        let fresh =
          Whatif.Service.create ~config:(Whatif.Config.make ~workers ()) ~rowset ~base eng
        in
        check Alcotest.int64 (label ^ ": == a fresh service")
          (ask fresh target).Whatif.final_db_hash out.Whatif.final_db_hash;
        let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog eng)) in
        Whatif.commit merged out;
        check
          Alcotest.(list (pair string int64))
          (label ^ ": universe == full-replay oracle")
          (table_hashes (Engine.catalog (target_oracle eng base target)))
          (table_hashes (Engine.catalog merged));
        match Hashtbl.find_opt hashes (phase, question) with
        | None -> Hashtbl.replace hashes (phase, question) out.Whatif.final_db_hash
        | Some h -> check Alcotest.int64 (label ^ ": == workers=1") h out.Whatif.final_db_hash
      in
      let ask_all ~phase qs = List.iter (fun q -> check_answer ~phase q (ask svc q)) qs in
      let raised () = Uv_obs.Trace.counter_value obs "analyze.grouped_derivations" in
      let deferred () = Uv_obs.Trace.counter_value obs "analyze.readonly_deferred" in
      let stats () = Whatif.Service.stats svc in
      let publishes () = (stats ()).Whatif.Service.publishes in
      ask_all ~phase:"warm" writer_qs;
      check Alcotest.int (w.W.name ^ ": removals of writers leave the tier down") 0 (raised ());
      if deferred () = 0 then
        Alcotest.failf "%s: the service derived every read-only entry" w.W.name;
      let others =
        Domain.spawn (fun () ->
            List.concat_map (fun _ -> List.map (fun q -> (q, ask svc q)) writer_qs) [ 1; 2; 3 ])
      in
      let before = publishes () in
      let answers = List.map (fun q -> (q, ask svc q)) read_only_qs in
      let concurrent = Domain.join others in
      check Alcotest.int (w.W.name ^ ": the tier is raised without a publish") before
        (publishes ());
      check Alcotest.int (w.W.name ^ ": a read-only tau raised the tier once") 1 (raised ());
      List.iter (fun (q, out) -> check_answer ~phase:"concurrent" q out) answers;
      List.iter (fun (q, out) -> check_answer ~phase:"warm" q out) concurrent;
      let batch = List.filteri (fun k _ -> k < 3) updates in
      ignore
        (Whatif.Service.ingest_sql svc
           (String.concat ";\n" (List.map (fun i -> (Log.entry log i).Log.sql) batch) ^ ";")
          : int * int);
      ask_all ~phase:"ingested" ((remove (Log.length log) :: writer_qs) @ read_only_qs);
      check Alcotest.int (w.W.name ^ ": a DML ingest keeps the tier") 1 (raised ());
      (* DDL extends the analyzer, which keeps the tier *)
      let extends = (stats ()).Whatif.Service.analyzer_extends in
      ignore
        (Whatif.Service.ingest_sql svc "CREATE TABLE uv_tier_probe (id INT PRIMARY KEY);"
          : int * int);
      check Alcotest.int (w.W.name ^ ": DDL is no rebuild") 1
        (stats ()).Whatif.Service.analyzer_builds;
      check Alcotest.int (w.W.name ^ ": DDL is an extend") (extends + 1)
        (stats ()).Whatif.Service.analyzer_extends;
      let before = publishes () in
      ask_all ~phase:"ddl" read_only_qs;
      check Alcotest.int (w.W.name ^ ": a DDL ingest keeps the tier") 1 (raised ());
      check Alcotest.int (w.W.name ^ ": no question publishes after the DDL") before
        (publishes ());
      (* the history rewritten in place: the original entries again, from
         the base *)
      Engine.restore eng base;
      Engine.reset_log eng;
      List.iter
        (fun (e : Log.entry) ->
          try ignore (Engine.exec ~nondet:e.Log.nondet ?app_txn:e.Log.app_txn eng e.Log.stmt)
          with Engine.Sql_error _ | Engine.Signal_raised _ -> ())
        history;
      let deferred_before = deferred () in
      ask_all ~phase:"rewritten" writer_qs;
      check Alcotest.int (w.W.name ^ ": the rewrite rebuilds") 2
        (stats ()).Whatif.Service.analyzer_builds;
      check Alcotest.int (w.W.name ^ ": the rebuild is without the tier") 1 (raised ());
      check Alcotest.bool (w.W.name ^ ": the rebuild defers read-only entries again") true
        (deferred () > deferred_before);
      ask_all ~phase:"rewritten" read_only_qs;
      check Alcotest.int (w.W.name ^ ": a read-only tau raises the tier again") 2 (raised ()))
    [ 1; 2; 4; 8 ]

let workload_cases (w : W.t) =
  ( "determinism: " ^ w.W.name,
    [
      Alcotest.test_case "workers in {1,2,4,8} == serial" `Slow
        (test_workers_invariant w);
      Alcotest.test_case "DAG waves == commit order, whole history" `Slow
        (test_schedules_agree w);
    ] )

let () =
  Alcotest.run "uv_parallel"
    (List.map workload_cases (W.all ())
    @ [
        ( "cached == cold",
          List.map
            (fun (w : W.t) ->
              Alcotest.test_case (w.W.name ^ ": service answers == cold run")
                `Quick (test_cached_equals_cold w))
            (W.all ())
          @ [
              Alcotest.test_case "RI-teaching questions on four domains" `Quick
                test_service_teaching_questions;
            ] );
        ( "service tier",
          List.map
            (fun (w : W.t) ->
              Alcotest.test_case (w.W.name ^ ": read-only tau, ingest, rewrite") `Quick
                (test_service_tier w))
            (W.all ()) );
        ( "merged history",
          [
            Alcotest.test_case "survives append and truncation" `Quick
              test_merged_log_after_truncation;
          ] );
        ( "redo",
          [
            Alcotest.test_case "(a) blind write" `Quick test_redo_blind_write;
            Alcotest.test_case "(b) UNIQUE guard" `Quick test_redo_unique_guard;
            Alcotest.test_case "(b') UNIQUE guard across row keys" `Quick
              test_redo_unique_in_wave;
            Alcotest.test_case "(c) FK parent inserted by tau" `Quick
              test_redo_fk_parent;
            Alcotest.test_case "(d) wildcard read and write" `Quick
              test_redo_wildcard;
            Alcotest.test_case "(e) historical rowids" `Quick
              test_redo_historical_rowids;
            Alcotest.test_case "(f) a non-member rewrote a column the WHERE reads"
              `Quick test_redo_stale_where;
            Alcotest.test_case "(g) stop before the first member" `Quick
              test_stop_noop_tau;
            Alcotest.test_case "(h) stop mid-replay, restamped entries" `Quick
              test_stop_mid_replay;
            Alcotest.test_case "(i) stop before a member insert" `Quick
              test_stop_before_insert;
            Alcotest.test_case "(j) stop while an insert is left" `Quick
              test_stop_insert_left;
            Alcotest.test_case "(k) stop keeps the replay's counter" `Quick
              test_stop_auto_increment;
            Alcotest.test_case "(l) inserts past history's count" `Quick
              test_redo_extra_insert;
            Alcotest.test_case "(m) a changed INSERT takes tau's rowid" `Quick
              test_redo_change_head;
            Alcotest.test_case "(n) scan order of re-inserted rows" `Quick
              test_redo_scan_order;
            Alcotest.test_case "existence guard" `Quick
              test_redo_existence_guard;
            Alcotest.test_case "plain DML only" `Quick test_redo_plain_dml_only;
            Alcotest.test_case "(o) table facts follow trigger DDL" `Quick
              test_redo_facts_follow_ddl;
            Alcotest.test_case "(p) the stop cursor starts at a loud member" `Quick
              test_stop_cursor_at_loud_member;
            Alcotest.test_case "(q) a removed key move" `Quick test_redo_key_move;
            Alcotest.test_case "(r) two questions remove different triggers" `Quick
              test_facts_two_ddl_questions;
            Alcotest.test_case "(s) a key rewritten under the PRIMARY KEY fallback" `Quick
              test_redo_pk_dimension;
            Alcotest.test_case "(t) stop over a row no member meets" `Quick
              test_stop_over_dirty_row;
            Alcotest.test_case "(u) stop over a row tau inserted or deleted" `Quick
              test_stop_row_presence;
            Alcotest.test_case "(v) a WHERE selecting the dirty row on the replay's side"
              `Quick test_stop_replay_side_where;
            Alcotest.test_case "(w) stop over rows executed members left dirty" `Quick
              test_stop_after_executed;
            Alcotest.test_case "(x) a clean verdict after the set changed" `Quick
              test_redo_verdict_memo;
            Alcotest.test_case "(y) undone counts the rollback the question ran" `Quick
              test_undone_counts_the_rollback_run;
          ]
          @ List.map
              (fun (w : W.t) ->
                Alcotest.test_case (w.W.name ^ ": redo == execute") `Quick
                  (test_redo_generated w))
              (W.all ())
          @ [
              Alcotest.test_case "question-time merges: redo == execute" `Quick
                test_redo_merge_targets;
            ] );
        ( "small replays",
          List.map
            (fun (w : W.t) ->
              Alcotest.test_case (w.W.name ^ ": 0 and 1 members") `Quick
                (test_small_replays w))
            (W.all ())
          @ [
              Alcotest.test_case "removed DDL, no member" `Quick test_small_ddl_tau;
              Alcotest.test_case "empty removal allocates the same at 1 000 and 5 000 entries"
                `Quick test_small_alloc_flat;
            ]
        );
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
        ( "commit order",
          [
            Alcotest.test_case "DDL members == serial goldens" `Quick
              test_ddl_members_golden;
            Alcotest.test_case "hash-jumper hit and miss == serial goldens"
              `Quick test_hash_jumper_golden;
            Alcotest.test_case "retry, then abort" `Quick test_retry_then_abort;
            Alcotest.test_case "check and stop_after hooks" `Quick
              test_commit_order_hooks;
          ] );
        ( "conflict-dag",
          [
            Alcotest.test_case "wave layering" `Quick test_waves_layering;
            Alcotest.test_case "empty & chain" `Quick
              test_waves_empty_and_chain;
            Alcotest.test_case "makespan parity" `Quick test_makespan_parity;
          ] );
        ( "engine deltas",
          List.map
            (fun (w : W.t) ->
              Alcotest.test_case (w.W.name ^ " == journal reference") `Quick
                (test_engine_deltas_workload w))
            (W.all ())
          @ [
              Alcotest.test_case "hand-built history == journal reference"
                `Quick test_engine_deltas_hand_built;
            ] );
        ( "logged SQL",
          List.map
            (fun (w : W.t) ->
              Alcotest.test_case (w.W.name ^ ": stmt_compact stmt = sql") `Quick
                (test_logged_sql_is_rendering w))
            (W.all ()) );
        ( "replay DAG",
          List.map
            (fun (w : W.t) ->
              Alcotest.test_case (w.W.name ^ " == reference builder") `Quick
                (test_replay_dag_workload w))
            (W.all ())
          @ [
              Alcotest.test_case "hand-built history == reference builder"
                `Quick test_replay_dag_hand_built;
            ] );
      ])
