(* Post-incident forensics with the durable log and replay-set provenance.

   The scenario (paper §1's "recovery from attack transactions" use case,
   with the §6 tooling): a payroll service keeps its ULOGv1 statement log
   on disk. After the fact, an auditor

     1. loads the persisted log and rebuilds the database bit-for-bit,
     2. locates the attacker's raise,
     3. asks the dependency analyzer to EXPLAIN its blast radius —
        which later statements were tainted, and through which
        column/row conflicts,
     4. retroactively removes it and reports the repaired payroll.

   Run with: dune exec examples/audit_forensics.exe *)

open Uv_db
open Uv_retroactive

let section title = Printf.printf "\n=== %s ===\n%!" title

let show_table e title sql =
  Printf.printf "%s\n" title;
  let r = Engine.query_sql e sql in
  List.iter
    (fun row ->
      Printf.printf "  %s\n"
        (String.concat "  "
           (Array.to_list (Array.map Uv_sql.Value.to_string row))))
    r.Engine.rows

(* ------------------------------------------------------------------ *)
(* 1. The production history (what actually happened)                   *)
(* ------------------------------------------------------------------ *)

let production_history =
  [
    "CREATE TABLE staff (id INT PRIMARY KEY, name VARCHAR(16), salary INT)";
    "CREATE TABLE payouts (month INT, staff_id INT, amount INT)";
    "CREATE TABLE totals (month INT PRIMARY KEY, paid INT)";
    "INSERT INTO staff VALUES (1, 'mallory', 3000), (2, 'alice', 4200), (3, 'bob', 3900)";
    (* month 1 payroll: per-person payouts + ledger total *)
    "INSERT INTO payouts SELECT 1, id, salary FROM staff";
    "INSERT INTO totals VALUES (1, (SELECT SUM(amount) FROM payouts WHERE month = 1))";
    (* the attack: mallory edits her own salary *)
    "UPDATE staff SET salary = 9000 WHERE id = 1";
    (* legitimate change, later: alice gets a raise *)
    "UPDATE staff SET salary = 4500 WHERE id = 2";
    (* month 2 payroll runs on the tainted data *)
    "INSERT INTO payouts SELECT 2, id, salary FROM staff";
    "INSERT INTO totals VALUES (2, (SELECT SUM(amount) FROM payouts WHERE month = 2))";
  ]

let () =
  (* production executes and persists its log *)
  let prod = Engine.create () in
  List.iter (fun sql -> ignore (Engine.exec_sql prod sql)) production_history;
  let log_path = Filename.temp_file "payroll" ".ulog" in
  Log_store.save_log_file (Engine.log prod) ~path:log_path;
  section "production";
  Printf.printf "history persisted: %d statements -> %s\n"
    (Log.length (Engine.log prod)) log_path;

  (* ---------------------------------------------------------------- *)
  (* 2. The audit starts from the durable log alone                     *)
  (* ---------------------------------------------------------------- *)
  section "audit: rebuild from the log";
  let audit = Engine.create () in
  ignore (Log_io.replay audit (Log_store.load_log_file ~path:log_path) : int list);
  Sys.remove log_path;
  Printf.printf "rebuilt database %s production\n"
    (if Int64.equal (Engine.db_hash audit) (Engine.db_hash prod) then
       "matches"
     else "DIVERGES from");
  show_table audit "month-2 payouts as recorded:"
    "SELECT staff_id, amount FROM payouts WHERE month = 2 ORDER BY staff_id";

  (* ---------------------------------------------------------------- *)
  (* 3. Blast radius of the malicious statement                         *)
  (* ---------------------------------------------------------------- *)
  section "audit: blast radius of statement 7 (the salary edit)";
  let analyzer = Analyzer.analyze (Engine.log audit) in
  let target = { Analyzer.tau = 7; op = Analyzer.Remove } in
  let rs = Analyzer.replay_set analyzer target in
  let lines = Analyzer.explain_report analyzer target rs in
  Printf.printf "%d of %d later statements are tainted:\n"
    rs.Analyzer.member_count
    (Log.length (Engine.log audit) - 7);
  List.iter (fun l -> Printf.printf "  %s\n" l) lines;

  (* ---------------------------------------------------------------- *)
  (* 4. Retroactively remove it                                         *)
  (* ---------------------------------------------------------------- *)
  section "what-if: the attack never happened";
  let out = Whatif.run_exn ~analyzer audit target in
  Printf.printf "replayed %d statements; universe %s\n" out.Whatif.replayed
    (if out.Whatif.changed then "changed" else "unchanged");
  (match
     (Whatif.query_new_universe out
        (match
           Uv_sql.Parser.parse_stmt
             "SELECT staff_id, amount FROM payouts WHERE month = 2 ORDER BY staff_id"
         with
        | Uv_sql.Ast.Select s -> s
        | _ -> assert false))
       .Engine.rows
   with
  | rows ->
      print_endline "month-2 payouts with the attack removed:";
      List.iter
        (fun row ->
          Printf.printf "  %s  %s\n"
            (Uv_sql.Value.to_string row.(0))
            (Uv_sql.Value.to_string row.(1)))
        rows);
  (* alice's legitimate raise must survive; mallory reverts to 3000 *)
  let q sel =
    match Uv_sql.Parser.parse_stmt sel with
    | Uv_sql.Ast.Select s ->
        Uv_sql.Value.to_string
          (List.hd (Whatif.query_new_universe out s).Engine.rows).(0)
    | _ -> assert false
  in
  Printf.printf "mallory's month-2 payout: %s (expected 3000)\n"
    (q "SELECT amount FROM payouts WHERE month = 2 AND staff_id = 1");
  Printf.printf "alice's month-2 payout:   %s (raise preserved, expected 4500)\n"
    (q "SELECT amount FROM payouts WHERE month = 2 AND staff_id = 2");
  Printf.printf "repaired month-2 total:   %s\n"
    (q "SELECT paid FROM totals WHERE month = 2")
