(* Tests for ultraverse.retroactive: Table A column-wise policies, Table B
   row-wise policies, dependency-graph closure, the what-if driver against
   a full-replay oracle (Definition E.1), the Hash-jumper, and the
   scheduler. Includes the paper's running examples: Figure 6 (e-commerce
   dependency graph), Table 2 (row-wise independence), and Figure 7
   (Hash-jump on overwritten membership). *)

open Uv_sql
open Uv_db
open Uv_retroactive

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let run e sql = ignore (Engine.exec_sql e sql)

let qint e sql =
  let r = Engine.query_sql e sql in
  match r.Engine.rows with
  | row :: _ -> Value.to_int row.(0)
  | [] -> Alcotest.failf "no rows from %s" sql

let rw_of ?(schema = []) sql =
  let sv = Schema_view.create () in
  List.iter (fun ddl -> Schema_view.apply sv (Parser.parse_stmt ddl)) schema;
  Rwset.of_stmt sv (Parser.parse_stmt sql)

let has_r key rw = Rwset.Colset.mem key rw.Rwset.r
let has_w key rw = Rwset.Colset.mem key rw.Rwset.w

(* ------------------------------------------------------------------ *)
(* Column-wise policy (Table A)                                         *)
(* ------------------------------------------------------------------ *)

let users_ddl = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(8), age INT)"

let test_rw_create_table () =
  let rw = rw_of "CREATE TABLE t (a INT, b INT REFERENCES u(x))" in
  Alcotest.(check bool) "writes _S.t" true (has_w "_S.t" rw);
  Alcotest.(check bool) "reads _S.t" true (has_r "_S.t" rw);
  Alcotest.(check bool) "reads fk source schema" true (has_r "_S.u" rw)

let test_rw_select () =
  let rw = rw_of ~schema:[ users_ddl ] "SELECT name FROM users WHERE age > 30" in
  Alcotest.(check bool) "reads name" true (has_r "users.name" rw);
  Alcotest.(check bool) "reads age" true (has_r "users.age" rw);
  Alcotest.(check bool) "reads schema" true (has_r "_S.users" rw);
  Alcotest.(check bool) "write set empty" true (Rwset.Colset.is_empty rw.Rwset.w)

let test_rw_insert_select () =
  let rw =
    rw_of
      ~schema:[ users_ddl; "CREATE TABLE archive (id INT, name VARCHAR(8))" ]
      "INSERT INTO archive SELECT id, name FROM users WHERE age > 30"
  in
  Alcotest.(check bool) "writes archive columns" true (has_w "archive.id" rw);
  Alcotest.(check bool) "reads source columns" true (has_r "users.id" rw);
  Alcotest.(check bool) "reads filter column" true (has_r "users.age" rw);
  Alcotest.(check bool) "reads source schema" true (has_r "_S.users" rw);
  Alcotest.(check bool) "does not write source" false (has_w "users.id" rw)

let test_rw_select_having () =
  (* HAVING columns are reads even when absent from projection and WHERE *)
  let rw =
    rw_of ~schema:[ users_ddl ]
      "SELECT name FROM users GROUP BY name HAVING SUM(age) > 100"
  in
  Alcotest.(check bool) "reads having column" true (has_r "users.age" rw);
  (* a subselect inside HAVING reads its source table *)
  let rw =
    rw_of
      ~schema:[ users_ddl; "CREATE TABLE quota (n INT)" ]
      "SELECT name FROM users GROUP BY name HAVING COUNT(*) > (SELECT n FROM quota)"
  in
  Alcotest.(check bool) "reads having subselect" true (has_r "quota.n" rw)

let test_rw_insert_writes_all_columns () =
  let rw = rw_of ~schema:[ users_ddl ] "INSERT INTO users VALUES (1, 'x', 2)" in
  List.iter
    (fun c -> Alcotest.(check bool) ("writes " ^ c) true (has_w ("users." ^ c) rw))
    [ "id"; "name"; "age" ]

let test_rw_insert_auto_increment_reads_pk () =
  let rw =
    rw_of
      ~schema:
        [ "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)" ]
      "INSERT INTO t (v) VALUES (1)"
  in
  Alcotest.(check bool) "reads pk column" true (has_r "t.id" rw)

let test_rw_update_reads_and_writes () =
  let rw =
    rw_of ~schema:[ users_ddl ] "UPDATE users SET age = age + 1 WHERE name = 'x'"
  in
  Alcotest.(check bool) "writes age only" true
    (has_w "users.age" rw && not (has_w "users.name" rw));
  Alcotest.(check bool) "reads assigned source" true (has_r "users.age" rw);
  Alcotest.(check bool) "reads where" true (has_r "users.name" rw)

let test_rw_fk_write_propagation () =
  (* updating a referenced column also writes the referencing FK columns *)
  let schema =
    [ users_ddl; "CREATE TABLE orders (oid INT, uid INT REFERENCES users(id))" ]
  in
  let rw = rw_of ~schema "UPDATE users SET id = 9 WHERE id = 1" in
  Alcotest.(check bool) "fk column written" true (has_w "orders.uid" rw)

let test_rw_call_unions_body () =
  let schema =
    [
      users_ddl;
      "CREATE PROCEDURE p(IN x INT) BEGIN IF x > 0 THEN UPDATE users SET age \
       = 1 WHERE id = x; ELSE DELETE FROM users WHERE id = x; END IF; END";
    ]
  in
  let rw = rw_of ~schema "CALL p(3)" in
  (* both branches merged (§4.2 Branch Conditions) *)
  Alcotest.(check bool) "then-branch write" true (has_w "users.age" rw);
  Alcotest.(check bool) "else-branch write" true (has_w "users.name" rw);
  Alcotest.(check bool) "reads procedure schema" true (has_r "_S.p" rw)

let test_rw_view_expansion () =
  let schema =
    [ users_ddl; "CREATE VIEW adults AS SELECT id, name FROM users WHERE age > 17" ]
  in
  let rw = rw_of ~schema "SELECT name FROM adults" in
  Alcotest.(check bool) "expands to parent column" true (has_r "users.name" rw);
  Alcotest.(check bool) "reads view schema" true (has_r "_S.adults" rw)

let test_rw_trigger_inherited () =
  let schema =
    [
      users_ddl;
      "CREATE TABLE audit (n INT)";
      "CREATE TRIGGER tg AFTER INSERT ON users FOR EACH ROW BEGIN UPDATE \
       audit SET n = n + 1; END";
    ]
  in
  let rw = rw_of ~schema "INSERT INTO users VALUES (1, 'x', 2)" in
  Alcotest.(check bool) "trigger body write inherited" true (has_w "audit.n" rw);
  Alcotest.(check bool) "trigger schema read" true (has_r "_S.tg" rw)

let test_rw_transaction_union () =
  let rw =
    rw_of ~schema:[ users_ddl ]
      "BEGIN TRANSACTION; UPDATE users SET age = 1 WHERE id = 1; DELETE FROM \
       users WHERE id = 2; COMMIT"
  in
  Alcotest.(check bool) "union of writes" true
    (has_w "users.age" rw && has_w "users.name" rw)

let test_rw_trigger_on_update () =
  (* triggers keyed to UPDATE fire for UPDATE only — an INSERT on the
     same table must not inherit the body's sets *)
  let schema =
    [
      users_ddl;
      "CREATE TABLE audit (n INT)";
      "CREATE TRIGGER tu AFTER UPDATE ON users FOR EACH ROW BEGIN UPDATE \
       audit SET n = n + 1; END";
    ]
  in
  let upd = rw_of ~schema "UPDATE users SET age = 2 WHERE id = 1" in
  Alcotest.(check bool) "update inherits trigger write" true
    (has_w "audit.n" upd);
  Alcotest.(check bool) "update reads trigger schema" true
    (has_r "_S.tu" upd);
  let ins = rw_of ~schema "INSERT INTO users VALUES (1, 'x', 2)" in
  Alcotest.(check bool) "insert does not fire the UPDATE trigger" false
    (has_w "audit.n" ins)

let test_rw_write_reads_through_view () =
  (* a write statement whose source is a view reads the parent columns
     the view projects AND the view's own filter columns *)
  let schema =
    [
      users_ddl;
      "CREATE VIEW adults AS SELECT id, name FROM users WHERE age > 17";
      "CREATE TABLE archive (id INT, name VARCHAR(8))";
    ]
  in
  let rw = rw_of ~schema "INSERT INTO archive SELECT id, name FROM adults" in
  Alcotest.(check bool) "reads parent projection" true (has_r "users.id" rw);
  Alcotest.(check bool) "reads view filter column" true (has_r "users.age" rw);
  Alcotest.(check bool) "reads view schema" true (has_r "_S.adults" rw);
  Alcotest.(check bool) "writes the target, not the parent" true
    (has_w "archive.id" rw && not (has_w "users.id" rw))

let test_rw_insert_explicit_ai_still_reads_pk () =
  (* an explicit AUTO_INCREMENT value still bumps the counter, so the
     dependency on the PK column remains even without a fill *)
  let schema = [ "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)" ] in
  let rw = rw_of ~schema "INSERT INTO t (id, v) VALUES (7, 1)" in
  Alcotest.(check bool) "explicit value still reads pk" true (has_r "t.id" rw);
  let isel = rw_of ~schema "INSERT INTO t SELECT v + 1, v FROM t" in
  Alcotest.(check bool) "insert-select reads pk too" true (has_r "t.id" isel)

let test_rw_fk_write_inheritance_on_delete () =
  (* deleting referenced rows cascades a write onto the referencing FK
     columns — but only in the parent-to-child direction *)
  let schema =
    [ users_ddl; "CREATE TABLE orders (oid INT, uid INT REFERENCES users(id))" ]
  in
  let del = rw_of ~schema "DELETE FROM users WHERE id = 1" in
  Alcotest.(check bool) "delete writes referencing fk column" true
    (has_w "orders.uid" del);
  Alcotest.(check bool) "delete writes own columns" true (has_w "users.id" del);
  let child = rw_of ~schema "DELETE FROM orders WHERE oid = 1" in
  Alcotest.(check bool) "child delete does not write the parent" false
    (has_w "users.id" child);
  Alcotest.(check bool) "child delete reads the referenced column" true
    (has_r "users.id" child)

(* ------------------------------------------------------------------ *)
(* Row-wise policy (Table B) — via the analyzer on small histories      *)
(* ------------------------------------------------------------------ *)

(* Table 2 scenario: Bob's and Alice's rows are independent. *)
let test_rowwise_table2_independence () =
  let e = Engine.create () in
  run e "CREATE TABLE Users (uid VARCHAR(8) PRIMARY KEY, nickname VARCHAR(8), email VARCHAR(32))";
  run e "INSERT INTO Users VALUES ('alice01', 'Alice', 'a@g.com')"; (* Q2 *)
  run e "INSERT INTO Users VALUES ('bob99', 'Bob', 'b@y.com')"; (* Q3 *)
  run e "UPDATE Users SET email = 'alice@aol.com' WHERE uid = 'alice01'"; (* Q4 *)
  run e "UPDATE Users SET email = 'bob@hotmail.com' WHERE uid = 'bob99'"; (* Q5 *)
  let analyzer = Analyzer.analyze (Engine.log e) in
  (* remove Q2 (Alice's signup): Q4 depends, Q3/Q5 (Bob) do not *)
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "alice's update replays" true (List.mem 4 rs.Analyzer.member_indexes);
  Alcotest.(check bool) "bob's insert skipped" false (List.mem 3 rs.Analyzer.member_indexes);
  Alcotest.(check bool) "bob's update skipped" false (List.mem 5 rs.Analyzer.member_indexes);
  (* column-only would replay both updates (same email column) *)
  Alcotest.(check bool) "column-only over-approximates" true
    (rs.Analyzer.col_only_count > rs.Analyzer.member_count)

let test_rowwise_alias () =
  (* §4.3 alias example: DELETE by nickname maps to Bob's uid through the
     alias learned at insert time *)
  let e = Engine.create () in
  run e "CREATE TABLE Users (uid VARCHAR(8) PRIMARY KEY, nickname VARCHAR(8))";
  run e "INSERT INTO Users VALUES ('alice01', 'Alice')";
  run e "INSERT INTO Users VALUES ('bob99', 'Bob')";
  run e "DELETE FROM Users WHERE nickname = 'Bob'";
  let config =
    {
      Uv_retroactive.Rowset.ri_columns = [ ("Users", [ "uid" ]) ];
      ri_aliases = [ ("Users", "nickname", "uid") ];
    }
  in
  let analyzer = Analyzer.analyze ~config (Engine.log e) in
  (* removing Alice's insert must NOT pull in the Bob-targeted delete *)
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "alias delete skipped" false (List.mem 4 rs.Analyzer.member_indexes);
  (* removing Bob's insert must pull it in *)
  let rs2 = Analyzer.replay_set analyzer { Analyzer.tau = 3; op = Analyzer.Remove } in
  Alcotest.(check bool) "alias delete replays" true (List.mem 4 rs2.Analyzer.member_indexes)

let test_rowwise_merged_ri_values () =
  (* §4.3 merging: UPDATE rewrites the RI value; both ids refer to the
     same physical row afterwards *)
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "INSERT INTO t VALUES (1, 10)"; (* Q2 *)
  run e "UPDATE t SET id = 2 WHERE id = 1"; (* Q3 merges 1 ~ 2 *)
  run e "UPDATE t SET v = 99 WHERE id = 2"; (* Q4 touches the same row *)
  let analyzer = Analyzer.analyze (Engine.log e) in
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "post-merge access replays" true (List.mem 4 rs.Analyzer.member_indexes)

let test_rowwise_wildcard_where () =
  (* no RI constraint in WHERE -> wildcard -> conflicts with everything *)
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "INSERT INTO t VALUES (1, 10)";
  run e "INSERT INTO t VALUES (2, 20)";
  run e "UPDATE t SET v = 0 WHERE v > 5"; (* wildcard row access *)
  let analyzer = Analyzer.analyze (Engine.log e) in
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "wildcard update replays" true (List.mem 4 rs.Analyzer.member_indexes)

let test_ddl_dependency () =
  (* retroactively removing a CREATE PROCEDURE pulls in its CALLs via _S *)
  let e = Engine.create () in
  run e "CREATE TABLE t (a INT)";
  run e "CREATE PROCEDURE p() BEGIN INSERT INTO t VALUES (1); END";
  run e "CALL p()";
  run e "INSERT INTO t VALUES (5)";
  let analyzer = Analyzer.analyze (Engine.log e) in
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "call depends on create procedure" true
    (List.mem 3 rs.Analyzer.member_indexes)

let test_read_only_never_joins () =
  let e = Engine.create () in
  run e "CREATE TABLE t (a INT)";
  run e "INSERT INTO t VALUES (1)";
  run e "SELECT COUNT(*) FROM t";
  run e "UPDATE t SET a = 2 WHERE a = 1";
  let analyzer = Analyzer.analyze (Engine.log e) in
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "standalone SELECT not in replay set" false
    (List.mem 3 rs.Analyzer.member_indexes);
  Alcotest.(check bool) "later writer joins" true (List.mem 4 rs.Analyzer.member_indexes)

(* direct Table B extraction checks *)
let extract_rows ?(config = Rowset.default_config) ~schema sql =
  let sv = Schema_view.create () in
  List.iter (fun ddl -> Schema_view.apply sv (Parser.parse_stmt ddl)) schema;
  let state = Rowset.create config in
  Rowset.of_entry state sv (Parser.parse_stmt sql) []

let riset_of rows table side =
  match List.assoc_opt table rows with
  | Some access when Array.length access > 0 ->
      if side = `R then access.(0).Rowset.dr else access.(0).Rowset.dw
  | _ -> Alcotest.failf "no access recorded for %s" table

let vals = function
  | Rowset.Vals s -> List.sort compare (Rowset.Vset.elements s)
  | Rowset.Any -> Alcotest.fail "expected concrete values, got Any"

let t_schema = [ "CREATE TABLE t (id INT PRIMARY KEY, v INT)" ]

let test_tableb_equality_constraint () =
  let rows = extract_rows ~schema:t_schema "UPDATE t SET v = 9 WHERE id = 5" in
  check Alcotest.(list string) "write pins the row" [ "I5" ]
    (vals (riset_of rows "t" `W))

let test_tableb_in_list () =
  let rows = extract_rows ~schema:t_schema "DELETE FROM t WHERE id IN (1, 2, 3)" in
  check Alcotest.(list string) "IN enumerates" [ "I1"; "I2"; "I3" ]
    (vals (riset_of rows "t" `W))

let test_tableb_and_intersects () =
  let rows =
    extract_rows ~schema:t_schema "UPDATE t SET v = 0 WHERE id = 5 AND v > 3"
  in
  check Alcotest.(list string) "AND keeps the pinned id" [ "I5" ]
    (vals (riset_of rows "t" `W))

let test_tableb_or_unions () =
  let rows =
    extract_rows ~schema:t_schema "UPDATE t SET v = 0 WHERE id = 5 OR id = 7"
  in
  check Alcotest.(list string) "OR unions" [ "I5"; "I7" ]
    (vals (riset_of rows "t" `W))

let test_tableb_range_is_wildcard () =
  let rows = extract_rows ~schema:t_schema "UPDATE t SET v = 0 WHERE id > 5" in
  (match riset_of rows "t" `W with
  | Rowset.Any -> ()
  | _ -> Alcotest.fail "range constraints degrade to wildcard")

let test_tableb_insert_writes_key () =
  let rows = extract_rows ~schema:t_schema "INSERT INTO t VALUES (42, 0)" in
  check Alcotest.(list string) "inserted key" [ "I42" ]
    (vals (riset_of rows "t" `W))

(* ------------------------------------------------------------------ *)
(* Figure 6 end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let figure6_history =
  [
    "CREATE TABLE Users (uid VARCHAR(16) PRIMARY KEY, nickname VARCHAR(32), email VARCHAR(64))";
    "CREATE TABLE Address (owner_uid VARCHAR(16) PRIMARY KEY, city VARCHAR(32))";
    "CREATE TABLE Orders (oid VARCHAR(8) PRIMARY KEY, ord_uid VARCHAR(16))";
    "CREATE TABLE Stats (day INT PRIMARY KEY, total INT)";
    "CREATE PROCEDURE NewOrder(IN orderer_uid VARCHAR(16), IN order_id VARCHAR(8)) lbl: BEGIN \
     DECLARE cnt INT; \
     SELECT COUNT(*) INTO cnt FROM Address WHERE owner_uid = orderer_uid; \
     IF cnt <> 0 THEN INSERT INTO Orders VALUES (order_id, orderer_uid); \
     ELSE LEAVE lbl; END IF; END";
    "INSERT INTO Users VALUES ('alice01', 'Alice', 'al@gmail.com')";
    "INSERT INTO Address VALUES ('alice01', 'Osaka')";
    "CALL NewOrder('alice01', 'ord-1')";
    "INSERT INTO Users VALUES ('bob99', 'Bob', 'bob@yahoo.com')";
    "CALL NewOrder('bob99', 'ord-2')";
    "INSERT INTO Stats VALUES (1, (SELECT COUNT(*) FROM Orders))";
    "UPDATE Users SET email = 'alice@aol.com' WHERE uid = 'alice01'";
    "UPDATE Users SET email = 'bob@hotmail.com' WHERE uid = 'bob99'";
  ]

let build_figure6 () =
  let e = Engine.create () in
  List.iter (run e) figure6_history;
  e

let oracle_replay e ~skip =
  (* Definition E.1: replay the whole log minus [skip] on a fresh engine *)
  let e2 = Engine.create () in
  Log.iter (Engine.log e) (fun entry ->
      if entry.Log.index <> skip then
        try
          ignore
            (Engine.exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn e2
               entry.Log.stmt)
        with Engine.Sql_error _ | Engine.Signal_raised _ -> ());
  e2

let table_testable = Alcotest.(list (pair string int64))

let all_hashes e =
  List.map (fun (n, t) -> (n, Storage.hash t)) (Catalog.tables (Engine.catalog e))

let merged_universe e out =
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
  Whatif.commit merged out;
  merged

let test_figure6_remove_address () =
  let e = build_figure6 () in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 7; op = Analyzer.Remove } in
  let m i = List.mem i out.Whatif.replay.Analyzer.member_indexes in
  Alcotest.(check bool) "Q8 (Alice order) replays" true (m 8);
  Alcotest.(check bool) "Q11 (stats) replays" true (m 11);
  Alcotest.(check bool) "Q9 (Bob signup) skipped" false (m 9);
  Alcotest.(check bool) "Q10 (Bob order attempt) skipped" false (m 10);
  Alcotest.(check bool) "Q12/Q13 (emails) skipped" true (not (m 12) && not (m 13));
  let truth = oracle_replay e ~skip:7 in
  check table_testable "final state equals oracle" (all_hashes truth)
    (all_hashes (merged_universe e out));
  (* semantic checks: no address -> no order -> stats total 0 *)
  let merged = merged_universe e out in
  check Alcotest.int "no orders in new universe" 0
    (qint merged "SELECT COUNT(*) FROM Orders");
  check Alcotest.int "stats reflect no orders" 0
    (qint merged "SELECT total FROM Stats WHERE day = 1")

(* An UPDATE through an updatable view fires its base table's triggers,
   in the engine and so in the row sets: removing #7 reaches #8 through
   the trigger's write to [u]. The rows through the view are the rows
   through the table. *)
let view_trigger_history ~target =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
      "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
      "INSERT INTO t VALUES (2, 0)";
      "INSERT INTO u VALUES (1, 10)";
      "CREATE VIEW vw AS SELECT id, v FROM t";
      "CREATE TRIGGER tr AFTER UPDATE ON t FOR EACH ROW BEGIN UPDATE u SET w \
       = w + 1 WHERE id = 1; END";
      Printf.sprintf "UPDATE %s SET v = 5 WHERE id = 2" target;
      "UPDATE u SET w = w * 2 WHERE id = 1";
    ];
  e

let test_view_dml_fires_base_triggers () =
  let rows_at7 target =
    let e = view_trigger_history ~target in
    let analyzer = Analyzer.analyze (Engine.log e) in
    String.concat " | "
      (List.map
         (fun (table, access) ->
           Format.asprintf "%s: %a" table Rowset.pp_access access)
         (Analyzer.info analyzer 7).Analyzer.rows)
  in
  check Alcotest.string "rows through the view == through the table"
    (rows_at7 "t") (rows_at7 "vw");
  let e = view_trigger_history ~target:"vw" in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let truth = oracle_replay e ~skip:7 in
  List.iter
    (fun (mode, name) ->
      let config = Whatif.Config.make ~mode () in
      let out =
        Whatif.run_exn ~config ~analyzer e { Analyzer.tau = 7; op = Analyzer.Remove }
      in
      check Alcotest.(list int) (name ^ ": members") [ 8 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check table_testable (name ^ ": final state equals oracle")
        (all_hashes truth)
        (all_hashes (merged_universe e out)))
    [ (Analyzer.Cell, "Cell"); (Analyzer.Row_only, "Row_only") ]

(* DML inside a transaction fires its write table's triggers, in the
   engine and so in the row sets: removing #6 reaches the transaction at
   #7 through its UPDATE's trigger write to [audit]. Without BEGIN …
   COMMIT the same UPDATE is reached in every mode. *)
let test_transaction_dml_fires_triggers () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
      "CREATE TABLE audit (id INT PRIMARY KEY, n INT)";
      "CREATE TRIGGER ta AFTER UPDATE ON acct FOR EACH ROW BEGIN UPDATE \
       audit SET n = n + 1 WHERE id = 1; END";
      "INSERT INTO audit VALUES (1, 0)";
      "INSERT INTO acct VALUES (2, 100)";
      "UPDATE audit SET n = n + 10 WHERE id = 1";
      "BEGIN; UPDATE acct SET bal = bal + 1 WHERE id = 2; COMMIT";
    ];
  let analyzer = Analyzer.analyze (Engine.log e) in
  let truth = oracle_replay e ~skip:6 in
  List.iter
    (fun (mode, name) ->
      let config = Whatif.Config.make ~mode () in
      let out =
        Whatif.run_exn ~config ~analyzer e { Analyzer.tau = 6; op = Analyzer.Remove }
      in
      check Alcotest.(list int) (name ^ ": members") [ 7 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check table_testable (name ^ ": final state equals oracle")
        (all_hashes truth)
        (all_hashes (merged_universe e out)))
    [
      (Analyzer.Cell, "Cell");
      (Analyzer.Row_only, "Row_only");
      (Analyzer.Col_only, "Col_only");
    ]

let test_figure6_add_address_for_bob () =
  let e = build_figure6 () in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let stmt = Parser.parse_stmt "INSERT INTO Address VALUES ('bob99', 'Tokyo')" in
  (* add just before Q10 so Bob's order attempt now succeeds *)
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 10; op = Analyzer.Add stmt } in
  let merged = merged_universe e out in
  check Alcotest.int "both orders exist now" 2
    (qint merged "SELECT COUNT(*) FROM Orders");
  check Alcotest.int "stats reflect two orders" 2
    (qint merged "SELECT total FROM Stats WHERE day = 1")

let test_figure6_change_query () =
  let e = build_figure6 () in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let stmt = Parser.parse_stmt "CALL NewOrder('bob99', 'ord-9')" in
  (* change Q8 from Alice's order to Bob's (who has no address) *)
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 8; op = Analyzer.Change stmt } in
  let merged = merged_universe e out in
  check Alcotest.int "alice's order gone, bob's fails" 0
    (qint merged "SELECT COUNT(*) FROM Orders")

let test_mutated_consulted_classification () =
  let e = build_figure6 () in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let rs = Analyzer.replay_set analyzer { Analyzer.tau = 7; op = Analyzer.Remove } in
  Alcotest.(check bool) "Orders mutated" true (List.mem "Orders" rs.Analyzer.mutated);
  Alcotest.(check bool) "Stats mutated" true (List.mem "Stats" rs.Analyzer.mutated);
  Alcotest.(check bool) "Users untouched" true
    (not (List.mem "Users" rs.Analyzer.mutated)
    && not (List.mem "Users" rs.Analyzer.consulted))

let test_remove_readonly_target () =
  (* removing a standalone SELECT cannot change anything *)
  let e = Engine.create () in
  run e "CREATE TABLE t (a INT)";
  run e "INSERT INTO t VALUES (1)";
  run e "SELECT COUNT(*) FROM t";
  run e "INSERT INTO t VALUES (2)";
  let analyzer = Analyzer.analyze (Engine.log e) in
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 3; op = Analyzer.Remove } in
  check Alcotest.int "nothing replays" 0 out.Whatif.replayed;
  let truth = oracle_replay e ~skip:3 in
  check table_testable "oracle agrees" (all_hashes truth)
    (all_hashes (merged_universe e out))

let test_add_at_end_of_history () =
  let e = Engine.create () in
  run e "CREATE TABLE t (a INT)";
  run e "INSERT INTO t VALUES (1)";
  let n = Log.length (Engine.log e) in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let stmt = Parser.parse_stmt "INSERT INTO t VALUES (99)" in
  let out =
    Whatif.run_exn ~analyzer e { Analyzer.tau = n + 1; op = Analyzer.Add stmt }
  in
  let merged = merged_universe e out in
  check Alcotest.int "appended row visible" 2 (qint merged "SELECT COUNT(*) FROM t");
  check Alcotest.int "new log one longer" (n + 1)
    (Log.length (Whatif.new_log out))

let test_remove_create_table () =
  (* retroactively removing a table's creation erases everything that
     touched it; the rest of the database is untouched *)
  let e = Engine.create () in
  run e "CREATE TABLE keepme (a INT)";
  run e "CREATE TABLE doomed (a INT)";
  run e "INSERT INTO doomed VALUES (1)";
  run e "INSERT INTO keepme VALUES (7)";
  run e "UPDATE doomed SET a = 2 WHERE a = 1";
  let analyzer = Analyzer.analyze (Engine.log e) in
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 2; op = Analyzer.Remove } in
  Alcotest.(check bool) "doomed statements failed in the new universe" true
    (out.Whatif.failed_replays >= 1);
  let merged = merged_universe e out in
  (match Engine.query_sql merged "SELECT COUNT(*) FROM doomed" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "doomed table must not exist in the new universe");
  check Alcotest.int "unrelated table intact" 7 (qint merged "SELECT a FROM keepme")

(* ------------------------------------------------------------------ *)
(* Hash-jumper (Figure 7)                                               *)
(* ------------------------------------------------------------------ *)

let test_hash_jumper_figure7 () =
  (* membership levels: removing the initialisation is effectless once the
     later overwrite replays *)
  let e = Engine.create () in
  run e "CREATE TABLE Membership (uid INT PRIMARY KEY, level VARCHAR(8))";
  run e "INSERT INTO Membership VALUES (1, 'gold')"; (* Q2: Alice init *)
  run e "INSERT INTO Membership VALUES (2, 'gold')";
  run e "UPDATE Membership SET level = 'diamond' WHERE uid = 1"; (* overwrite *)
  for i = 3 to 30 do
    run e (Printf.sprintf "INSERT INTO Membership VALUES (%d, 'silver')" i)
  done;
  let analyzer = Analyzer.analyze (Engine.log e) in
  (* change Q2 to initialise Alice as 'bronze' — overwritten later, so the
     final state is unchanged and the jumper can stop at Q4 *)
  let stmt = Parser.parse_stmt "INSERT INTO Membership VALUES (1, 'bronze')" in
  let config = Whatif.Config.make ~hash_jumper:true () in
  let out =
    Whatif.run_exn ~config ~analyzer e { Analyzer.tau = 2; op = Analyzer.Change stmt }
  in
  Alcotest.(check (option int)) "hash hit at the overwrite" (Some 4)
    out.Whatif.hash_jump_at;
  Alcotest.(check bool) "declared effectless" false out.Whatif.changed;
  Alcotest.(check bool) "replay stopped early" true (out.Whatif.replayed < 5)

let test_hash_jumper_no_false_hit () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "INSERT INTO t VALUES (1, 10)";
  run e "UPDATE t SET v = v + 1 WHERE id = 1";
  run e "UPDATE t SET v = v + 1 WHERE id = 1";
  let analyzer = Analyzer.analyze (Engine.log e) in
  (* change the seed value: every later increment produces a different
     state, so the jumper must never fire *)
  let stmt = Parser.parse_stmt "INSERT INTO t VALUES (1, 100)" in
  let config = Whatif.Config.make ~hash_jumper:true () in
  let out =
    Whatif.run_exn ~config ~analyzer e { Analyzer.tau = 2; op = Analyzer.Change stmt }
  in
  Alcotest.(check (option int)) "no hit" None out.Whatif.hash_jump_at;
  Alcotest.(check bool) "changed" true out.Whatif.changed;
  let merged = merged_universe e out in
  check Alcotest.int "new value propagated" 102 (qint merged "SELECT v FROM t")

let test_hash_at_timeline () =
  let e = Engine.create () in
  run e "CREATE TABLE t (a INT)";
  run e "INSERT INTO t VALUES (1)";
  let h_after_2 = Engine.table_hash e "t" in
  run e "INSERT INTO t VALUES (2)";
  let h_after_3 = Engine.table_hash e "t" in
  let j = Hash_jumper.of_log (Engine.log e) in
  check Alcotest.int64 "hash at 2" h_after_2 (Hash_jumper.hash_at j ~table:"t" ~index:2);
  check Alcotest.int64 "hash at 3" h_after_3 (Hash_jumper.hash_at j ~table:"t" ~index:3);
  check Alcotest.int64 "before any write" 0L (Hash_jumper.hash_at j ~table:"t" ~index:1)

(* ------------------------------------------------------------------ *)
(* Replay scheduling: the conflict DAG's makespan and edges             *)
(* ------------------------------------------------------------------ *)

let test_scheduler_independent_parallel () =
  let dag = Conflict_dag.build ~nodes:[ 1; 2; 3; 4 ] ~edges:[] in
  let ms workers = Conflict_dag.makespan dag ~weight:(fun _ -> 1.0) ~workers in
  check (Alcotest.float 1e-9) "fully parallel" 1.0 (ms 4);
  check (Alcotest.float 1e-9) "serial" 4.0 (ms 1)

let test_scheduler_conflict_chain () =
  let dag = Conflict_dag.build ~nodes:[ 1; 2; 3 ] ~edges:[ (2, 1); (3, 2) ] in
  let ms = Conflict_dag.makespan dag ~weight:(fun _ -> 1.0) ~workers:8 in
  check (Alcotest.float 1e-9) "chain serialises" 3.0 ms

let test_dependency_edges_row_refined () =
  (* two updates to different rows produce no edge; same row does *)
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "INSERT INTO t VALUES (1, 0)";
  run e "INSERT INTO t VALUES (2, 0)";
  run e "UPDATE t SET v = 1 WHERE id = 1";
  run e "UPDATE t SET v = 2 WHERE id = 2";
  run e "UPDATE t SET v = 3 WHERE id = 1";
  let analyzer = Analyzer.analyze (Engine.log e) in
  let members = [ 2; 3; 4; 5; 6 ] in
  let edges = Conflict_dag.edges (Analyzer.replay_dag analyzer ~members) in
  Alcotest.(check bool) "same-row updates ordered" true (List.mem (6, 4) edges);
  Alcotest.(check bool) "different-row updates unordered" true
    (not (List.mem (5, 4) edges))

(* ------------------------------------------------------------------ *)
(* Property: what-if == full-replay oracle on random histories          *)
(* ------------------------------------------------------------------ *)

let random_history prng n =
  let stmts = ref [] in
  for _ = 1 to n do
    let id () = 1 + Uv_util.Prng.int prng 6 in
    let sql =
      match Uv_util.Prng.int prng 6 with
      | 0 ->
          Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)"
            (100 + Uv_util.Prng.int prng 10_000)
            (Uv_util.Prng.int prng 50) (Uv_util.Prng.int prng 50)
      | 1 ->
          Printf.sprintf "UPDATE t SET v = %d WHERE id = %d"
            (Uv_util.Prng.int prng 100) (id ())
      | 2 ->
          Printf.sprintf "UPDATE t SET w = w + %d WHERE v > %d"
            (Uv_util.Prng.int prng 5) (Uv_util.Prng.int prng 60)
      | 3 -> Printf.sprintf "DELETE FROM t WHERE id = %d" (id ())
      | 4 ->
          (* derived-table copy: INSERT ... SELECT (skipped as a SQL error
             by histories whose fixture lacks table d) *)
          Printf.sprintf "INSERT INTO d SELECT id, v + w FROM t WHERE v > %d"
            (Uv_util.Prng.int prng 80)
      | _ ->
          Printf.sprintf
            "INSERT INTO d SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) >= %d"
            (1 + Uv_util.Prng.int prng 2)
    in
    stmts := sql :: !stmts
  done;
  List.rev !stmts

let whatif_matches_oracle seed =
  let prng = Uv_util.Prng.create seed in
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
  run e "CREATE TABLE d (k INT, x INT)";
  for i = 1 to 6 do
    run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" i (i * 10) 0)
  done;
  List.iter
    (fun sql -> try run e sql with Engine.Sql_error _ -> ())
    (random_history prng 25);
  let n = Log.length (Engine.log e) in
  let tau = 9 + Uv_util.Prng.int prng (n - 9) in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau; op = Analyzer.Remove } in
  let truth = oracle_replay e ~skip:tau in
  let merged = merged_universe e out in
  all_hashes truth = all_hashes merged

let prop_whatif_oracle =
  QCheck.Test.make ~name:"whatif remove == full-replay oracle (random histories)"
    ~count:60
    QCheck.(int_range 0 100_000)
    whatif_matches_oracle

(* A seed the property once drew: removing τ = 26 leaves row 1 dirty in
   [w]; non-member #27 then rewrites its [v], which later members' WHERE
   clauses read. *)
let test_whatif_oracle_seed_78553 () =
  Alcotest.(check bool) "whatif remove == full-replay oracle" true
    (whatif_matches_oracle 78553)

(* column-only mode must also be correct (row analysis only prunes) *)
let prop_colonly_oracle =
  QCheck.Test.make ~name:"column-only whatif == oracle" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let prng = Uv_util.Prng.create (seed + 7) in
      let e = Engine.create () in
      run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
      for i = 1 to 6 do
        run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 0)" i (i * 10))
      done;
      List.iter
        (fun sql -> try run e sql with Engine.Sql_error _ -> ())
        (random_history prng 20);
      let n = Log.length (Engine.log e) in
      let tau = 8 + Uv_util.Prng.int prng (n - 8) in
      let analyzer = Analyzer.analyze (Engine.log e) in
      let config = Whatif.Config.make ~mode:Analyzer.Col_only () in
      let out = Whatif.run_exn ~config ~analyzer e { Analyzer.tau; op = Analyzer.Remove } in
      let truth = oracle_replay e ~skip:tau in
      all_hashes truth = all_hashes (merged_universe e out))

(* oracle for Add/Change: full replay with the operation applied at tau *)
let oracle_with_op e tau op =
  let e2 = Engine.create () in
  let exec_stmt ?nondet ?app_txn stmt =
    try ignore (Engine.exec ?nondet ?app_txn e2 stmt)
    with Engine.Sql_error _ | Engine.Signal_raised _ -> ()
  in
  Log.iter (Engine.log e) (fun entry ->
      if entry.Log.index = tau then begin
        match op with
        | Analyzer.Add stmt ->
            exec_stmt stmt;
            exec_stmt ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn
              entry.Log.stmt
        | Analyzer.Change stmt -> exec_stmt stmt
        | Analyzer.Remove -> ()
      end
      else
        exec_stmt ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn
          entry.Log.stmt);
  e2

let random_op prng =
  let fresh_insert () =
    Parser.parse_stmt
      (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)"
         (10_000 + Uv_util.Prng.int prng 10_000)
         (Uv_util.Prng.int prng 50) (Uv_util.Prng.int prng 50))
  in
  let touch_update () =
    Parser.parse_stmt
      (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d"
         (Uv_util.Prng.int prng 100)
         (1 + Uv_util.Prng.int prng 6))
  in
  match Uv_util.Prng.int prng 3 with
  | 0 -> Analyzer.Add (fresh_insert ())
  | 1 -> Analyzer.Add (touch_update ())
  | _ -> Analyzer.Change (touch_update ())

let prop_add_change_oracle =
  QCheck.Test.make ~name:"whatif add/change == oracle (random histories)"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let prng = Uv_util.Prng.create (seed + 23) in
      let e = Engine.create () in
      run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
      run e "CREATE TABLE d (k INT, x INT)";
      for i = 1 to 6 do
        run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 0)" i (i * 10))
      done;
      List.iter
        (fun sql -> try run e sql with Engine.Sql_error _ -> ())
        (random_history prng 20);
      let n = Log.length (Engine.log e) in
      let tau = 9 + Uv_util.Prng.int prng (n - 9) in
      let op = random_op prng in
      let analyzer = Analyzer.analyze (Engine.log e) in
      let out = Whatif.run_exn ~analyzer e { Analyzer.tau; op } in
      let truth = oracle_with_op e tau op in
      all_hashes truth = all_hashes (merged_universe e out))

(* A read of LAST_INSERT_ID() is a recorded draw. The member at #5 reads
   it and replays on an engine of its own, where no earlier insert set
   it, yet it must see the value the history saw, as the full-replay
   oracle does; the read lines up before the entry's own AUTO_INCREMENT
   draw, which keys its row. *)
let test_last_insert_id_replays_recorded () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE p (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
      "CREATE TABLE c (id INT PRIMARY KEY AUTO_INCREMENT, pid INT)";
      "INSERT INTO p VALUES (5, 0)";
      "INSERT INTO p (v) VALUES (1)";
      "INSERT INTO c (pid) VALUES (LAST_INSERT_ID())";
      "UPDATE c SET pid = pid + 100 WHERE id = 1";
    ];
  let analyzer = Analyzer.analyze (Engine.log e) in
  let tau = 5 in
  let op =
    Analyzer.Add (Parser.parse_stmt "UPDATE c SET pid = 0 WHERE id = 1")
  in
  let truth = oracle_with_op e tau op in
  check Alcotest.int "the oracle carries the read" 106
    (qint truth "SELECT pid FROM c WHERE id = 1");
  List.iter
    (fun workers ->
      let label = Printf.sprintf "workers %d" workers in
      let config = Whatif.Config.make ~workers () in
      let out = Whatif.run_exn ~config ~analyzer e { Analyzer.tau; op } in
      check Alcotest.(list int) (label ^ ": members") [ 5; 6 ]
        out.Whatif.replay.Analyzer.member_indexes;
      check table_testable (label ^ ": final state equals oracle")
        (all_hashes truth)
        (all_hashes (merged_universe e out)))
    [ 1; 2 ]

(* In a join, an unqualified WHERE column pins only the source the
   engine binds it to: the first, FROM then joins, with that column. In
   [WHERE id = 1] below [id] is [a.id], so [b]'s rows are read unpinned
   and removing #6's write to [b] reaches the read at #7, whether the
   join is an INSERT … SELECT or a SELECT … INTO inside a CALL. *)
let test_join_column_pins_its_source () =
  let schema =
    [
      "CREATE TABLE a (id INT PRIMARY KEY, bid INT)";
      "CREATE TABLE b (id INT PRIMARY KEY, v INT)";
      "CREATE TABLE c (v INT)";
    ]
  and rows =
    [
      "INSERT INTO a VALUES (1, 7)";
      "INSERT INTO b VALUES (7, 5)";
      "UPDATE b SET v = 9 WHERE id = 7";
    ]
  in
  List.iter
    (fun (label, setup, read) ->
      let e = Engine.create () in
      List.iter (run e) (schema @ setup @ rows @ [ read ]);
      let tau = List.length schema + List.length setup + List.length rows in
      let analyzer = Analyzer.analyze (Engine.log e) in
      let truth = oracle_replay e ~skip:tau in
      check Alcotest.int (label ^ ": the oracle reads the old value") 5
        (qint truth "SELECT v FROM c");
      List.iter
        (fun (mode, name) ->
          let label = label ^ ", " ^ name in
          let config = Whatif.Config.make ~mode () in
          let out =
            Whatif.run_exn ~config ~analyzer e { Analyzer.tau; op = Analyzer.Remove }
          in
          check Alcotest.(list int) (label ^ ": members") [ tau + 1 ]
            out.Whatif.replay.Analyzer.member_indexes;
          check table_testable (label ^ ": final state equals oracle")
            (all_hashes truth)
            (all_hashes (merged_universe e out)))
        [
          (Analyzer.Cell, "Cell");
          (Analyzer.Row_only, "Row_only");
          (Analyzer.Col_only, "Col_only");
            ])
    [
      ( "INSERT … SELECT",
        [],
        "INSERT INTO c (v) SELECT b.v FROM a JOIN b ON a.bid = b.id WHERE id = 1" );
      ( "SELECT … INTO in a CALL",
        [
          "CREATE PROCEDURE p() BEGIN DECLARE x INT; SELECT b.v INTO x FROM a \
           JOIN b ON a.bid = b.id WHERE id = 1; INSERT INTO c (v) VALUES (x); END";
        ],
        "CALL p()" );
    ]

(* A trigger that fires itself: the engine stops when the body's IF
   fails, at three rows. The analysis expands the body once and returns,
   and removing the INSERT equals the oracle. *)
let test_self_firing_trigger () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE t (v INT)";
      "CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW BEGIN IF NEW.v < 3 \
       THEN INSERT INTO t VALUES (NEW.v + 1); END IF; END";
      "INSERT INTO t VALUES (1)";
      "INSERT INTO t VALUES (5)";
    ];
  check Alcotest.int "the engine stops at the IF" 4 (qint e "SELECT COUNT(*) FROM t");
  let analyzer = Analyzer.analyze (Engine.log e) in
  check Alcotest.bool "the INSERT writes t" true
    (List.mem_assoc "t" (Analyzer.info analyzer 3).Analyzer.rows);
  let truth = oracle_replay e ~skip:3 in
  List.iter
    (fun (mode, name) ->
      let config = Whatif.Config.make ~mode () in
      let out =
        Whatif.run_exn ~config ~analyzer e { Analyzer.tau = 3; op = Analyzer.Remove }
      in
      check table_testable (name ^ ": final state equals oracle")
        (all_hashes truth)
        (all_hashes (merged_universe e out)))
    [
      (Analyzer.Cell, "Cell");
      (Analyzer.Row_only, "Row_only");
      (Analyzer.Col_only, "Col_only");
    ]

let all_modes =
  [
    (Analyzer.Cell, "Cell");
    (Analyzer.Row_only, "Row_only");
    (Analyzer.Col_only, "Col_only");
  ]

(* Remove [tau] from [e]'s history in every mode: the replay set is
   [members] and the final state equals the oracle's, which differs from
   the history's. *)
let check_remove ~label e ~tau ~members =
  let analyzer = Analyzer.analyze (Engine.log e) in
  let truth = oracle_replay e ~skip:tau in
  if all_hashes truth = all_hashes e then
    Alcotest.failf "%s: removing #%d changes nothing" label tau;
  List.iter
    (fun (mode, name) ->
      let label = label ^ ", " ^ name in
      let config = Whatif.Config.make ~mode () in
      let out =
        Whatif.run_exn ~config ~analyzer e { Analyzer.tau; op = Analyzer.Remove }
      in
      check Alcotest.(list int) (label ^ ": members") members
        out.Whatif.replay.Analyzer.member_indexes;
      check table_testable (label ^ ": final state equals oracle")
        (all_hashes truth)
        (all_hashes (merged_universe e out)))
    all_modes

(* A subquery read outside WHERE: in an UPDATE's SET, in a CALLed
   procedure's DECLARE … DEFAULT, SET, IF and WHILE conditions, in a
   SELECT … INTO's WHERE, nested in another subquery, and in a CALL's
   argument. Removing the UPDATE of [x] changes what the last statement
   reads, so that statement replays in every mode. *)
let test_subquery_reads_outside_where () =
  let schema =
    [
      "CREATE TABLE x (id INT PRIMARY KEY, w INT)";
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
    ]
  and rows =
    [
      "INSERT INTO x VALUES (1, 1)";
      "INSERT INTO t VALUES (2, 0)";
      "UPDATE x SET w = 5 WHERE id = 1";
    ]
  and read = "(SELECT w FROM x WHERE id = 1)" in
  let proc body = [ "CREATE PROCEDURE p() BEGIN " ^ body ^ " END" ] in
  List.iter
    (fun (label, setup, stmt) ->
      let e = Engine.create () in
      List.iter (run e) (schema @ setup @ rows @ [ stmt ]);
      let tau = List.length schema + List.length setup + List.length rows in
      check_remove ~label e ~tau ~members:[ tau + 1 ])
    [
      ("UPDATE … SET", [], "UPDATE t SET v = " ^ read ^ " WHERE id = 2");
      ( "DECLARE … DEFAULT",
        proc
          ("DECLARE y INT DEFAULT " ^ read ^ "; UPDATE t SET v = y WHERE id = 2;"),
        "CALL p()" );
      ( "SET",
        proc ("DECLARE y INT; SET y = " ^ read ^ "; UPDATE t SET v = y WHERE id = 2;"),
        "CALL p()" );
      ( "IF condition",
        proc ("IF " ^ read ^ " > 2 THEN UPDATE t SET v = 1 WHERE id = 2; END IF;"),
        "CALL p()" );
      ( "WHILE condition",
        proc
          ("DECLARE i INT DEFAULT 0; WHILE " ^ read
         ^ " > i AND i < 3 DO UPDATE t SET v = v + 1 WHERE id = 2; SET i = i + 1; \
            END WHILE;"),
        "CALL p()" );
      ( "SELECT … INTO's WHERE",
        proc
          "DECLARE y INT; SELECT id INTO y FROM t WHERE v = (SELECT w FROM x \
           WHERE id = 1) - 5; UPDATE t SET v = y + 1 WHERE id = 2;",
        "CALL p()" );
      ( "a nested subquery",
        [],
        "UPDATE t SET v = (SELECT COUNT(*) FROM t WHERE v < " ^ read
        ^ ") WHERE id = 2" );
      ( "CALL argument",
        [ "CREATE PROCEDURE p(IN y INT) BEGIN UPDATE t SET v = y WHERE id = 2; END" ],
        "CALL p(" ^ read ^ ")" );
    ]

(* A procedure that calls itself, directly or through another (p → q →
   p): the engine runs it to its base case. Analysis, lint and what-if
   return; the recursive call reads and writes any row of the tables the
   procedure touches, so removing the UPDATE the CALL reads replays the
   CALL and the later UPDATEs of the rows its inner calls insert, in
   every mode. *)
let test_recursive_procedure () =
  let p_body callee =
    "CREATE PROCEDURE p(IN x INT) BEGIN IF x > 0 THEN INSERT INTO t VALUES \
     (x, (SELECT v FROM t WHERE id = 10) + x); CALL " ^ callee ^ "; END IF; END"
  in
  List.iter
    (fun (label, procs) ->
      let e = Engine.create () in
      List.iter (run e)
        ([
           "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
           "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
         ]
        @ procs
        @ [
            "INSERT INTO t VALUES (10, 1)";
            "UPDATE t SET v = 5 WHERE id = 10";
            "CALL p(3)";
            "UPDATE t SET v = v * 2 WHERE id = 1";
          ]);
      let tau = Log.length (Engine.log e) - 2 in
      check Alcotest.int (label ^ ": the engine runs to the base case") 4
        (qint e "SELECT COUNT(*) FROM t");
      ignore (Uv_analysis.Lint.lint_log (Engine.log e) : Uv_analysis.Diagnostic.t list);
      check_remove ~label e ~tau ~members:[ tau + 1; tau + 2 ])
    [
      ("self", [ p_body "p(x - 1)" ]);
      ( "mutual",
        [
          "CREATE PROCEDURE q(IN x INT) BEGIN INSERT INTO u VALUES (x, x); CALL \
           p(x - 1); END";
          p_body "q(x)";
        ] );
    ]

(* row-only mode is likewise sound on its own (Theorem E.20's two
   independent over-approximations) *)
let prop_rowonly_oracle =
  QCheck.Test.make ~name:"row-only whatif == oracle" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let prng = Uv_util.Prng.create (seed + 13) in
      let e = Engine.create () in
      run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
      run e "CREATE TABLE d (k INT, x INT)";
      for i = 1 to 6 do
        run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 0)" i (i * 10))
      done;
      List.iter
        (fun sql -> try run e sql with Engine.Sql_error _ -> ())
        (random_history prng 20);
      let n = Log.length (Engine.log e) in
      let tau = 9 + Uv_util.Prng.int prng (n - 9) in
      let analyzer = Analyzer.analyze (Engine.log e) in
      let config = Whatif.Config.make ~mode:Analyzer.Row_only () in
      let out = Whatif.run_exn ~config ~analyzer e { Analyzer.tau; op = Analyzer.Remove } in
      let truth = oracle_replay e ~skip:tau in
      all_hashes truth = all_hashes (merged_universe e out))

(* cell-wise replay set is never larger than either single analysis *)
let prop_cell_subset =
  QCheck.Test.make ~name:"|cell| <= min(|col|, |row|)" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let prng = Uv_util.Prng.create (seed + 13) in
      let e = Engine.create () in
      run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
      for i = 1 to 6 do
        run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 0)" i (i * 10))
      done;
      List.iter
        (fun sql -> try run e sql with Engine.Sql_error _ -> ())
        (random_history prng 20);
      let analyzer = Analyzer.analyze (Engine.log e) in
      let rs = Analyzer.replay_set analyzer { Analyzer.tau = 8; op = Analyzer.Remove } in
      rs.Analyzer.member_count <= rs.Analyzer.col_only_count
      && rs.Analyzer.member_count <= rs.Analyzer.row_only_count)


(* ------------------------------------------------------------------ *)
(* Scenario tree (§6)                                                   *)
(* ------------------------------------------------------------------ *)

let test_scenario_branching () =
  let e = build_figure6 () in
  let root = Scenario.root ~name:"reality" e in
  (* branch 1: Alice never registered her address *)
  let no_addr, out1 =
    Scenario.branch ~name:"no-address" root { Analyzer.tau = 7; op = Analyzer.Remove }
  in
  Alcotest.(check bool) "branch changed" true out1.Whatif.changed;
  check Alcotest.int "no orders without address" 0
    (Value.to_int
       (List.hd (Scenario.query_sql no_addr "SELECT COUNT(*) FROM Orders").Engine.rows).(0));
  (* the root is untouched *)
  check Alcotest.int "reality still has the order" 1
    (Value.to_int
       (List.hd (Scenario.query_sql root "SELECT COUNT(*) FROM Orders").Engine.rows).(0));
  (* branch the BRANCH: in the no-address world, Bob registers one *)
  let bob_addr, _ =
    Scenario.branch ~name:"bob-registers" no_addr
      {
        Analyzer.tau = 9;
        op = Analyzer.Add (Parser.parse_stmt "INSERT INTO Address VALUES ('bob99', 'Tokyo')");
      }
  in
  check Alcotest.int "bob's order succeeds in the grandchild" 1
    (Value.to_int
       (List.hd (Scenario.query_sql bob_addr "SELECT COUNT(*) FROM Orders").Engine.rows).(0));
  check Alcotest.(list string) "lineage" [ "reality"; "no-address"; "bob-registers" ]
    (Scenario.lineage bob_addr);
  check Alcotest.int "depth" 2 (Scenario.depth bob_addr);
  check Alcotest.int "root has one child" 1 (List.length (Scenario.children root))

let test_whatif_insert_select_dependency () =
  (* the payroll pattern: INSERT ... SELECT propagates a tainted write into
     a derived table; removing the taint repairs the copy but preserves
     later independent changes *)
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE staff (id INT PRIMARY KEY, salary INT)";
      "CREATE TABLE payouts (month INT, staff_id INT, amount INT)";
      "INSERT INTO staff VALUES (1, 3000), (2, 4200)";
      "UPDATE staff SET salary = 9000 WHERE id = 1"; (* tau = 4: the attack *)
      "UPDATE staff SET salary = 4500 WHERE id = 2"; (* independent raise *)
      "INSERT INTO payouts SELECT 2, id, salary FROM staff";
    ];
  let analyzer = Analyzer.analyze (Engine.log e) in
  let target = { Analyzer.tau = 4; op = Analyzer.Remove } in
  let rs = Analyzer.replay_set analyzer target in
  Alcotest.(check bool) "insert-select is tainted" true (List.mem 6 rs.Analyzer.member_indexes);
  Alcotest.(check bool) "independent raise is not" false (List.mem 5 rs.Analyzer.member_indexes);
  let out = Whatif.run_exn ~analyzer e target in
  let truth = oracle_replay e ~skip:4 in
  check table_testable "equals full-replay oracle" (all_hashes truth)
    (all_hashes (merged_universe e out))

let test_retroactive_ddl_operations () =
  (* retroactively ADD a CREATE INDEX: pure access-path change, so the
     universe must be judged unchanged; retroactively ADD an ALTER TABLE
     and the later inserts gain the column *)
  (* column-listed INSERTs so they still apply after a retroactive ALTER
     widens the table (a column-less INSERT would fail, exactly as it
     would on MySQL) *)
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
      "INSERT INTO t (id, v) VALUES (1, 10)";
      "UPDATE t SET v = v + 1 WHERE id = 1";
      "INSERT INTO t (id, v) VALUES (2, 20)";
    ];
  let analyzer = Analyzer.analyze (Engine.log e) in
  let out =
    Whatif.run_exn ~analyzer e
      {
        Analyzer.tau = 2;
        op = Analyzer.Add (Parser.parse_stmt "CREATE INDEX iv ON t (v)");
      }
  in
  (* a new index changes the catalog (changed = true) but not the data *)
  Alcotest.(check bool) "index addition is a catalog change" true
    out.Whatif.changed;
  Alcotest.(check bool) "index addition leaves the data identical" true
    (Int64.equal
       (Catalog.db_hash out.Whatif.temp_catalog)
       (Engine.db_hash e));
  (* retroactive ALTER: every later writer of t joins via the _S key *)
  let out2 =
    Whatif.run_exn ~analyzer e
      {
        Analyzer.tau = 2;
        op = Analyzer.Add (Parser.parse_stmt "ALTER TABLE t ADD COLUMN w INT");
      }
  in
  Alcotest.(check bool) "schema change replays later writers" true
    (out2.Whatif.replayed >= 3);
  let r =
    Whatif.query_new_universe out2
      (match Parser.parse_stmt "SELECT w FROM t WHERE id = 2" with
      | Ast.Select s -> s
      | _ -> assert false)
  in
  Alcotest.(check bool) "new column exists and is NULL" true
    (match r.Engine.rows with [ row ] -> Value.is_null row.(0) | _ -> false);
  (* removing a CREATE VIEW drops the view but leaves the base data *)
  let e2 = Engine.create () in
  List.iter (run e2)
    [
      "CREATE TABLE b (x INT)";
      "CREATE VIEW vb AS SELECT x FROM b";
      "INSERT INTO b VALUES (1)";
    ];
  let analyzer2 = Analyzer.analyze (Engine.log e2) in
  let out3 =
    Whatif.run_exn ~analyzer:analyzer2 e2 { Analyzer.tau = 2; op = Analyzer.Remove }
  in
  let merged = merged_universe e2 out3 in
  Alcotest.(check bool) "view gone" true
    (Catalog.view (Engine.catalog merged) "vb" = None);
  check Alcotest.int "base rows intact" 1 (qint merged "SELECT COUNT(*) FROM b")

let test_explain_provenance () =
  let e = build_figure6 () in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let target = { Analyzer.tau = 7; op = Analyzer.Remove } in
  let rs = Analyzer.replay_set analyzer target in
  (* one provenance record per member, both closures' parents present *)
  Alcotest.(check int) "one provenance per member" rs.Analyzer.member_count
    (List.length rs.Analyzer.provenance);
  List.iter
    (fun (p : Analyzer.provenance) ->
      Alcotest.(check bool) "cell members carry both parents" true
        (p.Analyzer.p_col_via <> None && p.Analyzer.p_row_via <> None))
    rs.Analyzer.provenance;
  let prov i =
    List.assoc_opt i
      (List.combine rs.Analyzer.member_indexes rs.Analyzer.provenance)
  in
  (* Q8 (Alice's order) was pulled in directly by the removed Address row *)
  (match prov 8 with
  | Some p ->
      Alcotest.(check bool) "order joined via the target" true
        (p.Analyzer.p_col_via = Some 0 || p.Analyzer.p_row_via = Some 0)
  | None -> Alcotest.fail "order must be a member");
  (* Q11 (stats) was pulled in by Q8's Orders write *)
  (match prov 11 with
  | Some p ->
      Alcotest.(check bool) "stats joined via the order" true
        (p.Analyzer.p_col_via = Some 8 || p.Analyzer.p_row_via = Some 8)
  | None -> Alcotest.fail "stats must be a member");
  (* pairwise detail: the order and the stats conflict on Orders *)
  let cols = Analyzer.conflict_columns analyzer 8 11 in
  Alcotest.(check bool) "Orders column conflict" true
    (List.exists (fun c -> String.length c > 7 && String.sub c 0 7 = "Orders.") cols);
  (* the two email updates share a column (both write Users.email) but are
     row-disjoint (alice vs bob) — exactly the cell-wise distinction *)
  Alcotest.(check bool) "emails share a column" true
    (List.mem "Users.email" (Analyzer.conflict_columns analyzer 12 13));
  Alcotest.(check (list (pair string (list string))))
    "emails are row-disjoint" []
    (Analyzer.conflict_tables analyzer 12 13);
  (* report: one line per member, mentioning the direct seed *)
  let lines = Analyzer.explain_report analyzer target rs in
  Alcotest.(check int) "one line per member" rs.Analyzer.member_count
    (List.length lines);
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "a line cites the target" true
    (List.exists
       (fun l ->
         String.length l >= 3 && String.sub l 0 3 = "#8 " && contains l "the target")
       lines)

let test_branch_seq_multi_target () =
  (* branch_seq applies several retroactive targets as one scenario, in
     descending commit order so each earlier index stays valid.  The result
     must equal chaining individual branches by hand in that order. *)
  let e = build_figure6 () in
  let root = Scenario.root ~name:"reality" e in
  let targets =
    [
      { Analyzer.tau = 7; op = Analyzer.Remove };
      (* remove a later entry too: the second INSERT into Address at index 8
         does not exist in Figure 6, so aim at the order placement itself *)
      { Analyzer.tau = 8; op = Analyzer.Remove };
    ]
  in
  let combined, outcomes = Scenario.branch_seq ~name:"combined" root targets in
  Alcotest.(check int) "two outcomes" 2 (List.length outcomes);
  (* manual: apply tau=8 first (descending), then tau=7 *)
  let s1, _ = Scenario.branch root { Analyzer.tau = 8; op = Analyzer.Remove } in
  let s2, _ = Scenario.branch s1 { Analyzer.tau = 7; op = Analyzer.Remove } in
  check table_testable "branch_seq equals manual descending chain"
    (all_hashes (Scenario.engine s2))
    (all_hashes (Scenario.engine combined));
  (* tree stays tidy: root gains exactly the named child, no intermediates *)
  Alcotest.(check bool) "combined is a direct child of root" true
    (List.exists (fun c -> Scenario.name c = "combined") (Scenario.children root));
  Alcotest.(check (list string)) "lineage skips intermediates"
    [ "reality"; "combined" ] (Scenario.lineage combined);
  (* parent untouched *)
  check Alcotest.int "reality still has the order" 1
    (Value.to_int
       (List.hd (Scenario.query_sql root "SELECT COUNT(*) FROM Orders").Engine.rows).(0))

let test_new_log_replayable () =
  (* the merged new-universe log, replayed from scratch, rebuilds the
     new universe exactly *)
  let e = build_figure6 () in
  let analyzer = Analyzer.analyze (Engine.log e) in
  let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 7; op = Analyzer.Remove } in
  let rebuilt = Engine.create () in
  Log.iter (Whatif.new_log out) (fun entry ->
      try ignore (Engine.exec ~nondet:entry.Log.nondet rebuilt entry.Log.stmt)
      with Engine.Sql_error _ | Engine.Signal_raised _ -> ());
  let merged = merged_universe e out in
  check table_testable "rebuilt universe equals merged"
    (all_hashes merged) (all_hashes rebuilt);
  check Alcotest.int "one entry fewer" (Log.length (Engine.log e) - 1)
    (Log.length (Whatif.new_log out))

(* A branch of a question whose replay stopped where it rejoined history
   (#4 rewrites the row τ changed, so #5 and #7 are skipped; non-member
   #6 rewrites the row they write), then a question on the branch, with
   and without the Hash-jumper, which reads the branch's restamped
   [written_hashes]. The reference re-executes every statement, so it
   neither redoes nor stops: each universe equals the full-replay oracle
   of its history (Definition E.1), and the branch's merged history
   replays to the branch. The branch's entry for skipped #5 is the one
   re-executing it there gives: its before-image holds #6's [name], and
   its [written_hashes] the table as the replay left it, not history's
   (where row 2's name was still 'b'). *)
let test_branch_after_stop () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE acct (id INT PRIMARY KEY, n INT, name VARCHAR(8))";
      "INSERT INTO acct VALUES (1, 0, 'a'), (2, 0, 'b')";
      "UPDATE acct SET n = 5 WHERE id = 1";
      "UPDATE acct SET n = 7 WHERE id = 1";
      "UPDATE acct SET n = (SELECT n FROM acct WHERE id = 1) WHERE id = 2";
      "UPDATE acct SET name = 'z' WHERE id = 2";
      "UPDATE acct SET n = n + 1 WHERE id = 2";
    ];
  let root = Scenario.root e in
  let child, out = Scenario.branch root { Analyzer.tau = 3; op = Analyzer.Remove } in
  check
    Alcotest.(option (pair int int))
    "stopped after #4" (Some (1, 2)) out.Whatif.stop_at;
  check table_testable "branch == oracle"
    (all_hashes (oracle_replay e ~skip:3))
    (all_hashes (Scenario.engine child));
  let skipped = Log.entry (Engine.log (Scenario.engine child)) 4 in
  let replayed =
    let r = Engine.create () in
    List.iter (run r)
      [
        "CREATE TABLE acct (id INT PRIMARY KEY, n INT, name VARCHAR(8))";
        "INSERT INTO acct VALUES (1, 7, 'a'), (2, 7, 'z')";
      ];
    Storage.hash (Option.get (Catalog.table (Engine.catalog r) "acct"))
  in
  check
    Alcotest.(list (pair string int64))
    "#5's written hash: the replay's table" [ ("acct", replayed) ]
    skipped.Log.written_hashes;
  check Alcotest.bool "#5's journal: the replay's images" true
    (match skipped.Log.undo with
    | [ Log.U_row_update ("acct", _, before, after) ] ->
        before = [| Value.Int 2; Value.Int 0; Value.Text "z" |]
        && after = [| Value.Int 2; Value.Int 7; Value.Text "z" |]
    | _ -> false);
  let rebuilt = oracle_replay (Scenario.engine child) ~skip:0 in
  check table_testable "the branch's merged history replays to it"
    (all_hashes (Scenario.engine child))
    (all_hashes rebuilt);
  (* the branch's #3 is the old #4 *)
  let nested = oracle_replay (Scenario.engine child) ~skip:3 in
  List.iter
    (fun (label, config) ->
      let grandchild, out =
        Scenario.branch ~config child { Analyzer.tau = 3; op = Analyzer.Remove }
      in
      check Alcotest.bool (label ^ ": changed") true out.Whatif.changed;
      check table_testable (label ^ ": nested branch == oracle")
        (all_hashes nested)
        (all_hashes (Scenario.engine grandchild)))
    [
      ("default", Whatif.Config.default);
      ("hash-jumper", Whatif.Config.make ~hash_jumper:true ());
    ]

let prop_branching_isolates_parent =
  QCheck.Test.make ~name:"branching never mutates the parent universe" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let prng = Uv_util.Prng.create seed in
      let e = Engine.create () in
      run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
      for i = 1 to 5 do
        run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 10))
      done;
      for _ = 1 to 12 do
        let id = 1 + Uv_util.Prng.int prng 5 in
        run e
          (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d"
             (Uv_util.Prng.int prng 100) id)
      done;
      let root = Scenario.root e in
      let before = Scenario.db_hash root in
      let n = Scenario.history_length root in
      let tau = 6 + Uv_util.Prng.int prng (n - 6) in
      let child, _ = Scenario.branch root { Analyzer.tau; op = Analyzer.Remove } in
      ignore (Scenario.db_hash child);
      Int64.equal before (Scenario.db_hash root))

(* ------------------------------------------------------------------ *)
(* Concurrency-control scheduling (§6)                                  *)
(* ------------------------------------------------------------------ *)

let cc_base () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  run e "INSERT INTO acct VALUES (1, 100), (2, 100), (3, 100), (4, 100)";
  e

(* A planned batch's schedule (§6): the analyzer's replay DAG over the
   batch as entries 1 .. n of a history on [base] that never ran, its
   waves as 0-based batch positions. *)
let cc_plan base stmts =
  let batch = Array.of_list stmts in
  let n = Array.length batch in
  let entry i =
    { Log.index = i; stmt = batch.(i - 1); sql = ""; nondet = []; rows_written = 0;
      written_hashes = []; undo = []; app_txn = None }
  in
  let analyzer =
    Analyzer.of_source ~base (Analyzer.source_of_fun ~length:(fun () -> n) entry)
  in
  let dag = Analyzer.replay_dag analyzer ~members:(List.init n succ) in
  (dag, List.map (List.map pred) (Conflict_dag.waves dag))

(* Execute the batch wave by wave, skipping statements that fail. *)
let cc_execute eng stmts waves =
  let batch = Array.of_list stmts in
  List.iter
    (List.iter (fun i ->
         try ignore (Engine.exec eng batch.(i)) with Engine.Sql_error _ | Engine.Signal_raised _ -> ()))
    waves

let test_cc_disjoint_rows_one_wave () =
  let e = cc_base () in
  let stmts =
    List.map Parser.parse_stmt
      [
        "UPDATE acct SET bal = bal + 1 WHERE id = 1";
        "UPDATE acct SET bal = bal + 1 WHERE id = 2";
        "UPDATE acct SET bal = bal + 1 WHERE id = 3";
      ]
  in
  let dag, _ = cc_plan (Engine.catalog e) stmts in
  check Alcotest.int "single wave" 1 (Conflict_dag.wave_count dag);
  check Alcotest.int "no conflicts" 0 (Conflict_dag.edge_count dag)

let test_cc_same_row_serialises () =
  let e = cc_base () in
  let stmts =
    List.map Parser.parse_stmt
      [
        "UPDATE acct SET bal = bal + 1 WHERE id = 1";
        "UPDATE acct SET bal = bal * 2 WHERE id = 1";
        "UPDATE acct SET bal = bal + 5 WHERE id = 2";
      ]
  in
  let dag, waves = cc_plan (Engine.catalog e) stmts in
  check Alcotest.int "two waves" 2 (Conflict_dag.wave_count dag);
  (match waves with
  | [ w1; w2 ] ->
      Alcotest.(check (list int)) "first wave" [ 0; 2 ] w1;
      Alcotest.(check (list int)) "second wave" [ 1 ] w2
  | _ -> Alcotest.fail "wave shape");
  (* executing the plan preserves serial semantics *)
  let plan_exec_hash =
    let e2 = cc_base () in
    cc_execute e2 stmts waves;
    Engine.table_hash e2 "acct"
  in
  let serial_hash =
    let e3 = cc_base () in
    List.iter (fun s -> ignore (Engine.exec e3 s)) stmts;
    Engine.table_hash e3 "acct"
  in
  check Alcotest.int64 "plan == serial" serial_hash plan_exec_hash

let test_cc_ddl_serialises_everything () =
  let e = cc_base () in
  let stmts =
    List.map Parser.parse_stmt
      [
        "UPDATE acct SET bal = 0 WHERE id = 1";
        "ALTER TABLE acct ADD COLUMN note VARCHAR(8)";
        "UPDATE acct SET bal = 0 WHERE id = 2";
      ]
  in
  let dag, _ = cc_plan (Engine.catalog e) stmts in
  Alcotest.(check bool) "ddl forces ordering" true (Conflict_dag.wave_count dag >= 2)

let prop_cc_plan_equals_serial =
  QCheck.Test.make ~name:"wave execution == serial execution" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let prng = Uv_util.Prng.create seed in
      let e = cc_base () in
      let stmts =
        List.init 12 (fun _ ->
            let id = 1 + Uv_util.Prng.int prng 4 in
            Parser.parse_stmt
              (match Uv_util.Prng.int prng 3 with
              | 0 ->
                  Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d"
                    (Uv_util.Prng.int prng 10) id
              | 1 ->
                  Printf.sprintf "UPDATE acct SET bal = bal * 2 WHERE id = %d" id
              | _ ->
                  Printf.sprintf "INSERT INTO acct VALUES (%d, %d)"
                    (10 + Uv_util.Prng.int prng 1000)
                    (Uv_util.Prng.int prng 100)))
      in
      let _, waves = cc_plan (Engine.catalog e) stmts in
      let h_plan =
        let e2 = cc_base () in
        cc_execute e2 stmts waves;
        Engine.table_hash e2 "acct"
      in
      let h_serial =
        let e3 = cc_base () in
        List.iter
          (fun s -> try ignore (Engine.exec e3 s) with Engine.Sql_error _ -> ())
          stmts;
        Engine.table_hash e3 "acct"
      in
      Int64.equal h_plan h_serial)

(* ------------------------------------------------------------------ *)
(* Service caches: incremental analyzer, checkpoint ladder              *)
(* ------------------------------------------------------------------ *)

let session_base () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  for i = 1 to 4 do
    run e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i)
  done;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  (e, base)

(* [hot] concentrates every update on one row so each entry depends on
   all earlier ones (dense replay sets, compilable statements) *)
let session_grow ?(hot = false) e k =
  for i = 1 to k do
    run e
      (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" i
         (if hot then 1 else 1 + (i mod 4)))
  done

let remove1 = { Analyzer.tau = 1; op = Analyzer.Remove }

let ok_run s target =
  match Whatif.Service.run s target with
  | Ok r -> r.Whatif.Service.outcome
  | Error e ->
      Alcotest.failf "session run aborted: %s" (Whatif.Error.to_string e)

let fresh_run ?config e base target =
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  Whatif.run_exn ?config ~analyzer e target

let test_session_extend_matches_fresh () =
  let e, base = session_base () in
  session_grow e 10;
  let s = Whatif.Service.create ~base e in
  ignore (ok_run s remove1);
  session_grow e 10;
  let o2 = ok_run s remove1 in
  let o3 = fresh_run e base remove1 in
  check Alcotest.int64 "extended analyzer, same universe"
    o3.Whatif.final_db_hash o2.Whatif.final_db_hash;
  check Alcotest.int "same replay set" o3.Whatif.replayed o2.Whatif.replayed;
  let st = Whatif.Service.stats s in
  check Alcotest.int "one full build" 1 st.Whatif.Service.analyzer_builds;
  check Alcotest.bool "the growth was an extend" true
    (st.Whatif.Service.analyzer_extends >= 1);
  check Alcotest.int "covers the whole log"
    (Log.length (Engine.log e))
    st.Whatif.Service.analyzed_entries

(* New DDL entries extend the analyzer like any other: the catalog epoch
   the DDL moved forces no rebuild. *)
let test_session_ddl_extends () =
  let e, base = session_base () in
  session_grow e 6;
  let s = Whatif.Service.create ~base e in
  ignore (ok_run s remove1);
  run e "CREATE TABLE audit (k INT PRIMARY KEY)";
  run e "INSERT INTO audit VALUES (1)";
  session_grow e 2;
  (* τ before the DDL, the audit row's insert after it, and the last
     update *)
  List.iter
    (fun tau ->
      let target = { Analyzer.tau; op = Analyzer.Remove } in
      let o = ok_run s target and o' = fresh_run e base target in
      let label = Printf.sprintf "remove@%d" tau in
      check Alcotest.int64 (label ^ ": DDL-extended session matches fresh")
        o'.Whatif.final_db_hash o.Whatif.final_db_hash;
      check Alcotest.int (label ^ ": same replay set") o'.Whatif.replayed
        o.Whatif.replayed)
    [ 1; 8; 10 ];
  let st = Whatif.Service.stats s in
  check Alcotest.int "one full build" 1 st.Whatif.Service.analyzer_builds;
  check Alcotest.bool "the DDL was an extend" true
    (st.Whatif.Service.analyzer_extends >= 1)

(* [Ri_history]'s DDL history ingested in batches, each with DDL: every
   batch extends the one analyzer built at creation, and after each the
   service answers removals, an alias-teaching INSERT and an RI merge
   added at several τ as a fresh service does. *)
let test_session_ddl_ingest () =
  let e = Engine.create () in
  List.iter (run e) Ri_history.ddl_setup;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  let rowset = Ri_history.ddl_config and config = Whatif.Config.make ~workers:1 () in
  let s = Whatif.Service.create ~config ~rowset ~base e in
  Whatif.Service.publish s;
  let stmts = Array.of_list (List.map Parser.parse_stmt Ri_history.ddl_statements) in
  let batches = 6 and n = Array.length stmts in
  let added sql tau = { Analyzer.tau; op = Analyzer.Add (Parser.parse_stmt sql) } in
  for b = 1 to batches do
    let lo = (b - 1) * n / batches and hi = b * n / batches in
    ignore (Whatif.Service.ingest s (Array.to_list (Array.sub stmts lo (hi - lo))) : int * int);
    let len = Log.length (Engine.log e) in
    let fresh = Whatif.Service.create ~config ~rowset ~base e in
    List.iter
      (fun target ->
        let label = Printf.sprintf "batch %d: %s@%d" b
            (match target.Analyzer.op with
            | Analyzer.Remove -> "remove"
            | Analyzer.Add s -> Uv_sql.Printer.stmt_compact s
            | Analyzer.Change _ -> "change")
            target.Analyzer.tau
        in
        let o = ok_run s target and o' = ok_run fresh target in
        check Alcotest.int64 (label ^ ": == a fresh service") o'.Whatif.final_db_hash
          o.Whatif.final_db_hash;
        check Alcotest.(list int) (label ^ ": members")
          o'.Whatif.replay.Analyzer.member_indexes o.Whatif.replay.Analyzer.member_indexes)
      (List.concat_map
         (fun tau ->
           [
             { Analyzer.tau; op = Analyzer.Remove };
             added "INSERT INTO u VALUES (20, 200)" tau;
             added "UPDATE u SET id = 21 WHERE id = 7" tau;
           ])
         (List.sort_uniq compare [ 1; (len + 1) / 2; len ]))
  done;
  let st = Whatif.Service.stats s in
  check Alcotest.int "one full build" 1 st.Whatif.Service.analyzer_builds;
  check Alcotest.int "every batch extended" batches st.Whatif.Service.analyzer_extends

let test_session_truncation_rebuilds () =
  let e, base = session_base () in
  session_grow e 8;
  let s = Whatif.Service.create ~base e in
  ignore (ok_run s remove1);
  (* the history is rewritten in place: a shorter log must force a full
     recompute, never an extend over a stale prefix *)
  Engine.reset_log e;
  session_grow e 5;
  let o = ok_run s remove1 in
  let o' = fresh_run e base remove1 in
  check Alcotest.int64 "rebuilt after truncation"
    o'.Whatif.final_db_hash o.Whatif.final_db_hash;
  let st = Whatif.Service.stats s in
  check Alcotest.int "truncation forced a rebuild" 2
    st.Whatif.Service.analyzer_builds;
  check Alcotest.int "covers only the new log" 5
    st.Whatif.Service.analyzed_entries

(* The history rewritten in place and grown past its analysed length,
   with DDL among the entries past it: the analysed prefix is gone, so
   the service rebuilds, though no entry was lost and the new DDL moved
   the catalog epoch. *)
let test_session_rewrite_rebuilds () =
  let e, base = session_base () in
  session_grow e 6;
  let s = Whatif.Service.create ~base e in
  ignore (ok_run s remove1);
  Engine.reset_log e;
  session_grow ~hot:true e 6;
  run e "CREATE TABLE audit (k INT PRIMARY KEY)";
  run e "INSERT INTO audit VALUES (1)";
  session_grow ~hot:true e 2;
  let o = ok_run s remove1 and o' = fresh_run e base remove1 in
  check Alcotest.int64 "rebuilt after the rewrite" o'.Whatif.final_db_hash
    o.Whatif.final_db_hash;
  check Alcotest.int "same replay set" o'.Whatif.replayed o.Whatif.replayed;
  let st = Whatif.Service.stats s in
  check Alcotest.int "the rewrite forced a rebuild" 2 st.Whatif.Service.analyzer_builds;
  check Alcotest.int "no extend over the stale prefix" 0
    st.Whatif.Service.analyzer_extends

let test_session_plans_and_invalidate () =
  let e, base = session_base () in
  session_grow ~hot:true e 12;
  let s = Whatif.Service.create ~base e in
  let o1 = ok_run s remove1 in
  let o2 = ok_run s remove1 in
  check Alcotest.int64 "repeat run identical" o1.Whatif.final_db_hash
    o2.Whatif.final_db_hash;
  Whatif.Service.invalidate s;
  let st0 = Whatif.Service.stats s in
  check Alcotest.int "invalidate drops the analyzer" 0
    st0.Whatif.Service.analyzed_entries;
  let o3 = ok_run s remove1 in
  check Alcotest.int64 "forced recompute reproduces" o1.Whatif.final_db_hash
    o3.Whatif.final_db_hash;
  check Alcotest.int "recompute was a fresh build" 2
    (Whatif.Service.stats s).Whatif.Service.analyzer_builds

(* ------------------------------------------------------------------ *)
(* Service: shared snapshots under concurrent what-ifs and ingest       *)
(* ------------------------------------------------------------------ *)

let svc_config = Whatif.Config.make ~workers:1 ()

let test_service_concurrent_runs_match_serial () =
  (* N reader domains ask what-ifs while the main domain keeps
     ingesting; every reply must equal the one-shot answer over exactly
     the history prefix the service reports it used *)
  let e, base = session_base () in
  session_grow e 12;
  let svc = Whatif.Service.create ~config:svc_config ~base e in
  Whatif.Service.publish svc;
  let grow_len = Log.length (Engine.log e) in
  let tail =
    List.init 30 (fun i ->
        Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" (50 + i)
          (1 + (i mod 4)))
  in
  let results = Array.make 4 [] in
  let ingest_done = Atomic.make false in
  (* the service lock is reader-preferring, so a continuous reader
     stream would starve the ingest writer outright (single-core boxes
     especially); readers yield whenever the writer raises its hand *)
  let writer_waiting = Atomic.make false in
  let readers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            (* keep asking until the ingest stream ends, so runs overlap
               every prefix the writer publishes *)
            let acc = ref [] and i = ref 0 in
            while (not (Atomic.get ingest_done)) || !i < 8 do
              while Atomic.get writer_waiting do
                Domain.cpu_relax ()
              done;
              let tau = 1 + ((!i + d) mod 8) in
              (match
                 Whatif.Service.run svc { Analyzer.tau; op = Analyzer.Remove }
               with
              | Ok r ->
                  acc :=
                    ( tau,
                      r.Whatif.Service.history_len,
                      r.Whatif.Service.outcome.Whatif.final_db_hash )
                    :: !acc
              | Error err ->
                  Alcotest.failf "service run aborted: %s"
                    (Whatif.Error.to_string err));
              incr i
            done;
            results.(d) <- !acc))
  in
  List.iter
    (fun sql ->
      Atomic.set writer_waiting true;
      let applied, failed = Whatif.Service.ingest_sql svc sql in
      Atomic.set writer_waiting false;
      let t0 = Uv_util.Clock.now_ms () in
      while Uv_util.Clock.now_ms () -. t0 < 0.5 do
        Domain.cpu_relax ()
      done;
      check Alcotest.int "ingest applied" 1 applied;
      check Alcotest.int "ingest failed" 0 failed)
    tail;
  Atomic.set ingest_done true;
  List.iter Domain.join readers;
  check Alcotest.int "history grew under readers"
    (grow_len + List.length tail)
    (Whatif.Service.history_len svc);
  (* serial re-derivation of every distinct (tau, prefix) answer *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun (tau, len, hash) ->
         match Hashtbl.find_opt seen (tau, len) with
         | Some h ->
             check Alcotest.int64 "same point, same universe" h hash
         | None -> Hashtbl.add seen (tau, len) hash))
    results;
  Hashtbl.iter
    (fun (tau, len) hash ->
      let e2, base2 = session_base () in
      session_grow e2 12;
      List.iteri
        (fun i sql -> if grow_len + i < len then run e2 sql)
        tail;
      check Alcotest.int "prefix length" len (Log.length (Engine.log e2));
      let o = fresh_run ~config:svc_config e2 base2 { Analyzer.tau; op = Analyzer.Remove } in
      check Alcotest.int64
        (Printf.sprintf "tau=%d len=%d matches one-shot" tau len)
        o.Whatif.final_db_hash hash)
    seen;
  let distinct_lens = Hashtbl.create 8 in
  Hashtbl.iter (fun (_, len) _ -> Hashtbl.replace distinct_lens len ()) seen;
  Alcotest.(check bool) "runs interleaved with ingest" true
    (Hashtbl.length distinct_lens >= 2)

let test_service_sessions_share_caches () =
  let e, base = session_base () in
  session_grow ~hot:true e 12;
  let svc = Whatif.Service.create ~config:svc_config ~base e in
  (* two callers, each from its own domain, over the one service *)
  let ask () = Domain.spawn (fun () -> ok_run svc remove1) in
  let d1 = ask () and d2 = ask () in
  let o1 = Domain.join d1 and o2 = Domain.join d2 in
  check Alcotest.int64 "callers agree" o1.Whatif.final_db_hash
    o2.Whatif.final_db_hash;
  let st = Whatif.Service.stats svc in
  check Alcotest.int "one shared analyzer build" 1 st.Whatif.Service.analyzer_builds;
  check Alcotest.int "both runs went through the service" 2
    st.Whatif.Service.runs

let test_service_ingest_counts_failures () =
  let e, base = session_base () in
  session_grow e 4;
  let svc = Whatif.Service.create ~config:svc_config ~base e in
  let applied, failed =
    Whatif.Service.ingest_sql svc
      "UPDATE acct SET bal = 1 WHERE id = 2; UPDATE nosuch SET x = 1 WHERE y \
       = 0; UPDATE acct SET bal = 2 WHERE id = 3;"
  in
  check Alcotest.int "good statements applied" 2 applied;
  check Alcotest.int "bad statement counted" 1 failed;
  (* the service still answers over the surviving history *)
  match Whatif.Service.run svc remove1 with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "run after failed ingest: %s" (Whatif.Error.to_string err)

let () =
  Alcotest.run "uv_retroactive"
    [
      ( "column-wise (Table A)",
        [
          Alcotest.test_case "create table" `Quick test_rw_create_table;
          Alcotest.test_case "select" `Quick test_rw_select;
          Alcotest.test_case "select having" `Quick test_rw_select_having;
          Alcotest.test_case "insert-select" `Quick test_rw_insert_select;
          Alcotest.test_case "insert writes all" `Quick
            test_rw_insert_writes_all_columns;
          Alcotest.test_case "auto_increment reads pk" `Quick
            test_rw_insert_auto_increment_reads_pk;
          Alcotest.test_case "update" `Quick test_rw_update_reads_and_writes;
          Alcotest.test_case "fk write propagation" `Quick test_rw_fk_write_propagation;
          Alcotest.test_case "call unions body" `Quick test_rw_call_unions_body;
          Alcotest.test_case "view expansion" `Quick test_rw_view_expansion;
          Alcotest.test_case "trigger inherited" `Quick test_rw_trigger_inherited;
          Alcotest.test_case "transaction union" `Quick test_rw_transaction_union;
          Alcotest.test_case "trigger on update" `Quick test_rw_trigger_on_update;
          Alcotest.test_case "write reads through view" `Quick
            test_rw_write_reads_through_view;
          Alcotest.test_case "explicit ai reads pk" `Quick
            test_rw_insert_explicit_ai_still_reads_pk;
          Alcotest.test_case "fk write inheritance on delete" `Quick
            test_rw_fk_write_inheritance_on_delete;
        ] );
      ( "row-wise (Table B)",
        [
          Alcotest.test_case "Table 2 independence" `Quick
            test_rowwise_table2_independence;
          Alcotest.test_case "alias columns" `Quick test_rowwise_alias;
          Alcotest.test_case "merged RI values" `Quick test_rowwise_merged_ri_values;
          Alcotest.test_case "wildcard where" `Quick test_rowwise_wildcard_where;
          Alcotest.test_case "DDL dependency" `Quick test_ddl_dependency;
          Alcotest.test_case "read-only excluded" `Quick test_read_only_never_joins;
          Alcotest.test_case "equality constraint" `Quick
            test_tableb_equality_constraint;
          Alcotest.test_case "IN list" `Quick test_tableb_in_list;
          Alcotest.test_case "AND intersects" `Quick test_tableb_and_intersects;
          Alcotest.test_case "OR unions" `Quick test_tableb_or_unions;
          Alcotest.test_case "range wildcard" `Quick test_tableb_range_is_wildcard;
          Alcotest.test_case "insert key" `Quick test_tableb_insert_writes_key;
        ] );
      ( "figure 6 what-if",
        [
          Alcotest.test_case "remove address" `Quick test_figure6_remove_address;
          Alcotest.test_case "add address for bob" `Quick
            test_figure6_add_address_for_bob;
          Alcotest.test_case "change query" `Quick test_figure6_change_query;
          Alcotest.test_case "mutated/consulted" `Quick
            test_mutated_consulted_classification;
          Alcotest.test_case "read-only target" `Quick test_remove_readonly_target;
          Alcotest.test_case "add at end" `Quick test_add_at_end_of_history;
          Alcotest.test_case "remove create table" `Quick test_remove_create_table;
          Alcotest.test_case "retroactive DDL ops" `Quick
            test_retroactive_ddl_operations;
          Alcotest.test_case "explain provenance" `Quick test_explain_provenance;
          Alcotest.test_case "insert-select dependency" `Quick
            test_whatif_insert_select_dependency;
          Alcotest.test_case "view DML fires base triggers" `Quick
            test_view_dml_fires_base_triggers;
          Alcotest.test_case "transaction DML fires triggers" `Quick
            test_transaction_dml_fires_triggers;
          Alcotest.test_case "LAST_INSERT_ID replays as recorded" `Quick
            test_last_insert_id_replays_recorded;
          Alcotest.test_case "a join column pins its own source" `Quick
            test_join_column_pins_its_source;
          Alcotest.test_case "a trigger that fires itself" `Quick
            test_self_firing_trigger;
          Alcotest.test_case "subquery reads outside WHERE" `Quick
            test_subquery_reads_outside_where;
          Alcotest.test_case "a procedure calls itself" `Quick
            test_recursive_procedure;
        ] );
      ( "hash-jumper",
        [
          Alcotest.test_case "figure 7 early stop" `Quick test_hash_jumper_figure7;
          Alcotest.test_case "no false hit" `Quick test_hash_jumper_no_false_hit;
          Alcotest.test_case "hash timeline" `Quick test_hash_at_timeline;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "independent parallel" `Quick
            test_scheduler_independent_parallel;
          Alcotest.test_case "conflict chain" `Quick test_scheduler_conflict_chain;
          Alcotest.test_case "row-refined edges" `Quick
            test_dependency_edges_row_refined;
        ] );
      ( "oracle properties",
        [
          qtest prop_whatif_oracle;
          Alcotest.test_case "whatif remove == oracle (seed 78553)" `Quick
            test_whatif_oracle_seed_78553;
          qtest prop_colonly_oracle;
          qtest prop_rowonly_oracle;
          qtest prop_add_change_oracle;
          qtest prop_cell_subset;
        ]
      );
      ( "scenarios (§6)",
        [
          Alcotest.test_case "branch and re-branch" `Quick test_scenario_branching;
          Alcotest.test_case "branch_seq multi-target" `Quick
            test_branch_seq_multi_target;
          Alcotest.test_case "merged log replayable" `Quick test_new_log_replayable;
          Alcotest.test_case "branch after a stopped replay" `Quick
            test_branch_after_stop;
          qtest prop_branching_isolates_parent;
        ] );
      ( "session caches",
        [
          Alcotest.test_case "extend matches fresh analyze" `Quick
            test_session_extend_matches_fresh;
          Alcotest.test_case "mid-history DDL extends" `Quick
            test_session_ddl_extends;
          Alcotest.test_case "DDL ingest extends" `Quick test_session_ddl_ingest;
          Alcotest.test_case "log truncation rebuilds" `Quick
            test_session_truncation_rebuilds;
          Alcotest.test_case "log rewrite with DDL rebuilds" `Quick
            test_session_rewrite_rebuilds;
          Alcotest.test_case "plan cache & invalidate" `Quick
            test_session_plans_and_invalidate;
        ] );
      ( "service",
        [
          Alcotest.test_case "concurrent runs match serial" `Quick
            test_service_concurrent_runs_match_serial;
          Alcotest.test_case "sessions share caches" `Quick
            test_service_sessions_share_caches;
          Alcotest.test_case "ingest counts failures" `Quick
            test_service_ingest_counts_failures;
        ] );
      ( "cc scheduling (§6)",
        [
          Alcotest.test_case "disjoint rows parallel" `Quick
            test_cc_disjoint_rows_one_wave;
          Alcotest.test_case "same row serialises" `Quick test_cc_same_row_serialises;
          Alcotest.test_case "ddl serialises" `Quick test_cc_ddl_serialises_everything;
          qtest prop_cc_plan_equals_serial;
        ] );
    ]
