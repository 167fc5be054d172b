(* Three small histories the closure, parallel and service tests share.

   [merge_history] merges no RI value itself, so a question that
   rewrites one ([merge_targets]) makes the only merge there is;
   [alias_engine]'s targets make one that joins a row addressed by an
   alias to one addressed by the new value.
   [ddl_statements] steps the schema through every kind of object, with
   alias-teaching INSERTs and UPDATEs and an RI-merging UPDATE in
   between (see [test_closure]'s [ddl_history] for what each entry
   exercises). *)

open Uv_db
open Uv_retroactive

let run ?app_txn e sql = ignore (Engine.exec_sql ?app_txn e sql)

(* Tables [t] (RI [id]) and [u], and a history over them that merges
   nothing; entries 2 and 4 share a transaction tag. The engine that ran
   it, with the RI config and the base. *)
let merge_engine () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)";
  run e "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
  List.iter
    (fun id -> run e (Printf.sprintf "INSERT INTO t VALUES (%d, 0, 0)" id))
    [ 2; 3; 4 ];
  run e "INSERT INTO u VALUES (1, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter
    (fun (app_txn, sql) -> run ?app_txn e sql)
    [
      (None, "UPDATE t SET v = 1 WHERE id = 2");
      (Some "A", "UPDATE t SET v = v + 1 WHERE id = 3");
      (None, "SELECT v FROM t WHERE id = 2");
      (Some "A", "UPDATE u SET w = 1 WHERE id = 1");
      (None, "UPDATE t SET w = 4 WHERE id = 3");
      (None, "UPDATE t SET w = 5 WHERE id = 2");
      (None, "UPDATE t SET v = v * 2 WHERE id = 4");
      (None, "SELECT w FROM t WHERE id = 3");
      (None, "UPDATE t SET v = 0 WHERE id = 2");
    ];
  let config =
    { Rowset.default_config with Rowset.ri_columns = [ ("t", [ "id" ]) ] }
  in
  (config, base, e)

let merge_history () =
  let config, base, e = merge_engine () in
  (config, base, Engine.log e)

(* The targets that merge 2 and 3 at question time. *)
let merge_targets =
  let rekey = Uv_sql.Parser.parse_stmt "UPDATE t SET id = 2 WHERE id = 3" in
  List.concat_map
    (fun tau ->
      [
        { Analyzer.tau; op = Analyzer.Add rekey };
        { Analyzer.tau; op = Analyzer.Change rekey };
      ])
    [ 1; 2; 5 ]

(* Table [o] (RI [id], alias column [code]) and a history that
   addresses row 1 by its alias [c1] and row 3, which is not there, by
   its id; entries 1 and 6 are on row 2 only. The engine that ran it,
   with the RI config and the base. *)
let alias_engine () =
  let e = Engine.create () in
  run e "CREATE TABLE o (id INT PRIMARY KEY, code VARCHAR(8), v INT)";
  run e "INSERT INTO o VALUES (1, 'c1', 0)";
  run e "INSERT INTO o VALUES (2, 'c2', 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e)
    [
      "UPDATE o SET v = 5 WHERE id = 2";
      "UPDATE o SET v = v + 1 WHERE id = 3";
      "UPDATE o SET v = 1 WHERE code = 'c1'";
      "UPDATE o SET v = v * 3 WHERE code = 'c1'";
      "UPDATE o SET v = v + 2 WHERE id = 3";
      "UPDATE o SET v = v + 1 WHERE id = 2";
    ];
  let config =
    { Rowset.ri_columns = [ ("o", [ "id" ]) ]; ri_aliases = [ ("o", "code", "id") ] }
  in
  (config, base, e)

(* The targets that move row 1 to id 3: in the replay, the entries on
   [c1] and those on id 3 address one row. *)
let alias_targets =
  let rekey = Uv_sql.Parser.parse_stmt "UPDATE o SET id = 3 WHERE id = 1" in
  List.concat_map
    (fun tau ->
      [
        { Analyzer.tau; op = Analyzer.Add rekey };
        { Analyzer.tau; op = Analyzer.Change rekey };
      ])
    [ 1; 2; 3 ]

(* [u.w] is an alias column of [u.id]. *)
let ddl_config =
  { Rowset.default_config with Rowset.ri_aliases = [ ("u", "w", "id") ] }

(* The base [ddl_statements] start from. *)
let ddl_setup =
  [
    "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
    "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
    "CREATE VIEW vw AS SELECT id, v FROM t";
    "CREATE PROCEDURE p(x INT) BEGIN UPDATE t SET v = x WHERE id = 1; END";
  ]

let ddl_statements =
  [
    "DELETE FROM t WHERE id = 9";
    "SELECT * FROM t WHERE id = 1";
    "ALTER TABLE t ADD COLUMN d INT";
    "DELETE FROM t WHERE id = 8";
    "SELECT * FROM t WHERE id = 2";
    "UPDATE t SET v = 1 WHERE id = 1";
    "CREATE TRIGGER tr AFTER UPDATE ON t FOR EACH ROW BEGIN UPDATE u SET \
     w = w + 1 WHERE id = 1; END";
    "UPDATE t SET v = 2 WHERE id = 2";
    "UPDATE t SET v = 3 WHERE id = 3";
    "SELECT * FROM vw WHERE id = 1";
    "CREATE OR REPLACE VIEW vw AS SELECT id, w FROM u";
    "SELECT * FROM vw WHERE id = 1";
    "CALL p(1)";
    "DROP PROCEDURE p";
    "CALL p(2)";
    "CREATE PROCEDURE p(x INT) BEGIN UPDATE u SET w = x WHERE id = 1; END";
    "CALL p(3)";
    "CREATE TABLE k (a INT PRIMARY KEY, b INT)";
    "UPDATE k SET b = 1 WHERE a = 1 AND b = 2";
    "DROP TABLE k";
    "CREATE TABLE k (a INT, b INT PRIMARY KEY)";
    "UPDATE k SET b = 3 WHERE a = 3 AND b = 4";
    "CREATE TABLE m (x INT, id INT PRIMARY KEY)";
    "INSERT INTO m VALUES (1, 2)";
    "ALTER TABLE m DROP COLUMN x";
    "INSERT INTO m VALUES (3, 4)";
    "ALTER TABLE m ADD COLUMN x INT";
    "INSERT INTO m VALUES (5, 6)";
    "INSERT INTO u VALUES (7, 70)";
    "CREATE TRIGGER tu AFTER INSERT ON u FOR EACH ROW BEGIN INSERT INTO t \
     (id, v) VALUES (70, 0); END";
    "INSERT INTO u VALUES (8, 80)";
    "SELECT * FROM u WHERE w = 70";
    "UPDATE u SET w = 71, id = 7 WHERE id = 7";
    "SELECT * FROM u WHERE 71 = w";
    "UPDATE u SET id = 9 WHERE id = 8";
    "SELECT * FROM u WHERE w = 80";
    "SELECT * FROM u WHERE 80 = w OR id = 9";
    "DELETE FROM vw WHERE id = 4";
    "CREATE OR REPLACE VIEW vw AS SELECT id, v FROM t";
    "DELETE FROM vw WHERE id = 5";
    "UPDATE vw SET v = 6 WHERE 6 = id";
    "INSERT INTO u VALUES ((SELECT id FROM t WHERE id = 3), (SELECT w FROM u WHERE id = 1))";
    "UPDATE t SET v = 1 WHERE id = 2 AND v = (SELECT w FROM u WHERE id = 7)";
    "DELETE FROM u WHERE id = (SELECT id FROM t WHERE v = 3)";
    "SELECT (SELECT w FROM u WHERE id = 1), v FROM t WHERE id = 4 AND EXISTS (SELECT id FROM u WHERE id = 9)";
    "SELECT t.v FROM t JOIN u ON t.id = u.id WHERE t.id = 5";
    "INSERT INTO u SELECT id, v FROM t WHERE id = 6";
    "BEGIN; INSERT INTO u VALUES (13, 130); UPDATE t SET v = 0 WHERE id = 13; COMMIT";
    "INSERT INTO u VALUES ((SELECT id FROM t WHERE id = 4), (SELECT w FROM u WHERE id = 8))";
    "UPDATE t SET v = 2 WHERE id = 3 AND v = (SELECT w FROM u WHERE id = 8)";
    "DELETE FROM u WHERE id = (SELECT id FROM t WHERE v = 4)";
    "SELECT (SELECT w FROM u WHERE id = 2), v FROM t WHERE id = 5 AND EXISTS (SELECT id FROM u WHERE id = 8)";
    "SELECT t.v FROM t JOIN u ON t.id = u.id WHERE t.id = 6";
    "INSERT INTO u SELECT id, v FROM t WHERE id = 7";
    "BEGIN; INSERT INTO u VALUES (14, 140); UPDATE t SET v = 1 WHERE id = 14; COMMIT";
    "BEGIN; UPDATE vw SET v = 7 WHERE id = 15; DELETE FROM u WHERE id = 15; COMMIT";
  ]
