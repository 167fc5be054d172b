(* Tests for ultraverse.db: storage, catalog, the execution engine across
   the Table A statement surface, logging, non-determinism recording and
   replay, and selective undo. *)

open Uv_sql
open Uv_db

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let fresh () = Engine.create ()

let run e sql = ignore (Engine.exec_sql e sql)

let q1 e sql =
  (* first cell of first row *)
  let r = Engine.query_sql e sql in
  match r.Engine.rows with
  | row :: _ -> row.(0)
  | [] -> Alcotest.failf "no rows from %s" sql

let qint e sql = Value.to_int (q1 e sql)
let qstr e sql = Value.to_string (q1 e sql)

let with_users () =
  let e = fresh () in
  run e "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(16), age INT)";
  run e "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)";
  e

(* ------------------------------------------------------------------ *)
(* Storage                                                              *)
(* ------------------------------------------------------------------ *)

let test_storage_roundtrip () =
  let t = Storage.create (Schema.table "t" [ Schema.column "a" Value.Tint ]) in
  let id = Storage.insert t [| Value.Int 1 |] in
  check Alcotest.int "count" 1 (Storage.row_count t);
  let before = Storage.update t id [| Value.Int 2 |] in
  check Alcotest.int "before image" 1 (Value.to_int before.(0));
  let removed = Storage.delete t id in
  check Alcotest.int "removed image" 2 (Value.to_int removed.(0));
  check Alcotest.int "empty" 0 (Storage.row_count t);
  check Alcotest.int64 "hash back to zero" 0L (Storage.hash t)

let test_storage_hash_tracks_mutations () =
  let t = Storage.create (Schema.table "t" [ Schema.column "a" Value.Tint ]) in
  let h0 = Storage.hash t in
  let id = Storage.insert t [| Value.Int 5 |] in
  let h1 = Storage.hash t in
  ignore (Storage.update t id [| Value.Int 6 |]);
  let h2 = Storage.hash t in
  ignore (Storage.update t id [| Value.Int 5 |]);
  check Alcotest.int64 "update back restores hash" h1 (Storage.hash t);
  Alcotest.(check bool) "hashes distinct" true (h0 <> h1 && h1 <> h2)

let test_storage_auto_values () =
  let t = Storage.create (Schema.table "t" [ Schema.column "a" Value.Tint ]) in
  check Alcotest.int "take 1" 1 (Storage.take_auto_value t);
  check Alcotest.int "take 2" 2 (Storage.take_auto_value t);
  Storage.bump_auto_value t 10;
  check Alcotest.int "bumped" 11 (Storage.take_auto_value t)

let test_storage_copy_isolated () =
  let t = Storage.create (Schema.table "t" [ Schema.column "a" Value.Tint ]) in
  ignore (Storage.insert t [| Value.Int 1 |]);
  let c = Storage.copy t in
  ignore (Storage.insert t [| Value.Int 2 |]);
  check Alcotest.int "copy unchanged" 1 (Storage.row_count c);
  check Alcotest.int "original grew" 2 (Storage.row_count t)

(* The canonical row bytes the table hash digests, built as a string:
   the reference for the digests [Storage] streams without building
   them. *)
let serialize_row name row =
  let buf = Buffer.create 64 in
  Buffer.add_string buf name;
  Array.iter
    (fun v ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (Value.serialize v))
    row;
  Buffer.contents buf

(* Property: the typed-column store is observationally identical to the
   legacy boxed representation it replaced. The model IS that
   representation — a rowid -> Value.t array Hashtbl plus a
   serialize-based Table_hash — driven through the same random
   interleaving of inserts (plain and at pinned rowids), updates,
   deletes, cell writes and undo re-inserts of deleted images. [Copy]
   forks a sibling table with its own model; later operations land on
   any side, copies of copies included, so every side must stay isolated
   from writes to the pages it shares. Every before-image must
   materialize the same [Value.t]; at the end every side's scans
   ([to_rows], [Col.select], [fold]) list its model in ascending rowid
   order, the typed readers agree with the boxed cells, the PRIMARY KEY
   and UNIQUE indexes return the model's rows for every probed key, and
   the incremental table hash equals the model's serialize-and-sum
   hash. *)
type model_side = {
  st : Storage.t;
  rows : (Storage.rowid, Value.t array) Hashtbl.t;
  mh : Uv_util.Table_hash.t;
  mutable grave : (Storage.rowid * Value.t array) list;
      (* deleted images whose rowid is not live: undo candidates *)
}

let prop_columnar_matches_boxed_model =
  let sch =
    Schema.table "t"
      [
        Schema.column ~primary_key:true "a" Value.Tint;
        Schema.column "b" Value.Tfloat;
        Schema.column ~unique:true "c" Value.Ttext;
        Schema.column "d" Value.Tbool;
      ]
  in
  let open QCheck in
  let value_gen =
    (* every dynamic kind lands in every column: the columns must handle
       cells that disagree with their declared type, like the boxed
       store did *)
    Gen.oneof
      [
        Gen.return Value.Null;
        Gen.map (fun i -> Value.Int i) (Gen.int_range (-50) 50);
        Gen.map
          (fun f -> Value.Float (float_of_int f /. 4.))
          (Gen.int_range (-40) 40);
        Gen.map
          (fun s -> Value.Text s)
          (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 6));
        Gen.map (fun b -> Value.Bool b) Gen.bool;
      ]
  in
  let row_gen =
    Gen.map Array.of_list (Gen.list_size (Gen.return 4) value_gen)
  in
  let side = Gen.small_nat in
  let op_gen =
    Gen.frequency
      [
        (4, Gen.map2 (fun j r -> `Insert (j, r)) side row_gen);
        ( 1,
          Gen.map3
            (fun j id r -> `Insert_at (j, id, r))
            side (Gen.int_range 1 150) row_gen );
        (3, Gen.map3 (fun j k r -> `Update (j, k, r)) side Gen.small_nat row_gen);
        (2, Gen.map2 (fun j k -> `Delete (j, k)) side Gen.small_nat);
        ( 2,
          Gen.map3
            (fun (j, k) c v -> `Write (j, k, c, v))
            (Gen.pair side Gen.small_nat) (Gen.int_range 0 3) value_gen );
        (2, Gen.map2 (fun j k -> `Reinsert (j, k)) side Gen.small_nat);
        (1, Gen.map (fun j -> `Copy j) side);
      ]
  in
  let ops_arb =
    make
      ~print:(fun l -> Printf.sprintf "%d ops" (List.length l))
      (Gen.list_size (Gen.int_range 1 150) op_gen)
  in
  qtest
    (QCheck.Test.make ~name:"columnar store matches legacy boxed model"
       ~count:200 ops_arb (fun ops ->
         let ok = ref true in
         let sides =
           ref
             [|
               {
                 st = Storage.create sch;
                 rows = Hashtbl.create 16;
                 mh = Uv_util.Table_hash.create ();
                 grave = [];
               };
             |]
         in
         let pick j = !sides.(j mod Array.length !sides) in
         let same_row a b =
           Array.length a = Array.length b
           && Array.for_all2 Value.equal a b
         in
         let add m id r =
           Hashtbl.replace m.rows id (Array.copy r);
           m.grave <- List.filter (fun (g, _) -> g <> id) m.grave;
           Uv_util.Table_hash.add_row m.mh (serialize_row (Storage.name m.st) r)
         in
         let drop m id =
           let r = Hashtbl.find m.rows id in
           Hashtbl.remove m.rows id;
           Uv_util.Table_hash.remove_row m.mh (serialize_row (Storage.name m.st) r);
           r
         in
         let nth m k =
           (* the k-th live rowid in ascending order, if any *)
           match
             List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) m.rows [])
           with
           | [] -> None
           | ids -> Some (List.nth ids (k mod List.length ids))
         in
         List.iter
           (fun op ->
             match op with
             | `Insert (j, r) ->
                 let m = pick j in
                 add m (Storage.insert m.st r) r
             | `Insert_at (j, id, r) -> (
                 let m = pick j in
                 match Storage.insert_at m.st id r with
                 | got ->
                     if got <> id || Hashtbl.mem m.rows id then ok := false;
                     add m id r
                 | exception Invalid_argument _ ->
                     if not (Hashtbl.mem m.rows id) then ok := false)
             | `Update (j, k, r) -> (
                 let m = pick j in
                 match nth m k with
                 | None -> ()
                 | Some id ->
                     let before = Storage.update m.st id (Array.copy r) in
                     if not (same_row before (drop m id)) then ok := false;
                     add m id r)
             | `Delete (j, k) -> (
                 let m = pick j in
                 match nth m k with
                 | None -> ()
                 | Some id ->
                     let removed = Storage.delete m.st id in
                     let mremoved = drop m id in
                     if not (same_row removed mremoved) then ok := false;
                     m.grave <- (id, mremoved) :: m.grave)
             | `Write (j, k, c, v) -> (
                 let m = pick j in
                 match nth m k with
                 | None -> ()
                 | Some id ->
                     Storage.Col.write m.st id c v;
                     let row = drop m id in
                     row.(c) <- v;
                     add m id row)
             | `Reinsert (j, k) -> (
                 let m = pick j in
                 match m.grave with
                 | [] -> ()
                 | grave ->
                     let id, r = List.nth grave (k mod List.length grave) in
                     Storage.insert_with_rowid m.st id r;
                     add m id r)
             | `Copy j ->
                 if Array.length !sides < 5 then begin
                   let m = pick j in
                   let rows = Hashtbl.create 16 in
                   Hashtbl.iter
                     (fun id r -> Hashtbl.replace rows id (Array.copy r))
                     m.rows;
                   sides :=
                     Array.append !sides
                       [|
                         {
                           st = Storage.copy m.st;
                           rows;
                           mh = Uv_util.Table_hash.copy m.mh;
                           grave = m.grave;
                         };
                       |]
                 end)
           ops;
         Array.iter
           (fun m ->
             let t = m.st in
             (* boxed reads, typed reads and hash all agree *)
             ok := !ok && Storage.row_count t = Hashtbl.length m.rows;
             ok :=
               !ok
               && Int64.equal (Storage.hash t) (Uv_util.Table_hash.value m.mh);
             Hashtbl.iter
               (fun id row ->
                 (match Storage.get t id with
                 | Some got -> if not (same_row got row) then ok := false
                 | None -> ok := false);
                 Array.iteri
                   (fun c cell ->
                     let ti = Storage.Col.read_int t id c in
                     let tf = Storage.Col.read_float t id c in
                     let tt = Storage.Col.read_text t id c in
                     let tb = Storage.Col.read_bool t id c in
                     let expect =
                       match cell with
                       | Value.Int i ->
                           ti = Some i && tf = None && tt = None && tb = None
                       | Value.Float f ->
                           tf = Some f && ti = None && tt = None && tb = None
                       | Value.Text s ->
                           tt = Some s && ti = None && tf = None && tb = None
                       | Value.Bool b ->
                           tb = Some b && ti = None && tf = None && tt = None
                       | Value.Null ->
                           ti = None && tf = None && tt = None && tb = None
                     in
                     if not expect then ok := false)
                   row)
               m.rows;
             (* every scan lists exactly the live set, ascending *)
             let expected =
               Hashtbl.fold (fun id r acc -> (id, r) :: acc) m.rows []
               |> List.sort (fun (a, _) (b, _) -> compare a b)
             in
             let same_listing l =
               List.length l = List.length expected
               && List.for_all2
                    (fun (i, r) (i', r') -> i = i' && same_row r r')
                    l expected
             in
             ok := !ok && same_listing (Storage.to_rows t);
             ok := !ok && same_listing (Storage.Col.select t (fun _ -> true));
             ok :=
               !ok
               && same_listing
                    (List.rev
                       (Storage.fold t ~init:[] ~f:(fun acc id r ->
                            (id, r) :: acc)));
             let nulls_in_b = List.filter (fun (_, r) -> Value.is_null r.(1)) expected in
             let got = Storage.Col.select t (fun cur -> Storage.Col.is_null cur 1) in
             ok :=
               !ok
               && List.map fst got = List.map fst nulls_in_b;
             (* the indexes answer every probed key with the model's rows *)
             List.iter
               (fun (col, ci) ->
                 let probes =
                   Value.Int 0 :: Value.Text "absent"
                   :: List.map (fun (_, r) -> r.(ci)) expected
                 in
                 List.iter
                   (fun v ->
                     let key = Storage.index_key v in
                     let want =
                       List.filter_map
                         (fun (id, r) ->
                           if Storage.index_key r.(ci) = key then
                             Some id
                           else None)
                         expected
                     in
                     match Storage.indexed_lookup t col v with
                     | Some ids -> if List.sort compare ids <> want then ok := false
                     | None -> ok := false)
                   probes)
               [ ("a", 0); ("c", 2) ])
           !sides;
         !ok))

(* A write to a copy costs the pages, bucket pages and postings it
   touches, not the table: the first update, delete and undo re-insert
   on a copy of a 16 000-row table must allocate about what they do on
   a copy of a 1 000-row one. *)
let first_writes_words n =
  let t =
    Storage.create
      (Schema.table "t"
         [
           Schema.column ~primary_key:true "id" Value.Tint;
           Schema.column "name" Value.Ttext;
           Schema.column "v" Value.Tint;
           Schema.column "f" Value.Tfloat;
         ])
  in
  for i = 1 to n do
    ignore
      (Storage.insert t
         [|
           Value.Int i;
           Value.Text (Printf.sprintf "name-%d" (i mod 97));
           Value.Int (i mod 13);
           Value.Float (float_of_int i /. 8.);
         |])
  done;
  let c = Storage.copy t in
  let probe f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let a = n / 2 and b = (n / 2) + 7 in
  let upd =
    probe (fun () ->
        ignore
          (Storage.update c a
             [| Value.Int a; Value.Text "renamed"; Value.Int 99; Value.Float 0.5 |]))
  in
  let removed = ref [||] in
  let del = probe (fun () -> removed := Storage.delete c b) in
  let ins = probe (fun () -> Storage.insert_with_rowid c b !removed) in
  check Alcotest.int "source untouched" n (Storage.row_count t);
  check Alcotest.(option int) "copy sees its update" (Some 99)
    (Storage.Col.read_int c a 2);
  check Alcotest.(option int) "source keeps its cell" (Some (a mod 13))
    (Storage.Col.read_int t a 2);
  (upd, del, ins)

let test_storage_first_write_flat () =
  let small = first_writes_words 1_000 and large = first_writes_words 16_000 in
  let within name s l =
    if l > 1.25 *. s || s > 1.25 *. l then
      Alcotest.failf
        "first %s on a copy allocated %.0f minor words at 1 000 rows but \
         %.0f at 16 000"
        name s l
  in
  let u, d, i = small and u', d', i' = large in
  within "update" u u';
  within "delete" d d';
  within "insert_with_rowid" i i'

(* ------------------------------------------------------------------ *)
(* Basic DML + SELECT                                                   *)
(* ------------------------------------------------------------------ *)

let test_insert_select () =
  let e = with_users () in
  check Alcotest.int "count" 3 (qint e "SELECT COUNT(*) FROM users");
  check Alcotest.string "where" "bob" (qstr e "SELECT name FROM users WHERE id = 2")

let test_update_delete () =
  let e = with_users () in
  run e "UPDATE users SET age = age + 1 WHERE name = 'alice'";
  check Alcotest.int "updated" 31 (qint e "SELECT age FROM users WHERE id = 1");
  run e "DELETE FROM users WHERE age < 30";
  check Alcotest.int "deleted" 2 (qint e "SELECT COUNT(*) FROM users")

let test_select_order_limit () =
  let e = with_users () in
  let r = Engine.query_sql e "SELECT name FROM users ORDER BY age DESC LIMIT 2" in
  let names = List.map (fun row -> Value.to_string row.(0)) r.Engine.rows in
  check Alcotest.(list string) "ordered" [ "carol"; "alice" ] names;
  (* OFFSET skips before LIMIT counts, in both syntaxes *)
  let names sql =
    List.map
      (fun row -> Value.to_string row.(0))
      (Engine.query_sql e sql).Engine.rows
  in
  check Alcotest.(list string) "offset" [ "alice"; "bob" ]
    (names "SELECT name FROM users ORDER BY age DESC LIMIT 2 OFFSET 1");
  check Alcotest.(list string) "mysql comma form" [ "alice"; "bob" ]
    (names "SELECT name FROM users ORDER BY age DESC LIMIT 1, 2");
  check Alcotest.(list string) "offset past end" []
    (names "SELECT name FROM users ORDER BY age DESC LIMIT 2 OFFSET 9")

let test_select_star_and_projection () =
  let e = with_users () in
  let r = Engine.query_sql e "SELECT * FROM users WHERE id = 1" in
  check Alcotest.(list string) "columns" [ "id"; "name"; "age" ] r.Engine.columns

let test_aggregates () =
  let e = with_users () in
  check Alcotest.int "sum" 90 (qint e "SELECT SUM(age) FROM users");
  check Alcotest.int "min" 25 (qint e "SELECT MIN(age) FROM users");
  check Alcotest.int "max" 35 (qint e "SELECT MAX(age) FROM users");
  check Alcotest.int "avg" 30 (qint e "SELECT AVG(age) FROM users");
  check Alcotest.int "count empty" 0 (qint e "SELECT COUNT(*) FROM users WHERE id > 99")

let test_group_by () =
  let e = fresh () in
  run e "CREATE TABLE sales (region VARCHAR(8), amount INT)";
  run e
    "INSERT INTO sales VALUES ('east', 10), ('west', 20), ('east', 30), ('west', 5)";
  let r =
    Engine.query_sql e
      "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region ASC"
  in
  let rows =
    List.map
      (fun row -> (Value.to_string row.(0), Value.to_int row.(1)))
      r.Engine.rows
  in
  check
    Alcotest.(list (pair string int))
    "grouped sums"
    [ ("east", 40); ("west", 25) ]
    rows

let test_join () =
  let e = with_users () in
  run e "CREATE TABLE pets (owner INT, pet VARCHAR(8))";
  run e "INSERT INTO pets VALUES (1, 'cat'), (1, 'dog'), (3, 'fish')";
  let r =
    Engine.query_sql e
      "SELECT u.name, p.pet FROM users u JOIN pets p ON p.owner = u.id ORDER BY p.pet ASC"
  in
  check Alcotest.int "join rows" 3 (List.length r.Engine.rows);
  check Alcotest.string "first pair"
    "alice/cat"
    (match r.Engine.rows with
    | row :: _ -> Value.to_string row.(0) ^ "/" ^ Value.to_string row.(1)
    | [] -> "")

let test_subquery () =
  let e = with_users () in
  check Alcotest.string "scalar subquery" "carol"
    (qstr e "SELECT name FROM users WHERE age = (SELECT MAX(age) FROM users)");
  check Alcotest.int "exists" 3
    (qint e
       "SELECT COUNT(*) FROM users WHERE EXISTS (SELECT 1 FROM users WHERE id = 1)")

let test_null_semantics () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT, b INT)";
  run e "INSERT INTO t VALUES (1, NULL), (2, 5)";
  check Alcotest.int "null excluded from where" 1
    (qint e "SELECT COUNT(*) FROM t WHERE b > 0");
  check Alcotest.int "is null" 1 (qint e "SELECT COUNT(*) FROM t WHERE b IS NULL");
  check Alcotest.int "sum skips null" 5 (qint e "SELECT SUM(b) FROM t")

let test_builtin_functions () =
  let e = fresh () in
  run e "CREATE TABLE t (s VARCHAR(16))";
  run e "INSERT INTO t VALUES ('hello')";
  check Alcotest.string "concat" "hello!"
    (qstr e "SELECT CONCAT(s, '!') FROM t");
  check Alcotest.string "upper" "HELLO" (qstr e "SELECT UPPER(s) FROM t");
  check Alcotest.int "length" 5 (qint e "SELECT LENGTH(s) FROM t");
  check Alcotest.string "substr" "ell" (qstr e "SELECT SUBSTR(s, 2, 3) FROM t");
  check Alcotest.int "if" 1 (qint e "SELECT IF(LENGTH(s) > 3, 1, 0) FROM t");
  check Alcotest.int "coalesce" 7 (qint e "SELECT COALESCE(NULL, 7) FROM t");
  check Alcotest.int "like" 1
    (qint e "SELECT COUNT(*) FROM t WHERE s LIKE 'h%o'")

(* ------------------------------------------------------------------ *)
(* DDL                                                                  *)
(* ------------------------------------------------------------------ *)

let test_alter_table () =
  let e = with_users () in
  run e "ALTER TABLE users ADD COLUMN city VARCHAR(16)";
  check Alcotest.int "new column null" 1
    (qint e "SELECT COUNT(*) FROM users WHERE city IS NULL AND id = 1");
  run e "ALTER TABLE users DROP COLUMN age";
  (match Engine.query_sql e "SELECT * FROM users WHERE id = 1" with
  | { Engine.columns = [ "id"; "name"; "city" ]; _ } -> ()
  | _ -> Alcotest.fail "column dropped");
  run e "ALTER TABLE users RENAME TO people";
  check Alcotest.int "renamed" 3 (qint e "SELECT COUNT(*) FROM people")

let test_drop_truncate () =
  let e = with_users () in
  run e "TRUNCATE TABLE users";
  check Alcotest.int "truncated" 0 (qint e "SELECT COUNT(*) FROM users");
  run e "DROP TABLE users";
  (match Engine.exec_sql e "SELECT COUNT(*) FROM users" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "dropped table should be gone");
  run e "DROP TABLE IF EXISTS users"

let test_views () =
  let e = with_users () in
  run e "CREATE VIEW adults AS SELECT id, name FROM users WHERE age >= 30";
  check Alcotest.int "view rows" 2 (qint e "SELECT COUNT(*) FROM adults");
  (* updatable view: UPDATE through it hits the parent with the view
     predicate conjoined *)
  run e "UPDATE adults SET name = 'ALICE' WHERE id = 1";
  check Alcotest.string "updated through view" "ALICE"
    (qstr e "SELECT name FROM users WHERE id = 1");
  run e "DELETE FROM adults WHERE id = 3";
  check Alcotest.int "deleted through view" 2 (qint e "SELECT COUNT(*) FROM users")

let test_auto_increment () =
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(4))";
  run e "INSERT INTO t (v) VALUES ('a')";
  run e "INSERT INTO t (v) VALUES ('b')";
  check Alcotest.int "second id" 2 (qint e "SELECT id FROM t WHERE v = 'b'");
  run e "INSERT INTO t VALUES (10, 'c')";
  run e "INSERT INTO t (v) VALUES ('d')";
  check Alcotest.int "bumped past explicit" 11 (qint e "SELECT id FROM t WHERE v = 'd'");
  check Alcotest.int "last_insert_id" 11 (qint e "SELECT LAST_INSERT_ID() FROM t LIMIT 1")

(* ------------------------------------------------------------------ *)
(* Procedures, triggers, transactions                                   *)
(* ------------------------------------------------------------------ *)

let test_procedure_control_flow () =
  let e = fresh () in
  run e "CREATE TABLE log (k INT, v INT)";
  run e
    "CREATE PROCEDURE fill(IN n INT) BEGIN DECLARE i INT DEFAULT 0; WHILE i < \
     n DO INSERT INTO log VALUES (i, i * i); SET i = i + 1; END WHILE; END";
  run e "CALL fill(5)";
  check Alcotest.int "loop inserted" 5 (qint e "SELECT COUNT(*) FROM log");
  check Alcotest.int "squares" 16 (qint e "SELECT v FROM log WHERE k = 4")

let test_procedure_leave_signal () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT)";
  run e
    "CREATE PROCEDURE p(IN x INT) lbl: BEGIN IF x = 0 THEN LEAVE lbl; END IF; \
     INSERT INTO t VALUES (x); END";
  run e "CALL p(0)";
  check Alcotest.int "leave skipped insert" 0 (qint e "SELECT COUNT(*) FROM t");
  run e "CALL p(7)";
  check Alcotest.int "insert happened" 1 (qint e "SELECT COUNT(*) FROM t");
  run e
    "CREATE PROCEDURE boom() BEGIN INSERT INTO t VALUES (99); SIGNAL SQLSTATE \
     '45000'; END";
  (match Engine.exec_sql e "CALL boom()" with
  | exception Engine.Signal_raised "45000" -> ()
  | _ -> Alcotest.fail "signal should raise");
  check Alcotest.int "signalled statement rolled back" 0
    (qint e "SELECT COUNT(*) FROM t WHERE a = 99")

let test_select_into_vars () =
  let e = with_users () in
  run e "CREATE TABLE out (v INT)";
  run e
    "CREATE PROCEDURE snap() BEGIN DECLARE m INT; SELECT MAX(age) INTO m FROM \
     users; INSERT INTO out VALUES (m); END";
  run e "CALL snap()";
  check Alcotest.int "select into" 35 (qint e "SELECT v FROM out")

let test_triggers () =
  let e = fresh () in
  run e "CREATE TABLE orders (id INT, qty INT)";
  run e "CREATE TABLE audit (total INT)";
  run e "INSERT INTO audit VALUES (0)";
  run e
    "CREATE TRIGGER tally AFTER INSERT ON orders FOR EACH ROW BEGIN UPDATE \
     audit SET total = total + NEW.qty; END";
  run e "INSERT INTO orders VALUES (1, 5)";
  run e "INSERT INTO orders VALUES (2, 7)";
  check Alcotest.int "trigger accumulated" 12 (qint e "SELECT total FROM audit");
  run e "DROP TRIGGER tally";
  run e "INSERT INTO orders VALUES (3, 100)";
  check Alcotest.int "dropped trigger inert" 12 (qint e "SELECT total FROM audit")

let test_transaction_atomic () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT)";
  run e "CREATE PROCEDURE bad() BEGIN INSERT INTO t VALUES (1); SIGNAL SQLSTATE '99001'; END";
  (match
     Engine.exec_sql e "BEGIN TRANSACTION; INSERT INTO t VALUES (7); CALL bad(); COMMIT"
   with
  | exception Engine.Signal_raised _ -> ()
  | _ -> Alcotest.fail "transaction should abort");
  check Alcotest.int "atomic abort" 0 (qint e "SELECT COUNT(*) FROM t");
  run e "BEGIN TRANSACTION; INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); COMMIT";
  check Alcotest.int "committed" 2 (qint e "SELECT COUNT(*) FROM t")

(* ------------------------------------------------------------------ *)
(* Log + non-determinism                                                *)
(* ------------------------------------------------------------------ *)

let test_log_records () =
  let e = with_users () in
  check Alcotest.int "log length" 2 (Log.length (Engine.log e));
  let entry = Log.entry (Engine.log e) 2 in
  check Alcotest.int "rows written" 3 entry.Log.rows_written;
  Alcotest.(check bool) "written hash recorded" true
    (List.mem_assoc "users" entry.Log.written_hashes)

let test_nondet_replay_rand () =
  let e = fresh () in
  run e "CREATE TABLE t (v DOUBLE)";
  run e "INSERT INTO t VALUES (RAND())";
  let entry = Log.entry (Engine.log e) 2 in
  check Alcotest.int "one draw" 1 (List.length entry.Log.nondet);
  let original = qstr e "SELECT v FROM t" in
  (* replay into a fresh engine with forced nondet: same value *)
  let e2 = fresh () in
  run e2 "CREATE TABLE t (v DOUBLE)";
  ignore
    (Engine.exec ~nondet:entry.Log.nondet e2 (Uv_sql.Parser.parse_stmt "INSERT INTO t VALUES (RAND())"));
  check Alcotest.string "replayed identical" original (qstr e2 "SELECT v FROM t");
  (* without forcing, a fresh draw differs with overwhelming probability *)
  let e3 = Engine.create ~seed:777 () in
  run e3 "CREATE TABLE t (v DOUBLE)";
  run e3 "INSERT INTO t VALUES (RAND())";
  Alcotest.(check bool) "fresh draw differs" true (original <> qstr e3 "SELECT v FROM t")

let test_nondet_replay_auto_increment () =
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
  run e "INSERT INTO t (v) VALUES (1)";
  run e "INSERT INTO t (v) VALUES (2)";
  let entry2 = Log.entry (Engine.log e) 3 in
  (* replay only the second insert elsewhere: keeps its past key 2 *)
  let e2 = fresh () in
  run e2 "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)";
  ignore
    (Engine.exec ~nondet:entry2.Log.nondet e2
       (Uv_sql.Parser.parse_stmt "INSERT INTO t (v) VALUES (2)"));
  check Alcotest.int "past key reused" 2 (qint e2 "SELECT id FROM t WHERE v = 2")

let test_undo_records () =
  let e = with_users () in
  run e "UPDATE users SET age = 99 WHERE id = 1";
  let entry = Log.entry (Engine.log e) 3 in
  (* applying the undo restores the original age *)
  Log.apply_undo (Engine.catalog e) entry.Log.undo;
  check Alcotest.int "undone" 30 (qint e "SELECT age FROM users WHERE id = 1")

let test_undo_cell_precision () =
  (* a later blind write to a different column of the same row survives
     undoing an earlier update *)
  let e = with_users () in
  run e "UPDATE users SET age = 50 WHERE id = 1";
  run e "UPDATE users SET name = 'zed' WHERE id = 1";
  let age_update = Log.entry (Engine.log e) 3 in
  Log.apply_undo (Engine.catalog e) age_update.Log.undo;
  check Alcotest.int "age restored" 30 (qint e "SELECT age FROM users WHERE id = 1");
  check Alcotest.string "independent later write preserved" "zed"
    (qstr e "SELECT name FROM users WHERE id = 1")

(* A NaN's sign is part of the row digest ([Value.serialize] prints
   [nan] and [-nan]), so undoing an update that flips it must restore
   the table hash. *)
let test_undo_nan_sign () =
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)";
  run e "INSERT INTO t VALUES (1, 'nan')";
  let table () = Option.get (Catalog.table (Engine.catalog e) "t") in
  let before = Storage.hash (table ()) in
  run e "UPDATE t SET v = '-nan' WHERE id = 1";
  let update = Log.entry (Engine.log e) (Log.length (Engine.log e)) in
  check Alcotest.bool "the update flipped the sign" false
    (Int64.equal before (Storage.hash (table ())));
  Log.apply_undo (Engine.catalog e) update.Log.undo;
  check Alcotest.int64 "hash restored" before (Storage.hash (table ()));
  check Alcotest.bool "nan and -nan differ" false
    (Value.equal (Value.Float Float.nan) (Value.Float (-.Float.nan)))

let test_undo_ddl () =
  let e = with_users () in
  run e "DROP TABLE users";
  let entry = Log.entry (Engine.log e) 3 in
  Log.apply_undo (Engine.catalog e) entry.Log.undo;
  check Alcotest.int "table resurrected with rows" 3
    (qint e "SELECT COUNT(*) FROM users")

let test_snapshot_restore () =
  let e = with_users () in
  let snap = Engine.snapshot e in
  run e "DELETE FROM users";
  run e "DROP TABLE users";
  Engine.restore e snap;
  check Alcotest.int "restored" 3 (qint e "SELECT COUNT(*) FROM users")

(* The what-if cost model reads the live tables' hashes without copying
   them; the result must be the snapshot's hash bit for bit, whatever
   the order, duplicates or missing names in the list. *)
let test_tables_hash_matches_snapshot () =
  let e = with_users () in
  run e "CREATE TABLE notes (id INT PRIMARY KEY, body VARCHAR(16))";
  run e "INSERT INTO notes VALUES (1, 'x'), (2, 'y')";
  let cat = Engine.catalog e in
  List.iter
    (fun names ->
      check Alcotest.int64
        (String.concat "," names)
        (Catalog.db_hash (Catalog.snapshot_tables cat names))
        (Catalog.tables_hash cat names))
    [ []; [ "users" ]; [ "notes"; "users" ]; [ "users"; "notes"; "users" ];
      [ "ghost"; "notes" ] ]

let test_log_sizes () =
  let e = with_users () in
  let entry = Log.entry (Engine.log e) 2 in
  Alcotest.(check bool) "binlog bigger than uv log" true
    (Log.binlog_bytes entry > Log.uv_log_bytes entry);
  Alcotest.(check bool) "uv log small" true (Log.uv_log_bytes entry < 200)

let test_rtt_accounting () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT)";
  run e "INSERT INTO t VALUES (1)";
  run e "INSERT INTO t VALUES (2)";
  check (Alcotest.float 1e-9) "one rtt per statement" 3.0
    (Uv_util.Clock.simulated_ms (Engine.clock e))

let test_failed_statement_not_logged () =
  let e = with_users () in
  let before = Log.length (Engine.log e) in
  (match Engine.exec_sql e "INSERT INTO nosuch VALUES (1)" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected error");
  check Alcotest.int "log unchanged" before (Log.length (Engine.log e))

let test_in_subquery_membership () =
  let e = with_users () in
  run e "CREATE TABLE vips (uid INT)";
  run e "INSERT INTO vips VALUES (1), (3)";
  check Alcotest.int "IN literal list" 2
    (qint e "SELECT COUNT(*) FROM users WHERE id IN (1, 3)");
  check Alcotest.int "NOT IN" 1
    (qint e "SELECT COUNT(*) FROM users WHERE id NOT IN (1, 3)");
  (* IN over a subselect matches EVERY row of the result, not a scalar *)
  check Alcotest.int "IN subselect" 2
    (qint e "SELECT COUNT(*) FROM users WHERE id IN (SELECT uid FROM vips)");
  check Alcotest.int "NOT IN subselect" 1
    (qint e "SELECT COUNT(*) FROM users WHERE id NOT IN (SELECT uid FROM vips)");
  check Alcotest.int "IN empty subselect" 0
    (qint e "SELECT COUNT(*) FROM users WHERE id IN (SELECT uid FROM vips WHERE uid > 99)")

let test_correlated_subqueries () =
  let e = with_users () in
  run e "CREATE TABLE logins (uid INT, day INT)";
  run e "INSERT INTO logins VALUES (1, 5), (1, 6), (3, 7)";
  (* correlated EXISTS: the inner WHERE references the outer row *)
  check Alcotest.int "correlated EXISTS" 2
    (qint e
       "SELECT COUNT(*) FROM users WHERE EXISTS (SELECT 1 FROM logins WHERE \
        logins.uid = users.id)");
  check Alcotest.int "correlated NOT EXISTS" 1
    (qint e
       "SELECT COUNT(*) FROM users WHERE NOT EXISTS (SELECT 1 FROM logins \
        WHERE logins.uid = users.id)");
  (* correlated scalar subquery in the select list *)
  let r =
    Engine.query_sql e
      "SELECT (SELECT COUNT(*) FROM logins WHERE logins.uid = users.id) FROM \
       users WHERE id = 1"
  in
  check Alcotest.int "correlated scalar" 2 (Value.to_int (List.hd r.Engine.rows).(0))

let test_pk_and_not_null_constraints () =
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)";
  run e "INSERT INTO t VALUES (1, 10)";
  let rejected sql =
    match Engine.exec_sql e sql with
    | exception Engine.Sql_error _ -> ()
    | _ -> Alcotest.failf "accepted %s" sql
  in
  rejected "INSERT INTO t VALUES (1, 20)";
  (* SQL-equality duplicates too: 1 vs 1.0 vs '1' *)
  rejected "INSERT INTO t VALUES (1.0, 20)";
  rejected "INSERT INTO t VALUES ('1', 20)";
  rejected "INSERT INTO t VALUES (2, NULL)";
  run e "INSERT INTO t VALUES (2, 20)";
  rejected "UPDATE t SET id = 1 WHERE id = 2";
  rejected "UPDATE t SET v = NULL WHERE id = 2";
  (* updating a row to its own key is not a duplicate *)
  run e "UPDATE t SET id = 2, v = 21 WHERE id = 2";
  check Alcotest.int "final rows" 2 (qint e "SELECT COUNT(*) FROM t");
  (* a failed insert inside a transaction aborts atomically *)
  (match
     Engine.exec_sql e
       "BEGIN; INSERT INTO t VALUES (3, 30); INSERT INTO t VALUES (1, 99); COMMIT"
   with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "transaction should abort");
  check Alcotest.int "atomic rollback" 2 (qint e "SELECT COUNT(*) FROM t");
  (* AUTO_INCREMENT keys never self-collide *)
  run e "CREATE TABLE a (id INT PRIMARY KEY AUTO_INCREMENT, x INT)";
  run e "INSERT INTO a (x) VALUES (1)";
  run e "INSERT INTO a (x) VALUES (2)";
  check Alcotest.int "auto rows" 2 (qint e "SELECT COUNT(*) FROM a");
  (* single-column UNIQUE: duplicates rejected, NULLs exempt *)
  run e "CREATE TABLE u (id INT PRIMARY KEY, email VARCHAR(32) UNIQUE)";
  run e "INSERT INTO u VALUES (1, 'a@x.com')";
  rejected "INSERT INTO u VALUES (2, 'a@x.com')";
  run e "INSERT INTO u VALUES (2, NULL)";
  run e "INSERT INTO u VALUES (3, NULL)";
  rejected "UPDATE u SET email = 'a@x.com' WHERE id = 2";
  run e "UPDATE u SET email = 'b@x.com' WHERE id = 1";
  check Alcotest.int "unique rows" 3 (qint e "SELECT COUNT(*) FROM u")

let test_insert_from_select () =
  let e = with_users () in
  run e "CREATE TABLE archive (id INT, name VARCHAR(16), age INT)";
  run e "INSERT INTO archive SELECT id, name, age FROM users WHERE age >= 30";
  check Alcotest.int "filtered rows copied" 2 (qint e "SELECT COUNT(*) FROM archive");
  (* expressions in the projection *)
  run e "CREATE TABLE ages (id INT, next_age INT)";
  run e "INSERT INTO ages SELECT id, age + 1 FROM users";
  check Alcotest.int "projection computed" 31
    (qint e "SELECT next_age FROM ages WHERE id = 1");
  (* the source snapshot is taken before writes: a self-insert must not
     observe its own new rows *)
  run e "INSERT INTO archive SELECT id, name, age FROM archive";
  check Alcotest.int "self-insert doubles once" 4
    (qint e "SELECT COUNT(*) FROM archive");
  (* aggregate source *)
  run e "CREATE TABLE stats (n INT, avg_age INT)";
  run e "INSERT INTO stats SELECT COUNT(*), AVG(age) FROM users";
  check Alcotest.int "aggregate row" 3 (qint e "SELECT n FROM stats");
  (* undo restores the pre-insert state *)
  let h = Engine.db_hash e in
  run e "INSERT INTO archive SELECT id, name, age FROM users";
  let log = Engine.log e in
  Log.apply_undo (Engine.catalog e) (Log.entry log (Log.length log)).Log.undo;
  check Alcotest.bool "undo removes the copied rows" true
    (Int64.equal h (Engine.db_hash e))

let test_having_and_distinct_aggregates () =
  let e = fresh () in
  run e "CREATE TABLE sales (region INT, amount INT)";
  run e "INSERT INTO sales VALUES (1, 10), (1, 20), (2, 5), (2, 5), (3, 1), (3, NULL)";
  (* HAVING filters groups after aggregation *)
  check Alcotest.int "having filters groups" 1
    (List.length
       (Engine.query_sql e
          "SELECT region, SUM(amount) FROM sales GROUP BY region HAVING SUM(amount) > 10")
         .Engine.rows);
  (* HAVING over a different aggregate than the projection *)
  check Alcotest.int "having on other aggregate" 3
    (List.length
       (Engine.query_sql e
          "SELECT region FROM sales GROUP BY region HAVING COUNT(*) >= 2")
         .Engine.rows);
  (* DISTINCT aggregates: duplicates collapse, NULLs are ignored *)
  check Alcotest.int "count distinct" 4
    (qint e "SELECT COUNT(DISTINCT amount) FROM sales");
  check Alcotest.int "sum distinct dedupes" 5
    (qint e "SELECT SUM(DISTINCT amount) FROM sales WHERE region = 2");
  check Alcotest.int "count distinct per group" 1
    (qint e
       "SELECT COUNT(DISTINCT amount) FROM sales WHERE region = 2 GROUP BY region");
  (* SQL-equality classes: 5 and 5.0 are one distinct value *)
  run e "INSERT INTO sales VALUES (2, 5.0)";
  check Alcotest.int "distinct across numeric types"
    (qint e "SELECT COUNT(DISTINCT amount) FROM sales WHERE region = 2")
    1;
  (* the classes follow [=] within a kind (engine.mli): 10^15 and 1e15
     are one number, the texts '5' and '5.0' two strings *)
  run e "CREATE TABLE kinds (id INT, s VARCHAR(8))";
  run e "INSERT INTO kinds VALUES (1, '5'), (2, '5.0')";
  check Alcotest.int "10^15 and 1e15 are one value" 1
    (qint e
       "SELECT COUNT(DISTINCT CASE WHEN id = 1 THEN 1000000000000000 ELSE \
        1000000000000000.0 END) FROM kinds");
  check Alcotest.int "= selects one of '5' and '5.0'" 1
    (qint e "SELECT COUNT(*) FROM kinds WHERE s = '5.0'");
  check Alcotest.int "'5' and '5.0' are two values" 2
    (qint e "SELECT COUNT(DISTINCT s) FROM kinds")

let test_rowcount_scalar () =
  let e = fresh () in
  run e "CREATE TABLE t (g INT, v INT)";
  run e "INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 1)";
  check Alcotest.int "counts result rows" 3
    (qint e "SELECT ROWCOUNT((SELECT g FROM t GROUP BY g))");
  check Alcotest.int "respects having" 1
    (qint e "SELECT ROWCOUNT((SELECT g FROM t GROUP BY g HAVING COUNT(*) >= 2))");
  check Alcotest.int "empty result" 0
    (qint e "SELECT ROWCOUNT((SELECT g FROM t WHERE v > 999))")

let test_between_and_case () =
  let e = with_users () in
  check Alcotest.int "between" 2
    (qint e "SELECT COUNT(*) FROM users WHERE age BETWEEN 25 AND 30");
  check Alcotest.string "case lowering" "old"
    (let r =
       Engine.query_sql e
         "SELECT CASE WHEN age > 32 THEN 'old' ELSE 'young' END FROM users \
          WHERE id = 3"
     in
     Value.to_string (List.hd r.Engine.rows).(0))

let test_multi_row_update_order_independent () =
  (* hash equality regardless of which rows matched first *)
  let e = with_users () in
  run e "UPDATE users SET age = age * 2";
  check Alcotest.int "all updated" 3 (qint e "SELECT COUNT(*) FROM users WHERE age >= 50")

let test_view_reflects_base_changes () =
  let e = with_users () in
  run e "CREATE VIEW names AS SELECT name FROM users";
  check Alcotest.int "view row count" 3 (qint e "SELECT COUNT(*) FROM names");
  run e "INSERT INTO users VALUES (4, 'dave', 20)";
  check Alcotest.int "view sees new row" 4 (qint e "SELECT COUNT(*) FROM names")

let test_nested_procedure_calls () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT)";
  run e "CREATE PROCEDURE inner_p(IN x INT) BEGIN INSERT INTO t VALUES (x); END";
  run e
    "CREATE PROCEDURE outer_p(IN n INT) BEGIN DECLARE i INT DEFAULT 0; WHILE \
     i < n DO CALL inner_p(i); SET i = i + 1; END WHILE; END";
  run e "CALL outer_p(4)";
  check Alcotest.int "nested calls" 4 (qint e "SELECT COUNT(*) FROM t")

let test_trigger_on_delete_and_update () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT)";
  run e "CREATE TABLE audit (kind VARCHAR(8), old_a INT)";
  run e
    "CREATE TRIGGER td BEFORE DELETE ON t FOR EACH ROW BEGIN INSERT INTO \
     audit VALUES ('del', OLD.a); END";
  run e
    "CREATE TRIGGER tu AFTER UPDATE ON t FOR EACH ROW BEGIN INSERT INTO \
     audit VALUES ('upd', OLD.a); END";
  run e "INSERT INTO t VALUES (1)";
  run e "UPDATE t SET a = 2 WHERE a = 1";
  run e "DELETE FROM t WHERE a = 2";
  check Alcotest.int "update trigger saw old value" 1
    (qint e "SELECT old_a FROM audit WHERE kind = 'upd'");
  check Alcotest.int "delete trigger saw old value" 2
    (qint e "SELECT old_a FROM audit WHERE kind = 'del'")

let test_enforce_fk () =
  let e = Engine.create ~enforce_fk:true () in
  run e "CREATE TABLE parent (id INT PRIMARY KEY)";
  run e "CREATE TABLE child (pid INT REFERENCES parent(id))";
  run e "INSERT INTO parent VALUES (1)";
  run e "INSERT INTO child VALUES (1)";
  (match Engine.exec_sql e "INSERT INTO child VALUES (9)" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "fk violation should raise");
  check Alcotest.int "valid child kept" 1 (qint e "SELECT COUNT(*) FROM child")

let test_order_by_multiple_keys () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT, b INT)";
  run e "INSERT INTO t VALUES (1, 2), (1, 1), (0, 9)";
  let r = Engine.query_sql e "SELECT a, b FROM t ORDER BY a ASC, b DESC" in
  let pairs =
    List.map (fun row -> (Value.to_int row.(0), Value.to_int row.(1))) r.Engine.rows
  in
  check
    Alcotest.(list (pair int int))
    "multi-key order"
    [ (0, 9); (1, 2); (1, 1) ]
    pairs

let test_distinct () =
  let e = fresh () in
  run e "CREATE TABLE t (a INT, b INT)";
  run e "INSERT INTO t VALUES (1, 1), (1, 2), (2, 1), (1, 1)";
  check Alcotest.int "distinct single column" 2
    (List.length (Engine.query_sql e "SELECT DISTINCT a FROM t").Engine.rows);
  check Alcotest.int "distinct pair" 3
    (List.length (Engine.query_sql e "SELECT DISTINCT a, b FROM t").Engine.rows);
  check Alcotest.int "plain keeps duplicates" 4
    (List.length (Engine.query_sql e "SELECT a FROM t").Engine.rows)

(* ------------------------------------------------------------------ *)
(* Durable log (Log_io)                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_io_roundtrip () =
  (* a history exercising nondet draws, app-txn tags and quoting *)
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v DOUBLE, s VARCHAR(32))";
  ignore (Engine.exec_sql ~app_txn:"txn:1" e "INSERT INTO t (v, s) VALUES (RAND(), 'it''s')");
  ignore (Engine.exec_sql ~app_txn:"txn:1" e "UPDATE t SET v = v * 2 WHERE id = 1");
  ignore (Engine.exec_sql e "INSERT INTO t (v, s) VALUES (NOW(), 'plain')");
  let text = Log_io.print (Log_io.records_of_log (Engine.log e)) in
  let back = Log_io.parse text in
  check Alcotest.int "record count" (Log.length (Engine.log e)) (List.length back);
  (* replay into a fresh engine: identical database and log length *)
  let e2 = fresh () in
  ignore (Log_io.replay e2 back : int list);
  check Alcotest.int "replayed log length" (Log.length (Engine.log e))
    (Log.length (Engine.log e2));
  check Alcotest.bool "identical db hash" true
    (Int64.equal (Engine.db_hash e) (Engine.db_hash e2));
  (* tags survive (record 1 is the untagged CREATE TABLE) *)
  let r = List.nth back 1 in
  check Alcotest.(option string) "tag" (Some "txn:1") r.Log_io.r_app_txn

let test_log_io_file_roundtrip () =
  let e = with_users () in
  run e "UPDATE users SET age = age + 1 WHERE id = 2";
  let path = Filename.temp_file "ulog" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Log_store.save_log_file (Engine.log e) ~path;
      let back = Log_store.load_log_file ~path in
      let e2 = fresh () in
      ignore (Log_io.replay e2 back : int list);
      check Alcotest.bool "identical db hash" true
        (Int64.equal (Engine.db_hash e) (Engine.db_hash e2)))

let test_log_io_corrupt () =
  let bad input =
    match Log_io.parse input with
    | exception Log_io.Corrupt _ -> ()
    | _ -> Alcotest.failf "accepted corrupt input %S" input
  in
  bad "";
  bad "NOTALOG\nQ SELECT 1\nE\n";
  bad "ULOGv1\nQ SELECT 1\n";
  (* truncated record *)
  bad "ULOGv1\nN I5\nE\n";
  (* value outside a record *)
  bad "ULOGv1\nQ SELECT 1\nN Zbogus\nE\n";
  (* unknown tag *)
  check Alcotest.int "empty log parses" 0 (List.length (Log_io.parse "ULOGv1\n"))

let prop_log_io_escape_roundtrip =
  qtest
    (QCheck.Test.make ~name:"log escaping round-trips any string" ~count:300
       QCheck.string (fun s ->
         let escaped = Log_io.escape s in
         (* escaped form must be newline-free (one record field per line) *)
         (not (String.contains escaped '\n'))
         && String.equal s (Log_io.unescape escaped)))

let prop_log_io_print_parse =
  qtest
    (QCheck.Test.make ~name:"log print/parse round-trips random records"
       ~count:100
       QCheck.(
         small_list
           (triple (printable_string_of_size Gen.(0 -- 40))
              (small_list (int_range (-1000) 1000))
              (option (printable_string_of_size Gen.(0 -- 10)))))
       (fun rows ->
         let records =
           List.map
             (fun (sql, draws, tag) ->
               {
                 Log_io.r_sql = sql;
                 r_nondet = List.map (fun i -> Value.Int i) draws;
                 r_app_txn = tag;
               })
             rows
         in
         Log_io.parse (Log_io.print records) = records))

(* ------------------------------------------------------------------ *)
(* Logical dump (Dump)                                                  *)
(* ------------------------------------------------------------------ *)

let build_rich_db () =
  let e = fresh () in
  run e "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(16), age INT)";
  run e "INSERT INTO users (name, age) VALUES ('alice', 30), ('bob', 25)";
  run e "CREATE TABLE audit (n INT)";
  run e "INSERT INTO audit VALUES (0)";
  run e "CREATE INDEX by_age ON users (age)";
  run e "CREATE VIEW adults AS SELECT name FROM users WHERE age >= 18";
  run e
    "CREATE PROCEDURE bump(IN uid INT) BEGIN UPDATE users SET age = age + 1      WHERE id = uid; END";
  run e
    "CREATE TRIGGER tg AFTER INSERT ON users FOR EACH ROW BEGIN UPDATE audit      SET n = n + 1; END";
  e

let all_table_hashes e =
  List.sort compare
    (List.map
       (fun (n, tbl) -> (n, Storage.hash tbl))
       (Catalog.tables (Engine.catalog e)))

let test_dump_roundtrip () =
  let e = build_rich_db () in
  let script = Dump.to_sql (Engine.catalog e) in
  (* determinism *)
  check Alcotest.string "dump is deterministic" script
    (Dump.to_sql (Engine.catalog e));
  let e2 = fresh () in
  Dump.restore e2 script;
  check
    Alcotest.(list (pair string int64))
    "identical tables" (all_table_hashes e) (all_table_hashes e2);
  (* catalog objects survive: view answers, procedure runs, trigger fires,
     auto counter continues past the dumped keys *)
  check Alcotest.int "view rows" 2 (qint e2 "SELECT COUNT(*) FROM adults");
  run e2 "CALL bump(1)";
  check Alcotest.int "procedure ran" 31 (qint e2 "SELECT age FROM users WHERE id = 1");
  check Alcotest.int "restore did not re-fire triggers" 0
    (qint e2 "SELECT n FROM audit");
  run e2 "INSERT INTO users (name, age) VALUES ('carol', 40)";
  check Alcotest.int "trigger fires on fresh insert" 1 (qint e2 "SELECT n FROM audit");
  check Alcotest.int "auto key continues" 3
    (qint e2 "SELECT id FROM users WHERE name = 'carol'")

let test_dump_checkpoint_plus_tail () =
  (* the recovery story: a dump is the checkpoint, the persisted statement
     log is the tail *)
  let e = build_rich_db () in
  let checkpoint = Dump.to_sql (Engine.catalog e) in
  Engine.reset_log e;
  run e "INSERT INTO users (name, age) VALUES ('dave', 20)";
  run e "CALL bump(2)";
  run e "DELETE FROM users WHERE id = 1";
  let tail = Log_io.records_of_log (Engine.log e) in
  let e2 = fresh () in
  Dump.restore e2 checkpoint;
  ignore (Log_io.replay e2 tail : int list);
  check
    Alcotest.(list (pair string int64))
    "checkpoint + tail equals original" (all_table_hashes e)
    (all_table_hashes e2)

let prop_dump_roundtrip =
  qtest
    (QCheck.Test.make ~name:"dump/restore preserves random databases" ~count:40
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let prng = Uv_util.Prng.create seed in
         let e = fresh () in
         run e "CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(32), f DOUBLE)";
         for i = 1 to 5 + Uv_util.Prng.int prng 20 do
           run e
             (Printf.sprintf "INSERT INTO t VALUES (%d, '%s', %d.%d)" i
                (String.init
                   (Uv_util.Prng.int prng 8)
                   (fun _ -> Char.chr (97 + Uv_util.Prng.int prng 26)))
                (Uv_util.Prng.int prng 100) (Uv_util.Prng.int prng 100))
         done;
         let e2 = fresh () in
         Dump.restore e2 (Dump.to_sql (Engine.catalog e));
         all_table_hashes e = all_table_hashes e2))

(* Property: random single-table history — undoing the whole log in
   reverse recovers the initial state hash. *)
let prop_full_undo_recovers_state =
  qtest
    (QCheck.Test.make ~name:"reverse undo of full history restores initial state"
       ~count:60
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let e = fresh () in
         run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
         let prng = Uv_util.Prng.create seed in
         for i = 1 to 10 do
           ignore
             (Engine.exec_sql e
                (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i
                   (Uv_util.Prng.int prng 100)))
         done;
         let h0 = Engine.db_hash e in
         let start = Log.length (Engine.log e) in
         for _ = 1 to 15 do
           let k = 1 + Uv_util.Prng.int prng 10 in
           let sql =
             match Uv_util.Prng.int prng 3 with
             | 0 ->
                 Printf.sprintf "UPDATE t SET v = %d WHERE id = %d"
                   (Uv_util.Prng.int prng 100) k
             | 1 -> Printf.sprintf "DELETE FROM t WHERE id = %d" k
             | _ ->
                 Printf.sprintf "INSERT INTO t VALUES (%d, %d)" (100 + Uv_util.Prng.int prng 1000)
                   (Uv_util.Prng.int prng 100)
           in
           try run e sql with Engine.Sql_error _ -> ()
         done;
         (* undo everything after [start], newest first *)
         let log = Engine.log e in
         for i = Log.length log downto start + 1 do
           Log.apply_undo (Engine.catalog e) (Log.entry log i).Log.undo
         done;
         Int64.equal h0 (Engine.db_hash e)))

(* Values whose SQL-equality classes are easy to split: integers on
   either side of 2^53 (where Int stops converting to Float exactly),
   10^15 against 1e15, the integer extremes, zeros and NaNs of both
   signs, fractions, spaced and exponent texts, a text parsing to NaN,
   a text parsing to nothing, bools and NULL. *)
let index_key_values =
  let b = 1 lsl 53 in
  Value.
    [ Int (b + 1); Int (b - 1); Int (-b - 1); Int (1 - b); Int b; Float 0x1p53;
      Int 1_000_000_000_000_000; Float 1e15; Int max_int; Int min_int;
      Float 0x1p62; Float (-0x1p62); Float 0.0; Float (-0.0); Int 0;
      Float Float.nan; Float (-.Float.nan); Float 2.5; Float (-0.1);
      Text " 5 "; Int 5; Text "1e3"; Int 1000; Text "nan"; Text "abc";
      Bool true; Bool false; Int 1; Null ]

(* Property: an index probe finds exactly the rows sharing the probe's
   key, and among them every row that SQL-equals the probe (Int 5,
   Float 5.0 and "5" share a key, and so do Int (2^53 + 1) and Float
   2^53), on both sides of a copy after each side wrote its own rows. *)
let prop_index_superset =
  let value =
    QCheck.Gen.(
      oneof
        [ map
            (fun i ->
              match abs i mod 3 with
              | 0 -> Value.Int i
              | 1 -> Value.Float (float_of_int i)
              | _ -> Value.Text (string_of_int i))
            (int_range (-20) 20);
          oneofl index_key_values ])
  in
  let arb =
    QCheck.make
      ~print:(fun (stored, probe) ->
        String.concat " " (List.map Value.serialize stored)
        ^ " probe " ^ Value.serialize probe)
      QCheck.Gen.(pair (small_list value) value)
  in
  qtest
    (QCheck.Test.make ~name:"index lookup covers every SQL-equal row" ~count:300
       arb
       (fun (stored, probe) ->
         let tbl =
           Storage.create
             (Schema.table "t"
                [ Schema.column ~primary_key:true "k" Value.Tint;
                  Schema.column "pos" Value.Tint ])
         in
         List.iteri
           (fun pos v -> ignore (Storage.insert tbl [| v; Value.Int pos |]))
           stored;
         let copy = Storage.copy tbl in
         (* the copy drops its first row, the source re-keys its last to
            the probe *)
         (match Storage.to_rows copy with
         | (id, _) :: _ -> ignore (Storage.delete copy id)
         | [] -> ());
         (match List.rev (Storage.to_rows tbl) with
         | (id, row) :: _ -> ignore (Storage.update tbl id [| probe; row.(1) |])
         | [] -> ());
         let agrees t =
           match Storage.indexed_lookup t "k" probe with
           | None -> false (* pk is always indexed *)
           | Some ids ->
               let scan keep =
                 Storage.fold t ~init:[] ~f:(fun acc id row ->
                     if keep row.(0) then id :: acc else acc)
                 |> List.sort compare
               in
               let key = Storage.index_key probe in
               let ids = List.sort compare ids in
               ids = scan (fun v -> Storage.index_key v = key)
               && List.filter
                    (fun id ->
                      match Storage.get t id with
                      | Some row -> Value.equal_sql row.(0) probe
                      | None -> false)
                    ids
                  = scan (fun v -> Value.equal_sql v probe)
         in
         agrees tbl && agrees copy))

(* The statements of a probe that once missed: a PRIMARY KEY of 10^15
   keyed by its digits was probed with the Float 1e15's [%h] form, and
   Int (2^53 + 1) by its digits while Float 2^53 compares equal to it. *)
let test_index_probe_numeric_extremes () =
  let e = fresh () in
  run e "CREATE TABLE t (k INT PRIMARY KEY, v INT)";
  run e "INSERT INTO t VALUES (1000000000000000, 1)";
  let count sql = List.length (Engine.query_sql e sql).Engine.rows in
  check Alcotest.int "probe by 1e15" 1
    (count "SELECT v FROM t WHERE k = 1000000000000000.0");
  check Alcotest.int "scan by 1e15" 1
    (count "SELECT v FROM t WHERE k + 0 = 1000000000000000.0");
  check Alcotest.int "update by 1e15" 1
    (Engine.exec_sql e "UPDATE t SET v = 2 WHERE k = 1000000000000000.0")
      .Engine.rows_written;
  check Alcotest.int "updated" 2 (qint e "SELECT v FROM t WHERE k = 1000000000000000");
  run e "INSERT INTO t VALUES (9007199254740993, 3)";
  check Alcotest.int "probe 2^53 + 1 by 2^53" 3
    (qint e "SELECT v FROM t WHERE k = 9007199254740992.0");
  check Alcotest.int "delete by 2^53" 1
    (Engine.exec_sql e "DELETE FROM t WHERE k = 9007199254740992.0").Engine.rows_written;
  check Alcotest.int "left" 1 (qint e "SELECT COUNT(*) FROM t")

(* An aliased SELECT binds its columns by the alias only, and the index
   probe matches the same name. The invalid [t.id = v] raises "unknown
   column" whatever the index holds for [v]; the valid [a.id = 1] probes
   the index, so a conjunct that fails on every other row (it reads a
   table that does not exist) is never evaluated there. *)
let test_index_probe_alias () =
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "INSERT INTO t VALUES (1, 1)";
  List.iter
    (fun sql ->
      match Engine.query_sql e sql with
      | _ -> Alcotest.failf "%s: no error" sql
      | exception Engine.Sql_error msg ->
          check Alcotest.string sql "unknown column t.id" msg)
    [ "SELECT * FROM t AS a WHERE t.id = 2"; "SELECT * FROM t AS a WHERE t.id = 1" ];
  run e "INSERT INTO t VALUES (2, 2)";
  let count sql = List.length (Engine.query_sql e sql).Engine.rows in
  check Alcotest.int "by the alias" 1 (count "SELECT * FROM t AS a WHERE a.id = 1");
  check Alcotest.int "the probe narrows the scan" 1
    (count
       "SELECT * FROM t AS a WHERE (a.v = 1 OR (SELECT x FROM nosuch) = 0) AND \
        a.id = 1")

(* Property: the digest's hex-float writer prints what [%h] prints, on
   the float specials and on arbitrary bit patterns (subnormals, NaN
   payloads of both signs included). *)
let prop_hex_float_matches_printf =
  let specials =
    [ 0.0; -0.0; 1.0; -1.0; 0.5; 1.5; 0.1; 1e15; Float.nan; -.Float.nan;
      Float.infinity; Float.neg_infinity; Float.max_float; Float.min_float;
      -.Float.max_float; Float.epsilon; 5e-324; -5e-324; 0x1p62; 0x1p-1022;
      0x0.fffffffffffffp-1022 ]
  in
  let bits =
    QCheck.Gen.(
      map2
        (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
        (int_bound 0xffff_ffff) (int_bound 0xffff_ffff))
  in
  let float_arb =
    QCheck.make ~print:(Printf.sprintf "%h")
      QCheck.Gen.(
        oneof [ oneofl specials; map Int64.float_of_bits bits ])
  in
  qtest
    (QCheck.Test.make ~name:"hex float writer == %h" ~count:100_000 float_arb
       (fun f ->
         let buf = Bytes.make (Value.hex_float_max + 2) '?' in
         let stop = Value.write_hex_float buf 1 f in
         Bytes.sub_string buf 1 (stop - 1) = Printf.sprintf "%h" f
         && Value.hex_float f = Printf.sprintf "%h" f
         && Bytes.get buf 0 = '?'
         && Bytes.get buf (Value.hex_float_max + 1) = '?'))

(* Property: GROUP BY aggregation equals a hand-rolled fold. *)
let prop_group_by_sums =
  qtest
    (QCheck.Test.make ~name:"GROUP BY sums match manual aggregation" ~count:60
       QCheck.(small_list (pair (int_range 0 4) (int_range (-50) 50)))
       (fun rows ->
         let e = fresh () in
         run e "CREATE TABLE t (g INT, v INT)";
         List.iter
           (fun (g, v) ->
             run e (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" g v))
           rows;
         let r =
           Engine.query_sql e "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g ASC"
         in
         let got =
           List.map
             (fun row -> (Value.to_int row.(0), Value.to_int row.(1)))
             r.Engine.rows
         in
         let expected =
           List.sort_uniq compare (List.map fst rows)
           |> List.map (fun g ->
                  ( g,
                    List.fold_left
                      (fun acc (g', v) -> if g = g' then acc + v else acc)
                      0 rows ))
         in
         got = expected))

(* ------------------------------------------------------------------ *)
(* Row digests                                                          *)
(* ------------------------------------------------------------------ *)

(* Property: the digest [Storage] streams for a row — reported to the
   inserting caller's accumulator and folded into the table hash —
   equals [Table_hash.row_digest] of the same bytes built as a string by
   [serialize_row] above. The values reach every branch of the streamed
   format: integer extremes and signs, float specials, empty and
   300-byte texts of arbitrary bytes, NULL and bools, and rows far wider
   than the scratch buffer's initial 256 bytes. *)
let prop_streamed_digest_matches_serialized =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (1, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        ( 3,
          map
            (fun i -> Value.Int i)
            (oneof
               [
                 oneofl [ min_int; max_int; 0; -1; 1; -10; 10; min_int + 1 ];
                 int;
                 int_range (-1000) 1000;
               ]) );
        ( 2,
          map
            (fun f -> Value.Float f)
            (oneof
               [
                 oneofl
                   [ nan; -0.; 0.; infinity; neg_infinity; 1e300; -1.5; 1e-310 ];
                 float;
               ]) );
        ( 3,
          map
            (fun s -> Value.Text s)
            (oneof
               [
                 return "";
                 string_size ~gen:char (return 300);
                 string_size ~gen:char (int_range 0 40);
               ]) );
      ]
  in
  let row = array_size (int_range 0 48) value in
  let name = oneofl [ "t"; "accounts"; String.make 300 'n' ] in
  let print (n, r) =
    Printf.sprintf "%s: [%s]" n
      (String.concat "; " (Array.to_list (Array.map Value.serialize r)))
  in
  QCheck.Test.make ~count:500 ~name:"streamed digest == serialized reference"
    (QCheck.make ~print (pair name row))
    (fun (n, r) ->
      let st = Storage.create (Schema.table n [ Schema.column "a" Value.Tint ]) in
      let want = Uv_util.Table_hash.row_digest (serialize_row n r) in
      let acc = Uv_util.Table_hash.create () in
      ignore (Storage.insert ~delta:acc st r);
      Int64.equal (Uv_util.Table_hash.value acc) want
      && Int64.equal (Storage.hash st) want)
  |> qtest

(* The five workloads' seeded histories, raw and transpiled: the whole
   database hash after the history, and the final universe hash of
   removing its first entry (serial replay: rollback undo plus replayed
   mutations). The values were recorded before row digests were
   streamed; every other hash test compares two paths sharing one
   digest, so a drift both paths made alike would pass them. *)
let golden_table_hashes =
  [
    ("TPC-C", "raw", 0xbf2a2acb5d99d64L, 0x613727c8d0095f8L);
    ("TPC-C", "transpiled", 0xbf2a2acb5d99d64L, 0x193af72241d1a578L);
    ("TATP", "raw", 0x1b20a60dc40bd9b6L, 0x5c1e04e80d3c76bL);
    ("TATP", "transpiled", 0x1b20a60dc40bd9b6L, 0x5c1e04e80d3c76bL);
    ("Epinions", "raw", 0xf2781b2753c2368L, 0x671d6e1762f38aL);
    ("Epinions", "transpiled", 0xf2781b2753c2368L, 0x671d6e1762f38aL);
    ("SEATS", "raw", 0x194eff1da867cb1L, 0x7L);
    ("SEATS", "transpiled", 0x194eff1da867cb1L, 0x1fefedb59fc969e8L);
    ("AStore", "raw", 0x74567b7f715f5daL, 0x1fbfd79fb147043L);
    ("AStore", "transpiled", 0x74567b7f715f5daL, 0x1020cae44ff8af06L);
  ]

(* Every cell kind and sign, recorded alongside: [min_int], -0., NULLs,
   bools, an empty text and texts holding the format's own separators. *)
let golden_mixed_script =
  "CREATE TABLE m (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT, b BOOL);\
   INSERT INTO m VALUES (1, -4611686018427387903 - 1, -0.0, '', TRUE);\
   INSERT INTO m VALUES (2, 4611686018427387903, 123456789.125, \
   'caf\xc3\xa9|x:1', FALSE);\
   INSERT INTO m VALUES (3, -17, NULL, NULL, NULL);\
   INSERT INTO m VALUES (4, 0, -2.25, 'T3:abc', TRUE);\
   UPDATE m SET i = i - 1000 WHERE id >= 3;\
   DELETE FROM m WHERE id = 2;"

let test_golden_table_hashes () =
  let e = fresh () in
  ignore (Engine.exec_script e golden_mixed_script);
  check Alcotest.int64 "mixed cells: db hash" 0x180c5828dca406efL
    (Engine.db_hash e);
  let module W = Uv_workloads.Workload in
  let module R = Uv_transpiler.Runtime in
  let module A = Uv_retroactive.Analyzer in
  let module Whatif = Uv_retroactive.Whatif in
  List.iter
    (fun (wname, mname, want_db, want_final) ->
      let w = W.by_name wname in
      let mode = if mname = "raw" then R.Raw else R.Transpiled in
      let eng, rt = W.setup ~mode w in
      let base = Engine.snapshot eng in
      let prng = Uv_util.Prng.create 4242 in
      let calls =
        w.W.target_call :: w.W.generate prng ~scale:1 ~n:60 ~dep_rate:0.3
      in
      ignore (W.run_history rt ~mode calls);
      let label = wname ^ " " ^ mname in
      check Alcotest.int64 (label ^ ": db hash") want_db (Engine.db_hash eng);
      let analyzer = A.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
      let out =
        Whatif.run_exn
          ~config:(Whatif.Config.make ~workers:1 ())
          ~analyzer eng { A.tau = 1; op = A.Remove }
      in
      check Alcotest.int64 (label ^ ": what-if final hash") want_final
        out.Whatif.final_db_hash)
    golden_table_hashes

(* ------------------------------------------------------------------ *)
(* Folded rollback                                                      *)
(* ------------------------------------------------------------------ *)

module W = Uv_workloads.Workload

(* Values the indexes are probed with after a rollback: per table and
   indexed column, every value the column holds in [cats] and every
   value a journal image carries at that column's position. *)
let probe_values cats journals =
  let seen = Hashtbl.create 64 in
  let add name col v =
    let k = (name, col, Value.serialize v) in
    if not (Hashtbl.mem seen k) then Hashtbl.replace seen k v
  in
  let images name =
    List.concat_map
      (List.concat_map (function
        | (Log.U_row_insert (t, _, img) | Log.U_row_delete (t, _, img))
          when t = name ->
            [ img ]
        | Log.U_row_update (t, _, b, a) when t = name -> [ b; a ]
        | _ -> []))
      journals
  in
  List.iter
    (fun cat ->
      List.iter
        (fun (name, tbl) ->
          let imgs = images name in
          List.iter
            (fun col ->
              match Storage.column_index tbl col with
              | None -> ()
              | Some o ->
                  let at row = if o < Array.length row then add name col row.(o) in
                  Storage.iter tbl (fun _ row -> at row);
                  List.iter at imgs)
            (Storage.indexed_columns tbl))
        (Catalog.tables cat))
    cats;
  fun name col ->
    Hashtbl.fold
      (fun (n, c, key) v acc -> if n = name && c = col then (key, v) :: acc else acc)
      seen []
    |> List.sort compare |> List.map snd

(* Everything a rollback leaves that replay can read, as text: per table
   its hash, AUTO_INCREMENT counter and [next_rowid], every live row in
   scan order with its digest, and the rowids each indexed column's
   index returns for every probe (sorted: postings are sets); then the
   catalog's named indexes and views. *)
let rollback_state ~probes cat =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, tbl) ->
      Printf.bprintf buf "table %s hash=%Lx auto=%d next_rowid=%d\n" name
        (Storage.hash tbl) (Storage.next_auto_value tbl) (Storage.next_rowid tbl);
      Storage.iter tbl (fun id row ->
          let bytes = serialize_row name row in
          Printf.bprintf buf "  %d %s %Lx\n" id bytes
            (Uv_util.Table_hash.row_digest bytes));
      List.iter
        (fun col ->
          List.iter
            (fun v ->
              match Storage.indexed_lookup tbl col v with
              | None -> ()
              | Some ids ->
                  Printf.bprintf buf "  %s=%s -> %s\n" col (Value.serialize v)
                    (String.concat ","
                       (List.map string_of_int (List.sort compare ids))))
            (probes name col))
        (List.sort compare (Storage.indexed_columns tbl)))
    (List.sort (fun (a, _) (b, _) -> compare a b) (Catalog.tables cat));
  Printf.bprintf buf "indexes %s\n"
    (String.concat "," (List.sort compare (List.map fst (Catalog.indexes cat))));
  Buffer.contents buf

(* Undo [journals] (newest entry first) on two copies of [base]: folded
   and per record. Returns both states and the fold's counts. *)
let fold_vs_reference base journals =
  let folded = Catalog.snapshot base and reference = Catalog.snapshot base in
  let stats = Log.undo_entries folded journals in
  Undo_reference.undo_entries reference journals;
  let probes = probe_values [ folded; reference ] journals in
  (rollback_state ~probes reference, rollback_state ~probes folded, stats)

let check_fold label base journals =
  let want, got, stats = fold_vs_reference base journals in
  check Alcotest.string (label ^ ": folded == per-record reference") want got;
  stats

let image_text img =
  String.concat "," (Array.to_list (Array.map Value.serialize img))

let undo_text = function
  | Log.U_row_insert (t, r, img) -> Printf.sprintf "+%s@%d(%s)" t r (image_text img)
  | Log.U_row_delete (t, r, img) -> Printf.sprintf "-%s@%d(%s)" t r (image_text img)
  | Log.U_row_update (t, r, b, a) ->
      Printf.sprintf "~%s@%d(%s)->(%s)" t r (image_text b) (image_text a)
  | Log.U_auto_value (t, v) -> Printf.sprintf "auto %s=%d" t v
  | Log.U_table_def (t, p) ->
      Printf.sprintf "table %s%s" t (if p = None then " (none)" else "")
  | Log.U_index_def (n, _) -> "index " ^ n
  | Log.U_view_def (n, _) -> "view " ^ n
  | Log.U_proc_def (n, _) -> "proc " ^ n
  | Log.U_trigger_def (n, _) -> "trigger " ^ n

(* Two tables, one with an AUTO_INCREMENT primary key and a UNIQUE
   column; the generated records also name a table that does not exist. *)
let fold_base () =
  let e = fresh () in
  run e
    "CREATE TABLE a (id INT PRIMARY KEY AUTO_INCREMENT, u INT UNIQUE, v INT, \
     s VARCHAR(8))";
  run e "CREATE TABLE b (k INT PRIMARY KEY, w INT)";
  for i = 1 to 6 do
    run e
      (Printf.sprintf "INSERT INTO a (u, v, s) VALUES (%d, %d, 's%d')" i (i mod 3) i)
  done;
  for i = 1 to 4 do
    run e (Printf.sprintf "INSERT INTO b VALUES (%d, %d)" i (i * 10))
  done;
  Engine.catalog e

(* Generated journals: row records over few rowids and few values (Int 1
   and Float 1.0 both, so SQL-equal keys share a posting), images now and
   then narrower or wider than the schema, records that contradict the
   state (updates and deletes of absent rows, re-inserts over live
   ones), counter records and DDL records between them. *)
let prop_undo_fold =
  let base = fold_base () in
  let prior_a = Catalog.table base "a" in
  let open QCheck.Gen in
  let value =
    frequency
      [ (4, map (fun i -> Value.Int i) (int_range 0 3));
        (1, return Value.Null);
        (1, map (fun i -> Value.Float (float_of_int i)) (int_range 0 2));
        (1, oneofl [ Value.Text "x"; Value.Text "y" ]) ]
  in
  let table = frequencyl [ (4, "a"); (3, "b"); (1, "zz") ] in
  let width t =
    let w = if t = "b" then 2 else 4 in
    frequency [ (6, return w); (1, int_range (w - 1) (w + 1)) ]
  in
  let image t = width t >>= fun w -> array_repeat w value in
  let row_record =
    table >>= fun t ->
    int_range 1 9 >>= fun r ->
    frequency
      [ (3, map (fun img -> Log.U_row_insert (t, r, img)) (image t));
        (3, map (fun img -> Log.U_row_delete (t, r, img)) (image t));
        ( 6,
          width t >>= fun w ->
          map2
            (fun b a -> Log.U_row_update (t, r, b, a))
            (array_repeat w value) (array_repeat w value) ) ]
  in
  let record =
    frequency
      [ (16, row_record);
        (2, map2 (fun t v -> Log.U_auto_value (t, v)) table (int_range 1 20));
        ( 1,
          oneofl
            [ Log.U_table_def ("a", prior_a);
              Log.U_table_def ("b", None);
              Log.U_index_def ("ix", None);
              Log.U_view_def ("v", None) ] ) ]
  in
  let journals = list_size (int_range 1 6) (list_size (int_range 0 8) record) in
  let print js =
    String.concat " || " (List.map (fun j -> String.concat "; " (List.map undo_text j)) js)
  in
  qtest
    (QCheck.Test.make ~count:500 ~name:"generated journals: folded == per-record"
       (QCheck.make ~print
          ~shrink:QCheck.Shrink.(list ~shrink:list)
          journals)
       (fun js ->
         let want, got, _ = fold_vs_reference base js in
         want = got
         || QCheck.Test.fail_reportf "reference:\n%s\nfolded:\n%s" want got))

(* The five workloads' plain-SQL histories: τ a seeded writer, undone
   with its replay set (grouped and not) or with a random set of later
   writers. *)
let test_undo_fold_workloads () =
  List.iter
    (fun (w : W.t) ->
      let eng, rt = W.setup ~mode:Uv_transpiler.Runtime.Raw w in
      let base = Engine.snapshot eng in
      let prng = Uv_util.Prng.create 4242 in
      let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:60 ~dep_rate:0.3 in
      ignore (W.run_history rt ~mode:Uv_transpiler.Runtime.Raw calls);
      let log = Engine.log eng in
      let analyzer =
        Uv_retroactive.Analyzer.analyze ~config:w.W.ri_config ~base log
      in
      let writers =
        Array.of_list
          (List.filter
             (fun i -> (Log.entry log i).Log.undo <> [])
             (List.init (Log.length log) (fun k -> k + 1)))
      in
      let journals set =
        List.map
          (fun i -> (Log.entry log i).Log.undo)
          (List.rev (List.sort_uniq compare set))
      in
      let folded_rows = ref 0 and records = ref 0 in
      let prop =
        QCheck.Test.make ~count:12 ~name:(w.W.name ^ ": folded == per-record")
          QCheck.(triple (int_bound (Array.length writers - 1)) bool int)
          (fun (pick, grouped, seed) ->
            let tau = writers.(pick) in
            let rs =
              Uv_retroactive.Analyzer.replay_set ~grouped analyzer
                { Uv_retroactive.Analyzer.tau; op = Uv_retroactive.Analyzer.Remove }
            in
            let p = Uv_util.Prng.create seed in
            let random =
              List.filter
                (fun i -> i > tau && Uv_util.Prng.int p 2 = 0)
                (Array.to_list writers)
            in
            List.iter
              (fun (what, set) ->
                let label =
                  Printf.sprintf "%s tau=%d grouped=%b %s" w.W.name tau grouped what
                in
                let st =
                  check_fold label (Engine.catalog eng) (journals (tau :: set))
                in
                folded_rows := !folded_rows + st.Log.rows_restored;
                records := !records + st.Log.undo_records)
              [ ("replay set", rs.Uv_retroactive.Analyzer.member_indexes);
                ("random set", random) ];
            true)
      in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 32 |]) prop;
      check Alcotest.bool (w.W.name ^ ": records were undone") true (!records > 0);
      check Alcotest.bool
        (w.W.name ^ ": rows written <= records")
        true
        (!folded_rows <= !records))
    (W.all ())

let fold_table () =
  let e = fresh () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c VARCHAR(8))";
  run e "INSERT INTO t VALUES (1, 0, 0, 'x'), (2, 0, 0, 'x'), (3, 0, 0, 'x')";
  Engine.reset_log e;
  e

let history_journals e indexes =
  List.map (fun i -> (Log.entry (Engine.log e) i).Log.undo) indexes

let row_of e id =
  Option.map image_text
    (Option.bind (Catalog.table (Engine.catalog e) "t") (fun t -> Storage.get t id))

(* One row updated many times on different columns: undoing #4, #3 and
   #1 but not #2 leaves #2's [b] and every other cell at its oldest
   undone before-image, written once. *)
let test_undo_fold_one_row () =
  let e = fold_table () in
  run e "UPDATE t SET a = 1 WHERE id = 1";
  run e "UPDATE t SET b = 2 WHERE id = 1";
  run e "UPDATE t SET a = 3, c = 'y' WHERE id = 1";
  run e "UPDATE t SET b = 4 WHERE id = 1";
  let snap = Catalog.snapshot (Engine.catalog e) in
  let st = check_fold "one row" snap (history_journals e [ 4; 3; 1 ]) in
  check Alcotest.int "records" 3 st.Log.undo_records;
  check Alcotest.int "one row written" 1 st.Log.rows_restored;
  ignore (Log.undo_entries (Engine.catalog e) (history_journals e [ 4; 3; 1 ]));
  check Alcotest.(option string) "row" (Some "I1,I0,I2,T1:x") (row_of e 1)

(* Insert, update, then delete inside the undone set: the row ends
   absent as it began, so nothing is written; the re-insert the
   per-record path passes through still raises [next_rowid] alike. *)
let test_undo_fold_insert_update_delete () =
  let e = fold_table () in
  run e "INSERT INTO t VALUES (9, 1, 1, 'z')";
  run e "UPDATE t SET a = 5 WHERE id = 9";
  run e "DELETE FROM t WHERE id = 9";
  let snap = Catalog.snapshot (Engine.catalog e) in
  let st = check_fold "insert/update/delete" snap (history_journals e [ 3; 2; 1 ]) in
  check Alcotest.int "nothing written" 0 st.Log.rows_restored

(* Delete, then re-insert the same key under a fresh rowid: the old
   rowid comes back in its scan position and the new one goes. *)
let test_undo_fold_delete_reinsert () =
  let e = fold_table () in
  run e "DELETE FROM t WHERE id = 2";
  run e "INSERT INTO t VALUES (2, 7, 7, 'w')";
  let snap = Catalog.snapshot (Engine.catalog e) in
  let st = check_fold "delete/re-insert" snap (history_journals e [ 2; 1 ]) in
  check Alcotest.int "two rows written" 2 st.Log.rows_restored;
  ignore (Log.undo_entries (Engine.catalog e) (history_journals e [ 2; 1 ]));
  check Alcotest.(option string) "old row back" (Some "I2,I0,I0,T1:x") (row_of e 2)

(* A DDL record between row records: the rows pending before it are
   written first, and the records after it see the restored table. *)
let test_undo_fold_ddl_barrier () =
  let e = fold_table () in
  run e "UPDATE t SET a = 5 WHERE id = 1";
  run e "ALTER TABLE t ADD COLUMN d INT";
  run e "UPDATE t SET a = 6, d = 1 WHERE id = 1";
  run e "UPDATE t SET b = 8 WHERE id = 3";
  let snap = Catalog.snapshot (Engine.catalog e) in
  ignore (check_fold "ddl between rows" snap (history_journals e [ 4; 3; 2; 1 ]));
  ignore (check_fold "ddl, later rows kept" snap (history_journals e [ 4; 2 ]));
  ignore (check_fold "ddl, earlier rows only" snap (history_journals e [ 3; 1 ]))

(* A re-insert over a row live in the folded state replaces the row:
   the replaced image leaves the hash and the indexes, before and after
   other records on the row. *)
let test_undo_fold_live_reinsert () =
  let e = fold_table () in
  let snap = Catalog.snapshot (Engine.catalog e) in
  let rowid_of id =
    match Catalog.table snap "t" with
    | Some t -> (
        match Storage.indexed_lookup t "id" (Value.Int id) with
        | Some [ r ] -> r
        | _ -> Alcotest.fail "no such row")
    | None -> Alcotest.fail "no table"
  in
  let r = rowid_of 1 and r3 = rowid_of 3 in
  let row a b c = [| Value.Int 1; Value.Int a; Value.Int b; Value.Text c |] in
  let journals =
    [ [ Log.U_row_update ("t", r, row 0 0 "x", row 4 0 "x") ];
      [ Log.U_row_delete ("t", r, row 1 2 "q") ];
      [ Log.U_row_update ("t", r, row 9 9 "x", row 1 9 "x");
        Log.U_row_delete ("t", r3, row 3 3 "r") ] ]
  in
  let st = check_fold "re-insert over a live row" snap journals in
  check Alcotest.int "records" 4 st.Log.undo_records;
  (* [r3]'s image with id 3 was replaced by one with id 1 *)
  let cat = Catalog.snapshot snap in
  ignore (Log.undo_entries cat journals);
  match Catalog.table cat "t" with
  | Some t ->
      let lookup id =
        List.sort compare
          (Option.value ~default:[] (Storage.indexed_lookup t "id" (Value.Int id)))
      in
      check Alcotest.(list int) "replaced key no longer finds the row" []
        (lookup 3);
      check Alcotest.(list int) "new key finds both rows"
        (List.sort compare [ r; r3 ]) (lookup 1)
  | None -> Alcotest.fail "no table"

(* ------------------------------------------------------------------ *)
(* Compiled expressions == the interpreter                              *)
(* ------------------------------------------------------------------ *)

(* Property: the scan's compiled evaluator, on the typed columns and on
   a boxed row image, gives the interpreter's value (NaN signs and
   signed zeros included), and the row filter built on it never rules
   out a row that [exec] selects. A case is one row of [expr_schema] and
   an expression over it from the compilable subset; [alias] names the
   table "r" instead of "t". *)
type expr_case = {
  alias : bool;
  vars : (string * Value.t) list;
  row : Value.t array;
  width : int;
  e : Ast.expr;
}

let expr_schema =
  Schema.table "t"
    [ Schema.column "a" Value.Tint; Schema.column "b" Value.Tfloat;
      Schema.column "c" Value.Ttext ]

let expr_values =
  let b = 1 lsl 53 in
  Value.
    [ Null; Float Float.nan; Float (-.Float.nan); Float 0.0; Float (-0.0);
      Int (b - 1); Int b; Int (b + 1); Float 0x1p53; Int 1_000_000_000_000_000;
      Float 1e15; Bool true; Bool false; Text "5"; Text "5.0"; Text " 5 ";
      Text "abc"; Text ""; Int 5; Int 0; Int (-3); Float 2.5; Float Float.infinity ]

let gen_expr_case =
  let open QCheck.Gen in
  let value = oneofl expr_values in
  bool >>= fun alias ->
  let prefix = if alias then "r" else "t" in
  let col =
    map2
      (fun q n -> Ast.Col ((if q then Some prefix else None), n))
      bool (oneofl [ "a"; "b"; "c" ])
  in
  let leaf =
    frequency
      [ (3, col); (3, map (fun v -> Ast.Lit v) value);
        (1, map (fun x -> Ast.Var x) (oneofl [ "x"; "y" ])) ]
  in
  let cmp = oneofl Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let op =
    oneofl Ast.[ Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or ]
  in
  (* the column-vs-literal comparisons, on both sides *)
  let col_lit =
    map4
      (fun o c v flip ->
        if flip then Ast.Binop (o, Ast.Lit v, c) else Ast.Binop (o, c, Ast.Lit v))
      cmp col value bool
  in
  let expr =
    fix (fun self n ->
        if n = 0 then leaf
        else
          let sub = self (n / 2) in
          frequency
            [ (2, leaf); (3, col_lit);
              (3, map3 (fun o a b -> Ast.Binop (o, a, b)) op sub sub);
              (1, map (fun a -> Ast.Unop (Ast.Not, a)) sub);
              (1, map (fun a -> Ast.Unop (Ast.Neg, a)) sub);
              (1, map2 (fun a p -> Ast.Is_null (a, p)) sub bool);
              (1, map3 (fun a l h -> Ast.Between (a, l, h)) sub sub sub);
              ( 1,
                map2
                  (fun a l -> Ast.In_list (a, l))
                  sub
                  (list_size (int_range 1 3) sub) ) ])
  in
  map4
    (fun e row (x, y) width ->
      { alias; vars = [ ("x", x); ("y", y) ]; row; width; e })
    (sized_size (int_range 0 8) expr)
    (array_repeat 3 value) (pair value value) (int_range 0 3)

let rec shrink_expr e =
  let open QCheck.Iter in
  match e with
  | Ast.Binop (o, a, b) ->
      of_list [ a; b ]
      <+> map (fun a -> Ast.Binop (o, a, b)) (shrink_expr a)
      <+> map (fun b -> Ast.Binop (o, a, b)) (shrink_expr b)
  | Ast.Unop (u, a) -> return a <+> map (fun a -> Ast.Unop (u, a)) (shrink_expr a)
  | Ast.Is_null (a, p) ->
      return a <+> map (fun a -> Ast.Is_null (a, p)) (shrink_expr a)
  | Ast.Between (a, l, h) ->
      of_list [ a; l; h ]
      <+> map (fun a -> Ast.Between (a, l, h)) (shrink_expr a)
      <+> map (fun l -> Ast.Between (a, l, h)) (shrink_expr l)
      <+> map (fun h -> Ast.Between (a, l, h)) (shrink_expr h)
  | Ast.In_list (a, items) ->
      of_list (a :: items)
      <+> map (fun a -> Ast.In_list (a, items)) (shrink_expr a)
      <+> (match items with
          | _ :: (_ :: _ as rest) -> return (Ast.In_list (a, rest))
          | _ -> empty)
  | Ast.Lit Value.Null -> empty
  | Ast.Lit _ -> return (Ast.Lit Value.Null)
  | _ -> empty

let expr_case_arb =
  QCheck.make gen_expr_case
    ~shrink:(fun c -> QCheck.Iter.map (fun e -> { c with e }) (shrink_expr c.e))
    ~print:(fun c ->
      Printf.sprintf "%s FROM t%s, row (%s), width %d, x = %s, y = %s"
        (Printer.expr c.e)
        (if c.alias then " AS r" else "")
        (String.concat ", " (Array.to_list (Array.map Value.serialize c.row)))
        c.width
        (Value.serialize (List.assoc "x" c.vars))
        (Value.serialize (List.assoc "y" c.vars)))

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let show_outcome = function Ok v -> Value.serialize v | Error e -> "raises " ^ e

(* Both compiled instances give the interpreter's value, or all raise. *)
let check_compiled c =
  let prefix = if c.alias then "r" else "t" in
  let vars = c.vars in
  let compiled what = function
    | Some f -> f
    | None -> QCheck.Test.fail_reportf "%s compilation refused the expression" what
  in
  let on_row = compiled "row" (Engine.compile_row ~vars ~prefix expr_schema c.e) in
  let on_cur = compiled "cursor" (Engine.compile_cursor ~vars ~prefix expr_schema c.e) in
  let interp =
    outcome (fun () -> Engine.interpret (fresh ()) ~vars ~prefix expr_schema c.e c.row)
  in
  let tbl = Storage.create expr_schema in
  ignore (Storage.insert tbl c.row);
  let cur = ref (Error "no row scanned") in
  ignore
    (Storage.Col.select tbl (fun k ->
         cur := outcome (fun () -> on_cur k);
         false));
  let row = outcome (fun () -> on_row c.row) in
  let same a b =
    match (a, b) with
    | Ok x, Ok y -> Value.equal x y
    | Error _, Error _ -> true
    | _ -> false
  in
  if not (same interp !cur && same interp row) then
    QCheck.Test.fail_reportf "interpreter %s, cursor %s, row %s" (show_outcome interp)
      (show_outcome !cur) (show_outcome row)

(* [row_filter] on the row's first [width] cells never rules out the row
   that a DELETE with the same WHERE selects, the other cells NULL. The
   WHERE binds variables as literals and names columns by the table, as
   a top-level DELETE does. *)
let check_row_filter c =
  let rec top = function
    | Ast.Var x -> Ast.Lit (List.assoc x c.vars)
    | Ast.Col (Some _, n) -> Ast.Col (Some "t", n)
    | Ast.Binop (o, a, b) -> Ast.Binop (o, top a, top b)
    | Ast.Unop (u, a) -> Ast.Unop (u, top a)
    | Ast.Is_null (a, p) -> Ast.Is_null (top a, p)
    | Ast.Between (a, l, h) -> Ast.Between (top a, top l, top h)
    | Ast.In_list (a, items) -> Ast.In_list (top a, List.map top items)
    | e -> e
  in
  let w = top c.e in
  let cat = Catalog.create () in
  let tbl = Storage.create expr_schema in
  ignore
    (Storage.insert tbl
       (Array.mapi (fun i v -> if i < c.width then v else Value.Null) c.row));
  Catalog.add_table cat tbl;
  let delete = Ast.Delete { table = "t"; where = Some w } in
  let selected =
    match Engine.exec (Engine.of_catalog cat) delete with
    | r -> r.Engine.rows_written = 1
    | exception Engine.Sql_error _ -> false
  in
  if selected && not (Engine.row_filter expr_schema w (Array.sub c.row 0 c.width))
  then
    QCheck.Test.fail_reportf "row_filter rules out the row %s selects"
      (Printer.expr w)

let prop_compiled_eq_interpreter =
  qtest ~rand:(Random.State.make [| 43 |])
    (QCheck.Test.make ~name:"compiled == interpreter" ~count:3000 expr_case_arb
       (fun c ->
         check_compiled c;
         check_row_filter c;
         true))

let () =
  Alcotest.run "uv_db"
    [
      ( "undo fold",
        [
          Alcotest.test_case "one row, many columns" `Quick test_undo_fold_one_row;
          Alcotest.test_case "insert, update, delete" `Quick
            test_undo_fold_insert_update_delete;
          Alcotest.test_case "delete, re-insert" `Quick test_undo_fold_delete_reinsert;
          Alcotest.test_case "DDL between row records" `Quick test_undo_fold_ddl_barrier;
          Alcotest.test_case "re-insert over a live row" `Quick
            test_undo_fold_live_reinsert;
          prop_undo_fold;
          Alcotest.test_case "five workloads: replay sets and random sets" `Quick
            test_undo_fold_workloads;
        ] );
      ( "storage",
        [
          Alcotest.test_case "roundtrip" `Quick test_storage_roundtrip;
          Alcotest.test_case "hash tracks mutations" `Quick
            test_storage_hash_tracks_mutations;
          Alcotest.test_case "auto values" `Quick test_storage_auto_values;
          Alcotest.test_case "copy isolated" `Quick test_storage_copy_isolated;
          prop_columnar_matches_boxed_model;
          Alcotest.test_case "first write on a copy is flat in table size"
            `Quick test_storage_first_write_flat;
          Alcotest.test_case "index probes at numeric extremes" `Quick
            test_index_probe_numeric_extremes;
          Alcotest.test_case "index probe under an alias" `Quick
            test_index_probe_alias;
          prop_hex_float_matches_printf;
        ] );
      ("expressions", [ prop_compiled_eq_interpreter ]);
      ( "row digest",
        [
          prop_streamed_digest_matches_serialized;
          Alcotest.test_case "golden table hashes" `Quick
            test_golden_table_hashes;
        ] );
      ( "dml",
        [
          Alcotest.test_case "insert/select" `Quick test_insert_select;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "order/limit" `Quick test_select_order_limit;
          Alcotest.test_case "star projection" `Quick test_select_star_and_projection;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "subqueries" `Quick test_subquery;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "builtins" `Quick test_builtin_functions;
        ] );
      ( "ddl",
        [
          Alcotest.test_case "alter table" `Quick test_alter_table;
          Alcotest.test_case "drop/truncate" `Quick test_drop_truncate;
          Alcotest.test_case "views" `Quick test_views;
          Alcotest.test_case "auto increment" `Quick test_auto_increment;
        ] );
      ( "procedural",
        [
          Alcotest.test_case "control flow" `Quick test_procedure_control_flow;
          Alcotest.test_case "leave/signal" `Quick test_procedure_leave_signal;
          Alcotest.test_case "select into" `Quick test_select_into_vars;
          Alcotest.test_case "triggers" `Quick test_triggers;
          Alcotest.test_case "transaction atomicity" `Quick test_transaction_atomic;
        ] );
      ( "log",
        [
          Alcotest.test_case "records" `Quick test_log_records;
          Alcotest.test_case "rand replay" `Quick test_nondet_replay_rand;
          Alcotest.test_case "auto-key replay" `Quick test_nondet_replay_auto_increment;
          Alcotest.test_case "undo" `Quick test_undo_records;
          Alcotest.test_case "cell-precise undo" `Quick test_undo_cell_precision;
          Alcotest.test_case "ddl undo" `Quick test_undo_ddl;
          Alcotest.test_case "undo restores a NaN's sign" `Quick
            test_undo_nan_sign;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "tables hash == snapshot hash" `Quick
            test_tables_hash_matches_snapshot;
          Alcotest.test_case "log sizes" `Quick test_log_sizes;
          Alcotest.test_case "rtt accounting" `Quick test_rtt_accounting;
          Alcotest.test_case "failures not logged" `Quick
            test_failed_statement_not_logged;
          prop_full_undo_recovers_state;
        ] );
      ( "dump",
        [
          Alcotest.test_case "roundtrip + catalog objects" `Quick
            test_dump_roundtrip;
          Alcotest.test_case "checkpoint + tail recovery" `Quick
            test_dump_checkpoint_plus_tail;
          prop_dump_roundtrip;
        ] );
      ( "durable log",
        [
          Alcotest.test_case "print/parse/replay" `Quick test_log_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_log_io_file_roundtrip;
          Alcotest.test_case "corrupt inputs" `Quick test_log_io_corrupt;
          prop_log_io_escape_roundtrip;
          prop_log_io_print_parse;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "in/not-in" `Quick test_in_subquery_membership;
          Alcotest.test_case "correlated subqueries" `Quick
            test_correlated_subqueries;
          Alcotest.test_case "pk/not-null constraints" `Quick
            test_pk_and_not_null_constraints;
          Alcotest.test_case "insert-select" `Quick test_insert_from_select;
          Alcotest.test_case "having/distinct aggregates" `Quick
            test_having_and_distinct_aggregates;
          Alcotest.test_case "rowcount scalar" `Quick test_rowcount_scalar;
          Alcotest.test_case "between/case" `Quick test_between_and_case;
          Alcotest.test_case "multi-row update" `Quick
            test_multi_row_update_order_independent;
          Alcotest.test_case "views track base" `Quick test_view_reflects_base_changes;
          Alcotest.test_case "nested procedures" `Quick test_nested_procedure_calls;
          Alcotest.test_case "delete/update triggers" `Quick
            test_trigger_on_delete_and_update;
          Alcotest.test_case "fk enforcement" `Quick test_enforce_fk;
          Alcotest.test_case "multi-key order" `Quick test_order_by_multiple_keys;
          Alcotest.test_case "distinct" `Quick test_distinct;
          prop_group_by_sums;
          prop_index_superset;
        ] );
    ]
