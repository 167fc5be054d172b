(* Tests for ultraverse.sql: value semantics, lexing, parsing, printing,
   and the parse∘print round-trip property over generated statements. *)

open Uv_sql

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Values                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_truthiness () =
  Alcotest.(check bool) "null false" false (Value.to_bool Value.Null);
  Alcotest.(check bool) "zero false" false (Value.to_bool (Value.Int 0));
  Alcotest.(check bool) "nonzero true" true (Value.to_bool (Value.Int 7));
  Alcotest.(check bool) "'0' false" false (Value.to_bool (Value.Text "0"));
  Alcotest.(check bool) "'x' true" true (Value.to_bool (Value.Text "x"))

let test_value_coercions () =
  check Alcotest.int "text to int" 42 (Value.to_int (Value.Text "42"));
  check (Alcotest.float 1e-9) "int to float" 3.0 (Value.to_float (Value.Int 3));
  (match Value.coerce Value.Tint (Value.Text "17") with
  | Value.Int 17 -> ()
  | v -> Alcotest.failf "expected Int 17, got %s" (Value.to_string v));
  Alcotest.check_raises "bad text to int"
    (Failure "cannot coerce 'abc' to INT") (fun () ->
      ignore (Value.coerce Value.Tint (Value.Text "abc")))

let test_value_null_propagation () =
  Alcotest.(check bool) "null + x = null" true
    (Value.is_null (Value.add Value.Null (Value.Int 1)));
  Alcotest.(check bool) "null = x is false" false
    (Value.equal_sql Value.Null (Value.Int 1));
  Alcotest.(check bool) "div by zero null" true
    (Value.is_null (Value.div (Value.Int 1) (Value.Int 0)))

let test_value_numeric_string_compare () =
  check Alcotest.int "'10' vs 9 numeric" 1
    (Value.compare_sql (Value.Text "10") (Value.Int 9));
  check Alcotest.int "'abc' vs 'abd'" (-1)
    (Value.compare_sql (Value.Text "abc") (Value.Text "abd"))

let test_value_arith () =
  (match Value.add (Value.Int 2) (Value.Int 3) with
  | Value.Int 5 -> ()
  | _ -> Alcotest.fail "2+3");
  (match Value.mul (Value.Int 2) (Value.Float 1.5) with
  | Value.Float 3.0 -> ()
  | _ -> Alcotest.fail "2*1.5");
  match Value.modulo (Value.Int 7) (Value.Int 3) with
  | Value.Int 1 -> ()
  | _ -> Alcotest.fail "7 mod 3"

let test_value_literals () =
  check Alcotest.string "quote escaping" "'it''s'"
    (Value.to_literal (Value.Text "it's"));
  check Alcotest.string "null literal" "NULL" (Value.to_literal Value.Null);
  check Alcotest.string "bool literal" "TRUE" (Value.to_literal (Value.Bool true))

let prop_serialize_injective =
  QCheck.Test.make ~name:"serialize is injective on scalars" ~count:300
    QCheck.(pair (oneof [map (fun i -> Value.Int i) int; map (fun s -> Value.Text s) string; map (fun b -> Value.Bool b) bool])
             (oneof [map (fun i -> Value.Int i) int; map (fun s -> Value.Text s) string; map (fun b -> Value.Bool b) bool]))
    (fun (a, b) ->
      if Value.serialize a = Value.serialize b then a = b else true)

let prop_deserialize_roundtrip =
  QCheck.Test.make ~name:"deserialize inverts serialize" ~count:500
    QCheck.(
      oneof
        [
          always Value.Null;
          map (fun i -> Value.Int i) int;
          map (fun f -> Value.Float f) float;
          map (fun b -> Value.Bool b) bool;
          map (fun s -> Value.Text s) string;
          always (Value.Float infinity);
          always (Value.Float neg_infinity);
          always (Value.Float 0.1);
          always (Value.Float (-0.0));
        ])
    (fun v ->
      let back = Value.deserialize (Value.serialize v) in
      (* compare via re-serialisation so NaN-free structural equality works
         for every payload including -0.0 *)
      String.equal (Value.serialize back) (Value.serialize v))

let test_deserialize_rejects_garbage () =
  List.iter
    (fun s ->
      match Value.deserialize s with
      | exception Failure _ -> ()
      | v -> Alcotest.failf "accepted %S as %s" s (Value.to_string v))
    [ ""; "Ix"; "F-"; "B2"; "T9:short"; "T-1:"; "Z"; "N5" ]

(* [Value.deserialize_error], whatever form it checks in place and
   whatever it sends through [deserialize], fails exactly where
   [deserialize] fails, with its message; checked at offset 0 and inside
   a longer string, on every prefix of the input. *)
let deserialize_outcome s =
  match Value.deserialize s with (_ : Value.t) -> None | exception Failure m -> Some m

let check_deserialize_error s =
  for len = 0 to String.length s do
    let want = deserialize_outcome (String.sub s 0 len) in
    let padded = "T9:" ^ String.sub s 0 len ^ "\n" in
    if Value.deserialize_error s 0 len <> want || Value.deserialize_error padded 3 len <> want
    then Alcotest.failf "deserialize_error disagrees with deserialize on %S" (String.sub s 0 len)
  done

let prop_deserialize_error_agrees =
  let binary = QCheck.(string_gen_of_size Gen.(0 -- 12) Gen.char) in
  QCheck.Test.make ~name:"in-place check == deserialize" ~count:1000
    QCheck.(
      oneof
        [
          always Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) int;
          map (fun i -> Value.Int i) (oneofl [ 0; -1; 1; max_int; min_int; max_int - 1; min_int + 1 ]);
          map
            (fun i -> Value.Int i)
            (oneofl
               [ 999_999_999_999_999_999; -999_999_999_999_999_999; 1_000_000_000_000_000_000 ]);
          map (fun f -> Value.Float f) float;
          map (fun f -> Value.Float f)
            (oneofl [ nan; -.nan; infinity; neg_infinity; 0.0; -0.0; 5e-324; max_float; 1e-05 ]);
          always (Value.Text "");
          map (fun s -> Value.Text s) binary;
          map (fun s -> Value.Text s) string;
        ])
    (fun v ->
      check_deserialize_error (Value.serialize v);
      true)

let test_deserialize_error_mutations () =
  List.iter check_deserialize_error
    [
      "I"; "I-"; "I0x1f"; "I1_000"; "I1234567890123456789"; "I-1234567890123456789";
      "I123456789012345678"; "I9999999999999999999"; "I+5"; "I007"; "T3:ab"; "T3:abcd"; "T:";
      "T03:abc"; "T0:"; "T2:a:"; "Tx:"; "B2"; "B"; "B11"; "F1e5"; "F"; "Fnan"; "N5"; "Z"; "";
    ]

let test_ty_of_name () =
  let expect name ty = Alcotest.(check bool) name true (Value.ty_of_name name = ty) in
  expect "VARCHAR(32)" (Some Value.Ttext);
  expect "int" (Some Value.Tint);
  expect "DECIMAL(10,2)" (Some Value.Tfloat);
  expect "BOOLEAN" (Some Value.Tbool);
  Alcotest.(check bool) "junk" true (Value.ty_of_name "BLOB9" = None)

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a, 'x''y' FROM t1 WHERE n >= 2.5 -- c" in
  check Alcotest.int "token count" 11 (Array.length toks)

let test_lexer_string_escape () =
  match Lexer.tokenize "'it''s'" with
  | [| Lexer.Str_lit s; Lexer.Eof |] -> check Alcotest.string "unescaped" "it's" s
  | _ -> Alcotest.fail "expected one string literal"

let test_lexer_comments () =
  match Lexer.tokenize "/* block */ SELECT -- line\n 1" with
  | [| Lexer.Keyword "SELECT"; Lexer.Int_lit 1; Lexer.Eof |] -> ()
  | _ -> Alcotest.fail "comments should be skipped"

let test_lexer_operators () =
  match Lexer.tokenize "a != b <> c <= d" with
  | [| Lexer.Ident "a"; Lexer.Op "<>"; Lexer.Ident "b"; Lexer.Op "<>";
       Lexer.Ident "c"; Lexer.Op "<="; Lexer.Ident "d"; Lexer.Eof |] ->
      ()
  | _ -> Alcotest.fail "operator normalisation"

let test_lexer_at_var () =
  match Lexer.tokenize "@foo" with
  | [| Lexer.At_var "foo"; Lexer.Eof |] -> ()
  | _ -> Alcotest.fail "@var"

let test_lexer_backquote () =
  match Lexer.tokenize "`select`" with
  | [| Lexer.Ident "select"; Lexer.Eof |] -> ()
  | _ -> Alcotest.fail "backquoted identifier is never a keyword"

let test_lexer_error_position () =
  try
    ignore (Lexer.tokenize "SELECT #");
    Alcotest.fail "expected lex error"
  with Lexer.Lex_error (_, pos) -> check Alcotest.int "position" 7 pos

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let parse = Parser.parse_stmt

let test_parse_select_shape () =
  match parse "SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5" with
  | Ast.Select s ->
      check Alcotest.int "items" 2 (List.length s.Ast.sel_items);
      Alcotest.(check bool) "where" true (s.Ast.sel_where <> None);
      check Alcotest.int "order" 1 (List.length s.Ast.sel_order_by);
      Alcotest.(check (option int)) "limit" (Some 5) s.Ast.sel_limit
  | _ -> Alcotest.fail "not a select"

let test_parse_join () =
  match parse "SELECT * FROM a JOIN b ON b.x = a.x JOIN c ON c.y = b.y" with
  | Ast.Select s -> check Alcotest.int "joins" 2 (List.length s.Ast.sel_joins)
  | _ -> Alcotest.fail "join parse"

let test_parse_insert_multi_row () =
  match parse "INSERT INTO t (a, b) VALUES (1, 2), (3, 4)" with
  | Ast.Insert { columns = Some [ "a"; "b" ]; values; _ } ->
      check Alcotest.int "rows" 2 (List.length values)
  | _ -> Alcotest.fail "insert parse"

let test_parse_create_table_constraints () =
  match
    parse
      "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, uid VARCHAR(8) NOT \
       NULL, r INT REFERENCES other(oid))"
  with
  | Ast.Create_table { columns = [ a; b; c ]; _ } ->
      Alcotest.(check bool) "pk" true a.Schema.primary_key;
      Alcotest.(check bool) "auto" true a.Schema.auto_increment;
      Alcotest.(check bool) "not null" true b.Schema.not_null;
      Alcotest.(check (option (pair string string)))
        "fk" (Some ("other", "oid")) c.Schema.references
  | _ -> Alcotest.fail "create table parse"

let test_parse_table_level_constraints () =
  match
    parse
      "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a), FOREIGN KEY (b) \
       REFERENCES u(x))"
  with
  | Ast.Create_table { columns = [ a; b ]; _ } ->
      Alcotest.(check bool) "pk applied" true a.Schema.primary_key;
      Alcotest.(check (option (pair string string)))
        "fk applied" (Some ("u", "x")) b.Schema.references
  | _ -> Alcotest.fail "table-level constraints"

let test_parse_procedure_scope () =
  (* inside the body, declared names parse as Var, columns as Col *)
  match
    parse
      "CREATE PROCEDURE p(IN uid INT) BEGIN DECLARE n INT; SELECT COUNT(*) \
       INTO n FROM t WHERE owner = uid; IF n > 0 THEN DELETE FROM t WHERE \
       owner = uid; END IF; END"
  with
  | Ast.Create_procedure { body; params = [ ("uid", Value.Tint) ]; _ } -> (
      match body with
      | [ Ast.P_declare ("n", Value.Tint, None); Ast.P_select_into (s, [ "n" ]); Ast.P_if ([ (cond, _) ], []) ] ->
          (match s.Ast.sel_where with
          | Some (Ast.Binop (Ast.Eq, Ast.Col (None, "owner"), Ast.Var "uid")) -> ()
          | _ -> Alcotest.fail "param should resolve to Var");
          (match cond with
          | Ast.Binop (Ast.Gt, Ast.Var "n", Ast.Lit (Value.Int 0)) -> ()
          | _ -> Alcotest.fail "declared local should resolve to Var")
      | _ -> Alcotest.fail "unexpected body shape")
  | _ -> Alcotest.fail "procedure parse"

let test_parse_transaction () =
  match parse "BEGIN TRANSACTION; INSERT INTO t VALUES (1); DELETE FROM t; COMMIT" with
  | Ast.Transaction [ Ast.Insert _; Ast.Delete _ ] -> ()
  | _ -> Alcotest.fail "transaction parse"

let test_parse_trigger () =
  match
    parse
      "CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW BEGIN UPDATE s SET n \
       = n + 1 WHERE k = NEW.k; END"
  with
  | Ast.Create_trigger { timing = Ast.After; event = Ast.Ev_insert; table = "t"; _ }
    ->
      ()
  | _ -> Alcotest.fail "trigger parse"

let test_parse_case_expression () =
  match Parser.parse_expr "CASE WHEN a > 1 THEN 'big' ELSE 'small' END" with
  | Ast.Fun_call ("IF", [ _; Ast.Lit (Value.Text "big"); Ast.Lit (Value.Text "small") ]) ->
      ()
  | _ -> Alcotest.fail "case lowering"

let test_parse_in_between () =
  (match Parser.parse_expr "a IN (1, 2, 3)" with
  | Ast.In_list (_, l) -> check Alcotest.int "in items" 3 (List.length l)
  | _ -> Alcotest.fail "in");
  match Parser.parse_expr "a BETWEEN 1 AND 5" with
  | Ast.Between _ -> ()
  | _ -> Alcotest.fail "between"

let test_parse_errors () =
  List.iter
    (fun bad ->
      match parse bad with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %s" bad)
    [
      "SELECT FROM";
      "INSERT t VALUES (1)";
      "UPDATE SET a = 1";
      "CREATE TABLE t (a)";
      "SELECT 1 extra garbage (";
    ]

let test_parse_script () =
  let stmts = Parser.parse_script "SELECT 1; SELECT 2; INSERT INTO t VALUES (3)" in
  check Alcotest.int "three statements" 3 (List.length stmts)

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip_cases =
  [
    "SELECT COUNT(*) FROM t WHERE a = 1";
    "SELECT DISTINCT a, b FROM t";
    "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a ASC LIMIT 3";
    "SELECT u.x FROM users AS u JOIN orders o ON o.uid = u.id WHERE u.x IN (1, 2)";
    "INSERT INTO t VALUES (1, 'x', NULL, TRUE)";
    "UPDATE t SET a = a + 1, b = 'z' WHERE c BETWEEN 1 AND 9";
    "DELETE FROM t WHERE a IS NOT NULL";
    "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8) REFERENCES u(x))";
    "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8) UNIQUE, c INT NOT NULL)";
    "DROP TABLE IF EXISTS t";
    "ALTER TABLE t ADD COLUMN z DOUBLE";
    "ALTER TABLE t RENAME TO t2";
    "CREATE VIEW v AS SELECT a FROM t WHERE a > 0";
    "CREATE INDEX ix ON t (a, b)";
    "CALL proc(1, 'x')";
    "TRUNCATE TABLE t";
    "SELECT (SELECT MAX(x) FROM u) FROM t";
    "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)";
    "SELECT a, SUM(b) FROM t GROUP BY a HAVING (SUM(b) > 10)";
    "SELECT COUNT(DISTINCT a) FROM t";
    "SELECT a, SUM(DISTINCT b) FROM t GROUP BY a HAVING (COUNT(*) >= 2)";
    "SELECT * FROM t WHERE a IN (SELECT x FROM u WHERE (u.y = 1))";
    "INSERT INTO t SELECT a, (b + 1) FROM u WHERE (a > 0)";
    "INSERT INTO t (x, y) SELECT a, COUNT(*) FROM u GROUP BY a";
    "SELECT a FROM t ORDER BY a ASC LIMIT 10 OFFSET 20";
    "SELECT ROWCOUNT((SELECT g FROM t GROUP BY g HAVING (COUNT(*) >= 2)))";
  ]

(* robustness: arbitrary input must either parse or raise Parse_error /
   Lex_error — never any other exception *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total (Parse_error or success)" ~count:500
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun input ->
      match Parser.parse_stmt input with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

(* near-miss SQL: mutate one character of a valid statement *)
let prop_parser_total_mutated =
  QCheck.Test.make ~name:"parser survives single-char mutations" ~count:300
    QCheck.(pair (int_range 0 1000) (int_range 0 255))
    (fun (pos, repl) ->
      let base = "SELECT a, SUM(b) FROM t WHERE a IN (1, 2) GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 3" in
      let b = Bytes.of_string base in
      Bytes.set b (pos mod String.length base) (Char.chr repl);
      match Parser.parse_stmt (Bytes.to_string b) with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

let test_roundtrip_fixed () =
  List.iter
    (fun src ->
      let a = parse src in
      let printed = Printer.stmt a in
      let b =
        try parse printed
        with Parser.Parse_error m ->
          Alcotest.failf "reparse of %S failed: %s" printed m
      in
      if a <> b then Alcotest.failf "round-trip mismatch for %s" src)
    roundtrip_cases

(* Generator of random expressions/statements for a qcheck round-trip. *)
let gen_stmt =
  let open QCheck.Gen in
  let ident = oneofl [ "a"; "b"; "c"; "t1"; "zap" ] in
  let lit =
    oneof
      [
        map (fun i -> Ast.Lit (Value.Int i)) (int_range (-50) 50);
        map (fun s -> Ast.Lit (Value.Text s)) (oneofl [ "x"; "it's"; "" ]);
        return (Ast.Lit Value.Null);
        return (Ast.Lit (Value.Bool true));
      ]
  in
  let rec expr n =
    if n <= 0 then oneof [ lit; map (fun c -> Ast.Col (None, c)) ident ]
    else
      oneof
        [
          lit;
          map (fun c -> Ast.Col (None, c)) ident;
          map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (expr (n - 1)) (expr (n - 1));
          map2 (fun a b -> Ast.Binop (Ast.Eq, a, b)) (expr (n - 1)) (expr (n - 1));
          map2 (fun a b -> Ast.Binop (Ast.And, a, b)) (expr (n - 1)) (expr (n - 1));
          map (fun a -> Ast.Unop (Ast.Not, a)) (expr (n - 1));
          map (fun args -> Ast.Fun_call ("CONCAT", args)) (list_size (int_range 1 3) (expr (n - 1)));
        ]
  in
  let where = opt (expr 2) in
  oneof
    [
      map2
        (fun tbl w ->
          Ast.Select
            (Ast.select ~from:(tbl, None) ?where:w [ Ast.Star ]))
        ident where;
      map2
        (fun tbl vals -> Ast.Insert { table = tbl; columns = None; values = [ vals ] })
        ident
        (list_size (int_range 1 4) lit);
      QCheck.Gen.map3
        (fun tbl col w -> Ast.Update { table = tbl; assigns = [ (col, Ast.Lit (Value.Int 1)) ]; where = w })
        ident ident where;
      map2 (fun tbl w -> Ast.Delete { table = tbl; where = w }) ident where;
    ]

let prop_roundtrip_generated =
  QCheck.Test.make ~name:"parse (print s) = s for generated statements" ~count:300
    (QCheck.make gen_stmt ~print:Printer.stmt)
    (fun s ->
      let printed = Printer.stmt s in
      match Parser.parse_stmt printed with
      | reparsed -> reparsed = s
      | exception Parser.Parse_error _ -> false)

let test_printer_compact () =
  let s = parse "CREATE PROCEDURE p() BEGIN SELECT 1; END" in
  let compact = Printer.stmt_compact s in
  Alcotest.(check bool) "single line" false (String.contains compact '\n')

(* ------------------------------------------------------------------ *)
(* Front-end differential                                               *)
(* ------------------------------------------------------------------ *)

(* The reference tokenizer: the lexer as it was when every word was
   classified by a linear [List.mem] of its uppercased spelling over
   [Lexer.keywords]. It lives only here, as the oracle the constant-time
   keyword table and the array-building lexer are checked against. *)
module Ref_lexer = struct
  open Lexer

  let is_keyword s = List.mem (String.uppercase_ascii s) Lexer.keywords
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let tokenize src =
    let n = String.length src in
    let pos = ref 0 in
    let peek k = if !pos + k < n then Some src.[!pos + k] else None in
    let tokens = ref [] in
    let emit t = tokens := t :: !tokens in
    let rec skip_ws () =
      if !pos < n then
        match src.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
            incr pos;
            skip_ws ()
        | '-' when peek 1 = Some '-' ->
            while !pos < n && src.[!pos] <> '\n' do incr pos done;
            skip_ws ()
        | '/' when peek 1 = Some '*' ->
            pos := !pos + 2;
            let rec close () =
              if !pos + 1 >= n then raise (Lex_error ("unterminated comment", !pos))
              else if src.[!pos] = '*' && src.[!pos + 1] = '/' then pos := !pos + 2
              else begin incr pos; close () end
            in
            close ();
            skip_ws ()
        | _ -> ()
    in
    let read_string () =
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Lex_error ("unterminated string", !pos));
        match src.[!pos] with
        | '\'' when peek 1 = Some '\'' ->
            Buffer.add_char buf '\'';
            pos := !pos + 2;
            go ()
        | '\'' -> incr pos
        | '\\' when peek 1 <> None ->
            (match peek 1 with
            | Some 'n' -> Buffer.add_char buf '\n'
            | Some 't' -> Buffer.add_char buf '\t'
            | Some c -> Buffer.add_char buf c
            | None -> ());
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let read_number () =
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do incr pos done;
      let is_float =
        !pos < n && src.[!pos] = '.' && (match peek 1 with Some c -> is_digit c | None -> false)
      in
      if is_float then begin
        incr pos;
        while !pos < n && is_digit src.[!pos] do incr pos done
      end;
      (* an exponent: e or E, an optional sign, at least one digit *)
      let exp_digits =
        match (peek 0, peek 1, peek 2) with
        | Some ('e' | 'E'), Some ('+' | '-'), Some c when is_digit c -> 2
        | Some ('e' | 'E'), Some c, _ when is_digit c -> 1
        | _ -> 0
      in
      if exp_digits > 0 then begin
        pos := !pos + exp_digits;
        while !pos < n && is_digit src.[!pos] do incr pos done
      end;
      if is_float || exp_digits > 0 then
        Float_lit (float_of_string (String.sub src start (!pos - start)))
      else Int_lit (int_of_string (String.sub src start (!pos - start)))
    in
    let read_ident () =
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do incr pos done;
      let s = String.sub src start (!pos - start) in
      if is_keyword s then Keyword (String.uppercase_ascii s) else Ident s
    in
    let rec loop () =
      skip_ws ();
      if !pos >= n then emit Eof
      else begin
        (match src.[!pos] with
        | '\'' ->
            incr pos;
            emit (Str_lit (read_string ()))
        | '`' ->
            incr pos;
            let start = !pos in
            while !pos < n && src.[!pos] <> '`' do incr pos done;
            if !pos >= n then raise (Lex_error ("unterminated `identifier`", !pos));
            emit (Ident (String.sub src start (!pos - start)));
            incr pos
        | '@' ->
            incr pos;
            let start = !pos in
            while !pos < n && is_ident_char src.[!pos] do incr pos done;
            if !pos = start then raise (Lex_error ("bare '@'", !pos));
            emit (At_var (String.sub src start (!pos - start)))
        | c when is_digit c -> emit (read_number ())
        | c when is_ident_start c -> emit (read_ident ())
        | '(' | ')' | ',' | ';' | '.' | ':' ->
            emit (Punct (String.make 1 src.[!pos]));
            incr pos
        | '<' when peek 1 = Some '>' ->
            emit (Op "<>");
            pos := !pos + 2
        | '<' when peek 1 = Some '=' ->
            emit (Op "<=");
            pos := !pos + 2
        | '>' when peek 1 = Some '=' ->
            emit (Op ">=");
            pos := !pos + 2
        | '!' when peek 1 = Some '=' ->
            emit (Op "<>");
            pos := !pos + 2
        | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '%' ->
            emit (Op (String.make 1 src.[!pos]));
            incr pos
        | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !pos)));
        if !tokens <> [] && List.hd !tokens <> Eof then loop ()
      end
    in
    loop ();
    List.rev !tokens
end

(* Tokens, or the lexer's error, or any other exception it let escape. *)
let lex_outcome tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception Lexer.Lex_error (msg, pos) -> Error (Printf.sprintf "Lex_error %d: %s" pos msg)
  | exception e -> Error (Printexc.to_string e)

let check_lexes_like_reference src =
  let show = function
    | Ok toks -> String.concat " | " (List.map Lexer.show_token toks)
    | Error e -> e
  in
  let got = lex_outcome (fun s -> Array.to_list (Lexer.tokenize s)) src
  and want = lex_outcome Ref_lexer.tokenize src in
  if got <> want then
    Alcotest.failf "tokens differ on %S:\n  got  %s\n  want %s" src (show got) (show want)

(* Every statement text the five workloads produce — the Raw histories'
   SQL, the transpiled histories' CALLs and the printed procedures they
   call, and each schema script — plus the bundled example histories. *)
let history_dir =
  List.find_opt Sys.file_exists [ "../examples/histories"; "examples/histories" ]

(* A workload's seeded history of [n] transactions: the printed
   procedures it installs (transpiled mode only) and its log's statement
   texts. *)
let workload_history (w : Uv_workloads.Workload.t) mode ~n =
  let module W = Uv_workloads.Workload in
  let module R = Uv_transpiler.Runtime in
  let eng, rt = W.setup ~mode w in
  let procedures =
    match mode with
    | R.Raw -> []
    | R.Transpiled ->
        List.map
          (fun (tr : Uv_transpiler.Transpile.t) -> Printer.stmt tr.Uv_transpiler.Transpile.procedure)
          (R.transpile_install rt)
  in
  let prng = Uv_util.Prng.create 4242 in
  ignore (W.run_history rt ~mode (w.W.generate prng ~scale:1 ~n ~dep_rate:0.3));
  ( procedures,
    List.map (fun (e : Uv_db.Log.entry) -> e.Uv_db.Log.sql) (Uv_db.Log.entries (Uv_db.Engine.log eng)) )

let front_end_corpus =
  lazy
    (let module W = Uv_workloads.Workload in
     let module R = Uv_transpiler.Runtime in
     let workload_texts (w : W.t) =
       w.W.schema_sql
       :: List.concat_map
            (fun mode ->
              let procedures, texts = workload_history w mode ~n:40 in
              procedures @ texts)
            [ R.Raw; R.Transpiled ]
     in
     let examples =
       match history_dir with
       | None -> Alcotest.fail "examples/histories not found"
       | Some dir ->
           Sys.readdir dir |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".sql")
           |> List.sort compare
           |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
     in
     List.concat_map workload_texts (Uv_workloads.Workload.all ()) @ examples)

let test_lexer_differential () =
  let corpus = Lazy.force front_end_corpus in
  if List.length corpus < 500 then
    Alcotest.failf "corpus too small: %d texts" (List.length corpus);
  List.iter check_lexes_like_reference (corpus @ roundtrip_cases)

let test_lexer_keyword_case () =
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | [| Lexer.Keyword "SELECT"; Lexer.Eof |] -> ()
      | _ -> Alcotest.failf "%S should lex as keyword SELECT" src)
    [ "select"; "SeLeCt"; "SELECT" ];
  (* every keyword in upper, lower and capitalised spelling; near misses
     stay identifiers *)
  List.iter
    (fun k ->
      List.iter
        (fun spelling ->
          match Lexer.tokenize spelling with
          | [| Lexer.Keyword k'; Lexer.Eof |] when String.equal k k' -> ()
          | _ -> Alcotest.failf "%S should lex as keyword %s" spelling k)
        [ k; String.lowercase_ascii k; String.capitalize_ascii (String.lowercase_ascii k) ];
      List.iter
        (fun near ->
          match Lexer.tokenize near with
          | [| Lexer.Ident s; Lexer.Eof |] when String.equal s near -> ()
          | _ -> Alcotest.failf "%S should lex as an identifier" near)
        [ k ^ "_"; "x" ^ k; String.lowercase_ascii k ^ "1" ])
    Lexer.keywords;
  (* backquoted names never become keywords *)
  List.iter
    (fun k ->
      match Lexer.tokenize ("`" ^ k ^ "`") with
      | [| Lexer.Ident s; Lexer.Eof |] when String.equal s k -> ()
      | _ -> Alcotest.failf "`%s` should stay an identifier" k)
    ("select" :: Lexer.keywords);
  check Alcotest.(list string) "keyword list is sorted and duplicate-free"
    (List.sort_uniq compare Lexer.keywords) Lexer.keywords

(* Near-miss statements: each base with one byte replaced, at every
   position. The lexer's verdict (tokens, or error and position) must be
   the reference's; the parser's outcome must be the recorded one. *)
let mutation_bases =
  [
    "SELECT a, SUM(b) FROM t WHERE a IN (1, 2) GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 3";
    "INSERT INTO t (a, `b`) VALUES (-1, 'it''s', 2.5, @v, NULL) -- c";
    "CREATE PROCEDURE p(IN x INT) BEGIN DECLARE n INT; SELECT COUNT(*) INTO n FROM t WHERE k = x; IF n > 0 THEN UPDATE t SET v = v + 1 WHERE k = x; ELSE SIGNAL SQLSTATE '45000'; END IF; END";
  ]

let mutations ?(bytes = List.init 256 Char.chr) f =
  List.iter
    (fun base ->
      for pos = 0 to String.length base - 1 do
        List.iter
          (fun c ->
            let b = Bytes.of_string base in
            Bytes.set b pos c;
            f (Bytes.to_string b))
          bytes
      done)
    mutation_bases

(* one byte of every class the lexer tells apart: each punctuation and
   operator byte it knows, quotes and escapes, comment starters,
   whitespace, a letter, digit and underscore, and bytes it rejects *)
let lexer_bytes =
  List.of_seq (String.to_seq " !\"#$%&'()*+,-./07:;<=>?@aZe_`\\|\000\t\n\r\255")

let test_lexer_error_positions () =
  mutations ~bytes:lexer_bytes check_lexes_like_reference

let test_parse_print_fixpoint () =
  List.iter
    (fun src ->
      match Parser.parse_script src with
      | exception Parser.Parse_error m -> Alcotest.failf "%S does not parse: %s" src m
      | stmts ->
          List.iter
            (fun a ->
              let printed = Printer.stmt a in
              match parse printed with
              | exception Parser.Parse_error m ->
                  Alcotest.failf "reparse of %S failed: %s" printed m
              | b ->
                  if a <> b then Alcotest.failf "round-trip changed the AST of %S" printed;
                  if not (String.equal (Printer.stmt b) printed) then
                    Alcotest.failf "printing is not a fixpoint for %S" printed)
            stmts)
    (Lazy.force front_end_corpus)

let test_keyword_named_columns () =
  (match parse "INSERT INTO t (date, key, row) VALUES (1, 2, 3)" with
  | Ast.Insert { columns = Some [ "DATE"; "KEY"; "ROW" ]; _ } -> ()
  | _ -> Alcotest.fail "keyword-named columns go through ident, uppercased");
  (match parse "SELECT t.date, t.key FROM t" with
  | Ast.Select { Ast.sel_items = [ Ast.Item (Ast.Col (Some "t", "DATE"), None); Ast.Item (Ast.Col (Some "t", "KEY"), None) ]; _ } -> ()
  | _ -> Alcotest.fail "qualified keyword-named columns");
  match parse "SELECT `row`, `select` FROM `from`" with
  | Ast.Select
      {
        Ast.sel_items = [ Ast.Item (Ast.Col (None, "row"), None); Ast.Item (Ast.Col (None, "select"), None) ];
        sel_from = Some ("from", None);
        _;
      } ->
      ()
  | _ -> Alcotest.fail "backquoted names stay identifiers"

(* Every mutated statement's parse outcome — the AST, or the Parse_error
   message — digested in order. The digest was recorded from the parser
   as it stood before the keyword table, token array and match-based
   token tests, so any change in an AST or in an error message's wording
   or token shows here. It was recorded again when numbers took an
   exponent: exactly two outcomes moved, [2e5] and [2E5] (the '.' of
   [2.5] mutated), from "expected ')'" to a parsed float. *)
let parse_outcome src =
  match Parser.parse_stmt src with
  | ast -> "ok " ^ Marshal.to_string ast [ Marshal.No_sharing ]
  | exception Parser.Parse_error m -> "error " ^ m
  | exception e -> "raised " ^ Printexc.to_string e

let test_parse_errors_reference () =
  let ctx = Buffer.create (1 lsl 20) in
  let counts = Hashtbl.create 3 in
  mutations (fun src ->
      let o = parse_outcome src in
      let kind = String.sub o 0 (String.index o ' ') in
      Hashtbl.replace counts kind (1 + Option.value (Hashtbl.find_opt counts kind) ~default:0);
      Buffer.add_string ctx o;
      Buffer.add_char ctx '\000');
  let count k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
  check Alcotest.(triple int int int) "ok / error / raised" (8056, 79752, 0)
    (count "ok", count "error", count "raised");
  check Alcotest.string "outcome digest" "92f8f840b178b10c3c06f79bbc369e3c"
    (Digest.to_hex (Digest.string (Buffer.contents ctx)))

(* ------------------------------------------------------------------ *)
(* Front-end memo                                                       *)
(* ------------------------------------------------------------------ *)

let outcome parse src =
  match parse src with
  | ast -> "ok " ^ Marshal.to_string ast [ Marshal.No_sharing ]
  | exception Parser.Parse_error m -> "error " ^ m
  | exception e -> "raised " ^ Printexc.to_string e

let check_memo_parse memo src =
  let want = outcome Parser.parse_stmt src and got = outcome (Stmt_memo.parse memo) src in
  if not (String.equal got want) then
    Alcotest.failf "memo outcome differs from parse_stmt on %S:\n  got  %s\n  want %s" src
      (String.escaped got) (String.escaped want)

(* Twice over the corpus through one memo: the second pass builds every
   parsing statement from a template. *)
let test_memo_corpus () =
  let memo = Stmt_memo.create () in
  let corpus = Lazy.force front_end_corpus @ roundtrip_cases in
  List.iter (check_memo_parse memo) corpus;
  let after_first = Stmt_memo.full_parses memo in
  List.iter (check_memo_parse memo) corpus;
  let errors =
    List.length (List.filter (fun src -> String.sub (outcome Parser.parse_stmt src) 0 3 <> "ok ") corpus)
  in
  check Alcotest.int "the second pass parses in full only what fails to parse" (after_first + errors)
    (Stmt_memo.full_parses memo)

(* Every single-byte mutation, through a memo that parsed its base first
   (and keeps the templates of the mutations before it), so a mutation
   that keeps the shape takes the template path. *)
let test_memo_mutations () =
  List.iter
    (fun base ->
      let memo = Stmt_memo.create () in
      check_memo_parse memo base;
      for pos = 0 to String.length base - 1 do
        for c = 0 to 255 do
          let b = Bytes.of_string base in
          Bytes.set b pos (Char.chr c);
          check_memo_parse memo (Bytes.to_string b)
        done
      done)
    mutation_bases

(* [Stmt_memo.template] names [src]'s template without building its AST:
   its statement has [parse_stmt]'s shape, and naming raises what
   [parse_stmt] raises when it must parse. The memo is left as [parse]
   would leave it, so [check_memo_parse] still holds after it. *)
let check_memo_template memo src =
  let want = try Ok (Parser.parse_stmt src) with e -> Error (Printexc.to_string e) in
  match Stmt_memo.template memo src 0 (String.length src) with
  | -1 -> ()
  | id -> (
      match want with
      | Ok ast ->
          let bound = Stmt_memo.lits memo and parsed = Stmt_memo.lits_of_stmt ast in
          if not (Shape.equal (Stmt_memo.template_stmt memo id) ast) then
            Alcotest.failf "template %d of %S has another shape than parse_stmt's" id src;
          if Stmt_memo.lit_count bound <> Stmt_memo.lit_count parsed then
            Alcotest.failf "%S binds %d literals, parse_stmt has %d" src
              (Stmt_memo.lit_count bound) (Stmt_memo.lit_count parsed);
          for k = 0 to Stmt_memo.lit_count parsed - 1 do
            let got = Stmt_memo.lit bound k and want = Stmt_memo.lit parsed k in
            if compare got want <> 0 then
              Alcotest.failf "%S binds literal %d as %s, parse_stmt has %s" src k
                (Value.serialize got) (Value.serialize want)
          done
      | Error e -> Alcotest.failf "template %d named for %S, which parse_stmt rejects: %s" id src e)
  | exception e -> (
      match want with
      | Error w when String.equal w (Printexc.to_string e) -> ()
      | _ -> Alcotest.failf "naming %S raised %s" src (Printexc.to_string e))

(* Over the corpus twice (the second pass names every template from the
   bytes alone), and over every single-byte mutation of the mutation
   bases, each named first, then parsed through the same memo. *)
let test_memo_templates () =
  let memo = Stmt_memo.create () in
  let corpus = Lazy.force front_end_corpus @ roundtrip_cases in
  List.iter (check_memo_template memo) corpus;
  let after_first = Stmt_memo.full_parses memo in
  List.iter (check_memo_template memo) corpus;
  let errors =
    List.length (List.filter (fun src -> String.sub (outcome Parser.parse_stmt src) 0 3 <> "ok ") corpus)
  in
  if Stmt_memo.full_parses memo - after_first > errors then
    Alcotest.failf "naming again parsed %d statements in full, more than the %d that fail"
      (Stmt_memo.full_parses memo - after_first) errors;
  List.iter (check_memo_parse memo) corpus;
  List.iter
    (fun base ->
      let memo = Stmt_memo.create () in
      check_memo_template memo base;
      for pos = 0 to String.length base - 1 do
        for c = 0 to 255 do
          let b = Bytes.of_string base in
          Bytes.set b pos (Char.chr c);
          let src = Bytes.to_string b in
          check_memo_template memo src;
          check_memo_parse memo src
        done
      done)
    mutation_bases

(* The scan's literals are [tokenize]'s literal tokens, in order; it
   declines only on comments and where [tokenize] fails. *)
let check_scan_like_tokenize sc src =
  let lexed = lex_outcome (fun s -> Array.to_list (Lexer.tokenize s)) src in
  if Lexer.scan sc src 0 (String.length src) then begin
    let want =
      match lexed with
      | Ok toks ->
          Ok
            (List.filter
               (function Lexer.Int_lit _ | Lexer.Float_lit _ | Lexer.Str_lit _ -> true | _ -> false)
               toks)
      | Error e -> Error e
    in
    let got =
      lex_outcome
        (fun s -> List.init (Lexer.literals sc) (fun k -> Lexer.literal_token sc s k))
        src
    in
    if got <> want then Alcotest.failf "scan literals differ from tokenize on %S" src;
    let prev = ref 0 in
    for k = 0 to Lexer.literals sc - 1 do
      let start = Lexer.literal_start sc k and stop = Lexer.literal_stop sc k in
      let first_ok =
        match (Lexer.literal_kind sc k, src.[start]) with
        | Lexer.Lit_str, '\'' -> src.[stop - 1] = '\''
        | (Lexer.Lit_int | Lexer.Lit_float), '0' .. '9' -> true
        | _ -> false
      in
      if start < !prev || stop <= start || not first_ok then
        Alcotest.failf "bad span %d [%d, %d) on %S" k start stop src;
      prev := stop
    done
  end
  else
    match lexed with
    | Error _ -> ()
    | Ok _ ->
        let has sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length src && (String.sub src i n = sub || go (i + 1)) in
          go 0
        in
        if not (has "--" || has "/*") then Alcotest.failf "scan declined a clean statement %S" src

let test_scan_spans () =
  let sc = Lexer.scanner () in
  List.iter (check_scan_like_tokenize sc) (Lazy.force front_end_corpus @ roundtrip_cases);
  mutations (check_scan_like_tokenize sc)

(* Statements of one skeleton with generated literals: integers up to
   and past [max_int], folded minus signs (also through parentheses),
   floats, and strings with doubled quotes, backslash escapes and empty
   bodies. The first statement makes the template; the second, with the
   same kinds in the same places, must take it and equal parse_stmt. *)
let gen_literal_pair =
  let open QCheck.Gen in
  let int_text =
    oneof
      [
        map string_of_int small_nat;
        return (string_of_int max_int);
        return "4611686018427387904" (* max_int + 1 *);
        return "000017";
      ]
  in
  let float_text = map2 (fun a b -> Printf.sprintf "%d.%d" a b) small_nat small_nat in
  let str_text =
    map
      (fun parts -> "'" ^ String.concat "" parts ^ "'")
      (list_size (0 -- 4) (oneofl [ "a"; "''"; "\\\\"; "\\n"; "\\t"; "\\'"; " "; "x y" ]))
  in
  let number text =
    map3
      (fun (pre, post) a b -> (pre ^ a ^ post, pre ^ b ^ post))
      (oneofl [ ("", ""); ("-", ""); ("- -", ""); ("-(", ")"); ("- ", "") ])
      text text
  in
  oneof [ number int_text; number float_text; map2 (fun a b -> (a, b)) str_text str_text ]

let prop_memo_literals =
  QCheck.Test.make ~name:"generated literals == parse_stmt" ~count:500
    QCheck.(make Gen.(list_repeat 3 gen_literal_pair))
    (fun lits ->
      let render pick =
        match List.map pick lits with
        | [ a; b; c ] ->
            Printf.sprintf "SELECT a, %s FROM t WHERE b = %s AND c IN (x, %s) LIMIT 2" a b c
        | _ -> assert false
      in
      let first = render fst and second = render snd in
      let memo = Stmt_memo.create () in
      check_memo_parse memo first;
      check_memo_parse memo second;
      (* one full parse when both parse; a statement that fails to parse
         or convert is parsed in full on its own *)
      let ok src = String.sub (outcome Parser.parse_stmt src) 0 3 = "ok " in
      Stmt_memo.full_parses memo = if ok first && ok second then 1 else 2)

let test_memo_fixed_literals () =
  let shares a b =
    let memo = Stmt_memo.create () in
    check_memo_parse memo a;
    check_memo_parse memo b;
    Stmt_memo.full_parses memo = 1
  in
  List.iter
    (fun (a, b) -> if shares a b then Alcotest.failf "%S and %S share a template" a b)
    [
      ("SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 4");
      ("SELECT a FROM t LIMIT 3 OFFSET 1", "SELECT a FROM t LIMIT 3 OFFSET 2");
      ( "CREATE PROCEDURE p() BEGIN SIGNAL SQLSTATE '45000'; END",
        "CREATE PROCEDURE p() BEGIN SIGNAL SQLSTATE '45001'; END" );
      ("ALTER TABLE t AUTO_INCREMENT = 5", "ALTER TABLE t AUTO_INCREMENT = 6");
      ("CREATE TABLE t (a VARCHAR(8))", "CREATE TABLE t (a VARCHAR(9))");
      ("SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 'x'");
      ("SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 1.5");
      ("SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b =  1");
      ("SELECT a FROM t WHERE b = 1", "select a FROM t WHERE b = 1");
    ];
  (* "Ab" and "BC" hash alike where the key hashes byte by byte, in the
     last (length mod 8) bytes of the run between two literals
     (65 * 31 + 98 = 66 * 31 + 67): only the byte comparison keeps these
     apart, before, between and after literals *)
  let sc = Lexer.scanner () in
  let key src =
    if not (Lexer.scan sc src 0 (String.length src)) then Alcotest.failf "scan declined %S" src;
    Lexer.key sc
  in
  List.iter
    (fun (a, b) ->
      check Alcotest.int (Printf.sprintf "%S and %S collide" a b) (key a) (key b);
      if shares a b then Alcotest.failf "%S and %S share a template" a b)
    [
      ("SELECT a, b FROM t WHERE Ab = 1", "SELECT a, b FROM t WHERE BC = 1");
      ("SELECT a FROM t WHERE x IN (1, Ab, 'y')", "SELECT a FROM t WHERE x IN (1, BC, 'y')");
      ("SELECT a FROM t WHERE x = 1 AND Ab", "SELECT a FROM t WHERE x = 1 AND BC");
    ];
  List.iter
    (fun (a, b) -> if not (shares a b) then Alcotest.failf "%S and %S should share a template" a b)
    [
      ("SELECT a FROM t WHERE b = 1 LIMIT 3", "SELECT a FROM t WHERE b = 2 LIMIT 3");
      ("INSERT INTO t VALUES (-1, 'x', 2.5)", "INSERT INTO t VALUES (-7, 'it''s', 0.0)");
      ("CREATE TABLE t (a INT DEFAULT 5)", "CREATE TABLE t (a INT DEFAULT 6)");
      ( "CREATE PROCEDURE p(x INT) BEGIN IF x > 1 THEN UPDATE t SET v = -2 WHERE k = x; END IF; END",
        "CREATE PROCEDURE p(x INT) BEGIN IF x > 9 THEN UPDATE t SET v = -3 WHERE k = x; END IF; END" );
    ]

let history_texts w mode ~n = snd (workload_history w mode ~n)

(* Distinct shapes by the definition: a statement's bytes with every
   literal that fed a [Lit] replaced by its kind, the scan supplying the
   spans and the parser the holes. *)
let distinct_shapes texts =
  let sc = Lexer.scanner () in
  let keys = Hashtbl.create 64 in
  List.iter
    (fun src ->
      if not (Lexer.scan sc src 0 (String.length src)) then Alcotest.failf "scan declined %S" src;
      let _, holes = Parser.parse_template src in
      let buf = Buffer.create 128 and prev = ref 0 in
      for k = 0 to Lexer.literals sc - 1 do
        let start = Lexer.literal_start sc k and stop = Lexer.literal_stop sc k in
        if List.exists (fun (h : Parser.hole) -> h.Parser.literal = k) holes then begin
          Buffer.add_substring buf src !prev (start - !prev);
          Buffer.add_string buf
            (match Lexer.literal_kind sc k with
            | Lexer.Lit_int -> "\000i"
            | Lexer.Lit_float -> "\000f"
            | Lexer.Lit_str -> "\000s");
          prev := stop
        end
      done;
      Buffer.add_substring buf src !prev (String.length src - !prev);
      Hashtbl.replace keys (Buffer.contents buf) ())
    texts;
  Hashtbl.length keys

let test_memo_full_parse_count () =
  let module R = Uv_transpiler.Runtime in
  List.iter
    (fun (w : Uv_workloads.Workload.t) ->
      List.iter
        (fun (mode, label) ->
          let name = w.Uv_workloads.Workload.name ^ " " ^ label in
          let texts = history_texts w mode ~n:40 in
          let count texts =
            let memo = Stmt_memo.create () in
            List.iter (check_memo_parse memo) texts;
            Stmt_memo.full_parses memo
          in
          let shapes = distinct_shapes texts in
          check Alcotest.int (name ^ ": full parses == distinct shapes") shapes (count texts);
          check Alcotest.int (name ^ ": the history four times over") shapes
            (count (List.concat [ texts; texts; texts; texts ]));
          let longer = history_texts w mode ~n:160 in
          check Alcotest.int (name ^ ": a 4x longer history") (distinct_shapes longer) (count longer);
          if distinct_shapes longer <> shapes then
            Alcotest.failf "%s: %d shapes at 40 transactions, %d at 160" name shapes
              (distinct_shapes longer))
        [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ])
    (Uv_workloads.Workload.all ())

(* Literals bound by hand-picked bytes, each named after the one before
   it through one memo, so that a statement of a shape already seen
   binds through that shape's template: negated literals, TRUE, FALSE
   and NULL (literals no hole feeds), LIMIT counts (literals that feed
   no [Lit]), byte-different templates of one shape (a sign, a keyword's
   case, a space), a comment and an integer above [max_int] (no
   template: [-1]). *)
let test_memo_hand_literals () =
  let memo = Stmt_memo.create () in
  List.iter (check_memo_template memo)
    [
      "INSERT INTO t VALUES (1, 'a', 10, TRUE)";
      "INSERT INTO t VALUES (2, 'b', 20, TRUE)";
      "INSERT INTO t VALUES (-2, 'b', -20, NULL)";
      "INSERT INTO t VALUES (-3, 'c', -2.5, NULL)";
      "insert into t values (3, 'c', 30, FALSE)";
      "UPDATE t SET v = v + 1 WHERE id = -2";
      "UPDATE t SET v = v + 1 WHERE id = - 7";
      "UPDATE t SET v = 5 WHERE id = 1";
      "UPDATE  t SET v = -5 WHERE id = 3";
      "UPDATE t SET b = NULL WHERE id = -2 OR id = 3";
      "SELECT v FROM t WHERE id = 1 LIMIT 2";
      "SELECT v FROM t WHERE id = -2 LIMIT 3";
      "SELECT v FROM t WHERE id = -4 LIMIT 3";
      "UPDATE t SET z = -1 WHERE id IN (1, -2, 4) AND s = 'it''s'";
      "UPDATE t SET z = -1 WHERE id IN (6, -7, 8) AND s = 'a\\nb'";
    ];
  List.iter
    (fun src ->
      if Stmt_memo.template memo src 0 (String.length src) <> -1 then Alcotest.failf "%S named a template" src)
    [
      "DELETE FROM t WHERE id = 3 -- the third row";
      "UPDATE t SET v = 5 WHERE id = 99999999999999999999";
      "UPDATE t SET v = 99999999999999999999 WHERE id = 1";
    ]

(* A number takes an exponent: [e] or [E], an optional sign, at least
   one digit. [Value.to_literal] of a float that prints with one
   ([1e-05]), or of a large integral one, reparses to that float through
   [parse_stmt], through a memo's [parse] and through a memo's template
   and bound literals; a bare [2e] still ends the number at [2]. *)
let test_float_exponents () =
  let memo = Stmt_memo.create () in
  let values l = List.init (Stmt_memo.lit_count l) (fun k -> Value.serialize (Stmt_memo.lit l k)) in
  List.iter
    (fun f ->
      let lit = Value.to_literal (Value.Float f) in
      let src = Printf.sprintf "UPDATE t SET x = %s WHERE id = 1" lit in
      let want = [ Value.serialize (Value.Float f); Value.serialize (Value.Int 1) ] in
      check Alcotest.(list string) (lit ^ ": parse_stmt") want
        (values (Stmt_memo.lits_of_stmt (Parser.parse_stmt src)));
      check Alcotest.(list string) (lit ^ ": memo parse") want
        (values (Stmt_memo.lits_of_stmt (Stmt_memo.parse memo src)));
      if Stmt_memo.template memo src 0 (String.length src) < 0 then
        Alcotest.failf "%S named no template" src;
      check Alcotest.(list string) (lit ^ ": memo template") want (values (Stmt_memo.lits memo)))
    [ 1e-05; 2.5e+20; 1.5e-300; 6.02214076e23; 1.25e-7; 1e300 ];
  List.iter
    (fun (src, want) ->
      check Alcotest.(list string) src want (List.map Lexer.show_token (Array.to_list (Lexer.tokenize src))))
    [
      ("2e", [ "integer 2"; "identifier e"; "end of input" ]);
      ("2e+", [ "integer 2"; "identifier e"; "operator +"; "end of input" ]);
      ("2E-x", [ "integer 2"; "identifier E"; "operator -"; "identifier x"; "end of input" ]);
      ("2e5", [ "float 200000."; "end of input" ]);
      ("2.5E+3x", [ "float 2500."; "identifier x"; "end of input" ]);
      ("1e-05", [ "float 1e-05"; "end of input" ]);
    ]

(* Naming each statement and binding its literals, as the analyzer's
   store path does for every entry. *)
let bind_all memo texts =
  for k = 0 to Array.length texts - 1 do
    if Stmt_memo.template memo texts.(k) 0 (String.length texts.(k)) >= 0 then
      ignore (Stmt_memo.lit_count (Stmt_memo.lits memo) : int)
  done

(* Naming each record's SQL where it lies in a decoded segment's text,
   as the analyzer's store source does, and binding its literals; the
   records whose SQL has an escape are left out. *)
let bind_spans memo d =
  let text = Uv_db.Log_io.text d in
  for k = 0 to Uv_db.Log_io.length d - 1 do
    let off = Uv_db.Log_io.sql_offset d k in
    if off >= 0 && Stmt_memo.template memo text off (Uv_db.Log_io.sql_length d k) >= 0 then
      ignore (Stmt_memo.lit_count (Stmt_memo.lits memo) : int)
  done

(* A clean ULOGv2 text of [count] records, each with an N value of every
   form the decoder checks in place (integers at both signs, a text
   holding a colon, NULL, a bool) and an A line on every third. *)
let clean_segment count =
  Uv_db.Log_io.print
    (List.init count (fun k ->
         {
           Uv_db.Log_io.r_sql = Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" k (k mod 7);
           r_nondet =
             [ Value.Int ((k * 1_000_003) - 5); Value.Int (-k); Value.Text "a:b"; Value.Null;
               Value.Bool (k mod 2 = 0) ];
           r_app_txn = (if k mod 3 = 0 then Some "txn" else None);
         }))

(* On a warmed memo, naming and binding allocate nothing: over each
   workload's history, raw and transpiled, 0 minor words per statement,
   counted by [Alloc.words_of], from each statement's own string and
   from its span in the history persisted as one segment. Decoding a
   clean segment, given its record count, allocates the same minor
   words at 64 records as at 256: its offsets go straight to the major
   heap, and the lines, the checksums and the in-place N values
   allocate nothing per record. *)
let test_memo_binding_allocates_nothing () =
  let module R = Uv_transpiler.Runtime in
  List.iter
    (fun (w : Uv_workloads.Workload.t) ->
      List.iter
        (fun (mode, label) ->
          let name = w.Uv_workloads.Workload.name ^ " " ^ label in
          let texts = Array.of_list (history_texts w mode ~n:40) in
          let memo = Stmt_memo.create () in
          bind_all memo texts;
          let named = ref 0 in
          Array.iter
            (fun src -> if Stmt_memo.template memo src 0 (String.length src) >= 0 then incr named)
            texts;
          if !named < Array.length texts then
            Alcotest.failf "%s: %d of %d statements named" name !named (Array.length texts);
          let (), words, _ = Alloc.words_of (fun () -> bind_all memo texts) in
          if words > 0. then
            Alcotest.failf "%s: naming and binding %d statements allocated %.0f minor words" name
              (Array.length texts) words;
          let segment =
            Uv_db.Log_io.print
              (Array.to_list
                 (Array.map
                    (fun sql -> { Uv_db.Log_io.r_sql = sql; r_nondet = []; r_app_txn = None })
                    texts))
          in
          let d, _ = Uv_db.Log_io.salvage segment in
          let spans = ref 0 in
          for k = 0 to Uv_db.Log_io.length d - 1 do
            if Uv_db.Log_io.sql_offset d k >= 0 then incr spans
          done;
          if !spans < Array.length texts / 2 then
            Alcotest.failf "%s: %d of %d statements lie in place" name !spans (Array.length texts);
          bind_spans memo d;
          let (), words, _ = Alloc.words_of (fun () -> bind_spans memo d) in
          if words > 0. then
            Alcotest.failf "%s: naming and binding %d spans allocated %.0f minor words" name !spans
              words)
        [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ])
    (Uv_workloads.Workload.all ());
  let salvage_words count =
    let text = clean_segment count in
    let (d, diag), words, _ = Alloc.words_of (fun () -> Uv_db.Log_io.salvage ~count text) in
    if diag.Uv_db.Log_io.cut_at <> None || Uv_db.Log_io.length d <> count then
      Alcotest.failf "the clean %d-record segment decoded to %d records" count
        (Uv_db.Log_io.length d);
    words
  in
  ignore (salvage_words 64 : float);
  let small = salvage_words 64 and large = salvage_words 256 in
  if small <> large then
    Alcotest.failf "decoding allocated %.0f minor words at 64 records, %.0f at 256" small large

(* ------------------------------------------------------------------ *)
(* Live statements: parsed and rendered once per template               *)
(* ------------------------------------------------------------------ *)

let logged_outcome parse_logged src =
  match parse_logged src with
  | ast, text -> "ok " ^ Marshal.to_string ast [ Marshal.No_sharing ] ^ "\000" ^ text
  | exception Parser.Parse_error m -> "error " ^ m
  | exception e -> "raised " ^ Printexc.to_string e

(* [Stmt_memo.parse_logged] gives [parse_stmt]'s AST, exactly, and
   [Printer.stmt_compact] of it, byte for byte, or raises what
   [parse_stmt] raises. *)
let check_memo_logged memo src =
  let want =
    logged_outcome (fun src -> let s = Parser.parse_stmt src in (s, Printer.stmt_compact s)) src
  and got = logged_outcome (Stmt_memo.parse_logged memo) src in
  if not (String.equal got want) then
    Alcotest.failf "logged outcome differs on %S:\n  got  %s\n  want %s" src (String.escaped got)
      (String.escaped want)

let test_logged_corpus () =
  let memo = Stmt_memo.create () in
  let corpus = Lazy.force front_end_corpus @ roundtrip_cases in
  List.iter (check_memo_logged memo) corpus;
  List.iter (check_memo_logged memo) corpus;
  List.iter
    (fun base ->
      let memo = Stmt_memo.create () in
      check_memo_logged memo base;
      for pos = 0 to String.length base - 1 do
        List.iter
          (fun c ->
            let b = Bytes.of_string base in
            Bytes.set b pos c;
            check_memo_logged memo (Bytes.to_string b))
          [ '0'; '9'; '-'; '\''; ' '; '\n'; '\\'; 'e'; '.'; 'x'; '(' ]
      done)
    mutation_bases

(* Literals whose rendering the splice must refuse or keep: strings with
   newlines, carriage returns, tabs, backslash escapes and surrounding
   blanks, negative numbers (folded and parenthesised), and floats that
   render with an exponent. The first statement makes the template, the
   second takes it. *)
let gen_logged_pair =
  let open QCheck.Gen in
  let str_text =
    map
      (fun parts -> "'" ^ String.concat "" parts ^ "'")
      (list_size (0 -- 4)
         (oneofl [ "a"; "''"; "\\\\"; "\\n"; "\n"; "\r"; "\t"; " "; "  x  "; "\n "; "\\'"; "-" ]))
  in
  let float_text =
    oneof
      [
        map2 (fun a b -> Printf.sprintf "%d.%d" a b) small_nat small_nat;
        oneofl [ "1e300"; "2.5e-7"; "1.5E+20"; "6.02214076e23"; "1e-05"; "0.1"; "1e15"; "1e16" ];
      ]
  in
  let int_text = oneof [ map string_of_int small_nat; return (string_of_int max_int) ] in
  let number text =
    map3
      (fun (pre, post) a b -> (pre ^ a ^ post, pre ^ b ^ post))
      (oneofl [ ("", ""); ("-", ""); ("- -", ""); ("-(", ")"); ("- ", "") ])
      text text
  in
  oneof [ number int_text; number float_text; map2 (fun a b -> (a, b)) str_text str_text ]

let prop_logged_literals =
  QCheck.Test.make ~name:"generated literals: logged == stmt_compact" ~count:500
    QCheck.(make Gen.(list_repeat 3 gen_logged_pair))
    (fun lits ->
      let render pick =
        match List.map pick lits with
        | [ a; b; c ] ->
            Printf.sprintf
              "BEGIN TRANSACTION; UPDATE t SET a = %s WHERE b = %s; INSERT INTO u VALUES (%s, 1); COMMIT"
              a b c
        | _ -> assert false
      in
      let memo = Stmt_memo.create () in
      List.iter (check_memo_logged memo) [ render fst; render snd; render fst ];
      true)

(* Every statement of the five apps' Raw histories, at two seeds, as
   [Engine.exec_sql] takes it: the entry it logs holds [parse_stmt]'s
   AST, exactly, and [Printer.stmt_compact] of it; an engine executing
   [parse_stmt] of each logged text, with its recorded draws, logs the
   same entries and ends at the same hash as one executing the texts
   through [exec_sql]. *)
let test_logged_histories () =
  let module W = Uv_workloads.Workload in
  let module R = Uv_transpiler.Runtime in
  let module Log = Uv_db.Log in
  let module Engine = Uv_db.Engine in
  let entry_text (e : Log.entry) =
    Marshal.to_string e.Log.stmt [ Marshal.No_sharing ] ^ "\000" ^ e.Log.sql
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (w : W.t) ->
          let name = Printf.sprintf "%s seed %d" w.W.name seed in
          let eng, rt = W.setup ~seed ~mode:R.Raw w in
          let base = Engine.snapshot eng in
          let prng = Uv_util.Prng.create (seed * 31) in
          while Log.length (Engine.log eng) < 300 do
            ignore (W.run_history rt ~mode:R.Raw (w.W.generate prng ~scale:1 ~n:20 ~dep_rate:0.3))
          done;
          let entries = Log.entries (Engine.log eng) in
          List.iter
            (fun (e : Log.entry) ->
              let s = Parser.parse_stmt e.Log.sql in
              if Marshal.to_string s [ Marshal.No_sharing ] <> Marshal.to_string e.Log.stmt [ Marshal.No_sharing ]
              then Alcotest.failf "%s: entry %d's AST is not parse_stmt's" name e.Log.index;
              if Printer.stmt_compact e.Log.stmt <> e.Log.sql then
                Alcotest.failf "%s: entry %d's text is not stmt_compact" name e.Log.index)
            entries;
          let replay exec =
            let r = Engine.of_catalog (Uv_db.Catalog.snapshot base) in
            List.iter
              (fun (e : Log.entry) ->
                try ignore (exec ?app_txn:e.Log.app_txn ~nondet:e.Log.nondet r e.Log.sql)
                with Engine.Sql_error _ | Engine.Signal_raised _ -> ())
              entries;
            (List.map entry_text (Log.entries (Engine.log r)), Engine.db_hash r)
          in
          let live = replay (fun ?app_txn ~nondet r sql -> Engine.exec_sql ?app_txn ~nondet r sql) in
          let parsed =
            replay (fun ?app_txn ~nondet r sql -> Engine.exec ?app_txn ~nondet r (Parser.parse_stmt sql))
          in
          if fst live <> fst parsed then Alcotest.failf "%s: exec_sql logged other entries" name;
          check Alcotest.int64 (name ^ ": hash") (snd parsed) (snd live);
          check Alcotest.int64 (name ^ ": the original's hash") (Engine.db_hash eng) (snd live))
        (W.all ()))
    [ 3; 17 ]

(* A live engine's memo holds DML templates only: 5 000 distinct
   CREATE TABLE statements file none, and a repeated DML shape is parsed
   in full once. *)
let test_live_memo_files_no_ddl () =
  let module Engine = Uv_db.Engine in
  let e = Engine.create () in
  for k = 0 to 4_999 do
    ignore (Engine.exec_sql e (Printf.sprintf "CREATE TABLE t%d (id INT PRIMARY KEY, v INT)" k))
  done;
  let memo = Engine.memo e in
  check Alcotest.int "no DDL template" 0 (Stmt_memo.templates memo);
  check Alcotest.int "every CREATE TABLE parsed in full" 5_000 (Stmt_memo.full_parses memo);
  for k = 0 to 99 do
    ignore (Engine.exec_sql e (Printf.sprintf "INSERT INTO t7 VALUES (%d, %d)" k (-k - 1)))
  done;
  check Alcotest.int "one DML template" 1 (Stmt_memo.templates memo);
  check Alcotest.int "the DML shape parsed in full once" 5_001 (Stmt_memo.full_parses memo);
  check Alcotest.int "rows" 100
    (match (Engine.query_sql e "SELECT COUNT(*) FROM t7").Engine.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> -1)

(* A statement of a template the memo knows is neither parsed nor
   rendered in full: over each workload's Raw history, each statement's
   minor words through a warmed memo ([Alloc.words_of]), its AST
   instantiated and its text spliced, stay below 0.6 times the words of
   [Parser.parse_stmt] and [Printer.stmt_compact] of it (at most 0.54 on
   these histories, 0.29 on average), and [full_parses] does not move.
   A float literal's rendering alone ([Value.to_literal] through
   [Printf]) can outweigh a short statement's parse, so the bound is on
   the pair. *)
let test_known_template_allocates_no_full_parse () =
  let module R = Uv_transpiler.Runtime in
  List.iter
    (fun (w : Uv_workloads.Workload.t) ->
      let texts = history_texts w R.Raw ~n:40 in
      let memo = Stmt_memo.create () in
      (* twice: a template is rendered for its second statement *)
      List.iter (fun src -> ignore (Stmt_memo.parse_logged memo src)) (texts @ texts);
      let full = Stmt_memo.full_parses memo in
      List.iter
        (fun src ->
          let _, live, _ = Alloc.words_of (fun () -> Stmt_memo.parse_logged memo src) in
          let _, full, _ =
            Alloc.words_of (fun () -> Printer.stmt_compact (Parser.parse_stmt src))
          in
          if live >= 0.6 *. full then
            Alcotest.failf "%s: %S took %.0f minor words through the memo, %.0f to parse and render"
              w.Uv_workloads.Workload.name src live full)
        texts;
      check Alcotest.int (w.Uv_workloads.Workload.name ^ ": no full parse") full
        (Stmt_memo.full_parses memo))
    (Uv_workloads.Workload.all ())

(* ------------------------------------------------------------------ *)
(* Schema helpers                                                       *)
(* ------------------------------------------------------------------ *)

let test_schema_helpers () =
  let t =
    Schema.table "t"
      [
        Schema.column ~primary_key:true "id" Value.Tint;
        Schema.column ~auto_increment:true "seq" Value.Tint;
        Schema.column ~references:("u", "x") "fk" Value.Tint;
      ]
  in
  check Alcotest.(list string) "pk" [ "id" ] (Schema.primary_key_columns t);
  Alcotest.(check (option string)) "auto" (Some "seq") (Schema.auto_increment_column t);
  check
    Alcotest.(list (triple string string string))
    "fks"
    [ ("fk", "u", "x") ]
    (Schema.foreign_keys t);
  check Alcotest.string "qualified" "t.id" (Schema.qualified "t" "id");
  check Alcotest.string "schema col" "_S.t" (Schema.schema_column "t")

let () =
  Alcotest.run "uv_sql"
    [
      ( "value",
        [
          Alcotest.test_case "truthiness" `Quick test_value_truthiness;
          Alcotest.test_case "coercions" `Quick test_value_coercions;
          Alcotest.test_case "null propagation" `Quick test_value_null_propagation;
          Alcotest.test_case "numeric string compare" `Quick
            test_value_numeric_string_compare;
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "literals" `Quick test_value_literals;
          Alcotest.test_case "type names" `Quick test_ty_of_name;
          qtest prop_serialize_injective;
          qtest prop_deserialize_error_agrees;
          Alcotest.test_case "in-place check == deserialize on mutations" `Quick
            test_deserialize_error_mutations;
          qtest prop_deserialize_roundtrip;
          qtest prop_parser_total;
          qtest prop_parser_total_mutated;
          Alcotest.test_case "deserialize rejects garbage" `Quick
            test_deserialize_rejects_garbage;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escape;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "at-var" `Quick test_lexer_at_var;
          Alcotest.test_case "backquote" `Quick test_lexer_backquote;
          Alcotest.test_case "error position" `Quick test_lexer_error_position;
          Alcotest.test_case "keyword case table" `Quick test_lexer_keyword_case;
          Alcotest.test_case "workload corpus == reference" `Quick
            test_lexer_differential;
          Alcotest.test_case "mutated errors == reference" `Quick
            test_lexer_error_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select shape" `Quick test_parse_select_shape;
          Alcotest.test_case "joins" `Quick test_parse_join;
          Alcotest.test_case "multi-row insert" `Quick test_parse_insert_multi_row;
          Alcotest.test_case "column constraints" `Quick
            test_parse_create_table_constraints;
          Alcotest.test_case "table constraints" `Quick
            test_parse_table_level_constraints;
          Alcotest.test_case "procedure scoping" `Quick test_parse_procedure_scope;
          Alcotest.test_case "transaction" `Quick test_parse_transaction;
          Alcotest.test_case "trigger" `Quick test_parse_trigger;
          Alcotest.test_case "case expression" `Quick test_parse_case_expression;
          Alcotest.test_case "in/between" `Quick test_parse_in_between;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "script" `Quick test_parse_script;
          Alcotest.test_case "keyword-named columns" `Quick
            test_keyword_named_columns;
          Alcotest.test_case "workload corpus print fixpoint" `Quick
            test_parse_print_fixpoint;
          Alcotest.test_case "mutated outcomes == recorded" `Quick
            test_parse_errors_reference;
        ] );
      (* the front-end memo; a group name longer than "printer" would
         widen the report's name column and truncate older test names *)
      ( "memo",
        [
          Alcotest.test_case "corpus == parse_stmt" `Quick test_memo_corpus;
          Alcotest.test_case "mutations after base == parse_stmt" `Quick
            test_memo_mutations;
          Alcotest.test_case "scan literals == tokenize" `Quick test_scan_spans;
          qtest prop_memo_literals;
          Alcotest.test_case "fixed literals split templates" `Quick test_memo_fixed_literals;
          Alcotest.test_case "full parses == shapes, flat" `Quick
            test_memo_full_parse_count;
          Alcotest.test_case "template names parse_stmt's shape" `Quick
            test_memo_templates;
          Alcotest.test_case "hand literals bind as parse_stmt" `Quick
            test_memo_hand_literals;
          Alcotest.test_case "naming and binding allocate nothing" `Quick
            test_memo_binding_allocates_nothing;
          Alcotest.test_case "float exponents reparse" `Quick test_float_exponents;
          Alcotest.test_case "logged == stmt_compact: corpus, mutations" `Quick
            test_logged_corpus;
          qtest prop_logged_literals;
          Alcotest.test_case "logged == stmt_compact: five Raw histories" `Quick
            test_logged_histories;
          Alcotest.test_case "a live memo files no DDL" `Quick test_live_memo_files_no_ddl;
          Alcotest.test_case "a known template: no full parse or render" `Quick
            test_known_template_allocates_no_full_parse;
        ] );
      ( "printer",
        [
          Alcotest.test_case "fixed round-trips" `Quick test_roundtrip_fixed;
          Alcotest.test_case "compact is single line" `Quick test_printer_compact;
          qtest prop_roundtrip_generated;
        ] );
      ("schema", [ Alcotest.test_case "helpers" `Quick test_schema_helpers ]);
    ]
