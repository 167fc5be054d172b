open Ast

exception Parse_error of string

type state = {
  toks : Lexer.token array;
  mutable pos : int;
  mutable scope : string list; (* procedure params + DECLAREd locals *)
  recording : bool;
  mutable fed : (int * expr * bool) list;
      (* when [recording]: each [Lit] a literal token fed, as (token
         index, node, negated), latest first *)
}

let fail st msg =
  let tok =
    if st.pos < Array.length st.toks then Lexer.show_token st.toks.(st.pos)
    else "end of input"
  in
  raise (Parse_error (Printf.sprintf "%s (at %s)" msg tok))

(* the token at [st.pos + k], or the final [Eof] past the end *)
let peek_at st k =
  let i = st.pos + k and last = Array.length st.toks - 1 in
  st.toks.(if i < last then i else last)

let peek st = peek_at st 0
let peek2 st = peek_at st 1
let advance st = st.pos <- st.pos + 1
let at_eof st = match peek st with Lexer.Eof -> true | _ -> false
let is_kw kw = function Lexer.Keyword k -> String.equal k kw | _ -> false
let is_punct p = function Lexer.Punct q -> String.equal p q | _ -> false

let next st =
  let t = peek st in
  advance st;
  t

let accept_kw st kw =
  match peek st with
  | Lexer.Keyword k when String.equal k kw ->
      advance st;
      true
  | _ -> false

let expect_kw st kw = if not (accept_kw st kw) then fail st ("expected " ^ kw)

let accept_punct st p =
  match peek st with
  | Lexer.Punct q when String.equal p q ->
      advance st;
      true
  | _ -> false

let expect_punct st p = if not (accept_punct st p) then fail st ("expected '" ^ p ^ "'")

let accept_op st o =
  match peek st with
  | Lexer.Op q when String.equal o q ->
      advance st;
      true
  | _ -> false

let expect_op st o = if not (accept_op st o) then fail st ("expected '" ^ o ^ "'")

let ident st =
  match next st with
  | Lexer.Ident s -> s
  | Lexer.Keyword s -> s (* allow keywords as names where unambiguous *)
  | _ ->
      st.pos <- st.pos - 1;
      fail st "expected identifier"

(* Identifier strictly (not a keyword). *)
let strict_ident st =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let in_scope st name = List.exists (String.equal name) st.scope

(* The [Lit] of the literal token just consumed. *)
let literal st v =
  let e = Lit v in
  if st.recording then st.fed <- (st.pos - 1, e, false) :: st.fed;
  e

(* [folded] stands for the literal [e] under a unary minus: the token
   that fed [e] now feeds [folded], negated once more. *)
let negate st e folded =
  if st.recording then
    st.fed <-
      List.map (fun ((tok, e', neg) as f) -> if e' == e then (tok, folded, not neg) else f) st.fed;
  folded

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

let parse_type st =
  let name =
    match next st with
    | Lexer.Keyword k -> k
    | Lexer.Ident s -> s
    | _ ->
        st.pos <- st.pos - 1;
        fail st "expected type name"
  in
  (* skip optional (n[,m]) size spec *)
  if accept_punct st "(" then begin
    let rec skip () =
      match next st with
      | Lexer.Punct ")" -> ()
      | Lexer.Eof -> fail st "unterminated type size"
      | _ -> skip ()
    in
    skip ()
  end;
  match Value.ty_of_name name with
  | Some ty -> ty
  | None -> fail st ("unknown type " ^ name)

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_or st =
  let lhs = parse_and st in
  if accept_kw st "OR" then Binop (Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "AND" then Binop (And, lhs, parse_and st) else lhs

and parse_not st =
  if accept_kw st "NOT" then Unop (Not, parse_not st) else parse_cmp st

and parse_cmp st =
  let lhs = parse_additive st in
  match peek st with
  | Lexer.Op ("=" | "<>" | "<" | "<=" | ">" | ">=") ->
      let op =
        match next st with
        | Lexer.Op "=" -> Eq
        | Lexer.Op "<>" -> Neq
        | Lexer.Op "<" -> Lt
        | Lexer.Op "<=" -> Le
        | Lexer.Op ">" -> Gt
        | Lexer.Op ">=" -> Ge
        | _ -> assert false
      in
      Binop (op, lhs, parse_additive st)
  | Lexer.Keyword "IS" ->
      advance st;
      let positive = not (accept_kw st "NOT") in
      expect_kw st "NULL";
      Is_null (lhs, positive)
  | Lexer.Keyword "IN" ->
      advance st;
      expect_punct st "(";
      let items = parse_expr_list st in
      expect_punct st ")";
      In_list (lhs, items)
  | Lexer.Keyword "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      expect_kw st "AND";
      let hi = parse_additive st in
      Between (lhs, lo, hi)
  | Lexer.Keyword "NOT" when is_kw "IN" (peek2 st) ->
      advance st;
      advance st;
      expect_punct st "(";
      let items = parse_expr_list st in
      expect_punct st ")";
      Unop (Not, In_list (lhs, items))
  | Lexer.Keyword "LIKE" ->
      advance st;
      let pat = parse_additive st in
      Fun_call ("LIKE", [ lhs; pat ])
  | _ -> lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    if accept_op st "+" then lhs := Binop (Add, !lhs, parse_multiplicative st)
    else if accept_op st "-" then lhs := Binop (Sub, !lhs, parse_multiplicative st)
    else continue := false
  done;
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    if accept_op st "*" then lhs := Binop (Mul, !lhs, parse_unary st)
    else if accept_op st "/" then lhs := Binop (Div, !lhs, parse_unary st)
    else if accept_op st "%" then lhs := Binop (Mod, !lhs, parse_unary st)
    else continue := false
  done;
  !lhs

and parse_unary st =
  if accept_op st "-" then
    match parse_unary st with
    (* fold negative literals so printing round-trips *)
    | Lit (Value.Int i) as e -> negate st e (Lit (Value.Int (-i)))
    | Lit (Value.Float f) as e -> negate st e (Lit (Value.Float (-.f)))
    | e -> Unop (Neg, e)
  else parse_primary st

and parse_primary st =
  match next st with
  | Lexer.Int_lit i -> literal st (Value.Int i)
  | Lexer.Float_lit f -> literal st (Value.Float f)
  | Lexer.Str_lit s -> literal st (Value.Text s)
  | Lexer.At_var v -> Var v
  | Lexer.Keyword "NULL" -> Lit Value.Null
  | Lexer.Keyword "TRUE" -> Lit (Value.Bool true)
  | Lexer.Keyword "FALSE" -> Lit (Value.Bool false)
  | Lexer.Keyword "EXISTS" ->
      expect_punct st "(";
      let s = parse_select st in
      expect_punct st ")";
      Exists s
  | Lexer.Keyword "CASE" -> parse_case st
  | Lexer.Keyword "SELECT" ->
      st.pos <- st.pos - 1;
      Subselect (parse_select st)
  | Lexer.Keyword "IF" when is_punct "(" (peek st) ->
      (* IF(cond, a, b) function form *)
      advance st;
      let args = parse_expr_list st in
      expect_punct st ")";
      Fun_call ("IF", args)
  | Lexer.Keyword "REPLACE" when is_punct "(" (peek st) ->
      advance st;
      let args = parse_expr_list st in
      expect_punct st ")";
      Fun_call ("REPLACE", args)
  | Lexer.Punct "(" ->
      let e =
        match peek st with
        | Lexer.Keyword "SELECT" -> Subselect (parse_select st)
        | _ -> parse_or st
      in
      expect_punct st ")";
      e
  | Lexer.Op "*" -> Col (None, "*") (* the COUNT( * ) argument *)
  | Lexer.Ident name -> parse_name st name
  | t ->
      st.pos <- st.pos - 1;
      fail st ("unexpected " ^ Lexer.show_token t)

and parse_name st name =
  match peek st with
  | Lexer.Punct "(" ->
      advance st;
      let uname = String.uppercase_ascii name in
      let distinct =
        (match uname with
        | "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" -> true
        | _ -> false)
        && accept_kw st "DISTINCT"
      in
      let args = if is_punct ")" (peek st) then [] else parse_expr_list st in
      expect_punct st ")";
      Fun_call ((if distinct then uname ^ ".D" else uname), args)
  | Lexer.Punct "." ->
      advance st;
      let field =
        match next st with
        | Lexer.Ident f -> f
        | Lexer.Op "*" -> "*"
        | Lexer.Keyword f -> f
        | _ ->
            st.pos <- st.pos - 1;
            fail st "expected column name after '.'"
      in
      Col (Some name, field)
  | _ -> if in_scope st name then Var name else Col (None, name)

and parse_case st =
  (* CASE WHEN c THEN e [WHEN ...] [ELSE e] END -> nested IF() calls *)
  let rec branches () =
    if accept_kw st "WHEN" then begin
      let c = parse_or st in
      expect_kw st "THEN";
      let e = parse_or st in
      let rest = branches () in
      Fun_call ("IF", [ c; e; rest ])
    end
    else if accept_kw st "ELSE" then begin
      let e = parse_or st in
      expect_kw st "END";
      e
    end
    else begin
      expect_kw st "END";
      Lit Value.Null
    end
  in
  branches ()

and parse_expr_list st =
  let e = parse_or st in
  if accept_punct st "," then e :: parse_expr_list st else [ e ]

(* ------------------------------------------------------------------ *)
(* SELECT                                                               *)
(* ------------------------------------------------------------------ *)

and parse_select_item st =
  match peek st with
  | Lexer.Op "*" ->
      advance st;
      Star
  | _ ->
      let e = parse_or st in
      if accept_kw st "AS" then Item (e, Some (ident st))
      else
        (* bare alias: SELECT a b FROM ... — not supported; keep simple *)
        Item (e, None)

and parse_select st = fst (parse_select_into st ~into:false)

(* SELECT [DISTINCT] items [INTO vars] clauses...; the INTO list is only
   recognised inside procedure bodies ([~into:true]). *)
and parse_select_into st ~into =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let items = ref [ parse_select_item st ] in
  while accept_punct st "," do
    items := parse_select_item st :: !items
  done;
  let items = List.rev !items in
  let vars =
    if into && accept_kw st "INTO" then begin
      let vars = ref [ ident st ] in
      while accept_punct st "," do
        vars := ident st :: !vars
      done;
      Some (List.rev !vars)
    end
    else None
  in
  let from =
    if accept_kw st "FROM" then begin
      let t = ident st in
      let alias =
        if accept_kw st "AS" then Some (ident st)
        else
          match peek st with
          | Lexer.Ident a when not (is_clause_start st) ->
              advance st;
              Some a
          | _ -> None
      in
      Some (t, alias)
    end
    else None
  in
  let joins = ref [] in
  while accept_kw st "JOIN" do
    let t = ident st in
    let alias =
      if accept_kw st "AS" then Some (ident st)
      else
        match peek st with
        (* the procedure-body form also takes an empty `` name *)
        | Lexer.Ident a when (into || a <> "") && is_kw "ON" (peek2 st) ->
            advance st;
            Some a
        | _ -> None
    in
    expect_kw st "ON";
    let on = parse_or st in
    joins := { join_table = t; join_alias = alias; join_on = on } :: !joins
  done;
  let where = if accept_kw st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      parse_expr_list st
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_or st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let one () =
        let e = parse_or st in
        let dir =
          if accept_kw st "DESC" then Desc
          else begin
            ignore (accept_kw st "ASC");
            Asc
          end
        in
        (e, dir)
      in
      let items = ref [ one () ] in
      while accept_punct st "," do
        items := one () :: !items
      done;
      List.rev !items
    end
    else []
  in
  let limit, offset =
    if accept_kw st "LIMIT" then
      let int_lit what =
        match next st with
        | Lexer.Int_lit i -> i
        | _ ->
            st.pos <- st.pos - 1;
            fail st ("expected integer after " ^ what)
      in
      let first = int_lit "LIMIT" in
      if accept_kw st "OFFSET" then (Some first, Some (int_lit "OFFSET"))
      else if accept_punct st "," then
        (* MySQL LIMIT offset, count *)
        (Some (int_lit "LIMIT"), Some first)
      else (Some first, None)
    else (None, None)
  in
  ( {
      sel_distinct = distinct;
      sel_items = items;
      sel_from = from;
      sel_joins = List.rev !joins;
      sel_where = where;
      sel_group_by = group_by;
      sel_having = having;
      sel_order_by = order_by;
      sel_limit = limit;
      sel_offset = offset;
    },
    vars )

and is_clause_start st =
  match peek st with
  | Lexer.Keyword
      ( "FROM" | "WHERE" | "JOIN" | "GROUP" | "HAVING" | "ORDER" | "LIMIT" | "ON" | "AS"
      | "AND" | "OR" | "INTO" | "SET" | "VALUES" | "THEN" | "DO" ) ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Column definitions                                                   *)
(* ------------------------------------------------------------------ *)

let parse_column_def st =
  let name = strict_ident st in
  let ty = parse_type st in
  let primary_key = ref false in
  let auto_increment = ref false in
  let not_null = ref false in
  let unique = ref false in
  let references = ref None in
  let continue = ref true in
  while !continue do
    if accept_kw st "NOT" then begin
      expect_kw st "NULL";
      not_null := true
    end
    else if accept_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      primary_key := true
    end
    else if accept_kw st "AUTO_INCREMENT" then auto_increment := true
    else if accept_kw st "UNIQUE" then unique := true
    else if accept_kw st "DEFAULT" then ignore (parse_or st)
    else if accept_kw st "REFERENCES" then begin
      let t = ident st in
      expect_punct st "(";
      let c = ident st in
      expect_punct st ")";
      references := Some (t, c)
    end
    else continue := false
  done;
  {
    Schema.col_name = name;
    col_ty = ty;
    primary_key = !primary_key;
    auto_increment = !auto_increment;
    not_null = !not_null;
    unique = !unique;
    references = !references;
  }

(* A table-level constraint consumed inside CREATE TABLE's column list.
   Returns a patch to apply to already-parsed columns. *)
type table_constraint =
  | Tc_primary of string list
  | Tc_foreign of string * (string * string)

let rec parse_table_constraint st =
  if accept_kw st "PRIMARY" then begin
    expect_kw st "KEY";
    expect_punct st "(";
    let cols = ref [ ident st ] in
    while accept_punct st "," do
      cols := ident st :: !cols
    done;
    expect_punct st ")";
    Some (Tc_primary (List.rev !cols))
  end
  else if accept_kw st "FOREIGN" then begin
    expect_kw st "KEY";
    expect_punct st "(";
    let c = ident st in
    expect_punct st ")";
    expect_kw st "REFERENCES";
    let t = ident st in
    expect_punct st "(";
    let fc = ident st in
    expect_punct st ")";
    Some (Tc_foreign (c, (t, fc)))
  end
  else if accept_kw st "CONSTRAINT" then begin
    let _name = ident st in
    parse_table_constraint st
  end
  else None

(* ------------------------------------------------------------------ *)
(* Procedure bodies                                                     *)
(* ------------------------------------------------------------------ *)

let rec parse_pstmts st ~until =
  let body = ref [] in
  let stop () =
    match peek st with
    | Lexer.Keyword k -> List.exists (String.equal k) until
    | Lexer.Eof -> true
    | _ -> false
  in
  while not (stop ()) do
    let p = parse_pstmt st in
    ignore (accept_punct st ";");
    body := p :: !body
  done;
  List.rev !body

and parse_pstmt st =
  match peek st with
  | Lexer.Keyword "DECLARE" ->
      advance st;
      let v = strict_ident st in
      let ty = parse_type st in
      let init = if accept_kw st "DEFAULT" then Some (parse_or st) else None in
      st.scope <- v :: st.scope;
      P_declare (v, ty, init)
  | Lexer.Keyword "SET" ->
      advance st;
      let v =
        match next st with
        | Lexer.Ident v -> v
        | Lexer.At_var v -> v
        | _ ->
            st.pos <- st.pos - 1;
            fail st "expected variable name after SET"
      in
      expect_op st "=";
      P_set (v, parse_or st)
  | Lexer.Keyword "SELECT" ->
      (match parse_select_into st ~into:true with
      | sel, Some vars -> P_select_into (sel, vars)
      | sel, None -> P_stmt (Select sel))
  | Lexer.Keyword "IF" ->
      (* In statement position a leading IF is always control flow; the
         IF(c, a, b) function form only occurs inside expressions. *)
      advance st;
      let rec branches acc =
        let cond = parse_or st in
        expect_kw st "THEN";
        let body = parse_pstmts st ~until:[ "ELSEIF"; "ELSE"; "END" ] in
        let acc = (cond, body) :: acc in
        if accept_kw st "ELSEIF" then branches acc
        else if accept_kw st "ELSE" then begin
          let else_body = parse_pstmts st ~until:[ "END" ] in
          expect_kw st "END";
          expect_kw st "IF";
          P_if (List.rev acc, else_body)
        end
        else begin
          expect_kw st "END";
          expect_kw st "IF";
          P_if (List.rev acc, [])
        end
      in
      branches []
  | Lexer.Keyword "WHILE" ->
      advance st;
      let cond = parse_or st in
      expect_kw st "DO";
      let body = parse_pstmts st ~until:[ "END" ] in
      expect_kw st "END";
      expect_kw st "WHILE";
      P_while (cond, body)
  | Lexer.Keyword "LEAVE" ->
      advance st;
      P_leave (ident st)
  | Lexer.Keyword "SIGNAL" ->
      advance st;
      expect_kw st "SQLSTATE";
      (match next st with
      | Lexer.Str_lit s -> P_signal s
      | _ ->
          st.pos <- st.pos - 1;
          fail st "expected SQLSTATE string")
  | _ -> P_stmt (parse_stmt_inner st)

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

and parse_stmt_inner st =
  match peek st with
  | Lexer.Keyword "SELECT" -> Select (parse_select st)
  | Lexer.Keyword "INSERT" ->
      advance st;
      expect_kw st "INTO";
      let table = ident st in
      let columns =
        if is_punct "(" (peek st) then begin
          advance st;
          let cols = ref [ ident st ] in
          while accept_punct st "," do
            cols := ident st :: !cols
          done;
          expect_punct st ")";
          Some (List.rev !cols)
        end
        else None
      in
      if is_kw "SELECT" (peek st) then
        Insert_select { table; columns; query = parse_select st }
      else begin
        expect_kw st "VALUES";
        let row () =
          expect_punct st "(";
          let vs = parse_expr_list st in
          expect_punct st ")";
          vs
        in
        let rows = ref [ row () ] in
        while accept_punct st "," do
          rows := row () :: !rows
        done;
        Insert { table; columns; values = List.rev !rows }
      end
  | Lexer.Keyword "UPDATE" ->
      advance st;
      let table = ident st in
      expect_kw st "SET";
      let one () =
        let c =
          (* column name possibly matching a keyword like KEY *)
          ident st
        in
        expect_op st "=";
        (c, parse_or st)
      in
      let assigns = ref [ one () ] in
      while accept_punct st "," do
        assigns := one () :: !assigns
      done;
      let where = if accept_kw st "WHERE" then Some (parse_or st) else None in
      Update { table; assigns = List.rev !assigns; where }
  | Lexer.Keyword "DELETE" ->
      advance st;
      expect_kw st "FROM";
      let table = ident st in
      let where = if accept_kw st "WHERE" then Some (parse_or st) else None in
      Delete { table; where }
  | Lexer.Keyword "CALL" ->
      advance st;
      let name = ident st in
      let args =
        if accept_punct st "(" then begin
          let a = if is_punct ")" (peek st) then [] else parse_expr_list st in
          expect_punct st ")";
          a
        end
        else []
      in
      Call (name, args)
  | Lexer.Keyword "CREATE" ->
      advance st;
      parse_create st
  | Lexer.Keyword "DROP" ->
      advance st;
      parse_drop st
  | Lexer.Keyword "TRUNCATE" ->
      advance st;
      ignore (accept_kw st "TABLE");
      Truncate_table (ident st)
  | Lexer.Keyword "ALTER" ->
      advance st;
      expect_kw st "TABLE";
      let name = ident st in
      if accept_kw st "ADD" then begin
        ignore (accept_kw st "COLUMN");
        Alter_table (name, Add_column (parse_column_def st))
      end
      else if accept_kw st "DROP" then begin
        ignore (accept_kw st "COLUMN");
        Alter_table (name, Drop_column (ident st))
      end
      else if accept_kw st "RENAME" then begin
        expect_kw st "TO";
        Alter_table (name, Rename_table (ident st))
      end
      else if accept_kw st "AUTO_INCREMENT" then begin
        ignore (accept_op st "=" : bool);
        match next st with
        | Lexer.Int_lit v -> Alter_table (name, Set_auto_increment v)
        | tok -> fail st ("expected an integer, got " ^ Lexer.show_token tok)
      end
      else fail st "expected ADD, DROP, RENAME or AUTO_INCREMENT"
  | Lexer.Keyword "BEGIN" ->
      advance st;
      ignore (accept_kw st "TRANSACTION");
      ignore (accept_punct st ";");
      let stmts = ref [] in
      while not (accept_kw st "COMMIT") do
        if at_eof st then fail st "unterminated transaction";
        stmts := parse_stmt_inner st :: !stmts;
        ignore (accept_punct st ";")
      done;
      Transaction (List.rev !stmts)
  | t -> fail st ("unexpected " ^ Lexer.show_token t)

and parse_create st =
  if accept_kw st "TABLE" then begin
    let if_not_exists =
      if accept_kw st "IF" then begin
        expect_kw st "NOT";
        expect_kw st "EXISTS";
        true
      end
      else false
    in
    let name = ident st in
    expect_punct st "(";
    let columns = ref [] in
    let constraints = ref [] in
    let rec items () =
      (match parse_table_constraint st with
      | Some c -> constraints := c :: !constraints
      | None -> columns := parse_column_def st :: !columns);
      if accept_punct st "," then items ()
    in
    items ();
    expect_punct st ")";
    let columns =
      List.fold_left
        (fun cols c ->
          match c with
          | Tc_primary pk ->
              List.map
                (fun (col : Schema.column) ->
                  if List.exists (String.equal col.Schema.col_name) pk then
                    { col with Schema.primary_key = true }
                  else col)
                cols
          | Tc_foreign (local, target) ->
              List.map
                (fun (col : Schema.column) ->
                  if String.equal col.Schema.col_name local then
                    { col with Schema.references = Some target }
                  else col)
                cols)
        (List.rev !columns) !constraints
    in
    Create_table { name; columns; if_not_exists }
  end
  else if accept_kw st "OR" then begin
    expect_kw st "REPLACE";
    expect_kw st "VIEW";
    let name = ident st in
    expect_kw st "AS";
    Create_view { name; query = parse_select st; or_replace = true }
  end
  else if accept_kw st "VIEW" then begin
    let name = ident st in
    expect_kw st "AS";
    Create_view { name; query = parse_select st; or_replace = false }
  end
  else if accept_kw st "INDEX" then begin
    let name = ident st in
    expect_kw st "ON";
    let table = ident st in
    expect_punct st "(";
    let cols = ref [ ident st ] in
    while accept_punct st "," do
      cols := ident st :: !cols
    done;
    expect_punct st ")";
    Create_index { name; table; columns = List.rev !cols }
  end
  else if accept_kw st "PROCEDURE" then begin
    let name = ident st in
    expect_punct st "(";
    let params = ref [] in
    if not (is_punct ")" (peek st)) then begin
      let one () =
        ignore (accept_kw st "IN" || accept_kw st "OUT" || accept_kw st "INOUT");
        let p = strict_ident st in
        let ty = parse_type st in
        (p, ty)
      in
      params := [ one () ];
      while accept_punct st "," do
        params := one () :: !params
      done
    end;
    expect_punct st ")";
    let params = List.rev !params in
    let saved_scope = st.scope in
    st.scope <- List.map fst params @ st.scope;
    let label =
      match (peek st, peek2 st) with
      | Lexer.Ident l, Lexer.Punct ":" ->
          advance st;
          advance st;
          Some l
      | _ -> None
    in
    expect_kw st "BEGIN";
    let body = parse_pstmts st ~until:[ "END" ] in
    expect_kw st "END";
    st.scope <- saved_scope;
    Create_procedure { name; params; label; body }
  end
  else if accept_kw st "TRIGGER" then begin
    let name = ident st in
    let timing =
      if accept_kw st "BEFORE" then Before
      else begin
        expect_kw st "AFTER";
        After
      end
    in
    let event =
      if accept_kw st "INSERT" then Ev_insert
      else if accept_kw st "UPDATE" then Ev_update
      else begin
        expect_kw st "DELETE";
        Ev_delete
      end
    in
    expect_kw st "ON";
    let table = ident st in
    expect_kw st "FOR";
    expect_kw st "EACH";
    expect_kw st "ROW";
    expect_kw st "BEGIN";
    let body = parse_pstmts st ~until:[ "END" ] in
    expect_kw st "END";
    Create_trigger { name; timing; event; table; body }
  end
  else fail st "expected TABLE, VIEW, INDEX, PROCEDURE or TRIGGER"

and parse_drop st =
  if accept_kw st "TABLE" then begin
    let if_exists =
      if accept_kw st "IF" then begin
        expect_kw st "EXISTS";
        true
      end
      else false
    in
    Drop_table { name = ident st; if_exists }
  end
  else if accept_kw st "VIEW" then Drop_view (ident st)
  else if accept_kw st "INDEX" then begin
    let name = ident st in
    expect_kw st "ON";
    Drop_index { name; table = ident st }
  end
  else if accept_kw st "PROCEDURE" then Drop_procedure (ident st)
  else if accept_kw st "TRIGGER" then Drop_trigger (ident st)
  else fail st "expected TABLE, VIEW, INDEX, PROCEDURE or TRIGGER"

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let make_state ?(recording = false) src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Lex_error (msg, pos) ->
      raise (Parse_error (Printf.sprintf "lex error at %d: %s" pos msg))
  in
  { toks; pos = 0; scope = []; recording; fed = [] }

let parse_one st =
  let s = parse_stmt_inner st in
  ignore (accept_punct st ";");
  if not (at_eof st) then fail st "trailing tokens after statement";
  s

let parse_stmt src = parse_one (make_state src)

type hole = { literal : int; node : expr; negated : bool }

let parse_template src =
  let st = make_state ~recording:true src in
  let s = parse_one st in
  (* a token's index among the literal tokens *)
  let ordinal = Array.make (Array.length st.toks) (-1) in
  let k = ref 0 in
  Array.iteri
    (fun i -> function
      | Lexer.Int_lit _ | Lexer.Float_lit _ | Lexer.Str_lit _ ->
          ordinal.(i) <- !k;
          incr k
      | _ -> ())
    st.toks;
  (s, List.rev_map (fun (tok, node, negated) -> { literal = ordinal.(tok); node; negated }) st.fed)

let parse_script src =
  let st = make_state src in
  let stmts = ref [] in
  while not (at_eof st) do
    stmts := parse_stmt_inner st :: !stmts;
    ignore (accept_punct st ";")
  done;
  List.rev !stmts

let parse_expr src =
  let st = make_state src in
  let e = parse_or st in
  if not (at_eof st) then fail st "trailing tokens after expression";
  e
