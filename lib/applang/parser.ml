exception Parse_error of string

type token =
  | Tnum of float
  | Tstr of string
  | Ttemplate of tpart list
  | Tident of string
  | Tkw of string
  | Tpunct of string
  | Top of string
  | Teof

and tpart = Tp_text of string | Tp_hole of token list

let keywords =
  [ "function"; "var"; "let"; "const"; "if"; "else"; "while"; "for"; "return";
    "break"; "continue"; "true"; "false"; "null"; "undefined"; "typeof"; "new" ]

let is_keyword =
  let tbl = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) keywords;
  Hashtbl.mem tbl

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let rec tokenize_from src pos stop_at_brace =
  (* returns tokens and the position after; [stop_at_brace] is used for
     template holes, stopping at an unmatched '}' *)
  let n = String.length src in
  let pos = ref pos in
  let out = ref [] in
  let depth = ref 0 in
  let emit t = out := t :: !out in
  let err msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let finished = ref false in
  while not !finished do
    (* skip whitespace and comments *)
    let rec skip () =
      if !pos < n then
        match src.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
            incr pos;
            skip ()
        | '/' when peek 1 = Some '/' ->
            while !pos < n && src.[!pos] <> '\n' do incr pos done;
            skip ()
        | '/' when peek 1 = Some '*' ->
            pos := !pos + 2;
            let rec close () =
              if !pos + 1 >= n then err "unterminated comment"
              else if src.[!pos] = '*' && src.[!pos + 1] = '/' then pos := !pos + 2
              else begin incr pos; close () end
            in
            close ();
            skip ()
        | _ -> ()
    in
    skip ();
    if !pos >= n then begin
      emit Teof;
      finished := true
    end
    else begin
      let c = src.[!pos] in
      if stop_at_brace && c = '}' && !depth = 0 then finished := true
      else
        match c with
        | '\'' | '"' ->
            let quote = c in
            incr pos;
            let buf = Buffer.create 16 in
            let rec go () =
              if !pos >= n then err "unterminated string";
              let ch = src.[!pos] in
              if ch = quote then incr pos
              else if ch = '\\' && !pos + 1 < n then begin
                (match src.[!pos + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | x -> Buffer.add_char buf x);
                pos := !pos + 2;
                go ()
              end
              else begin
                Buffer.add_char buf ch;
                incr pos;
                go ()
              end
            in
            go ();
            emit (Tstr (Buffer.contents buf))
        | '`' ->
            incr pos;
            let parts = ref [] in
            let buf = Buffer.create 16 in
            let flush_text () =
              if Buffer.length buf > 0 then begin
                parts := Tp_text (Buffer.contents buf) :: !parts;
                Buffer.clear buf
              end
            in
            let rec go () =
              if !pos >= n then err "unterminated template literal";
              let ch = src.[!pos] in
              if ch = '`' then incr pos
              else if ch = '$' && peek 1 = Some '{' then begin
                flush_text ();
                pos := !pos + 2;
                let toks, p2 = tokenize_from src !pos true in
                pos := p2;
                if !pos >= n || src.[!pos] <> '}' then err "unterminated ${...}";
                incr pos;
                parts := Tp_hole toks :: !parts;
                go ()
              end
              else if ch = '\\' && !pos + 1 < n then begin
                (match src.[!pos + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | x -> Buffer.add_char buf x);
                pos := !pos + 2;
                go ()
              end
              else begin
                Buffer.add_char buf ch;
                incr pos;
                go ()
              end
            in
            go ();
            flush_text ();
            emit (Ttemplate (List.rev !parts))
        | c when is_digit c ->
            let start = !pos in
            while !pos < n && (is_digit src.[!pos] || src.[!pos] = '.') do incr pos done;
            emit (Tnum (float_of_string (String.sub src start (!pos - start))))
        | c when is_ident_start c ->
            let start = !pos in
            while !pos < n && is_ident_char src.[!pos] do incr pos done;
            let s = String.sub src start (!pos - start) in
            if is_keyword s then emit (Tkw s) else emit (Tident s)
        | '{' ->
            incr depth;
            emit (Tpunct "{");
            incr pos
        | '}' ->
            decr depth;
            emit (Tpunct "}");
            incr pos
        | '(' | ')' | '[' | ']' | ';' | ',' | '.' | ':' | '?' ->
            emit (Tpunct (String.make 1 c));
            incr pos
        | '=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' ->
            (* multi-char operators *)
            let three =
              if !pos + 2 < n then String.sub src !pos 3 else ""
            in
            let two = if !pos + 1 < n then String.sub src !pos 2 else "" in
            if three = "===" || three = "!==" then begin
              emit (Top three);
              pos := !pos + 3
            end
            else if
              match two with
              | "==" | "!=" | "<=" | ">=" | "&&" | "||" | "+=" | "-=" -> true
              | _ -> false
            then begin
              emit (Top two);
              pos := !pos + 2
            end
            else begin
              emit (Top (String.make 1 c));
              incr pos
            end
        | c -> err (Printf.sprintf "unexpected character %C" c)
    end
  done;
  (List.rev !out, !pos)

let tokenize src =
  let toks, _ = tokenize_from src 0 false in
  match List.rev toks with Teof :: _ -> toks | _ -> toks @ [ Teof ]

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

type state = { toks : token array; mutable pos : int }

let show_token = function
  | Tnum f -> Printf.sprintf "number %g" f
  | Tstr s -> Printf.sprintf "string %S" s
  | Ttemplate _ -> "template literal"
  | Tident s -> "identifier " ^ s
  | Tkw s -> "keyword " ^ s
  | Tpunct s -> "'" ^ s ^ "'"
  | Top s -> "operator " ^ s
  | Teof -> "end of input"

let fail st msg =
  let tok =
    if st.pos < Array.length st.toks then show_token st.toks.(st.pos) else "eof"
  in
  raise (Parse_error (Printf.sprintf "%s (at %s)" msg tok))

let peek st = st.toks.(min st.pos (Array.length st.toks - 1))
let advance st = st.pos <- st.pos + 1

let accept_punct st p =
  match peek st with
  | Tpunct q when String.equal p q ->
      advance st;
      true
  | _ -> false

let expect_punct st p = if not (accept_punct st p) then fail st ("expected '" ^ p ^ "'")

let accept_kw st k =
  match peek st with
  | Tkw q when String.equal k q ->
      advance st;
      true
  | _ -> false

let accept_op st o =
  match peek st with
  | Top q when String.equal o q ->
      advance st;
      true
  | _ -> false

let ident st =
  match peek st with
  | Tident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let rec parse_assign_expr st = parse_ternary st

and parse_ternary st =
  let c = parse_or st in
  if accept_punct st "?" then begin
    let a = parse_assign_expr st in
    expect_punct st ":";
    let b = parse_assign_expr st in
    Ast.Cond (c, a, b)
  end
  else c

and parse_or st =
  let lhs = parse_and st in
  if accept_op st "||" then Ast.Binop ("||", lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_equality st in
  if accept_op st "&&" then Ast.Binop ("&&", lhs, parse_and st) else lhs

and parse_equality st =
  let lhs = ref (parse_relational st) in
  let continue = ref true in
  while !continue do
    if accept_op st "==" then lhs := Ast.Binop ("==", !lhs, parse_relational st)
    else if accept_op st "!=" then lhs := Ast.Binop ("!=", !lhs, parse_relational st)
    else if accept_op st "===" then lhs := Ast.Binop ("===", !lhs, parse_relational st)
    else if accept_op st "!==" then lhs := Ast.Binop ("!==", !lhs, parse_relational st)
    else continue := false
  done;
  !lhs

and parse_relational st =
  let lhs = ref (parse_additive st) in
  let continue = ref true in
  while !continue do
    if accept_op st "<" then lhs := Ast.Binop ("<", !lhs, parse_additive st)
    else if accept_op st "<=" then lhs := Ast.Binop ("<=", !lhs, parse_additive st)
    else if accept_op st ">" then lhs := Ast.Binop (">", !lhs, parse_additive st)
    else if accept_op st ">=" then lhs := Ast.Binop (">=", !lhs, parse_additive st)
    else continue := false
  done;
  !lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    if accept_op st "+" then lhs := Ast.Binop ("+", !lhs, parse_multiplicative st)
    else if accept_op st "-" then lhs := Ast.Binop ("-", !lhs, parse_multiplicative st)
    else continue := false
  done;
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    if accept_op st "*" then lhs := Ast.Binop ("*", !lhs, parse_unary st)
    else if accept_op st "/" then lhs := Ast.Binop ("/", !lhs, parse_unary st)
    else if accept_op st "%" then lhs := Ast.Binop ("%", !lhs, parse_unary st)
    else continue := false
  done;
  !lhs

and parse_unary st =
  if accept_op st "!" then Ast.Unop ("!", parse_unary st)
  else if accept_op st "-" then Ast.Unop ("-", parse_unary st)
  else if accept_kw st "typeof" then Ast.Unop ("typeof", parse_unary st)
  else if accept_kw st "new" then parse_unary st (* `new Date()` ~ `Date()` *)
  else parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Tpunct "." ->
        advance st;
        let name =
          match peek st with
          | Tident s ->
              advance st;
              s
          | Tkw s ->
              advance st;
              s
          | _ -> fail st "expected property name"
        in
        e := Ast.Member (!e, name)
    | Tpunct "[" ->
        advance st;
        let idx = parse_assign_expr st in
        expect_punct st "]";
        e := Ast.Index (!e, idx)
    | Tpunct "(" ->
        advance st;
        let args = ref [] in
        if peek st <> Tpunct ")" then begin
          args := [ parse_assign_expr st ];
          while accept_punct st "," do
            args := parse_assign_expr st :: !args
          done
        end;
        expect_punct st ")";
        e := Ast.Call (!e, List.rev !args)
    | _ -> continue := false
  done;
  !e

and parse_primary st =
  match peek st with
  | Tnum f ->
      advance st;
      Ast.Num f
  | Tstr s ->
      advance st;
      Ast.Str s
  | Ttemplate parts ->
      advance st;
      let conv = function
        | Tp_text s -> Ast.Ptext s
        | Tp_hole toks ->
            let sub = { toks = Array.of_list (toks @ [ Teof ]); pos = 0 } in
            let e = parse_assign_expr sub in
            Ast.Phole e
      in
      Ast.Template (List.map conv parts)
  | Tkw "true" ->
      advance st;
      Ast.Bool true
  | Tkw "false" ->
      advance st;
      Ast.Bool false
  | Tkw "null" ->
      advance st;
      Ast.Null
  | Tkw "undefined" ->
      advance st;
      Ast.Undefined
  | Tkw "function" ->
      advance st;
      let _name = match peek st with
        | Tident s -> advance st; Some s
        | _ -> None
      in
      let params = parse_params st in
      let body = parse_block st in
      Ast.Fun_expr (params, body)
  | Tident s ->
      advance st;
      Ast.Ident s
  | Tpunct "(" ->
      advance st;
      let e = parse_assign_expr st in
      expect_punct st ")";
      e
  | Tpunct "{" ->
      advance st;
      let fields = ref [] in
      if peek st <> Tpunct "}" then begin
        let one () =
          let key =
            match peek st with
            | Tident s | Tstr s ->
                advance st;
                s
            | Tkw s ->
                advance st;
                s
            | _ -> fail st "expected object key"
          in
          expect_punct st ":";
          (key, parse_assign_expr st)
        in
        fields := [ one () ];
        while accept_punct st "," do
          if peek st <> Tpunct "}" then fields := one () :: !fields
        done
      end;
      expect_punct st "}";
      Ast.Object_lit (List.rev !fields)
  | Tpunct "[" ->
      advance st;
      let items = ref [] in
      if peek st <> Tpunct "]" then begin
        items := [ parse_assign_expr st ];
        while accept_punct st "," do
          items := parse_assign_expr st :: !items
        done
      end;
      expect_punct st "]";
      Ast.Array_lit (List.rev !items)
  | t -> fail st ("unexpected " ^ show_token t)

and parse_params st =
  expect_punct st "(";
  let params = ref [] in
  if peek st <> Tpunct ")" then begin
    params := [ ident st ];
    while accept_punct st "," do
      params := ident st :: !params
    done
  end;
  expect_punct st ")";
  List.rev !params

and parse_block st =
  expect_punct st "{";
  let stmts = ref [] in
  while peek st <> Tpunct "}" do
    stmts := parse_stmt st :: !stmts
  done;
  expect_punct st "}";
  List.rev !stmts

and as_lvalue st (e : Ast.expr) : Ast.lvalue =
  match e with
  | Ast.Ident s -> Ast.L_ident s
  | Ast.Member (o, f) -> Ast.L_member (o, f)
  | Ast.Index (o, i) -> Ast.L_index (o, i)
  | _ -> fail st "invalid assignment target"

and parse_stmt st : Ast.stmt =
  match peek st with
  | Tkw "function" ->
      advance st;
      let name = ident st in
      let params = parse_params st in
      let body = parse_block st in
      Ast.Fun_decl (name, params, body)
  | Tkw ("var" | "let" | "const") ->
      advance st;
      let name = ident st in
      let init = if accept_op st "=" then Some (parse_assign_expr st) else None in
      ignore (accept_punct st ";");
      Ast.Let (name, init)
  | Tkw "if" ->
      advance st;
      expect_punct st "(";
      let cond = parse_assign_expr st in
      expect_punct st ")";
      let then_branch =
        if peek st = Tpunct "{" then parse_block st else [ parse_stmt st ]
      in
      let else_branch =
        if accept_kw st "else" then
          if peek st = Tpunct "{" then parse_block st
          else [ parse_stmt st ]
        else []
      in
      Ast.If (cond, then_branch, else_branch)
  | Tkw "while" ->
      advance st;
      expect_punct st "(";
      let cond = parse_assign_expr st in
      expect_punct st ")";
      let body = if peek st = Tpunct "{" then parse_block st else [ parse_stmt st ] in
      Ast.While (cond, body)
  | Tkw "for" ->
      advance st;
      expect_punct st "(";
      let init =
        if peek st = Tpunct ";" then None else Some (parse_simple_stmt st)
      in
      expect_punct st ";";
      let cond = if peek st = Tpunct ";" then None else Some (parse_assign_expr st) in
      expect_punct st ";";
      let update =
        if peek st = Tpunct ")" then None else Some (parse_simple_stmt st)
      in
      expect_punct st ")";
      let body = if peek st = Tpunct "{" then parse_block st else [ parse_stmt st ] in
      Ast.For (init, cond, update, body)
  | Tkw "break" ->
      advance st;
      ignore (accept_punct st ";");
      Ast.Break
  | Tkw "continue" ->
      advance st;
      ignore (accept_punct st ";");
      Ast.Continue
  | Tkw "return" ->
      advance st;
      let v =
        match peek st with
        | Tpunct ";" | Tpunct "}" -> None
        | _ -> Some (parse_assign_expr st)
      in
      ignore (accept_punct st ";");
      Ast.Return v
  | _ ->
      let s = parse_simple_stmt st in
      ignore (accept_punct st ";");
      s

(* expression or assignment statement, without consuming ';' *)
and parse_simple_stmt st : Ast.stmt =
  match peek st with
  | Tkw ("var" | "let" | "const") ->
      advance st;
      let name = ident st in
      let init = if accept_op st "=" then Some (parse_assign_expr st) else None in
      Ast.Let (name, init)
  | _ ->
      let e = parse_assign_expr st in
      if accept_op st "=" then
        let rhs = parse_assign_expr st in
        Ast.Assign (as_lvalue st e, rhs)
      else if accept_op st "+=" then
        let rhs = parse_assign_expr st in
        Ast.Assign (as_lvalue st e, Ast.Binop ("+", e, rhs))
      else if accept_op st "-=" then
        let rhs = parse_assign_expr st in
        Ast.Assign (as_lvalue st e, Ast.Binop ("-", e, rhs))
      else Ast.Expr_stmt e

let parse_program src =
  let st = { toks = Array.of_list (tokenize src); pos = 0 } in
  let stmts = ref [] in
  while peek st <> Teof do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

let parse_expr src =
  let st = { toks = Array.of_list (tokenize src); pos = 0 } in
  let e = parse_assign_expr st in
  if peek st <> Teof then fail st "trailing tokens";
  e
