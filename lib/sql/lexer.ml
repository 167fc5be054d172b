type token =
  | Ident of string
  | Keyword of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | At_var of string
  | Punct of string
  | Op of string
  | Eof

exception Lex_error of string * int

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
    "DELETE"; "CREATE"; "DROP"; "ALTER"; "TABLE"; "VIEW"; "INDEX"; "PROCEDURE";
    "TRIGGER"; "CALL"; "BEGIN"; "END"; "TRANSACTION"; "COMMIT"; "ROLLBACK";
    "IF"; "THEN"; "ELSE"; "ELSEIF"; "WHILE"; "DO"; "DECLARE"; "DEFAULT";
    "LEAVE"; "SIGNAL"; "SQLSTATE"; "AND"; "OR"; "NOT"; "NULL"; "TRUE"; "FALSE";
    "AS"; "ON"; "JOIN"; "GROUP"; "ORDER"; "BY"; "ASC"; "DESC"; "LIMIT"; "OFFSET"; "HAVING";
    "IN"; "EXISTS"; "BETWEEN"; "IS"; "LIKE"; "PRIMARY"; "KEY"; "AUTO_INCREMENT";
    "REFERENCES"; "FOREIGN"; "CONSTRAINT"; "UNIQUE"; "ADD"; "COLUMN"; "RENAME";
    "TO"; "TRUNCATE"; "REPLACE"; "BEFORE"; "AFTER"; "FOR"; "EACH"; "ROW";
    "WHEN"; "CASE"; "DISTINCT"; "INT"; "INTEGER"; "BIGINT"; "SMALLINT";
    "TINYINT"; "DOUBLE"; "FLOAT"; "DECIMAL"; "REAL"; "NUMERIC"; "VARCHAR";
    "TEXT"; "CHAR"; "DATETIME"; "TIMESTAMP"; "DATE"; "BOOLEAN"; "BOOL";
    "OUT"; "INOUT";
  ]
  |> List.sort_uniq compare

(* Keyword lookup straight from the source bytes: an open-addressed table
   of prebuilt [Keyword] tokens, built once from [keywords] and probed by
   a case-folding hash, so classifying a word allocates nothing. *)
let slots = 256 (* a power of two, over twice [List.length keywords] *)

let fold_hash s off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 31) + Char.code (Char.uppercase_ascii (String.unsafe_get s i))
  done;
  !h land (slots - 1)

let keyword_table =
  assert (2 * List.length keywords < slots);
  let tbl = Array.make slots Eof in
  List.iter
    (fun k ->
      let rec place i =
        match tbl.(i) with
        | Eof -> tbl.(i) <- Keyword k
        | _ -> place ((i + 1) land (slots - 1))
      in
      place (fold_hash k 0 (String.length k)))
    keywords;
  tbl

(* [k] is the uppercased spelling of the [len] bytes of [s] at [off] *)
let rec spells k s off len i =
  i = len
  || (Char.uppercase_ascii (String.unsafe_get s (off + i)) = String.unsafe_get k i
     && spells k s off len (i + 1))

let rec probe s off len i =
  match Array.unsafe_get keyword_table i with
  | Keyword k as t when String.length k = len && spells k s off len 0 -> t
  | Eof -> Eof
  | _ -> probe s off len ((i + 1) land (slots - 1))

(* the [Keyword] token for the word at [off, off + len) of [s], or [Eof] *)
let keyword_at s off len = probe s off len (fold_hash s off len)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* Single-character tokens are shared constants, so emitting one does not
   allocate. *)
let punct_of = function
  | '(' -> Punct "("
  | ')' -> Punct ")"
  | ',' -> Punct ","
  | ';' -> Punct ";"
  | '.' -> Punct "."
  | _ -> Punct ":"

let op_of = function
  | '=' -> Op "="
  | '<' -> Op "<"
  | '>' -> Op ">"
  | '+' -> Op "+"
  | '-' -> Op "-"
  | '*' -> Op "*"
  | '/' -> Op "/"
  | _ -> Op "%"

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  (* the byte [k] past the cursor, or NUL past the end (never a byte any
     caller compares against) *)
  let at k = if !pos + k < n then String.unsafe_get src (!pos + k) else '\000' in
  let toks = ref (Array.make 32 Eof) in
  let count = ref 0 in
  let emit t =
    if !count = Array.length !toks then begin
      let bigger = Array.make (2 * !count) Eof in
      Array.blit !toks 0 bigger 0 !count;
      toks := bigger
    end;
    Array.unsafe_set !toks !count t;
    incr count
  in
  let rec skip_ws () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | '-' when at 1 = '-' ->
          while !pos < n && src.[!pos] <> '\n' do incr pos done;
          skip_ws ()
      | '/' when at 1 = '*' ->
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
  let read_string_escaped () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Lex_error ("unterminated string", !pos));
      match src.[!pos] with
      | '\'' when at 1 = '\'' ->
          Buffer.add_char buf '\'';
          pos := !pos + 2;
          go ()
      | '\'' -> incr pos
      | '\\' when !pos + 1 < n ->
          (match src.[!pos + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
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
  let read_string () =
    (* opening quote consumed by caller; a literal with no escape before
       its closing quote is one substring *)
    let start = !pos in
    let rec plain i =
      if i >= n then read_string_escaped ()
      else
        match src.[i] with
        | '\'' when i + 1 < n && src.[i + 1] = '\'' -> read_string_escaped ()
        | '\'' ->
            pos := i + 1;
            String.sub src start (i - start)
        | '\\' -> read_string_escaped ()
        | _ -> plain (i + 1)
    in
    plain start
  in
  let read_number () =
    let start = !pos in
    while !pos < n && is_digit src.[!pos] do incr pos done;
    if !pos < n && src.[!pos] = '.' && is_digit (at 1) then begin
      incr pos;
      while !pos < n && is_digit src.[!pos] do incr pos done;
      Float_lit (float_of_string (String.sub src start (!pos - start)))
    end
    else Int_lit (int_of_string (String.sub src start (!pos - start)))
  in
  let read_ident () =
    let start = !pos in
    while !pos < n && is_ident_char src.[!pos] do incr pos done;
    match keyword_at src start (!pos - start) with
    | Eof -> Ident (String.sub src start (!pos - start))
    | kw -> kw
  in
  let finished = ref false in
  while not !finished do
    skip_ws ();
    if !pos >= n then begin
      emit Eof;
      finished := true
    end
    else
      match src.[!pos] with
      | '\'' ->
          incr pos;
          emit (Str_lit (read_string ()))
      | '`' ->
          (* backquoted identifier, never a keyword *)
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
      | ('(' | ')' | ',' | ';' | '.' | ':') as c ->
          emit (punct_of c);
          incr pos
      | '<' when at 1 = '>' ->
          emit (Op "<>");
          pos := !pos + 2
      | '<' when at 1 = '=' ->
          emit (Op "<=");
          pos := !pos + 2
      | '>' when at 1 = '=' ->
          emit (Op ">=");
          pos := !pos + 2
      | '!' when at 1 = '=' ->
          emit (Op "<>");
          pos := !pos + 2
      | ('=' | '<' | '>' | '+' | '-' | '*' | '/' | '%') as c ->
          emit (op_of c);
          incr pos
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !pos))
  done;
  Array.sub !toks 0 !count

let show_token = function
  | Ident s -> "identifier " ^ s
  | Keyword s -> "keyword " ^ s
  | Int_lit i -> "integer " ^ string_of_int i
  | Float_lit f -> "float " ^ string_of_float f
  | Str_lit s -> "string '" ^ s ^ "'"
  | At_var s -> "@" ^ s
  | Punct s -> "'" ^ s ^ "'"
  | Op s -> "operator " ^ s
  | Eof -> "end of input"
