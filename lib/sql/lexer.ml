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

(* character classes: bit 0 identifier start, bit 1 identifier char *)
let classes =
  String.init 256 (fun k ->
      let c = Char.chr k in
      let start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
      let digit = c >= '0' && c <= '9' in
      Char.chr ((if start then 1 else 0) lor if start || digit then 2 else 0))

let is_ident_start c = Char.code (String.unsafe_get classes (Char.code c)) land 1 <> 0

let is_ident_char c = Char.code (String.unsafe_get classes (Char.code c)) land 2 <> 0

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

(* ---- literal rules, shared by [tokenize] and [scan] ---- *)

let rec digits_stop src n i =
  if i < n && is_digit (String.unsafe_get src i) then digits_stop src n (i + 1) else i

let rec ident_stop src n i =
  if i < n && is_ident_char (String.unsafe_get src i) then ident_stop src n (i + 1)
  else i

(* The end of the number whose first digit is at [i]: its digits, then a
   fraction when a '.' is followed by a digit, then an exponent when an
   'e' or 'E' is followed by at least one digit, after an optional sign.
   A bare [2e] ends at the [2]. *)
let number_stop src n i =
  let j = digits_stop src n i in
  let j =
    if j + 1 < n && String.unsafe_get src j = '.' && is_digit (String.unsafe_get src (j + 1))
    then digits_stop src n (j + 2)
    else j
  in
  if j < n && (String.unsafe_get src j = 'e' || String.unsafe_get src j = 'E') then
    let k =
      if j + 1 < n && (String.unsafe_get src (j + 1) = '+' || String.unsafe_get src (j + 1) = '-')
      then j + 2
      else j + 1
    in
    if k < n && is_digit (String.unsafe_get src k) then digits_stop src n (k + 1) else j
  else j

(* a number is a float exactly when its integer digits stop short of its end *)
let is_float src start stop = digits_stop src stop start < stop

(* [int_of_string] on a run of decimal digits, without the copy: the same
   value, and the same [Failure] above [max_int]. *)
let int_of_digits src start stop =
  let rec go i acc =
    if i = stop then acc
    else
      let d = Char.code (String.unsafe_get src i) - 48 in
      if acc > (max_int - d) / 10 then failwith "int_of_string" else go (i + 1) ((acc * 10) + d)
  in
  go start 0

let number_token src start stop =
  if is_float src start stop then Float_lit (float_of_string (String.sub src start (stop - start)))
  else Int_lit (int_of_digits src start stop)

(* The end of the string literal whose body starts at [i] (just past the
   opening quote): one past its closing quote, or [-1] when it is
   unterminated. A doubled quote and a backslash with the byte after it
   stay inside the body. *)
let rec string_stop src n i =
  if i >= n then -1
  else
    match String.unsafe_get src i with
    | '\'' when i + 1 < n && String.unsafe_get src (i + 1) = '\'' -> string_stop src n (i + 2)
    | '\'' -> i + 1
    | '\\' when i + 1 < n -> string_stop src n (i + 2)
    | _ -> string_stop src n (i + 1)

(* The value of the string body [start, stop) that [string_stop] bounded:
   a doubled quote is one quote, [\n] and [\t] are newline and tab, and a
   backslash keeps any other byte as it is. A body with no escape is one
   substring. *)
let string_body src start stop =
  let rec plain i =
    i >= stop
    || match String.unsafe_get src i with '\'' | '\\' -> false | _ -> plain (i + 1)
  in
  if plain start then String.sub src start (stop - start)
  else begin
    let buf = Buffer.create (stop - start) in
    let i = ref start in
    while !i < stop do
      match String.unsafe_get src !i with
      | '\'' ->
          Buffer.add_char buf '\'';
          i := !i + 2
      | '\\' ->
          (match String.unsafe_get src (!i + 1) with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          i := !i + 2
      | c ->
          Buffer.add_char buf c;
          incr i
    done;
    Buffer.contents buf
  end

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
  let read_ident () =
    let start = !pos in
    pos := ident_stop src n start;
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
          let stop = string_stop src n (!pos + 1) in
          if stop < 0 then raise (Lex_error ("unterminated string", n));
          emit (Str_lit (string_body src (!pos + 1) (stop - 1)));
          pos := stop
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
          pos := ident_stop src n start;
          if !pos = start then raise (Lex_error ("bare '@'", !pos));
          emit (At_var (String.sub src start (!pos - start)))
      | c when is_digit c ->
          let start = !pos in
          pos := number_stop src n start;
          emit (number_token src start !pos)
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

(* ---- literal scan: the shape of a statement from its bytes ---- *)

type literal = Lit_int | Lit_float | Lit_str

let kind_code = function Lit_int -> 0 | Lit_float -> 1 | Lit_str -> 2
let kind_of_code = function 0 -> Lit_int | 1 -> Lit_float | _ -> Lit_str

type scan = {
  mutable count : int;
  mutable spans : int array;  (* literal [k]: start, stop, kind code at [3k] *)
  mutable key : int;
  mutable hash : int;  (* while scanning: the hash of the bytes up to [gap] *)
  mutable gap : int;  (* while scanning: where the bytes after the last literal start *)
  mutable first : int;  (* the scanned span: [first, last) *)
  mutable last : int;
}

let scanner () =
  { count = 0; spans = Array.make 48 0; key = 0; hash = 0; gap = 0; first = 0; last = 0 }

let snapshot sc =
  let spans = Array.sub sc.spans 0 (3 * sc.count) in
  for k = 0 to sc.count - 1 do
    spans.(3 * k) <- spans.(3 * k) - sc.first;
    spans.((3 * k) + 1) <- spans.((3 * k) + 1) - sc.first
  done;
  { sc with spans; first = 0; last = sc.last - sc.first; gap = sc.gap - sc.first }

let literals sc = sc.count

let check sc k = if k < 0 || k >= sc.count then invalid_arg "Lexer: no such literal"

let literal_start sc k = check sc k; sc.spans.(3 * k)
let literal_stop sc k = check sc k; sc.spans.((3 * k) + 1)
let literal_kind sc k = check sc k; kind_of_code sc.spans.((3 * k) + 2)
let key sc = sc.key
let span_start sc = sc.first
let span_length sc = sc.last - sc.first

let literal_token sc src k =
  let start = literal_start sc k and stop = literal_stop sc k in
  match literal_kind sc k with
  | Lit_str -> Str_lit (string_body src (start + 1) (stop - 1))
  | Lit_int | Lit_float -> number_token src start stop

(* Digits that always convert: an integer literal fails to only when it
   is longer. *)
let safe_digits = String.length (string_of_int max_int) - 1

(* [int_of_digits] would not fail on the digits [i, stop), read so far
   into [acc]. *)
let rec digits_fit src i stop acc =
  i = stop
  ||
  let d = Char.code (String.unsafe_get src i) - 48 in
  acc <= (max_int - d) / 10 && digits_fit src (i + 1) stop ((acc * 10) + d)

let literal_converts sc src k =
  let start = literal_start sc k and stop = literal_stop sc k in
  literal_kind sc k <> Lit_int || stop - start <= safe_digits || digits_fit src start stop 0

(* Eight bytes at a time, then byte by byte. Equal byte runs hash
   equal; the key is never stored, so the host's byte order may show. *)
let rec hash_bytes h src i j =
  if i + 8 <= j then
    hash_bytes ((h * 1_000_003) lxor Int64.to_int (String.get_int64_ne src i)) src (i + 8) j
  else if i < j then hash_bytes ((h * 31) + Char.code (String.unsafe_get src i)) src (i + 1) j
  else h

let add_literal sc src start stop code =
  sc.hash <- (hash_bytes sc.hash src sc.gap start * 31) + 256 + code;
  sc.gap <- stop;
  if 3 * (sc.count + 1) > Array.length sc.spans then begin
    let bigger = Array.make (2 * Array.length sc.spans) 0 in
    Array.blit sc.spans 0 bigger 0 (3 * sc.count);
    sc.spans <- bigger
  end;
  let at = 3 * sc.count in
  sc.spans.(at) <- start;
  sc.spans.(at + 1) <- stop;
  sc.spans.(at + 2) <- code;
  sc.count <- sc.count + 1

let next_is src n i c = i + 1 < n && String.unsafe_get src (i + 1) = c

let rec backquote_stop src n i =
  if i >= n then -1 else if String.unsafe_get src i = '`' then i else backquote_stop src n (i + 1)

(* Each case steps over one token from [i] as [tokenize] would; [false]
   where [tokenize] would skip a comment or raise. Top-level and
   tail-recursive, with its state in [sc], so a scan allocates nothing
   (but a longer span array, once). *)
let rec scan_from sc src n i =
  if i >= n then true
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\n' | '\r' -> scan_from sc src n (i + 1)
    | '-' when next_is src n i '-' -> false
    | '/' when next_is src n i '*' -> false
    | '\'' ->
        let stop = string_stop src n (i + 1) in
        stop >= 0
        && begin
             add_literal sc src i stop (kind_code Lit_str);
             scan_from sc src n stop
           end
    | '`' ->
        let j = backquote_stop src n (i + 1) in
        j >= 0 && scan_from sc src n (j + 1)
    | '@' ->
        let j = ident_stop src n (i + 1) in
        j > i + 1 && scan_from sc src n j
    | c when is_digit c ->
        let stop = number_stop src n i in
        add_literal sc src i stop (kind_code (if is_float src i stop then Lit_float else Lit_int));
        scan_from sc src n stop
    | c when is_ident_start c -> scan_from sc src n (ident_stop src n (i + 1))
    | '(' | ')' | ',' | ';' | '.' | ':' | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '%' ->
        scan_from sc src n (i + 1)
    | '!' when next_is src n i '=' -> scan_from sc src n (i + 2)
    | _ -> false

let scan sc src off len =
  if off < 0 || len < 0 || off > String.length src - len then invalid_arg "Lexer.scan";
  let stop = off + len in
  sc.count <- 0;
  sc.hash <- 0;
  sc.gap <- off;
  sc.first <- off;
  sc.last <- stop;
  scan_from sc src stop off
  && begin
       sc.key <- hash_bytes sc.hash src sc.gap stop land max_int;
       true
     end

(* Eight bytes at a time, then byte by byte. *)
let rec bytes_equal a ai b bi len =
  if len >= 8 then
    String.get_int64_ne a ai = String.get_int64_ne b bi
    && bytes_equal a (ai + 8) b (bi + 8) (len - 8)
  else
    len = 0
    || String.unsafe_get a ai = String.unsafe_get b bi
       && bytes_equal a (ai + 1) b (bi + 1) (len - 1)

let range_equal a ai aj b bi bj = aj - ai = bj - bi && bytes_equal a ai b bi (aj - ai)

(* From literal [k] on, the bytes before [aprev] and [bprev] being
   equal: see [same_shape]. *)
let rec same_from a asrc b bsrc keep k aprev bprev =
  if k = a.count then range_equal asrc aprev a.last bsrc bprev b.last
  else
    let at = 3 * k in
    let astart = a.spans.(at) and bstart = b.spans.(at) in
    let astop = a.spans.(at + 1) and bstop = b.spans.(at + 1) in
    a.spans.(at + 2) = b.spans.(at + 2)
    && range_equal asrc aprev astart bsrc bprev bstart
    && ((not keep.(k)) || range_equal asrc astart astop bsrc bstart bstop)
    && same_from a asrc b bsrc keep (k + 1) astop bstop

let same_shape a asrc b bsrc ~keep =
  a.count = b.count && same_from a asrc b bsrc keep 0 a.first b.first

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
