open Ast

(* ---- a map over every [Lit] node, in one fixed order ---- *)

(* Each function returns its argument itself, physically, when [f]
   changed no literal under it, so a rebuilt statement shares every
   subtree that holds no substituted literal. Building a template,
   instantiating it, numbering a plan's literals and collecting a
   statement's all call [stmt], so they visit the literals in the same
   order. Every list has a mapper of its own that takes [f], so a walk
   that rebuilds nothing allocates nothing but what [f] does. *)

let rec expr f e =
  match e with
  | Lit _ -> f e
  | Col _ | Var _ -> e
  | Binop (op, a, b) ->
      let a' = expr f a in
      let b' = expr f b in
      if a' == a && b' == b then e else Binop (op, a', b')
  | Unop (op, a) ->
      let a' = expr f a in
      if a' == a then e else Unop (op, a')
  | Fun_call (name, args) ->
      let args' = exprs f args in
      if args' == args then e else Fun_call (name, args')
  | Subselect s ->
      let s' = select f s in
      if s' == s then e else Subselect s'
  | Exists s ->
      let s' = select f s in
      if s' == s then e else Exists s'
  | In_list (a, xs) ->
      let a' = expr f a in
      let xs' = exprs f xs in
      if a' == a && xs' == xs then e else In_list (a', xs')
  | Between (a, lo, hi) ->
      let a' = expr f a in
      let lo' = expr f lo in
      let hi' = expr f hi in
      if a' == a && lo' == lo && hi' == hi then e else Between (a', lo', hi')
  | Is_null (a, positive) ->
      let a' = expr f a in
      if a' == a then e else Is_null (a', positive)

and exprs f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = expr f x in
      let rest' = exprs f rest in
      if x' == x && rest' == rest then l else x' :: rest'

and expr_opt f o =
  match o with
  | None -> o
  | Some x ->
      let x' = expr f x in
      if x' == x then o else Some x'

and items f l =
  match l with
  | [] -> l
  | it :: rest ->
      let it' =
        match it with
        | Star -> it
        | Item (e, alias) ->
            let e' = expr f e in
            if e' == e then it else Item (e', alias)
      in
      let rest' = items f rest in
      if it' == it && rest' == rest then l else it' :: rest'

and joins f l =
  match l with
  | [] -> l
  | j :: rest ->
      let on = expr f j.join_on in
      let j' = if on == j.join_on then j else { j with join_on = on } in
      let rest' = joins f rest in
      if j' == j && rest' == rest then l else j' :: rest'

and orders f l =
  match l with
  | [] -> l
  | ((e, dir) as o) :: rest ->
      let e' = expr f e in
      let o' = if e' == e then o else (e', dir) in
      let rest' = orders f rest in
      if o' == o && rest' == rest then l else o' :: rest'

and select f s =
  let items = items f s.sel_items in
  let joins = joins f s.sel_joins in
  let where = expr_opt f s.sel_where in
  let group_by = exprs f s.sel_group_by in
  let having = expr_opt f s.sel_having in
  let order_by = orders f s.sel_order_by in
  if
    items == s.sel_items && joins == s.sel_joins && where == s.sel_where
    && group_by == s.sel_group_by && having == s.sel_having
    && order_by == s.sel_order_by
  then s
  else
    {
      s with
      sel_items = items;
      sel_joins = joins;
      sel_where = where;
      sel_group_by = group_by;
      sel_having = having;
      sel_order_by = order_by;
    }

let rec rows f l =
  match l with
  | [] -> l
  | r :: rest ->
      let r' = exprs f r in
      let rest' = rows f rest in
      if r' == r && rest' == rest then l else r' :: rest'

let rec assigns f l =
  match l with
  | [] -> l
  | ((c, e) as a) :: rest ->
      let e' = expr f e in
      let a' = if e' == e then a else (c, e') in
      let rest' = assigns f rest in
      if a' == a && rest' == rest then l else a' :: rest'

let rec stmt f s =
  match s with
  | Create_table _ | Drop_table _ | Truncate_table _ | Alter_table _ | Drop_view _
  | Create_index _ | Drop_index _ | Drop_procedure _ | Drop_trigger _ ->
      s
  | Create_view v ->
      let q = select f v.query in
      if q == v.query then s else Create_view { v with query = q }
  | Create_procedure p ->
      let body = pstmts f p.body in
      if body == p.body then s else Create_procedure { p with body }
  | Create_trigger t ->
      let body = pstmts f t.body in
      if body == t.body then s else Create_trigger { t with body }
  | Select q ->
      let q' = select f q in
      if q' == q then s else Select q'
  | Insert i ->
      let values = rows f i.values in
      if values == i.values then s else Insert { i with values }
  | Insert_select i ->
      let query = select f i.query in
      if query == i.query then s else Insert_select { i with query }
  | Update u ->
      let assigns = assigns f u.assigns in
      let where = expr_opt f u.where in
      if assigns == u.assigns && where == u.where then s
      else Update { u with assigns; where }
  | Delete d ->
      let where = expr_opt f d.where in
      if where == d.where then s else Delete { d with where }
  | Call (name, args) ->
      let args' = exprs f args in
      if args' == args then s else Call (name, args')
  | Transaction ss ->
      let ss' = stmts f ss in
      if ss' == ss then s else Transaction ss'

and stmts f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = stmt f x in
      let rest' = stmts f rest in
      if x' == x && rest' == rest then l else x' :: rest'

and pstmt f p =
  match p with
  | P_stmt s ->
      let s' = stmt f s in
      if s' == s then p else P_stmt s'
  | P_declare (v, ty, init) ->
      let init' = expr_opt f init in
      if init' == init then p else P_declare (v, ty, init')
  | P_set (v, e) ->
      let e' = expr f e in
      if e' == e then p else P_set (v, e')
  | P_select_into (q, vars) ->
      let q' = select f q in
      if q' == q then p else P_select_into (q', vars)
  | P_if (arms, else_body) ->
      let arms' = branches f arms in
      let else' = pstmts f else_body in
      if arms' == arms && else' == else_body then p else P_if (arms', else')
  | P_while (c, body) ->
      let c' = expr f c in
      let body' = pstmts f body in
      if c' == c && body' == body then p else P_while (c', body')
  | P_leave _ | P_signal _ -> p

and pstmts f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = pstmt f x in
      let rest' = pstmts f rest in
      if x' == x && rest' == rest then l else x' :: rest'

and branches f l =
  match l with
  | [] -> l
  | ((c, body) as arm) :: rest ->
      let c' = expr f c in
      let body' = pstmts f body in
      let arm' = if c' == c && body' == body then arm else (c', body') in
      let rest' = branches f rest in
      if arm' == arm && rest' == rest then l else arm' :: rest'

let map_lits = stmt

(* ---- literals, read by position ---- *)

type lits = {
  mutable values : Value.t array;
      (* per [Lit] node: its value where [slots] holds no hole *)
  mutable slots : int array;
      (* [||], or per [Lit] node: [2 * literal + negated] for a hole of
         [src]'s scan, [-1] for a node whose value is in [values] *)
  mutable src : string;
  scan : Lexer.scan;
}

(* never scanned into: [lits_of_stmt]'s have no hole *)
let no_scan = Lexer.scanner ()

let lits_of_stmt s =
  let n = ref 0 in
  ignore (stmt (fun e -> incr n; e) s : stmt);
  let values = Array.make !n Value.Null and k = ref 0 in
  ignore
    (stmt
       (fun e ->
         (match e with Lit v -> values.(!k) <- v | _ -> ());
         incr k;
         e)
       s
      : stmt);
  { values; slots = [||]; src = ""; scan = no_scan }

let lit_count l = Array.length l.values

let value sc src slot =
  let negated = slot land 1 = 1 in
  match Lexer.literal_token sc src (slot lsr 1) with
  | Lexer.Int_lit i -> Value.Int (if negated then -i else i)
  | Lexer.Float_lit f -> Value.Float (if negated then -.f else f)
  | Lexer.Str_lit s -> Value.Text s
  | _ -> assert false

let lit l k =
  if k < 0 || k >= Array.length l.values then invalid_arg "Stmt_memo.lit";
  if Array.length l.slots = 0 || l.slots.(k) < 0 then l.values.(k)
  else value l.scan l.src l.slots.(k)

(* ---- templates ---- *)

type template = {
  text : string;  (* the statement the template was parsed from *)
  lits : Lexer.scan;  (* its literal spans *)
  fixed : bool array;
      (* literal [k] fed no [Lit]: its bytes are part of the shape *)
  ast : stmt;
  slots : int array;
      (* the [k]th [Lit] node [stmt] visits: [2 * literal + negated]
         for a hole, [-1] for a literal that stays as it is *)
  values : Value.t array;  (* the [k]th [Lit] node's value in [ast] *)
  id : int;  (* its position in [by_id] *)
  mutable render : render;  (* how its statements are logged *)
}

(* A template's log text, cut at its holes: [Printer.stmt_compact] of
   its AST with the [k]th [Lit] node, for every hole [k], replaced by a
   marker that renders as itself ([marker k]). *)
and render =
  | Unrendered  (* no statement of the template was rendered from it yet *)
  | Spliced of { pieces : string array; holes : int array }
      (* the text is [pieces.(0)], then for every [j] the literal of
         [Lit] node [holes.(j)] and [pieces.(j + 1)] *)
  | Whole  (* the markers did not come back one each: render in full *)

(* Keyed by [Lexer.key], already a hash. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

type t = {
  sc : Lexer.scan;
  shapes : template list Keys.t;
  mutable by_id : template array;  (* the first [templates] are made *)
  mutable templates : int;
  mutable full_parses : int;
  bound : lits;  (* the last statement [template] named *)
  mutable hole_values : Value.t array;
      (* per [Lit] node of the last statement [instantiate] built: its
         value where it is a hole *)
  text : Buffer.t;  (* where [parse_logged] splices a log text *)
}

let create () =
  let sc = Lexer.scanner () in
  { sc; shapes = Keys.create 64; by_id = [||]; templates = 0; full_parses = 0;
    bound = { values = [||]; slots = [||]; src = ""; scan = sc };
    hole_values = [||]; text = Buffer.create 256 }

let full_parses m = m.full_parses
let templates m = m.templates

let template ~id text lits (ast, holes) =
  let fixed = Array.make (Lexer.literals lits) true in
  List.iter (fun (h : Parser.hole) -> fixed.(h.Parser.literal) <- false) holes;
  let slots = ref [] in
  ignore
    (stmt
       (fun e ->
         let slot =
           match List.find_opt (fun (h : Parser.hole) -> h.Parser.node == e) holes with
           | Some h -> (2 * h.Parser.literal) + Bool.to_int h.Parser.negated
           | None -> -1
         in
         slots := slot :: !slots;
         e)
       ast
      : stmt);
  { text; lits; fixed; ast; slots = Array.of_list (List.rev !slots);
    values = (lits_of_stmt ast).values; id; render = Unrendered }

(* The statement of [tpl]'s shape [src] holds, just scanned into [sc];
   each hole's value is left in [m.hole_values] too. *)
let instantiate m tpl sc src =
  if Array.length m.hole_values < Array.length tpl.slots then
    m.hole_values <- Array.make (Array.length tpl.slots) Value.Null;
  let values = m.hole_values and k = ref 0 in
  stmt
    (fun e ->
      let slot = tpl.slots.(!k) in
      incr k;
      if slot < 0 then e
      else begin
        let v = value sc src slot in
        values.(!k - 1) <- v;
        Lit v
      end)
    tpl.ast

let parse_in_full m src =
  m.full_parses <- m.full_parses + 1;
  Parser.parse_stmt src

(* The first template of the bucket whose shape [src], just scanned into
   [sc], has: the same bytes between its literals, the same literal
   kinds, and the same bytes in every literal that fed no [Lit]. *)
let rec find_in sc src = function
  | [] -> raise Not_found
  | tpl :: rest ->
      if Lexer.same_shape tpl.lits tpl.text sc src ~keep:tpl.fixed then tpl
      else find_in sc src rest

(* After a scan of a span of [src] that succeeded: the template the span
   matches, or [Not_found]. *)
let lookup m src =
  let bucket = match Keys.find m.shapes (Lexer.key m.sc) with b -> b | exception Not_found -> [] in
  find_in m.sc src bucket

(* The span of the last scan as its own statement: [src] itself when it
   is the whole of it, else the span's copy. *)
let span_text m src =
  let off = Lexer.span_start m.sc and len = Lexer.span_length m.sc in
  if len = String.length src then src else String.sub src off len

(* [text], just scanned and found in no bucket, parsed in full into the
   template of its shape, which is filed unless [keep] declines its
   AST. *)
let make_template ?(keep = fun _ -> true) m text =
  m.full_parses <- m.full_parses + 1;
  let key = Lexer.key m.sc in
  let lits = Lexer.snapshot m.sc in
  let parsed = Parser.parse_template text in
  let tpl = template ~id:m.templates text lits parsed in
  if keep tpl.ast then begin
    let bucket = match Keys.find m.shapes key with b -> b | exception Not_found -> [] in
    Keys.replace m.shapes key (tpl :: bucket);
    if m.templates = Array.length m.by_id then
      m.by_id <-
        Array.init (max 16 (2 * m.templates)) (fun k ->
            if k < m.templates then m.by_id.(k) else tpl);
    m.by_id.(m.templates) <- tpl;
    m.templates <- m.templates + 1
  end;
  tpl

(* The template the last scan's span matches, made from the span when
   there was none. *)
let find_template m src =
  match lookup m src with tpl -> tpl | exception Not_found -> make_template m (span_text m src)

let parse m src =
  if not (Lexer.scan m.sc src 0 (String.length src)) then parse_in_full m src
  else
    let tpl = find_template m src in
    if tpl.text == src then tpl.ast
    else
      (* only an integer above [max_int] fails to convert; the full parse
         raises what [parse_stmt] raises on it *)
      try instantiate m tpl m.sc src with Failure _ -> parse_in_full m src

(* ---- log texts, spliced into a template's rendering ---- *)

(* A hole's marker: a column name no lexed statement holds, which
   [Printer] renders as it is. *)
let marker k = "\000" ^ string_of_int k ^ "\000"

(* [Printer.stmt_compact] of [tpl]'s AST with every hole's [Lit] a
   marker, cut at the markers; [Whole] unless each comes back once. *)
let render_of tpl =
  let k = ref 0 in
  let marked =
    stmt
      (fun e ->
        let slot = tpl.slots.(!k) in
        incr k;
        if slot < 0 then e else Col (None, marker (!k - 1)))
      tpl.ast
  in
  let text = Printer.stmt_compact marked in
  let expect = Array.fold_left (fun n slot -> if slot < 0 then n else n + 1) 0 tpl.slots in
  match String.split_on_char '\000' text with
  | first :: rest when List.length rest = 2 * expect ->
      let rec cut pieces holes = function
        | [] -> Some (Array.of_list (List.rev pieces), Array.of_list (List.rev holes))
        | k :: piece :: rest -> (
            match int_of_string_opt k with
            | Some k when k >= 0 && k < Array.length tpl.slots && tpl.slots.(k) >= 0
                          && not (List.mem k holes) ->
                cut (piece :: pieces) (k :: holes) rest
            | _ -> None)
        | [ _ ] -> None
      in
      (match cut [ first ] [] rest with
      | Some (pieces, holes) -> Spliced { pieces; holes }
      | None -> Whole)
  | _ -> Whole

(* [Printer.stmt_compact] splits its rendering into lines and trims
   each: a literal spliced where its marker was leaves the lines and
   their trims as they are when it has no newline and starts and ends
   with no blank. *)
let spliceable l =
  let n = String.length l in
  let blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  n > 0 && (not (blank l.[0])) && (not (blank l.[n - 1])) && not (String.contains l '\n')

let has s c = Uv_util.Memchr.index s c 0 (String.length s) >= 0

(* [Value.to_literal v] added to [b] where it splices, else [false]. An
   integer never holds a blank; a text is quoted, so only a newline
   inside it keeps it out, and one without a quote is its own body. *)
let add_literal b (v : Value.t) =
  match v with
  | Int i ->
      Buffer.add_string b (string_of_int i);
      true
  | Text s when has s '\n' -> false
  | Text s when not (has s '\'') ->
      Buffer.add_char b '\'';
      Buffer.add_string b s;
      Buffer.add_char b '\'';
      true
  | _ ->
      let l = Value.to_literal v in
      spliceable l
      && begin
           Buffer.add_string b l;
           true
         end

(* The log text of [tpl]'s statement whose hole values are in
   [m.hole_values]: its rendering spliced, or [None] where a literal does not
   splice. *)
let splice m tpl =
  if tpl.render = Unrendered then tpl.render <- render_of tpl;
  match tpl.render with
  | Spliced { pieces; holes } ->
      let b = m.text in
      Buffer.clear b;
      Buffer.add_string b pieces.(0);
      let rec go j =
        j = Array.length holes
        || add_literal b m.hole_values.(holes.(j))
           && begin
                Buffer.add_string b pieces.(j + 1);
                go (j + 1)
              end
      in
      if go 0 then Some (Buffer.contents b) else None
  | Unrendered | Whole -> None

let logged ast = (ast, Printer.stmt_compact ast)

let parse_logged m src =
  if not (Lexer.scan m.sc src 0 (String.length src)) then logged (parse_in_full m src)
  else
    match lookup m src with
    | exception Not_found ->
        (* DDL, views, procedures and triggers do not repeat: no template *)
        logged (make_template ~keep:(fun s -> not (Ast.is_ddl s)) m (span_text m src)).ast
    | tpl -> (
        match instantiate m tpl m.sc src with
        | exception Failure _ -> logged (parse_in_full m src)
        | ast -> (
            match splice m tpl with
            | Some text -> (ast, text)
            | None -> logged ast))

(* Every hole literal of [src], from the [k]th [Lit] node on, converts,
   as [instantiate] and reading a bound literal need. *)
let rec converts tpl sc src k =
  k = Array.length tpl.slots
  || (tpl.slots.(k) < 0 || Lexer.literal_converts sc src (tpl.slots.(k) lsr 1))
     && converts tpl sc src (k + 1)

let template m src off len =
  if not (Lexer.scan m.sc src off len) then -1
  else
    let tpl = find_template m src in
    if converts tpl m.sc src 0 then begin
      let b = m.bound in
      b.values <- tpl.values;
      b.slots <- tpl.slots;
      b.src <- src;
      tpl.id
    end
    else -1

let lits m = m.bound

let template_stmt m id =
  if id < 0 || id >= m.templates then invalid_arg "Stmt_memo.template_stmt";
  m.by_id.(id).ast
