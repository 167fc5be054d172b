open Ast

(* ---- a map over every [Lit] node, in one fixed order ---- *)

(* Each function returns its argument itself, physically, when [f]
   changed no literal under it, so a rebuilt statement shares every
   subtree that holds no substituted literal. Building a template and
   instantiating it both call [stmt], so they visit the literals in the
   same order. *)

let rec list g l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = g x in
      let rest' = list g rest in
      if x' == x && rest' == rest then l else x' :: rest'

let opt g o =
  match o with
  | None -> o
  | Some x ->
      let x' = g x in
      if x' == x then o else Some x'

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
      let args' = list (expr f) args in
      if args' == args then e else Fun_call (name, args')
  | Subselect s ->
      let s' = select f s in
      if s' == s then e else Subselect s'
  | Exists s ->
      let s' = select f s in
      if s' == s then e else Exists s'
  | In_list (a, xs) ->
      let a' = expr f a in
      let xs' = list (expr f) xs in
      if a' == a && xs' == xs then e else In_list (a', xs')
  | Between (a, lo, hi) ->
      let a' = expr f a in
      let lo' = expr f lo in
      let hi' = expr f hi in
      if a' == a && lo' == lo && hi' == hi then e else Between (a', lo', hi')
  | Is_null (a, positive) ->
      let a' = expr f a in
      if a' == a then e else Is_null (a', positive)

and select f s =
  let items =
    list
      (fun it ->
        match it with
        | Star -> it
        | Item (e, alias) ->
            let e' = expr f e in
            if e' == e then it else Item (e', alias))
      s.sel_items
  in
  let joins =
    list
      (fun j ->
        let on = expr f j.join_on in
        if on == j.join_on then j else { j with join_on = on })
      s.sel_joins
  in
  let where = opt (expr f) s.sel_where in
  let group_by = list (expr f) s.sel_group_by in
  let having = opt (expr f) s.sel_having in
  let order_by =
    list
      (fun ((e, dir) as o) ->
        let e' = expr f e in
        if e' == e then o else (e', dir))
      s.sel_order_by
  in
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

let rec stmt f s =
  match s with
  | Create_table _ | Drop_table _ | Truncate_table _ | Alter_table _ | Drop_view _
  | Create_index _ | Drop_index _ | Drop_procedure _ | Drop_trigger _ ->
      s
  | Create_view v ->
      let q = select f v.query in
      if q == v.query then s else Create_view { v with query = q }
  | Create_procedure p ->
      let body = list (pstmt f) p.body in
      if body == p.body then s else Create_procedure { p with body }
  | Create_trigger t ->
      let body = list (pstmt f) t.body in
      if body == t.body then s else Create_trigger { t with body }
  | Select q ->
      let q' = select f q in
      if q' == q then s else Select q'
  | Insert i ->
      let values = list (list (expr f)) i.values in
      if values == i.values then s else Insert { i with values }
  | Insert_select i ->
      let query = select f i.query in
      if query == i.query then s else Insert_select { i with query }
  | Update u ->
      let assigns =
        list
          (fun ((c, e) as a) ->
            let e' = expr f e in
            if e' == e then a else (c, e'))
          u.assigns
      in
      let where = opt (expr f) u.where in
      if assigns == u.assigns && where == u.where then s
      else Update { u with assigns; where }
  | Delete d ->
      let where = opt (expr f) d.where in
      if where == d.where then s else Delete { d with where }
  | Call (name, args) ->
      let args' = list (expr f) args in
      if args' == args then s else Call (name, args')
  | Transaction ss ->
      let ss' = list (stmt f) ss in
      if ss' == ss then s else Transaction ss'

and pstmt f p =
  match p with
  | P_stmt s ->
      let s' = stmt f s in
      if s' == s then p else P_stmt s'
  | P_declare (v, ty, init) ->
      let init' = opt (expr f) init in
      if init' == init then p else P_declare (v, ty, init')
  | P_set (v, e) ->
      let e' = expr f e in
      if e' == e then p else P_set (v, e')
  | P_select_into (q, vars) ->
      let q' = select f q in
      if q' == q then p else P_select_into (q', vars)
  | P_if (arms, else_body) ->
      let arms' =
        list
          (fun ((c, body) as arm) ->
            let c' = expr f c in
            let body' = list (pstmt f) body in
            if c' == c && body' == body then arm else (c', body'))
          arms
      in
      let else' = list (pstmt f) else_body in
      if arms' == arms && else' == else_body then p else P_if (arms', else')
  | P_while (c, body) ->
      let c' = expr f c in
      let body' = list (pstmt f) body in
      if c' == c && body' == body then p else P_while (c', body')
  | P_leave _ | P_signal _ -> p

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
  id : int;  (* its position in [by_id] *)
}

type t = {
  sc : Lexer.scan;
  shapes : (int, template list) Hashtbl.t;  (* by [Lexer.key] *)
  mutable by_id : template array;  (* the first [templates] are made *)
  mutable templates : int;
  mutable full_parses : int;
}

let create () =
  { sc = Lexer.scanner (); shapes = Hashtbl.create 64; by_id = [||]; templates = 0;
    full_parses = 0 }

let full_parses m = m.full_parses

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
  { text; lits; fixed; ast; slots = Array.of_list (List.rev !slots); id }

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

(* [src], just scanned into [sc], has [tpl]'s shape: the same bytes
   between its literals, the same literal kinds, and the same bytes in
   every literal that fed no [Lit]. *)
let matches tpl sc src =
  let t = tpl.lits and text = tpl.text in
  let n = Lexer.literals t in
  let rec go k tprev sprev =
    if k = n then range_equal text tprev (String.length text) src sprev (String.length src)
    else
      let tstart = Lexer.literal_start t k and sstart = Lexer.literal_start sc k in
      let tstop = Lexer.literal_stop t k and sstop = Lexer.literal_stop sc k in
      Lexer.literal_kind t k = Lexer.literal_kind sc k
      && range_equal text tprev tstart src sprev sstart
      && ((not tpl.fixed.(k)) || range_equal text tstart tstop src sstart sstop)
      && go (k + 1) tstop sstop
  in
  n = Lexer.literals sc && go 0 0 0

let value sc src slot =
  let negated = slot land 1 = 1 in
  match Lexer.literal_token sc src (slot lsr 1) with
  | Lexer.Int_lit i -> Value.Int (if negated then -i else i)
  | Lexer.Float_lit f -> Value.Float (if negated then -.f else f)
  | Lexer.Str_lit s -> Value.Text s
  | _ -> assert false

let instantiate tpl sc src =
  let k = ref 0 in
  stmt
    (fun e ->
      let slot = tpl.slots.(!k) in
      incr k;
      if slot < 0 then e else Lit (value sc src slot))
    tpl.ast

let parse_in_full m src =
  m.full_parses <- m.full_parses + 1;
  Parser.parse_stmt src

(* After a scan of [src] that succeeded: the template [src] matches,
   made from [src] (its [text] is then [src] itself) when there was
   none. *)
let find_template m src =
  let key = Lexer.key m.sc in
  let bucket = Option.value (Hashtbl.find_opt m.shapes key) ~default:[] in
  match List.find_opt (fun tpl -> matches tpl m.sc src) bucket with
  | Some tpl -> tpl
  | None ->
      m.full_parses <- m.full_parses + 1;
      let parsed = Parser.parse_template src in
      let tpl = template ~id:m.templates src (Lexer.snapshot m.sc) parsed in
      Hashtbl.replace m.shapes key (tpl :: bucket);
      if m.templates = Array.length m.by_id then
        m.by_id <-
          Array.init (max 16 (2 * m.templates)) (fun k ->
              if k < m.templates then m.by_id.(k) else tpl);
      m.by_id.(m.templates) <- tpl;
      m.templates <- m.templates + 1;
      tpl

let parse_named m src =
  if not (Lexer.scan m.sc src) then (-1, parse_in_full m src)
  else
    let tpl = find_template m src in
    if tpl.text == src then (tpl.id, tpl.ast)
    else
      (* only an integer above [max_int] fails to convert; the full parse
         raises what [parse_stmt] raises on it *)
      try (tpl.id, instantiate tpl m.sc src) with Failure _ -> (-1, parse_in_full m src)

let parse m src = snd (parse_named m src)

(* Digits that always convert: an integer literal fails to only when it
   is longer. *)
let safe_digits = String.length (string_of_int max_int) - 1

(* Every hole literal of [src] converts, as [instantiate] needs. *)
let converts tpl sc src =
  match
    Array.iter
      (fun slot ->
        let k = slot lsr 1 in
        if
          slot >= 0
          && Lexer.literal_kind sc k = Lexer.Lit_int
          && Lexer.literal_stop sc k - Lexer.literal_start sc k > safe_digits
        then ignore (Lexer.literal_token sc src k : Lexer.token))
      tpl.slots
  with
  | () -> true
  | exception Failure _ -> false

let template m src =
  if not (Lexer.scan m.sc src) then -1
  else
    let tpl = find_template m src in
    if tpl.text == src || converts tpl m.sc src then tpl.id else -1

let template_stmt m id =
  if id < 0 || id >= m.templates then invalid_arg "Stmt_memo.template_stmt";
  m.by_id.(id).ast
