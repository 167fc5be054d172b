open Ast

(* ---- equality: structural, except that any two literals are equal ---- *)

let eq_str = String.equal
let eq_name_opt = Option.equal String.equal

let rec eq_expr a b =
  match (a, b) with
  | Lit _, Lit _ -> true
  | Col (q, c), Col (q', c') -> eq_name_opt q q' && eq_str c c'
  | Var v, Var v' -> eq_str v v'
  | Binop (o, x, y), Binop (o', x', y') -> o = o' && eq_expr x x' && eq_expr y y'
  | Unop (o, x), Unop (o', x') -> o = o' && eq_expr x x'
  | Fun_call (f, xs), Fun_call (f', xs') -> eq_str f f' && eq_exprs xs xs'
  | Subselect s, Subselect s' | Exists s, Exists s' -> eq_select s s'
  | In_list (x, xs), In_list (x', xs') -> eq_expr x x' && eq_exprs xs xs'
  | Between (x, y, z), Between (x', y', z') ->
      eq_expr x x' && eq_expr y y' && eq_expr z z'
  | Is_null (x, n), Is_null (x', n') -> Bool.equal n n' && eq_expr x x'
  | ( ( Lit _ | Col _ | Var _ | Binop _ | Unop _ | Fun_call _ | Subselect _
      | Exists _ | In_list _ | Between _ | Is_null _ ),
      _ ) ->
      false

and eq_exprs xs ys = List.equal eq_expr xs ys

and eq_select s s' =
  Bool.equal s.sel_distinct s'.sel_distinct
  && List.equal
       (fun i i' ->
         match (i, i') with
         | Star, Star -> true
         | Item (e, a), Item (e', a') -> eq_expr e e' && eq_name_opt a a'
         | _ -> false)
       s.sel_items s'.sel_items
  && Option.equal
       (fun (t, a) (t', a') -> eq_str t t' && eq_name_opt a a')
       s.sel_from s'.sel_from
  && List.equal
       (fun j j' ->
         eq_str j.join_table j'.join_table
         && eq_name_opt j.join_alias j'.join_alias
         && eq_expr j.join_on j'.join_on)
       s.sel_joins s'.sel_joins
  && Option.equal eq_expr s.sel_where s'.sel_where
  && eq_exprs s.sel_group_by s'.sel_group_by
  && Option.equal eq_expr s.sel_having s'.sel_having
  && List.equal
       (fun (e, d) (e', d') -> d = d' && eq_expr e e')
       s.sel_order_by s'.sel_order_by
  && Option.equal Int.equal s.sel_limit s'.sel_limit
  && Option.equal Int.equal s.sel_offset s'.sel_offset

let eq_names = List.equal String.equal

(* schema columns and types hold no literal: plain structural equality *)
let rec equal a b =
  match (a, b) with
  | Create_table t, Create_table t' ->
      eq_str t.name t'.name && t.columns = t'.columns
      && Bool.equal t.if_not_exists t'.if_not_exists
  | Drop_table t, Drop_table t' ->
      eq_str t.name t'.name && Bool.equal t.if_exists t'.if_exists
  | Truncate_table n, Truncate_table n'
  | Drop_view n, Drop_view n'
  | Drop_procedure n, Drop_procedure n'
  | Drop_trigger n, Drop_trigger n' ->
      eq_str n n'
  | Alter_table (n, act), Alter_table (n', act') -> eq_str n n' && act = act'
  | Create_view v, Create_view v' ->
      eq_str v.name v'.name
      && Bool.equal v.or_replace v'.or_replace
      && eq_select v.query v'.query
  | Create_index i, Create_index i' ->
      eq_str i.name i'.name && eq_str i.table i'.table
      && eq_names i.columns i'.columns
  | Drop_index i, Drop_index i' -> eq_str i.name i'.name && eq_str i.table i'.table
  | Create_procedure p, Create_procedure p' ->
      eq_str p.name p'.name && p.params = p'.params
      && eq_name_opt p.label p'.label
      && eq_pstmts p.body p'.body
  | Create_trigger g, Create_trigger g' ->
      eq_str g.name g'.name && g.timing = g'.timing && g.event = g'.event
      && eq_str g.table g'.table
      && eq_pstmts g.body g'.body
  | Select s, Select s' -> eq_select s s'
  | Insert i, Insert i' ->
      eq_str i.table i'.table
      && Option.equal eq_names i.columns i'.columns
      && List.equal eq_exprs i.values i'.values
  | Insert_select i, Insert_select i' ->
      eq_str i.table i'.table
      && Option.equal eq_names i.columns i'.columns
      && eq_select i.query i'.query
  | Update u, Update u' ->
      eq_str u.table u'.table
      && List.equal
           (fun (c, e) (c', e') -> eq_str c c' && eq_expr e e')
           u.assigns u'.assigns
      && Option.equal eq_expr u.where u'.where
  | Delete d, Delete d' ->
      eq_str d.table d'.table && Option.equal eq_expr d.where d'.where
  | Call (n, args), Call (n', args') -> eq_str n n' && eq_exprs args args'
  | Transaction ss, Transaction ss' -> List.equal equal ss ss'
  | ( ( Create_table _ | Drop_table _ | Truncate_table _ | Alter_table _
      | Create_view _ | Drop_view _ | Create_index _ | Drop_index _
      | Create_procedure _ | Drop_procedure _ | Create_trigger _
      | Drop_trigger _ | Select _ | Insert _ | Insert_select _ | Update _
      | Delete _ | Call _ | Transaction _ ),
      _ ) ->
      false

and eq_pstmts ps ps' = List.equal eq_pstmt ps ps'

and eq_pstmt p p' =
  match (p, p') with
  | P_stmt s, P_stmt s' -> equal s s'
  | P_declare (v, ty, e), P_declare (v', ty', e') ->
      eq_str v v' && ty = ty' && Option.equal eq_expr e e'
  | P_set (v, e), P_set (v', e') -> eq_str v v' && eq_expr e e'
  | P_select_into (s, vs), P_select_into (s', vs') ->
      eq_select s s' && eq_names vs vs'
  | P_if (arms, els), P_if (arms', els') ->
      List.equal
        (fun (c, b) (c', b') -> eq_expr c c' && eq_pstmts b b')
        arms arms'
      && eq_pstmts els els'
  | P_while (c, b), P_while (c', b') -> eq_expr c c' && eq_pstmts b b'
  | P_leave l, P_leave l' | P_signal l, P_signal l' -> eq_str l l'
  | ( ( P_stmt _ | P_declare _ | P_set _ | P_select_into _ | P_if _
      | P_while _ | P_leave _ | P_signal _ ),
      _ ) ->
      false

(* ---- hash: folds exactly what [equal] compares, so equal shapes hash
   equal; every node mixes its constructor's tag first ---- *)

let mix h x = (h * 31) + x
let h_str h s = mix h (Hashtbl.hash s)
let h_opt f h = function None -> mix h 0 | Some x -> f (mix h 1) x
let h_list f h xs = List.fold_left f (mix h (List.length xs)) xs

let rec h_expr h = function
  | Lit _ -> mix h 1
  | Col (q, c) -> h_str (h_opt h_str (mix h 2) q) c
  | Var v -> h_str (mix h 3) v
  | Binop (o, x, y) -> h_expr (h_expr (mix (mix h 4) (Hashtbl.hash o)) x) y
  | Unop (o, x) -> h_expr (mix (mix h 5) (Hashtbl.hash o)) x
  | Fun_call (f, xs) -> h_list h_expr (h_str (mix h 6) f) xs
  | Subselect s -> h_select (mix h 7) s
  | Exists s -> h_select (mix h 8) s
  | In_list (x, xs) -> h_list h_expr (h_expr (mix h 9) x) xs
  | Between (x, y, z) -> h_expr (h_expr (h_expr (mix h 10) x) y) z
  | Is_null (x, n) -> h_expr (mix (mix h 11) (Bool.to_int n)) x

and h_select h s =
  let h = mix h (Bool.to_int s.sel_distinct) in
  let h =
    h_list
      (fun h -> function
        | Star -> mix h 0
        | Item (e, a) -> h_opt h_str (h_expr (mix h 1) e) a)
      h s.sel_items
  in
  let h = h_opt (fun h (t, a) -> h_opt h_str (h_str h t) a) h s.sel_from in
  let h =
    h_list
      (fun h j -> h_expr (h_opt h_str (h_str h j.join_table) j.join_alias) j.join_on)
      h s.sel_joins
  in
  let h = h_opt h_expr h s.sel_where in
  let h = h_list h_expr h s.sel_group_by in
  let h = h_opt h_expr h s.sel_having in
  let h =
    h_list (fun h (e, d) -> h_expr (mix h (Hashtbl.hash d)) e) h s.sel_order_by
  in
  h_opt mix (h_opt mix h s.sel_limit) s.sel_offset

let h_names = h_list h_str

let rec h_stmt h = function
  | Create_table t ->
      mix (mix (h_str (mix h 1) t.name) (Hashtbl.hash t.columns))
        (Bool.to_int t.if_not_exists)
  | Drop_table t -> mix (h_str (mix h 2) t.name) (Bool.to_int t.if_exists)
  | Truncate_table n -> h_str (mix h 3) n
  | Alter_table (n, act) -> mix (h_str (mix h 4) n) (Hashtbl.hash act)
  | Create_view v ->
      h_select (mix (h_str (mix h 5) v.name) (Bool.to_int v.or_replace)) v.query
  | Drop_view n -> h_str (mix h 6) n
  | Create_index i -> h_names (h_str (h_str (mix h 7) i.name) i.table) i.columns
  | Drop_index i -> h_str (h_str (mix h 8) i.name) i.table
  | Create_procedure p ->
      h_list h_pstmt
        (h_opt h_str (mix (h_str (mix h 9) p.name) (Hashtbl.hash p.params)) p.label)
        p.body
  | Drop_procedure n -> h_str (mix h 10) n
  | Create_trigger g ->
      h_list h_pstmt
        (h_str
           (mix (mix (h_str (mix h 11) g.name) (Hashtbl.hash g.timing))
              (Hashtbl.hash g.event))
           g.table)
        g.body
  | Drop_trigger n -> h_str (mix h 12) n
  | Select s -> h_select (mix h 13) s
  | Insert i ->
      h_list
        (fun h row -> h_list h_expr h row)
        (h_opt h_names (h_str (mix h 14) i.table) i.columns)
        i.values
  | Insert_select i ->
      h_select (h_opt h_names (h_str (mix h 15) i.table) i.columns) i.query
  | Update u ->
      h_opt h_expr
        (h_list (fun h (c, e) -> h_expr (h_str h c) e) (h_str (mix h 16) u.table) u.assigns)
        u.where
  | Delete d -> h_opt h_expr (h_str (mix h 17) d.table) d.where
  | Call (n, args) -> h_list h_expr (h_str (mix h 18) n) args
  | Transaction ss -> h_list h_stmt (mix h 19) ss

and h_pstmt h = function
  | P_stmt s -> h_stmt (mix h 1) s
  | P_declare (v, ty, e) -> h_opt h_expr (mix (h_str (mix h 2) v) (Hashtbl.hash ty)) e
  | P_set (v, e) -> h_expr (h_str (mix h 3) v) e
  | P_select_into (s, vs) -> h_names (h_select (mix h 4) s) vs
  | P_if (arms, els) ->
      h_list h_pstmt
        (h_list (fun h (c, b) -> h_list h_pstmt (h_expr h c) b) (mix h 5) arms)
        els
  | P_while (c, b) -> h_list h_pstmt (h_expr (mix h 6) c) b
  | P_leave l -> h_str (mix h 7) l
  | P_signal l -> h_str (mix h 8) l

let hash s = h_stmt 0 s land max_int

module Tbl = Hashtbl.Make (struct
  type t = stmt

  let equal = equal
  let hash = hash
end)
