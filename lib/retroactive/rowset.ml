open Uv_sql
open Ast
module Vset = Set.Make (String)

type riset = Any | Vals of Vset.t

type dim_access = { dr : riset; dw : riset }

type taccess = dim_access array

type entry_rows = (string * taccess) list

type config = {
  ri_columns : (string * string list) list;
  ri_aliases : (string * string * string) list;
}

let default_config = { ri_columns = []; ri_aliases = [] }

type t = {
  config : config;
  (* (table, alias_col, serialized alias value) -> serialized RI value *)
  alias_map : (string * string * string, string) Hashtbl.t;
  (* union-find parent map: (table, dim_col, value) -> value *)
  merge_parent : (string * string * string, string) Hashtbl.t;
  (* bumped per new union-find link; the incremental analyzer re-derives
     its row keys only when this moved *)
  mutable merge_generation : int;
}

let create config =
  { config; alias_map = Hashtbl.create 256; merge_parent = Hashtbl.create 64;
    merge_generation = 0 }

let merge_generation t = t.merge_generation

let sorted tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let seed_aliases t cat =
  List.iter
    (fun (table, acol, rcol) ->
      match Uv_db.Catalog.table cat table with
      | None -> ()
      | Some tbl -> (
          match
            ( Uv_db.Storage.column_index tbl acol,
              Uv_db.Storage.column_index tbl rcol )
          with
          | Some ai, Some ri ->
              Uv_db.Storage.iter tbl (fun _ row ->
                  Hashtbl.replace t.alias_map
                    (table, acol, Value.serialize row.(ai))
                    (Value.serialize row.(ri)))
          | _ -> ()))
    t.config.ri_aliases

let aliases t = sorted t.alias_map

let merge_parents t = sorted t.merge_parent

let rec find_root t table dim v =
  match Hashtbl.find_opt t.merge_parent (table, dim, v) with
  | None -> v
  | Some p when String.equal p v -> v
  | Some p -> find_root t table dim p

(* no merge yet (the common case): every value is its own root *)
let canonical t table dim v =
  if Hashtbl.length t.merge_parent = 0 then v else find_root t table dim v

let merge_values t table dim v1 v2 =
  let r1 = find_root t table dim v1 and r2 = find_root t table dim v2 in
  if not (String.equal r1 r2) then begin
    Hashtbl.replace t.merge_parent (table, dim, r2) r1;
    t.merge_generation <- t.merge_generation + 1
  end

let ri_dims t sv table =
  match List.assoc_opt table t.config.ri_columns with
  | Some dims -> dims
  | None -> (
      match Schema_view.table_schema sv table with
      | Some sch -> (
          match Schema.primary_key_columns sch with
          | pk :: _ -> [ pk ]
          | [] -> [])
      | None -> [])

(* The name dimension [i] of [table] goes by in the merge state: its
   configured RI column, or ["#i"] under the PRIMARY KEY fallback. *)
let dim_name config table i =
  match List.assoc_opt table config.ri_columns with
  | Some ds when i < List.length ds -> List.nth ds i
  | _ -> "#" ^ string_of_int i

let aliases_for t table =
  List.filter_map
    (fun (tbl, acol, rcol) ->
      if String.equal tbl table then Some (acol, rcol) else None)
    t.config.ri_aliases

(* The table a write to [table] lands on: an updatable view's base
   table, whose triggers the write fires (as the engine does). *)
let write_table sv table =
  match Schema_view.view sv table with
  | Some { sel_from = Some (parent, _); _ } -> parent
  | _ -> table

(* ------------------------------------------------------------------ *)
(* riset algebra                                                        *)
(* ------------------------------------------------------------------ *)

let rs_union a b =
  match (a, b) with
  | Any, _ | _, Any -> Any
  | Vals x, Vals y -> Vals (Vset.union x y)

let rs_inter a b =
  match (a, b) with
  | Any, x | x, Any -> x
  | Vals x, Vals y -> Vals (Vset.inter x y)

let value_set v = Vals (Vset.singleton (Value.serialize v))

(* The RI value an alias-column value was last seen with, or [Any]. *)
let alias_lookup t table acol v =
  match Hashtbl.find_opt t.alias_map (table, acol, Value.serialize v) with
  | Some ri -> Vals (Vset.singleton ri)
  | None -> Any

let rs_is_empty = function Any -> false | Vals s -> Vset.is_empty s

(* Canonicalising keeps a set empty or not, so only two value sets
   need it, and only once some value was merged; they are values of
   dimension [i] of [table]. *)
let rs_overlap t table i a b =
  match (a, b) with
  | Any, x | x, Any -> not (rs_is_empty x)
  | Vals x, Vals y ->
      if Hashtbl.length t.merge_parent = 0 then not (Vset.disjoint x y)
      else
        let dim = dim_name t.config table i in
        let canon s = Vset.map (fun v -> canonical t table dim v) s in
        not (Vset.disjoint (canon x) (canon y))


let merge_dim a b = { dr = rs_union a.dr b.dr; dw = rs_union a.dw b.dw }

let merge_rows (a : entry_rows) (b : entry_rows) : entry_rows =
  List.fold_left
    (fun acc (table, acc_b) ->
      match List.assoc_opt table acc with
      | None -> (table, acc_b) :: acc
      | Some acc_a ->
          let merged =
            if Array.length acc_a <> Array.length acc_b then
              Array.map (fun _ -> { dr = Any; dw = Any }) acc_a
            else Array.map2 merge_dim acc_a acc_b
          in
          (table, merged) :: List.remove_assoc table acc)
    a b

(* ------------------------------------------------------------------ *)
(* Partial evaluation of expressions                                    *)
(* ------------------------------------------------------------------ *)

let peval_unop op v =
  match op with
  | Neg -> Value.sub (Value.Int 0) v
  | Not -> Value.Bool (not (Value.to_bool v))

let peval_binop op va vb =
  match op with
  | Add -> Value.add va vb
  | Sub -> Value.sub va vb
  | Mul -> Value.mul va vb
  | Div -> Value.div va vb
  | Mod -> Value.modulo va vb
  | Eq -> Value.Bool (Value.equal_sql va vb)
  | Neq -> Value.Bool (not (Value.equal_sql va vb))
  | Lt -> Value.Bool (Value.compare_sql va vb < 0)
  | Le -> Value.Bool (Value.compare_sql va vb <= 0)
  | Gt -> Value.Bool (Value.compare_sql va vb > 0)
  | Ge -> Value.Bool (Value.compare_sql va vb >= 0)
  | And -> Value.Bool (Value.to_bool va && Value.to_bool vb)
  | Or -> Value.Bool (Value.to_bool va || Value.to_bool vb)

(* CONCAT of partial values: known only when every part is *)
let peval_concat parts =
  if List.for_all Option.is_some parts then
    Some
      (Value.Text
         (String.concat ""
            (List.map (fun p -> Value.to_string (Option.get p)) parts)))
  else None

(* ------------------------------------------------------------------ *)
(* Non-determinism bookkeeping for INSERT                               *)
(* ------------------------------------------------------------------ *)

(* Count the RAND()/NOW()/LAST_INSERT_ID()-style draws an expression
   performs so we can line up the AUTO_INCREMENT draw within the entry's
   recorded list. *)
let rec count_draws (e : expr) =
  match e with
  | Fun_call
      ( ( "RAND" | "NOW" | "CURTIME" | "CURRENT_TIMESTAMP" | "UNIX_TIMESTAMP"
        | "LAST_INSERT_ID" ),
        _ ) ->
      1
  | Fun_call (_, args) -> List.fold_left (fun a x -> a + count_draws x) 0 args
  | Binop (_, a, b) -> count_draws a + count_draws b
  | Unop (_, a) -> count_draws a
  | In_list (a, items) -> List.fold_left (fun acc x -> acc + count_draws x) (count_draws a) items
  | Between (a, b, c) -> count_draws a + count_draws b + count_draws c
  | Is_null (a, _) -> count_draws a
  | Lit _ | Col _ | Var _ | Subselect _ | Exists _ -> 0

(* The write whose triggers a statement fires: its table and event *)
let dml_event = function
  | Insert { table; _ } | Insert_select { table; _ } -> Some (table, Ev_insert)
  | Update { table; _ } -> Some (table, Ev_update)
  | Delete { table; _ } -> Some (table, Ev_delete)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Plans: the shape's half of the extraction, once per shape            *)
(* ------------------------------------------------------------------ *)

(* [plan] makes every decision that reads only the statement's
   structure, the schema view and the RI config; running the plan reads
   the entry's literals and does the rest. The plan is built on a copy
   of the shape's first statement whose [k]th [Lit] node, in
   [Stmt_memo.map_lits]'s order, is [Lit (Int k)], a node of its own
   ([nodes.(k)]): planning never reads the value of one of the
   statement's literals, and the closures below read literal [k] of the
   entry's literals by position, never the entry's statement.

   The body of a procedure or trigger is planned once, inside the plan
   of the CALL or DML statement that runs it: its literals are the
   body's own, constants of the plan. A body's variables live in an
   environment, one slot each: [Some v] when the value is known from the
   call's literals or literal SETs, [None] when it is not (database
   reads, non-determinism). A top-level statement has no variable in
   scope and runs under the empty environment. *)

type env = Value.t option array

let no_env : env = [||]

(* A body's variable slots, numbered while the body is planned *)
type scope = (string, int) Hashtbl.t

let slot (scope : scope) name =
  match Hashtbl.find_opt scope name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length scope in
      Hashtbl.add scope name i;
      i

type lits = Stmt_memo.lits

let no_lits = Stmt_memo.lits_of_stmt (Transaction [])

type step = lits -> env -> Value.t list -> entry_rows

(* What planning reads: the RI state, the schema view, the numbered
   [Lit] nodes of the statement being planned ([||] inside a body), the
   variables in scope ([None] at top level) and the triggers and
   procedures whose bodies are being expanded. *)
type cx = {
  t : t;
  sv : Schema_view.t;
  nodes : expr array;
  scope : scope option;
  active : [ `Trigger of string | `Proc of string ] list;
  learns : bool ref;
      (* set when a step may learn an alias or a merge: shared by every
         copy of the statement's [cx] *)
}

(* The statement's literal [k] when [e] is its numbered node [k], else
   [-1]: a literal of a view or a body, a constant. *)
let lit_number cx e =
  match e with
  | Lit (Value.Int k) when k >= 0 && k < Array.length cx.nodes && cx.nodes.(k) == e -> k
  | _ -> -1

(* The value of [e], compiled: [None] when it is unknown whatever the
   literals and variables. *)
let rec value_path cx (e : expr) : (lits -> env -> Value.t option) option =
  match e with
  | Lit v -> (
      match lit_number cx e with
      | -1 ->
          let known = Some v in
          Some (fun _ _ -> known)
      | k -> Some (fun lits _ -> Some (Stmt_memo.lit lits k)))
  | Var name ->
      Option.map
        (fun scope ->
          let i = slot scope name in
          fun _ (env : env) -> env.(i))
        cx.scope
  | Unop (op, a) ->
      Option.map
        (fun ga lits env -> Option.map (peval_unop op) (ga lits env))
        (value_path cx a)
  | Binop (op, a, b) -> (
      match (value_path cx a, value_path cx b) with
      | Some ga, Some gb ->
          Some
            (fun lits env ->
              match (ga lits env, gb lits env) with
              | Some va, Some vb -> Some (peval_binop op va vb)
              | _ -> None)
      | _ -> None)
  | Fun_call ("CONCAT", args) ->
      let gs = List.map (value_path cx) args in
      if List.for_all Option.is_some gs then
        let gs = List.map Option.get gs in
        Some (fun lits env -> peval_concat (List.map (fun g -> g lits env) gs))
      else None
  | Fun_call ("IF", [ c; a; b ]) -> (
      let arm g lits env = match g with Some g -> g lits env | None -> None in
      match (value_path cx c, value_path cx a, value_path cx b) with
      | None, _, _ | _, None, None -> None
      | Some gc, ga, gb ->
          Some
            (fun lits env ->
              match gc lits env with
              | Some cv -> if Value.to_bool cv then arm ga lits env else arm gb lits env
              | None -> None))
  | Col _ | Fun_call _ | Subselect _ | Exists _ | In_list _ | Between _
  | Is_null _ ->
      None

(* Does [e] name column [name] of the one table a statement reads or
   writes: unqualified, or qualified by the table's own name? *)
let is_col table name = function
  | Col (None, c) -> String.equal c name
  | Col (Some q, c) -> String.equal q table && String.equal c name
  | _ -> false

let first_source p sources =
  let rec go i = function
    | [] -> None
    | s :: rest -> if p s then Some i else go (i + 1) rest
  in
  go 0 sources

(* Does [e] name column [name] of source [k] of a join? As the engine
   binds them, an unqualified column belongs to the first source, FROM
   then joins, that has it, and a qualified one to the first source it
   prefixes (by alias, else by name). A view, or a table the schema does
   not know, may have any column. *)
let join_col sv sources k name = function
  | Col (None, c) ->
      String.equal c name
      && first_source
           (fun (table, _) ->
             match Schema_view.table_columns sv table with
             | Some cols -> List.mem c cols
             | None -> true)
           sources
         = Some k
  | Col (Some q, c) ->
      String.equal c name
      && first_source
           (fun (table, alias) -> String.equal q (Option.value alias ~default:table))
           sources
         = Some k
  | _ -> false

(* The rows of [table] that [e] pins on dimension [dim], compiled:
   [None] when they are [Any] whatever the literals. AND intersects, OR
   unions, and anything else degrades to [Any]. For [=], the side naming
   the dimension (or an alias column of it) is found here, so the value
   is read from the other side; an alias is looked up at run time, in the
   alias map as it stands then. *)
let rec where_pin cx ~is_col table dim (e : expr) : (lits -> env -> riset) option =
  match e with
  | Binop (Eq, lhs, rhs) -> (
      (* [Some None]: the dimension itself; [Some (Some acol)]: an alias *)
      let names a =
        if is_col dim a then Some None
        else
          List.find_map
            (fun (acol, rcol) ->
              if String.equal rcol dim && is_col acol a then Some (Some acol)
              else None)
            (aliases_for cx.t table)
      in
      let pin alias other =
        Option.map
          (fun g ->
            let of_value =
              match alias with
              | None -> value_set
              | Some acol -> alias_lookup cx.t table acol
            in
            fun lits env ->
              match g lits env with
              | Some v -> of_value v
              | None -> Any)
          (value_path cx other)
      in
      match (names lhs, names rhs) with
      | Some alias, _ -> pin alias rhs
      | None, Some alias -> pin alias lhs
      | None, None -> None)
  | In_list (c, items) when is_col dim c ->
      let gs = List.map (value_path cx) items in
      if List.for_all Option.is_some gs then
        let gs = List.map Option.get gs in
        Some
          (fun lits env ->
            let vals = List.map (fun g -> g lits env) gs in
            if List.for_all Option.is_some vals then
              Vals (Vset.of_list (List.map (fun v -> Value.serialize (Option.get v)) vals))
            else Any)
      else None
  | Binop (And, a, b) -> (
      (* [Any] is [rs_inter]'s identity *)
      match (where_pin cx ~is_col table dim a, where_pin cx ~is_col table dim b) with
      | None, None -> None
      | (Some _ as p), None | None, (Some _ as p) -> p
      | Some pa, Some pb -> Some (fun lits env -> rs_inter (pa lits env) (pb lits env)))
  | Binop (Or, a, b) -> (
      (* [Any] absorbs [rs_union] *)
      match (where_pin cx ~is_col table dim a, where_pin cx ~is_col table dim b) with
      | Some pa, Some pb -> Some (fun lits env -> rs_union (pa lits env) (pb lits env))
      | _ -> None)
  | _ -> None

(* One pin per RI dimension of [table] *)
let dim_pins cx ~is_col table where =
  match ri_dims cx.t cx.sv table with
  | [] -> [| None |]
  | dims ->
      Array.of_list
        (List.map (fun dim -> Option.bind where (where_pin cx ~is_col table dim)) dims)

let no_rows = Vals Vset.empty

(* The pinned rows, one access per dimension. *)
let pinned pins lits env access : taccess =
  let rows = Array.make (Array.length pins) (access Any) in
  for i = 0 to Array.length pins - 1 do
    match pins.(i) with
    | None -> ()
    | Some pin -> rows.(i) <- access (pin lits env)
  done;
  rows

let read_only rs = { dr = rs; dw = no_rows }
let read_write rs = { dr = rs; dw = rs }

(* The rows a SELECT's sources read, its subqueries aside: a table's
   under the SELECT's WHERE, a view's base table's under the view's own
   WHERE. In a join each column pins only the source it names. *)
let select_plan cx (s : select) : lits -> env -> entry_rows =
  let sources =
    Option.to_list s.sel_from
    @ List.map (fun j -> (j.join_table, j.join_alias)) s.sel_joins
  in
  let read k (table, _) =
    match Schema_view.view cx.sv table with
    | Some { sel_from = Some (parent, _); sel_where = w; _ } ->
        let pins = dim_pins cx ~is_col:(is_col parent) parent w in
        Some (fun lits env -> (parent, pinned pins lits env read_only))
    | Some _ -> None
    | None ->
        let is_col =
          match sources with [ _ ] -> is_col table | _ -> join_col cx.sv sources k
        in
        let pins = dim_pins cx ~is_col table s.sel_where in
        Some (fun lits env -> (table, pinned pins lits env read_only))
  in
  match List.filter_map Fun.id (List.mapi read sources) with
  | [] -> fun _ _ -> []
  | [ read ] -> fun lits env -> [ read lits env ]
  | reads ->
      fun lits env ->
        List.fold_left (fun acc read -> merge_rows acc [ read lits env ]) [] reads

(* [step p lits env acc] for each planned [p], in turn; [None] when none
   is planned. *)
let fold_plans plans step =
  match List.filter_map Fun.id plans with
  | [] -> None
  | plans ->
      Some (fun lits env acc -> List.fold_left (fun acc p -> step p lits env acc) acc plans)

let select_exprs (sel : select) =
  Option.to_list sel.sel_where
  @ Option.to_list sel.sel_having
  @ List.filter_map (function Item (e, _) -> Some e | Star -> None) sel.sel_items

(* The rows a SELECT reads: its sources', then those of the subqueries
   in its WHERE, HAVING and projection, nested ones included. *)
let rec select_reads cx (s : select) : lits -> env -> entry_rows =
  let rows = select_plan cx s in
  match subqueries cx (select_exprs s) with
  | None -> rows
  | Some sub -> fun lits env -> sub lits env (rows lits env)

(* The rows the subqueries in [e] read, merged onto [acc] in the order a
   left-to-right walk meets them; [None] when [e] has none. *)
and walk_plan cx (e : expr) : (lits -> env -> entry_rows -> entry_rows) option =
  let walk_all es = fold_plans (List.map (walk_plan cx) es) (fun w lits env acc -> w lits env acc) in
  match e with
  | Subselect s | Exists s ->
      let rows = select_reads cx s in
      Some (fun lits env acc -> merge_rows acc (rows lits env))
  | Binop (_, a, b) -> walk_all [ a; b ]
  | Unop (_, a) | Is_null (a, _) -> walk_all [ a ]
  | Fun_call (_, args) -> walk_all args
  | In_list (a, items) -> walk_all (a :: items)
  | Between (a, b, c) -> walk_all [ a; b; c ]
  | Lit _ | Col _ | Var _ -> None

(* Each expression's subquery rows, merged in turn onto the rows so far;
   [None] when none of [es] has a subquery. *)
and subqueries cx es =
  fold_plans (List.map (walk_plan cx) es) (fun w lits env acc ->
      merge_rows acc (w lits env []))

(* Where each RI dimension's or alias column's value comes from in one
   VALUES row of an INSERT. *)
type source = Unbound | Drawn | At of (lits -> env -> Value.t option)

(* The rows an INSERT writes: per VALUES row, its draw count and where
   each dimension and declared alias pair reads its value. Aliases are
   learned when both sides are known. *)
let insert_plan cx table columns values =
  let t = cx.t and sv = cx.sv in
  let real_table = write_table sv table in
  let dims = ri_dims t sv real_table in
  let cols =
    match columns with
    | Some cs -> cs
    | None -> Option.value (Schema_view.table_columns sv real_table) ~default:[]
  in
  let auto_col = Schema_view.auto_increment_column sv real_table in
  let aliases = aliases_for t real_table in
  let row_plan row_exprs =
    (* the columns the row binds: [cols] zipped with its expressions *)
    let rec bound cs es =
      match (cs, es) with
      | c :: cr, e :: er -> (c, e) :: bound cr er
      | _ -> []
    in
    let bound = bound cols row_exprs in
    let draws = List.fold_left (fun a e -> a + count_draws e) 0 row_exprs in
    let drawn =
      match auto_col with
      | Some ac -> not (List.exists (fun (c, _) -> String.equal c ac) bound)
      | None -> false
    in
    let source col =
      if drawn && Option.equal String.equal auto_col (Some col) then Drawn
      else
        match List.assoc_opt col bound with
        | Some e -> ( match value_path cx e with Some g -> At g | None -> Unbound)
        | None -> Unbound
    in
    ( draws,
      Array.of_list (List.map source dims),
      List.filter_map
        (fun (acol, rcol) ->
          match (source acol, source rcol) with
          | Unbound, _ | _, Unbound -> None
          | sa, sr -> Some (acol, sa, sr))
        aliases )
  in
  let rows = List.map row_plan values in
  if List.exists (fun (_, _, alias_sources) -> alias_sources <> []) rows then
    cx.learns := true;
  let ndims = max 1 (List.length dims) in
  fun lits env nondet ->
    let nondet = ref nondet in
    let per_dim_written = Array.make ndims no_rows in
    let learned = ref [] in
    List.iter
      (fun (draws, dim_sources, alias_sources) ->
        (* every row takes one recorded draw after its own [draws] *)
        let rec drop k l =
          if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r
        in
        let draw =
          match drop draws !nondet with
          | v :: r ->
              nondet := r;
              Some v
          | [] ->
              nondet := [];
              None
        in
        let value = function
          | Unbound -> None
          | Drawn -> draw
          | At g -> g lits env
        in
        Array.iteri
          (fun i src ->
            per_dim_written.(i) <-
              (match (per_dim_written.(i), value src) with
              | Any, _ | _, None -> Any
              | Vals s, Some v -> Vals (Vset.add (Value.serialize v) s)))
          dim_sources;
        List.iter
          (fun (acol, sa, sr) ->
            match (value sa, value sr) with
            | Some av, Some rv ->
                learned := (acol, Value.serialize av, Value.serialize rv) :: !learned
            | _ -> ())
          alias_sources)
      rows;
    List.iter
      (fun (acol, av, rv) -> Hashtbl.replace t.alias_map (real_table, acol, av) rv)
      !learned;
    let access =
      if dims = [] then [| { dr = Any; dw = Any } |]
      else Array.map (fun w -> { dr = no_rows; dw = w }) per_dim_written
    in
    [ (real_table, access) ]

(* The rows an UPDATE reads and writes: the pins of its WHERE, and which
   assignments rewrite an RI dimension (merging the old value with the
   new, §4.3) or a declared alias pair. *)
let update_plan cx table assigns where =
  let t = cx.t in
  let real_table = write_table cx.sv table in
  let dims = ri_dims t cx.sv real_table in
  let pins = dim_pins cx ~is_col:(is_col real_table) real_table where in
  let path_of col = Option.bind (List.assoc_opt col assigns) (value_path cx) in
  (* the assigned dimensions, each with its name in the merge state and
     the path to its new value ([None]: unknown whatever the literals) *)
  let rewrites =
    List.mapi (fun i dim -> (i, dim)) dims
    |> List.filter_map (fun (i, dim) ->
           if List.mem_assoc dim assigns then
             Some (i, dim_name t.config real_table i, path_of dim)
           else None)
  in
  let alias_rewrites =
    List.filter_map
      (fun (acol, rcol) ->
        match (path_of acol, path_of rcol) with
        | Some a, Some r -> Some (acol, a, r)
        | _ -> None)
      (aliases_for t real_table)
  in
  if List.exists (fun (_, _, path) -> path <> None) rewrites || alias_rewrites <> []
  then cx.learns := true;
  fun lits env ->
    let access = pinned pins lits env read_write in
    List.iter
      (fun (i, dim, path) ->
        let new_v = Option.bind path (fun g -> g lits env) in
        (match (new_v, access.(i).dr) with
        | Some nv, Vals olds when Vset.cardinal olds = 1 ->
            merge_values t real_table dim (Vset.choose olds) (Value.serialize nv)
        | _ -> ());
        access.(i) <-
          {
            access.(i) with
            dw =
              (match (new_v, access.(i).dw) with
              | Some nv, Vals s -> Vals (Vset.add (Value.serialize nv) s)
              | _ -> Any);
          })
      rewrites;
    List.iter
      (fun (acol, a, r) ->
        match (a lits env, r lits env) with
        | Some av, Some rv ->
            Hashtbl.replace t.alias_map
              (real_table, acol, Value.serialize av)
              (Value.serialize rv)
        | _ -> ())
      alias_rewrites;
    [ (real_table, access) ]

(* A CALL of a procedure whose body is being expanded reads and writes
   any row of every table the procedure's column sets name: its rows
   would depend on values only the recursion knows, and expanding it
   again would not end. *)
let recursion_rows t sv call =
  let rw = Rwset.of_stmt sv call in
  Rwset.Colset.fold
    (fun c acc ->
      match String.index_opt c '.' with
      | Some i when not (String.starts_with ~prefix:"_S." c) -> String.sub c 0 i :: acc
      | _ -> acc)
    (Rwset.Colset.union rw.Rwset.r rw.Rwset.w)
    []
  |> List.sort_uniq String.compare
  |> List.map (fun table ->
         (table, Array.make (max 1 (List.length (ri_dims t sv table))) { dr = Any; dw = Any }))

(* A statement's rows, the triggers it fires aside. *)
let rec stmt_plan cx (s : stmt) : step =
  let t = cx.t and sv = cx.sv in
  match s with
  | Select sel ->
      let rows = select_reads cx sel in
      fun lits env _ -> rows lits env
  | Insert_select { table; query; _ } ->
      (* the written RI values are data-dependent: a wildcard write on
         the real table, and the query's reads *)
      let real_table = write_table sv table in
      let n = max 1 (List.length (ri_dims t sv real_table)) in
      let rows = select_reads cx query in
      fun lits env _ ->
        let write_any = Array.make n { dr = no_rows; dw = Any } in
        merge_rows [ (real_table, write_any) ] (rows lits env)
  | Insert { table; columns; values } -> (
      let rows = insert_plan cx table columns values in
      match subqueries cx (List.concat values) with
      | None -> rows
      | Some sub ->
          fun lits env nondet ->
            let base = rows lits env nondet in
            merge_rows base (sub lits env []))
  | Update { table; assigns; where } -> (
      (* the assigned values' subqueries read, then the WHERE's *)
      let rows = update_plan cx table assigns where in
      match subqueries cx (List.map snd assigns @ Option.to_list where) with
      | None -> fun lits env _ -> rows lits env
      | Some sub -> fun lits env _ -> sub lits env (rows lits env))
  | Delete { table; where } -> (
      let real_table = write_table sv table in
      let pins = dim_pins cx ~is_col:(is_col real_table) real_table where in
      let base lits env = [ (real_table, pinned pins lits env read_write) ] in
      match subqueries cx (Option.to_list where) with
      | None -> fun lits env _ -> base lits env
      | Some sub -> fun lits env _ -> sub lits env (base lits env))
  | Call (name, args) -> (
      let body =
        match Schema_view.procedure sv name with
        | None -> fun _ _ _ -> []
        | Some _ when List.mem (`Proc name) cx.active ->
            let rows = recursion_rows t sv s in
            fun _ _ _ -> rows
        | Some proc ->
            call_plan { cx with active = `Proc name :: cx.active } proc args
      in
      (* the arguments' subqueries read too, before the body runs *)
      match subqueries cx args with
      | None -> body
      | Some sub ->
          fun lits env nondet ->
            let read = sub lits env [] in
            merge_rows (body lits env nondet) read)
  | Transaction stmts ->
      (* each statement fires its write table's triggers, as at top level *)
      let plans = List.map (fired_plan cx) stmts in
      fun lits env nondet ->
        List.fold_left (fun acc p -> merge_rows acc (p lits env nondet)) [] plans
  | Create_table { name; _ }
  | Drop_table { name; _ }
  | Truncate_table name
  | Alter_table (name, _) ->
      let n = max 1 (List.length (ri_dims t sv name)) in
      fun _ _ _ -> [ (name, Array.make n { dr = Any; dw = Any }) ]
  | Create_view _ | Drop_view _ | Create_index _ | Drop_index _
  | Create_procedure _ | Drop_procedure _ | Create_trigger _ | Drop_trigger _ ->
      fun _ _ _ -> []

(* A CALL of [proc] whose body is not being expanded: the body under an
   environment binding each parameter to its argument's value. *)
and call_plan cx (proc : Uv_db.Catalog.procedure) args : step =
  let scope = Hashtbl.create 8 in
  (* each parameter with the path to its argument's value, as far
     as both lists go *)
  let rec binds params args =
    match (params, args) with
    | (p, _) :: ps, a :: rest ->
        let i = slot scope p in
        (i, value_path cx a) :: binds ps rest
    | _ -> []
  in
  let binds = binds proc.Uv_db.Catalog.proc_params args in
  let body = body_plan cx scope proc.Uv_db.Catalog.proc_body in
  fun lits env nondet ->
    let callee = Array.make (Hashtbl.length scope) None in
    List.iter
      (fun (i, path) -> callee.(i) <- (match path with Some g -> g lits env | None -> None))
      binds;
    body callee nondet

(* A statement's rows, then the rows of the triggers it fires: its write
   table's, for its event. *)
and fired_plan cx s : step =
  let rows = stmt_plan cx s in
  match
    Option.bind (dml_event s) (fun (table, event) ->
        triggers_plan cx (write_table cx.sv table) event)
  with
  | None -> rows
  | Some fire ->
      fun lits env nondet ->
        let base = rows lits env nondet in
        merge_rows base (fire nondet)

(* The bodies of the triggers a write on [table] fires, merged in turn,
   each under an environment of its own; [None] when there are none. A
   trigger whose body is being expanded adds nothing new when it fires
   again, so it is not expanded again. *)
and triggers_plan cx table event =
  let bodies =
    List.filter_map
      (fun (trig : Uv_db.Catalog.trigger) ->
        let name = trig.Uv_db.Catalog.trig_name in
        if List.mem (`Trigger name) cx.active then None
        else
          let scope = Hashtbl.create 4 in
          let body =
            body_plan { cx with active = `Trigger name :: cx.active } scope
              trig.Uv_db.Catalog.trig_body
          in
          Some (fun nondet -> body (Array.make (Hashtbl.length scope) None) nondet))
      (Schema_view.triggers_for cx.sv table event)
  in
  match bodies with
  | [] -> None
  | _ ->
      Some
        (fun nondet ->
          List.fold_left (fun acc body -> merge_rows acc (body nondet)) [] bodies)

(* A body's statements read no literal of the entry's: theirs are
   constants, and a step inside is handed [no_lits]. *)
and body_plan cx scope body : env -> Value.t list -> entry_rows =
  let cx = { cx with nodes = [||]; scope = Some scope } in
  let steps = List.map (pstmt_plan cx scope) body in
  fun env nondet ->
    List.fold_left (fun acc step -> merge_rows acc (step env nondet)) [] steps

and pstmt_plan cx scope (p : pstmt) : env -> Value.t list -> entry_rows =
  (* a control step's rows, then those the subqueries of its conditions
     [es] read, under the environment before the step *)
  let reading es step =
    match subqueries cx es with
    | None -> step
    | Some sub ->
        fun env nondet ->
          let read = sub no_lits env [] in
          merge_rows (step env nondet) read
  in
  (* an assignment reads the rows its value's subqueries read *)
  let set v init =
    let i = slot scope v in
    let value = Option.bind init (value_path cx) in
    let assign (env : env) =
      env.(i) <- (match value with Some g -> g no_lits env | None -> None)
    in
    match subqueries cx (Option.to_list init) with
    | None ->
        fun env _ ->
          assign env;
          []
    | Some sub ->
        fun env _ ->
          let read = sub no_lits env [] in
          assign env;
          read
  in
  match p with
  | P_stmt s ->
      let rows = fired_plan cx s in
      fun env nondet -> rows no_lits env nondet
  | P_declare (v, _, init) -> set v init
  | P_set (v, e) -> set v (Some e)
  | P_select_into (s, vars) ->
      (* a database read: the variables' values are unknown *)
      let slots = List.map (slot scope) vars in
      let rows = select_reads cx s in
      fun env _ ->
        List.iter (fun i -> env.(i) <- None) slots;
        rows no_lits env
  | P_if (branches, else_body) ->
      (* both arms, each on a copy of the environment; a variable the
         arms leave with differing values becomes unknown *)
      let arms =
        List.map (fun (_, body) -> body_plan cx scope body) branches
        @ [ body_plan cx scope else_body ]
      in
      reading (List.map fst branches) @@ fun env nondet ->
        let results =
          List.map
            (fun arm ->
              let arm_env = Array.copy env in
              (arm_env, arm arm_env nondet))
            arms
        in
        (match results with
        | [] -> ()
        | (first, _) :: rest ->
            Array.iteri
              (fun i v ->
                env.(i) <-
                  (if List.for_all (fun (e, _) -> e.(i) = v) rest then v else None))
              first);
        List.fold_left (fun acc (_, rows) -> merge_rows acc rows) [] results
  | P_while (cond, body) ->
      (* a loop: the variables it assigns are unknown across iterations,
         the condition's included *)
      let rec assigned ps =
        List.concat_map
          (function
            | P_set (v, _) | P_declare (v, _, _) -> [ v ]
            | P_select_into (_, vars) -> vars
            | P_if (bs, eb) -> List.concat_map (fun (_, b) -> assigned b) bs @ assigned eb
            | P_while (_, b) -> assigned b
            | P_stmt _ | P_leave _ | P_signal _ -> [])
          ps
      in
      let slots = List.map (slot scope) (assigned body) in
      let body = reading [ cond ] (body_plan cx scope body) in
      fun env nondet ->
        List.iter (fun i -> env.(i) <- None) slots;
        body env nondet
  | P_leave _ | P_signal _ -> fun _ _ -> []

type plan = { step : step; lit_count : int; teaches : bool }

let plan t sv stmt =
  let nodes = ref [] and count = ref 0 in
  let numbered =
    Stmt_memo.map_lits
      (fun _ ->
        let e = Lit (Value.Int !count) in
        incr count;
        nodes := e :: !nodes;
        e)
      stmt
  in
  let nodes = Array.of_list (List.rev !nodes) in
  let learns = ref false in
  let step = fired_plan { t; sv; nodes; scope = None; active = []; learns } numbered in
  { step; lit_count = Array.length nodes; teaches = !learns }

let teaches p = p.teaches

let run p lits nondet =
  if Stmt_memo.lit_count lits <> p.lit_count then
    invalid_arg "Rowset.run: the literals are not of the plan's shape";
  p.step lits no_env nondet

let of_entry t sv stmt nondet = run (plan t sv stmt) (Stmt_memo.lits_of_stmt stmt) nondet

let of_question t sv stmt =
  let p = plan t sv stmt and lits = Stmt_memo.lits_of_stmt stmt in
  if not p.teaches then (run p lits [], [])
  else
    let copy = Hashtbl.copy in
    let c = { t with alias_map = copy t.alias_map; merge_parent = copy t.merge_parent } in
    let rows = run (plan c sv stmt) lits [] in
    (* a link [t] lacks joins a root of [t] to its root in [c], another *)
    let joined ((table, dim, v) as link) _ acc =
      if Hashtbl.mem t.merge_parent link then acc
      else (table, dim, v, find_root c table dim v) :: acc
    in
    (rows, Hashtbl.fold joined c.merge_parent [])

(* ------------------------------------------------------------------ *)
(* Overlap predicates                                                   *)
(* ------------------------------------------------------------------ *)

let overlaps t table (earlier : taccess) kind (later : taccess) =
  let dims = Array.length earlier in
  if dims <> Array.length later then true (* shape mismatch: be conservative *)
  else begin
    (* every dimension of [a]'s side of [earlier] meets [b]'s of [later] *)
    let rec pair a b i =
      i >= dims
      || rs_overlap t table i (a earlier.(i)) (b later.(i))
         && pair a b (i + 1)
    in
    let dr d = d.dr and dw d = d.dw in
    match kind with
    | `W_then_R -> pair dw dr 0
    | `Any_conflict -> pair dw dr 0 || pair dr dw 0 || pair dw dw 0
  end

let pp_riset fmt = function
  | Any -> Format.pp_print_string fmt "*"
  | Vals s ->
      Format.fprintf fmt "{%s}" (String.concat "," (Vset.elements s))

let pp_access fmt (a : taccess) =
  Array.iteri
    (fun i d ->
      if i > 0 then Format.pp_print_string fmt "; ";
      Format.fprintf fmt "r=%a w=%a" pp_riset d.dr pp_riset d.dw)
    a
