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
   need it, and only once some value was merged; [dim_name i] names
   their dimension. *)
let rs_overlap t table dim_name i a b =
  match (a, b) with
  | Any, x | x, Any -> not (rs_is_empty x)
  | Vals x, Vals y ->
      if Hashtbl.length t.merge_parent = 0 then not (Vset.disjoint x y)
      else
        let dim = dim_name i in
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
   the entry's literals and does the rest. The closures below are built
   on the shape's first statement and are handed the entry's node at the
   position they were built for: each destructures it to reach the
   literals it needs, so that path is the only thing they know of the
   statement.

   The body of a procedure or trigger is planned once, inside the plan
   of the CALL or DML statement that runs it, and its closures are
   handed the body's own nodes. A body's variables live in an
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

type step = stmt -> env -> Value.t list -> entry_rows

(* What planning reads: the RI state, the schema view, the variables in
   scope ([None] at top level) and the triggers and procedures whose
   bodies are being expanded. *)
type cx = {
  t : t;
  sv : Schema_view.t;
  scope : scope option;
  active : [ `Trigger of string | `Proc of string ] list;
  learns : bool ref;
      (* set when a step may learn an alias or a merge: shared by every
         copy of the statement's [cx] *)
}

let not_of_shape () =
  invalid_arg "Rowset.run: the statement is not of the plan's shape"

(* The value of [e], compiled: [None] when it is unknown whatever the
   literals and variables. *)
let rec value_path scope (e : expr) : (expr -> env -> Value.t option) option =
  match e with
  | Lit _ -> Some (fun e _ -> match e with Lit v -> Some v | _ -> not_of_shape ())
  | Var name ->
      Option.map
        (fun scope ->
          let i = slot scope name in
          fun _ (env : env) -> env.(i))
        scope
  | Unop (op, a) ->
      Option.map
        (fun ga e env ->
          match e with
          | Unop (_, a) -> Option.map (peval_unop op) (ga a env)
          | _ -> not_of_shape ())
        (value_path scope a)
  | Binop (op, a, b) -> (
      match (value_path scope a, value_path scope b) with
      | Some ga, Some gb ->
          Some
            (fun e env ->
              match e with
              | Binop (_, a, b) -> (
                  match (ga a env, gb b env) with
                  | Some va, Some vb -> Some (peval_binop op va vb)
                  | _ -> None)
              | _ -> not_of_shape ())
      | _ -> None)
  | Fun_call ("CONCAT", args) ->
      let gs = List.map (value_path scope) args in
      if List.for_all Option.is_some gs then
        let gs = List.map Option.get gs in
        Some
          (fun e env ->
            match e with
            | Fun_call (_, args) ->
                peval_concat (List.map2 (fun g a -> g a env) gs args)
            | _ -> not_of_shape ())
      else None
  | Fun_call ("IF", [ c; a; b ]) -> (
      let arm g x env = match g with Some g -> g x env | None -> None in
      match (value_path scope c, value_path scope a, value_path scope b) with
      | None, _, _ | _, None, None -> None
      | Some gc, ga, gb ->
          Some
            (fun e env ->
              match e with
              | Fun_call (_, [ c; a; b ]) -> (
                  match gc c env with
                  | Some cv -> if Value.to_bool cv then arm ga a env else arm gb b env
                  | None -> None)
              | _ -> not_of_shape ()))
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
let rec where_pin cx ~is_col table dim (e : expr) : (expr -> env -> riset) option =
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
      let pin ~right alias other =
        Option.map
          (fun g ->
            let of_value =
              match alias with
              | None -> value_set
              | Some acol -> alias_lookup cx.t table acol
            in
            fun e env ->
              match e with
              | Binop (_, l, r) -> (
                  match g (if right then r else l) env with
                  | Some v -> of_value v
                  | None -> Any)
              | _ -> not_of_shape ())
          (value_path cx.scope other)
      in
      match (names lhs, names rhs) with
      | Some alias, _ -> pin ~right:true alias rhs
      | None, Some alias -> pin ~right:false alias lhs
      | None, None -> None)
  | In_list (c, items) when is_col dim c ->
      let gs = List.map (value_path cx.scope) items in
      if List.for_all Option.is_some gs then
        let gs = List.map Option.get gs in
        Some
          (fun e env ->
            match e with
            | In_list (_, items) ->
                let vals = List.map2 (fun g e -> g e env) gs items in
                if List.for_all Option.is_some vals then
                  Vals
                    (Vset.of_list
                       (List.map (fun v -> Value.serialize (Option.get v)) vals))
                else Any
            | _ -> not_of_shape ())
      else None
  | Binop (And, a, b) -> (
      (* [Any] is [rs_inter]'s identity *)
      match (where_pin cx ~is_col table dim a, where_pin cx ~is_col table dim b) with
      | None, None -> None
      | Some pa, None ->
          Some (fun e env -> match e with Binop (_, a, _) -> pa a env | _ -> not_of_shape ())
      | None, Some pb ->
          Some (fun e env -> match e with Binop (_, _, b) -> pb b env | _ -> not_of_shape ())
      | Some pa, Some pb ->
          Some
            (fun e env ->
              match e with
              | Binop (_, a, b) -> rs_inter (pa a env) (pb b env)
              | _ -> not_of_shape ()))
  | Binop (Or, a, b) -> (
      (* [Any] absorbs [rs_union] *)
      match (where_pin cx ~is_col table dim a, where_pin cx ~is_col table dim b) with
      | Some pa, Some pb ->
          Some
            (fun e env ->
              match e with
              | Binop (_, a, b) -> rs_union (pa a env) (pb b env)
              | _ -> not_of_shape ())
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

(* The pinned rows of the entry's [where], one access per dimension. *)
let pinned pins where env access : taccess =
  let rows = Array.make (Array.length pins) (access Any) in
  for i = 0 to Array.length pins - 1 do
    match pins.(i) with
    | None -> ()
    | Some pin -> (
        match where with
        | Some w -> rows.(i) <- access (pin w env)
        | None -> not_of_shape ())
  done;
  rows

let read_only rs = { dr = rs; dw = no_rows }
let read_write rs = { dr = rs; dw = rs }

(* The rows a SELECT's sources read, its subqueries aside: a table's
   under the SELECT's WHERE, a view's base table's under the view's own
   WHERE. In a join each column pins only the source it names. *)
let select_plan cx (s : select) : select -> env -> entry_rows =
  let sources =
    Option.to_list s.sel_from
    @ List.map (fun j -> (j.join_table, j.join_alias)) s.sel_joins
  in
  let read k (table, _) =
    match Schema_view.view cx.sv table with
    | Some { sel_from = Some (parent, _); sel_where = w; _ } ->
        let pins = dim_pins cx ~is_col:(is_col parent) parent w in
        Some (fun _ env -> (parent, pinned pins w env read_only))
    | Some _ -> None
    | None ->
        let is_col =
          match sources with [ _ ] -> is_col table | _ -> join_col cx.sv sources k
        in
        let pins = dim_pins cx ~is_col table s.sel_where in
        Some (fun (sel : select) env -> (table, pinned pins sel.sel_where env read_only))
  in
  match List.filter_map Fun.id (List.mapi read sources) with
  | [] -> fun _ _ -> []
  | [ read ] -> fun sel env -> [ read sel env ]
  | reads ->
      fun sel env ->
        List.fold_left (fun acc read -> merge_rows acc [ read sel env ]) [] reads

(* [step p e env acc] for each planned [p] and its expression [e] of the
   entry, in turn; [None] when no expression has a plan. *)
let fold_plans plans step =
  if List.for_all Option.is_none plans then None
  else
    Some
      (fun es env acc ->
        List.fold_left2
          (fun acc p e -> match p with Some p -> step p e env acc | None -> acc)
          acc plans es)

let select_exprs (sel : select) =
  Option.to_list sel.sel_where
  @ Option.to_list sel.sel_having
  @ List.filter_map (function Item (e, _) -> Some e | Star -> None) sel.sel_items

(* The rows a SELECT reads: its sources', then those of the subqueries
   in its WHERE, HAVING and projection, nested ones included. *)
let rec select_reads cx (s : select) : select -> env -> entry_rows =
  let rows = select_plan cx s in
  match subqueries cx (select_exprs s) with
  | None -> rows
  | Some sub -> fun sel env -> sub (select_exprs sel) env (rows sel env)

(* The rows the subqueries in [e] read, merged onto [acc] in the order a
   left-to-right walk meets them; [None] when [e] has none. *)
and walk_plan cx (e : expr) : (expr -> env -> entry_rows -> entry_rows) option =
  let walk_all es children =
    Option.map
      (fun walk e env acc -> walk (children e) env acc)
      (fold_plans (List.map (walk_plan cx) es) (fun w e env acc -> w e env acc))
  in
  match e with
  | Subselect s | Exists s ->
      let rows = select_reads cx s in
      Some
        (fun e env acc ->
          match e with
          | Subselect s | Exists s -> merge_rows acc (rows s env)
          | _ -> not_of_shape ())
  | Binop (_, a, b) ->
      walk_all [ a; b ] (function Binop (_, a, b) -> [ a; b ] | _ -> not_of_shape ())
  | Unop (_, a) | Is_null (a, _) ->
      walk_all [ a ] (function Unop (_, a) | Is_null (a, _) -> [ a ] | _ -> not_of_shape ())
  | Fun_call (_, args) ->
      walk_all args (function Fun_call (_, args) -> args | _ -> not_of_shape ())
  | In_list (a, items) ->
      walk_all (a :: items) (function
        | In_list (a, items) -> a :: items
        | _ -> not_of_shape ())
  | Between (a, b, c) ->
      walk_all [ a; b; c ] (function
        | Between (a, b, c) -> [ a; b; c ]
        | _ -> not_of_shape ())
  | Lit _ | Col _ | Var _ -> None

(* Each expression's subquery rows, merged in turn onto the rows so far;
   [None] when none of [es] has a subquery. *)
and subqueries cx es =
  fold_plans (List.map (walk_plan cx) es) (fun w e env acc ->
      merge_rows acc (w e env []))

(* Where each RI dimension's or alias column's value comes from in one
   VALUES row of an INSERT. *)
type source = Unbound | Drawn | At of int * (expr -> env -> Value.t option)

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
    let rec bound i cs es =
      match (cs, es) with
      | c :: cr, e :: er -> (c, i, e) :: bound (i + 1) cr er
      | _ -> []
    in
    let bound = bound 0 cols row_exprs in
    let draws = List.fold_left (fun a e -> a + count_draws e) 0 row_exprs in
    let drawn =
      match auto_col with
      | Some ac -> not (List.exists (fun (c, _, _) -> String.equal c ac) bound)
      | None -> false
    in
    let source col =
      if drawn && Option.equal String.equal auto_col (Some col) then Drawn
      else
        match List.find_opt (fun (c, _, _) -> String.equal c col) bound with
        | Some (_, i, e) -> (
            match value_path cx.scope e with Some g -> At (i, g) | None -> Unbound)
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
  fun (values : expr list list) env nondet ->
    let nondet = ref nondet in
    let per_dim_written = Array.make ndims no_rows in
    let learned = ref [] in
    List.iter2
      (fun (draws, dim_sources, alias_sources) row ->
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
          | At (i, g) -> g (List.nth row i) env
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
      rows values;
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
  let assigned col =
    let rec find i = function
      | (c, e) :: rest -> if String.equal c col then Some (i, e) else find (i + 1) rest
      | [] -> None
    in
    find 0 assigns
  in
  let path_of col =
    Option.bind (assigned col) (fun (i, e) ->
        Option.map (fun g -> (i, g)) (value_path cx.scope e))
  in
  (* the assigned dimensions, each with the path to its new value
     ([None]: unknown whatever the literals) *)
  let rewrites =
    List.mapi
      (fun i dim -> Option.map (fun _ -> (i, dim, path_of dim)) (assigned dim))
      dims
    |> List.filter_map Fun.id
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
  fun (assigns : (string * expr) list) where env ->
    let access = pinned pins where env read_write in
    let value (i, g) = g (snd (List.nth assigns i)) env in
    List.iter
      (fun (i, dim, path) ->
        let new_v = Option.bind path value in
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
        match (value a, value r) with
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
      fun s env _ ->
        (match s with Select sel -> rows sel env | _ -> not_of_shape ())
  | Insert_select { table; query; _ } ->
      (* the written RI values are data-dependent: a wildcard write on
         the real table, and the query's reads *)
      let real_table = write_table sv table in
      let n = max 1 (List.length (ri_dims t sv real_table)) in
      let rows = select_reads cx query in
      fun s env _ ->
        (match s with
        | Insert_select { query; _ } ->
            let write_any = Array.make n { dr = no_rows; dw = Any } in
            merge_rows [ (real_table, write_any) ] (rows query env)
        | _ -> not_of_shape ())
  | Insert { table; columns; values } -> (
      let rows = insert_plan cx table columns values in
      let values_of = function Insert i -> i.values | _ -> not_of_shape () in
      match subqueries cx (List.concat values) with
      | None -> fun s env nondet -> rows (values_of s) env nondet
      | Some sub ->
          fun s env nondet ->
            let values = values_of s in
            let base = rows values env nondet in
            merge_rows base (sub (List.concat values) env []))
  | Update { table; assigns; where } ->
      (* the assigned values' subqueries read, then the WHERE's *)
      let rows = update_plan cx table assigns where in
      let exprs assigns where = List.map snd assigns @ Option.to_list where in
      let sub = subqueries cx (exprs assigns where) in
      fun s env _ ->
        (match s with
        | Update u -> (
            let base = rows u.assigns u.where env in
            match sub with
            | None -> base
            | Some sub -> sub (exprs u.assigns u.where) env base)
        | _ -> not_of_shape ())
  | Delete { table; where } ->
      let real_table = write_table sv table in
      let pins = dim_pins cx ~is_col:(is_col real_table) real_table where in
      let sub = subqueries cx (Option.to_list where) in
      fun s env _ ->
        (match s with
        | Delete d -> (
            let base = [ (real_table, pinned pins d.where env read_write) ] in
            match sub with
            | None -> base
            | Some sub -> sub (Option.to_list d.where) env base)
        | _ -> not_of_shape ())
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
          fun s env nondet ->
            (match s with
            | Call (_, args) ->
                let read = sub args env [] in
                merge_rows (body s env nondet) read
            | _ -> not_of_shape ()))
  | Transaction stmts ->
      (* each statement fires its write table's triggers, as at top level *)
      let plans = List.map (fired_plan cx) stmts in
      fun s env nondet ->
        (match s with
        | Transaction stmts ->
            List.fold_left2
              (fun acc p s -> merge_rows acc (p s env nondet))
              [] plans stmts
        | _ -> not_of_shape ())
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
        (i, value_path cx.scope a) :: binds ps rest
    | _ -> []
  in
  let binds = binds proc.Uv_db.Catalog.proc_params args in
  let body = body_plan cx scope proc.Uv_db.Catalog.proc_body in
  fun s env nondet ->
    (match s with
    | Call (_, args) ->
        let callee = Array.make (Hashtbl.length scope) None in
        let rec bind binds args =
          match (binds, args) with
          | (i, path) :: binds, a :: rest ->
              callee.(i) <- (match path with Some g -> g a env | None -> None);
              bind binds rest
          | _ -> ()
        in
        bind binds args;
        body callee nondet
    | _ -> not_of_shape ())

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
      fun s env nondet ->
        let base = rows s env nondet in
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

and body_plan cx scope body : env -> Value.t list -> entry_rows =
  let cx = { cx with scope = Some scope } in
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
          let read = sub es env [] in
          merge_rows (step env nondet) read
  in
  (* an assignment reads the rows its value's subqueries read *)
  let set v init =
    let i = slot scope v in
    let value =
      Option.bind init (fun e -> Option.map (fun g -> g e) (value_path cx.scope e))
    in
    let assign (env : env) =
      env.(i) <- (match value with Some g -> g env | None -> None)
    in
    let es = Option.to_list init in
    match subqueries cx es with
    | None ->
        fun env _ ->
          assign env;
          []
    | Some sub ->
        fun env _ ->
          let read = sub es env [] in
          assign env;
          read
  in
  match p with
  | P_stmt s ->
      let rows = fired_plan cx s in
      fun env nondet -> rows s env nondet
  | P_declare (v, _, init) -> set v init
  | P_set (v, e) -> set v (Some e)
  | P_select_into (s, vars) ->
      (* a database read: the variables' values are unknown *)
      let slots = List.map (slot scope) vars in
      let rows = select_reads cx s in
      fun env _ ->
        List.iter (fun i -> env.(i) <- None) slots;
        rows s env
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

type plan = { step : step; teaches : bool }

let plan t sv stmt =
  let learns = ref false in
  let step = fired_plan { t; sv; scope = None; active = []; learns } stmt in
  { step; teaches = !learns }

let teaches p = p.teaches
let run p stmt nondet = p.step stmt no_env nondet
let of_entry t sv stmt nondet = run (plan t sv stmt) stmt nondet

(* ------------------------------------------------------------------ *)
(* Overlap predicates                                                   *)
(* ------------------------------------------------------------------ *)

let overlaps t table (earlier : taccess) kind (later : taccess) =
  let dims = Array.length earlier in
  if dims <> Array.length later then true (* shape mismatch: be conservative *)
  else begin
    let dim_name i =
      match List.assoc_opt table t.config.ri_columns with
      | Some ds when List.length ds = dims -> List.nth ds i
      | _ -> "#" ^ string_of_int i
    in
    (* every dimension of [a]'s side of [earlier] meets [b]'s of [later] *)
    let rec pair a b i =
      i >= dims
      || rs_overlap t table dim_name i (a earlier.(i)) (b later.(i))
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
