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

let aliases t = sorted t.alias_map
let merge_parents t = sorted t.merge_parent

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

let rs_canon t table dim = function
  | Any -> Any
  | Vals s -> Vals (Vset.map (fun v -> canonical t table dim v) s)

let rs_overlap t table dim a b =
  match (rs_canon t table dim a, rs_canon t table dim b) with
  | Any, x | x, Any -> not (rs_is_empty x)
  | Vals x, Vals y -> not (Vset.is_empty (Vset.inter x y))


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

(* Variables map to [Some v] when their value is statically determined
   (bound from literal CALL arguments or literal SETs), [None] when
   unknown (database reads, non-determinism). *)
type penv = (string, Value.t option) Hashtbl.t

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

let rec peval (env : penv) (e : expr) : Value.t option =
  match e with
  | Lit v -> Some v
  | Var name -> ( match Hashtbl.find_opt env name with Some v -> v | None -> None)
  | Col _ -> None
  | Unop (op, a) -> Option.map (peval_unop op) (peval env a)
  | Binop (op, a, b) -> (
      match (peval env a, peval env b) with
      | Some va, Some vb -> Some (peval_binop op va vb)
      | _ -> None)
  | Fun_call ("CONCAT", args) -> peval_concat (List.map (peval env) args)
  | Fun_call ("IF", [ c; a; b ]) -> (
      match peval env c with
      | Some cv -> if Value.to_bool cv then peval env a else peval env b
      | None -> None)
  | Fun_call _ | Subselect _ | Exists _ -> None
  | In_list _ | Between _ | Is_null _ -> None

(* ------------------------------------------------------------------ *)
(* WHERE-clause constraint extraction                                   *)
(* ------------------------------------------------------------------ *)

(* Does [e] name column [name] of [table] (unqualified, or qualified by
   the table's own name)? *)
let is_col table name = function
  | Col (None, c) -> String.equal c name
  | Col (Some q, c) -> String.equal q table && String.equal c name
  | _ -> false

(* Extract the riset a WHERE clause pins for dimension [dim] of [table],
   considering alias columns. Unqualified column names are assumed to
   refer to [table] (single-table DML). *)
let rec where_constraint t env table dim (e : expr) : riset =
  let is_col = is_col table in
  match e with
  | Binop (Eq, lhs, rhs) -> (
      let sides = [ (lhs, rhs); (rhs, lhs) ] in
      let try_side (a, b) =
        if is_col dim a then
          match peval env b with Some v -> Some (value_set v) | None -> Some Any
        else
          match
            List.find_opt (fun (acol, rcol) -> String.equal rcol dim && is_col acol a)
              (aliases_for t table)
          with
          | Some (acol, _) -> (
              match peval env b with
              | Some v -> Some (alias_lookup t table acol v)
              | None -> Some Any)
          | None -> None
      in
      match List.find_map try_side sides with
      | Some rs -> rs
      | None -> Any)
  | In_list (c, items) when is_col dim c ->
      let vals = List.map (peval env) items in
      if List.for_all Option.is_some vals then
        Vals (Vset.of_list (List.map (fun v -> Value.serialize (Option.get v)) vals))
      else Any
  | Binop (And, a, b) ->
      rs_inter (where_constraint t env table dim a) (where_constraint t env table dim b)
  | Binop (Or, a, b) ->
      rs_union (where_constraint t env table dim a) (where_constraint t env table dim b)
  | _ -> Any

let constrain_dims t env sv table where : riset array =
  let dims = ri_dims t sv table in
  match dims with
  | [] -> [| Any |]
  | _ ->
      Array.of_list
        (List.map
           (fun dim ->
             match where with
             | None -> Any
             | Some w -> where_constraint t env table dim w)
           dims)

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

let dml_event = function
  | Insert { table; _ } -> Some (table, Ev_insert)
  | Update { table; _ } -> Some (table, Ev_update)
  | Delete { table; _ } -> Some (table, Ev_delete)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-statement extraction                                             *)
(* ------------------------------------------------------------------ *)

let read_only_dims t sv table where env : taccess =
  let cs = constrain_dims t env sv table where in
  Array.map (fun rs -> { dr = rs; dw = Vals Vset.empty }) cs

let rw_dims t sv table where env : taccess =
  let cs = constrain_dims t env sv table where in
  Array.map (fun rs -> { dr = rs; dw = rs }) cs

let any_access t sv table : taccess =
  let dims = ri_dims t sv table in
  let n = max 1 (List.length dims) in
  Array.init n (fun _ -> { dr = Any; dw = Any })

let select_rows t env sv (s : select) : entry_rows =
  let sources =
    (match s.sel_from with Some (tbl, _) -> [ tbl ] | None -> [])
    @ List.map (fun j -> j.join_table) s.sel_joins
  in
  List.fold_left
    (fun acc table ->
      if Schema_view.is_view sv table then
        (* view reads degrade to Any on underlying table *)
        match Schema_view.view sv table with
        | Some q -> (
            match q.sel_from with
            | Some (parent, _) ->
                merge_rows acc
                  [ (parent, read_only_dims t sv parent q.sel_where env) ]
            | None -> acc)
        | None -> acc
      else
        (* every source table reads under the one WHERE *)
        merge_rows acc [ (table, read_only_dims t sv table s.sel_where env) ])
    [] sources

(* Learn alias mappings and extract the written RI values of an INSERT. *)
let insert_rows t env sv table columns values nondet : entry_rows =
  let real_table = write_table sv table in
  let dims = ri_dims t sv real_table in
  let cols =
    match columns with
    | Some cs -> Some cs
    | None -> Schema_view.table_columns sv real_table
  in
  let auto_col = Schema_view.auto_increment_column sv real_table in
  let nondet = ref nondet in
  let take_nondet n =
    (* drop n leading draws, return the next one *)
    let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r in
    let rest = drop n !nondet in
    match rest with
    | v :: r ->
        nondet := r;
        Some v
    | [] ->
        nondet := [];
        None
  in
  let per_dim_written = Array.make (max 1 (List.length dims)) (Vals Vset.empty) in
  let learned = ref [] in
  List.iter
    (fun row_exprs ->
      let draws_in_row = List.fold_left (fun a e -> a + count_draws e) 0 row_exprs in
      (* column -> evaluated value (when static) *)
      let bindings =
        match cols with
        | None -> []
        | Some cs ->
            let rec zip cs es acc =
              match (cs, es) with
              | c :: cr, e :: er -> zip cr er ((c, peval env e) :: acc)
              | _ -> List.rev acc
            in
            zip cs row_exprs []
      in
      (* AUTO_INCREMENT value comes from the recorded draws when the
         column was not given explicitly. *)
      let bindings =
        match auto_col with
        | Some ac when List.assoc_opt ac bindings = None -> (
            match take_nondet draws_in_row with
            | Some v -> (ac, Some v) :: bindings
            | None -> (ac, None) :: bindings)
        | _ ->
            ignore (take_nondet draws_in_row);
            bindings
      in
      (* record written RI values per dimension *)
      List.iteri
        (fun i dim ->
          let v = Option.join (List.assoc_opt dim bindings) in
          per_dim_written.(i) <-
            (match (per_dim_written.(i), v) with
            | Any, _ | _, None -> Any
            | Vals s, Some v -> Vals (Vset.add (Value.serialize v) s)))
        dims;
      (* learn alias mappings when both sides are known *)
      List.iter
        (fun (acol, rcol) ->
          match
            (Option.join (List.assoc_opt acol bindings),
             Option.join (List.assoc_opt rcol bindings))
          with
          | Some av, Some rv ->
              learned := (acol, Value.serialize av, Value.serialize rv) :: !learned
          | _ -> ())
        (aliases_for t real_table))
    values;
  List.iter
    (fun (acol, av, rv) -> Hashtbl.replace t.alias_map (real_table, acol, av) rv)
    !learned;
  let access =
    if dims = [] then any_access t sv real_table
    else Array.map (fun w -> { dr = Vals Vset.empty; dw = w }) per_dim_written
  in
  [ (real_table, access) ]

let update_rows_access t env sv table assigns where : entry_rows =
  let real_table = write_table sv table in
  let dims = ri_dims t sv real_table in
  let access = rw_dims t sv real_table where env in
  (* RI value rewritten by the assignment: merge old/new (§4.3). *)
  List.iteri
    (fun i dim ->
      match List.assoc_opt dim assigns with
      | None -> ()
      | Some e -> (
          let new_v = peval env e in
          let old_rs = access.(i).dr in
          (match (new_v, old_rs) with
          | Some nv, Vals olds when Vset.cardinal olds = 1 ->
              merge_values t real_table dim (Vset.choose olds) (Value.serialize nv)
          | _ -> ());
          (* the write now also covers the new value *)
          access.(i) <-
            {
              access.(i) with
              dw =
                (match (new_v, access.(i).dw) with
                | Some nv, Vals s -> Vals (Vset.add (Value.serialize nv) s)
                | _ -> Any);
            }))
    dims;
  (* alias columns updated: refresh alias map when determinable *)
  List.iter
    (fun (acol, rcol) ->
      match List.assoc_opt acol assigns with
      | None -> ()
      | Some e -> (
          match
            (peval env e,
             match List.assoc_opt rcol assigns with
             | Some re -> peval env re
             | None -> None)
          with
          | Some av, Some rv ->
              Hashtbl.replace t.alias_map
                (real_table, acol, Value.serialize av)
                (Value.serialize rv)
          | _ -> ()))
    (aliases_for t real_table);
  [ (real_table, access) ]

let rec stmt_rows t env sv (s : stmt) nondet : entry_rows =
  match s with
  | Select sel ->
      (* subqueries in the projection, WHERE or HAVING read other tables *)
      let base = select_rows t env sv sel in
      let exprs =
        (match sel.sel_where with Some w -> [ w ] | None -> [])
        @ (match sel.sel_having with Some h -> [ h ] | None -> [])
        @ List.filter_map
            (function Item (e, _) -> Some e | Star -> None)
            sel.sel_items
      in
      List.fold_left
        (fun acc e -> merge_rows acc (expr_subquery_rows t env sv e))
        base exprs
  | Insert_select { table; query; _ } ->
      (* written RI values are data-dependent: wildcard write on the real
         table; reads come from the source query (plus insert triggers) *)
      let real_table = write_table sv table in
      let dims = ri_dims t sv real_table in
      let n = max 1 (List.length dims) in
      let write_any =
        Array.init n (fun _ -> { dr = Vals Vset.empty; dw = Any })
      in
      merge_rows
        (merge_rows [ (real_table, write_any) ] (select_rows t env sv query))
        (trigger_rows t sv (Schema_view.triggers_for sv real_table Ev_insert) nondet)
  | Insert { table; columns; values } ->
      let base = insert_rows t env sv table columns values nondet in
      (* subqueries inside VALUES read other tables *)
      let sub =
        List.fold_left
          (fun acc row ->
            List.fold_left
              (fun acc e -> merge_rows acc (expr_subquery_rows t env sv e))
              acc row)
          [] values
      in
      merge_rows base sub
  | Update { table; assigns; where } ->
      let base = update_rows_access t env sv table assigns where in
      merge_rows base (where_subquery_rows t env sv where)
  | Delete { table; where } ->
      let real_table = write_table sv table in
      merge_rows
        [ (real_table, rw_dims t sv real_table where env) ]
        (where_subquery_rows t env sv where)
  | Call (name, args) -> (
      match Schema_view.procedure sv name with
      | None -> []
      | Some proc ->
          let env' : penv = Hashtbl.create 8 in
          (try
             List.iter2
               (fun (pname, _) a -> Hashtbl.replace env' pname (peval env a))
               proc.Uv_db.Catalog.proc_params args
           with Invalid_argument _ -> ());
          pstmts_rows t env' sv proc.Uv_db.Catalog.proc_body nondet)
  | Transaction stmts ->
      (* each DML statement fires its write table's triggers, as at top
         level *)
      List.fold_left
        (fun acc s ->
          merge_rows acc
            (merge_rows (stmt_rows t env sv s nondet) (fired_rows t sv s nondet)))
        [] stmts
  | Create_table { name; _ }
  | Drop_table { name; _ }
  | Truncate_table name
  | Alter_table (name, _) ->
      [ (name, any_access t sv name) ]
  | Create_view _ | Drop_view _ | Create_index _ | Drop_index _
  | Create_procedure _ | Drop_procedure _ | Create_trigger _ | Drop_trigger _ ->
      []

and expr_subquery_rows t env sv (e : expr) : entry_rows =
  let rec walk (e : expr) acc =
    match e with
    | Subselect s | Exists s -> merge_rows acc (select_rows t env sv s)
    | Binop (_, a, b) -> walk b (walk a acc)
    | Unop (_, a) -> walk a acc
    | Fun_call (_, args) -> List.fold_left (fun acc a -> walk a acc) acc args
    | In_list (a, items) -> List.fold_left (fun acc x -> walk x acc) (walk a acc) items
    | Between (a, b, c) -> walk c (walk b (walk a acc))
    | Is_null (a, _) -> walk a acc
    | Lit _ | Col _ | Var _ -> acc
  in
  walk e []

and where_subquery_rows t env sv where : entry_rows =
  match where with None -> [] | Some w -> expr_subquery_rows t env sv w

and pstmts_rows t (env : penv) sv body nondet : entry_rows =
  List.fold_left (fun acc p -> merge_rows acc (pstmt_rows t env sv p nondet)) [] body

and pstmt_rows t (env : penv) sv (p : pstmt) nondet : entry_rows =
  match p with
  | P_stmt s ->
      (* triggers fired by nested DML: approximate with Any on the tables
         the trigger bodies touch *)
      let base = stmt_rows t env sv s nondet in
      merge_rows base (fired_rows t sv s nondet)
  | P_declare (v, _, init) ->
      Hashtbl.replace env v (Option.bind init (peval env));
      []
  | P_set (v, e) ->
      Hashtbl.replace env v (peval env e);
      []
  | P_select_into (s, vars) ->
      (* database read: results are unknown at analysis time *)
      List.iter (fun v -> Hashtbl.replace env v None) vars;
      select_rows t env sv s
  | P_if (branches, else_body) ->
      (* both arms, with variable states merged pessimistically *)
      let arms =
        List.map (fun (_, body) -> body) branches @ [ else_body ]
      in
      let results =
        List.map
          (fun body ->
            let env_copy = Hashtbl.copy env in
            let rows = pstmts_rows t env_copy sv body nondet in
            (env_copy, rows))
          arms
      in
      (* merge variable environments: differing values become unknown *)
      let all_keys =
        List.concat_map
          (fun (e, _) -> Hashtbl.fold (fun k _ acc -> k :: acc) e [])
          results
        |> List.sort_uniq compare
      in
      List.iter
        (fun k ->
          let vals =
            List.map
              (fun (e, _) -> match Hashtbl.find_opt e k with Some v -> v | None -> None)
              results
          in
          let merged =
            match vals with
            | [] -> None
            | v :: rest -> if List.for_all (fun x -> x = v) rest then v else None
          in
          Hashtbl.replace env k merged)
        all_keys;
      List.fold_left (fun acc (_, rows) -> merge_rows acc rows) [] results
  | P_while (_, body) ->
      (* loop: assigned variables are unknown across iterations *)
      let assigned = ref [] in
      let rec scan ps =
        List.iter
          (fun p ->
            match p with
            | P_set (v, _) | P_declare (v, _, _) -> assigned := v :: !assigned
            | P_select_into (_, vars) -> assigned := vars @ !assigned
            | P_if (bs, eb) ->
                List.iter (fun (_, b) -> scan b) bs;
                scan eb
            | P_while (_, b) -> scan b
            | _ -> ())
          ps
      in
      scan body;
      List.iter (fun v -> Hashtbl.replace env v None) !assigned;
      pstmts_rows t env sv body nondet
  | P_leave _ | P_signal _ -> []

(* The rows the bodies of triggers [trigs] touch, each body interpreted
   under an environment of its own. *)
and trigger_rows t sv trigs nondet : entry_rows =
  List.fold_left
    (fun acc (trig : Uv_db.Catalog.trigger) ->
      let env : penv = Hashtbl.create 4 in
      merge_rows acc (pstmts_rows t env sv trig.Uv_db.Catalog.trig_body nondet))
    [] trigs

(* The triggers a DML statement fires: its write table's, for its event. *)
and fired_rows t sv (s : stmt) nondet : entry_rows =
  match dml_event s with
  | Some (table, event) ->
      trigger_rows t sv
        (Schema_view.triggers_for sv (write_table sv table) event)
        nondet
  | None -> []

(* ------------------------------------------------------------------ *)
(* Plans: the shape's half of the extraction, once per shape            *)
(* ------------------------------------------------------------------ *)

(* [plan] makes every decision of [stmt_rows] that reads only the
   statement's structure, the schema view and the RI config; [run] reads
   the entry's literals and does the rest, in the interpreter's order.
   The closures below are built on the shape's first statement and are
   handed the entry's node at the position they were built for: each
   destructures it to reach the literals it needs, so that path is the
   only thing they know of the statement. A top-level statement is
   evaluated under the empty environment, where [peval] reads only
   literals. *)

type plan = { interpreted : bool; run : stmt -> Value.t list -> entry_rows }

let not_of_shape () =
  invalid_arg "Rowset.run: the statement is not of the plan's shape"

(* [peval] under the empty environment, compiled: [None] when the value
   is unknown whatever the literals. *)
let rec value_path (e : expr) : (expr -> Value.t option) option =
  match e with
  | Lit _ -> Some (function Lit v -> Some v | _ -> not_of_shape ())
  | Unop (op, a) ->
      Option.map
        (fun ga -> function
          | Unop (_, a) -> Option.map (peval_unop op) (ga a)
          | _ -> not_of_shape ())
        (value_path a)
  | Binop (op, a, b) -> (
      match (value_path a, value_path b) with
      | Some ga, Some gb ->
          Some
            (function
            | Binop (_, a, b) -> (
                match (ga a, gb b) with
                | Some va, Some vb -> Some (peval_binop op va vb)
                | _ -> None)
            | _ -> not_of_shape ())
      | _ -> None)
  | Fun_call ("CONCAT", args) ->
      let gs = List.map value_path args in
      if List.for_all Option.is_some gs then
        let gs = List.map Option.get gs in
        Some
          (function
          | Fun_call (_, args) -> peval_concat (List.map2 (fun g a -> g a) gs args)
          | _ -> not_of_shape ())
      else None
  | Fun_call ("IF", [ c; a; b ]) -> (
      let arm g x = match g with Some g -> g x | None -> None in
      match (value_path c, value_path a, value_path b) with
      | None, _, _ | _, None, None -> None
      | Some gc, ga, gb ->
          Some
            (function
            | Fun_call (_, [ c; a; b ]) -> (
                match gc c with
                | Some cv -> if Value.to_bool cv then arm ga a else arm gb b
                | None -> None)
            | _ -> not_of_shape ()))
  | Var _ | Col _ | Fun_call _ | Subselect _ | Exists _ | In_list _ | Between _
  | Is_null _ ->
      None

(* [where_constraint] for one dimension, compiled: [None] when it is
   [Any] whatever the literals. For [=], the side naming the dimension
   (or an alias column of it) is found here, so the literal is read from
   the other side; an alias is looked up at run time, in the alias map
   as it stands then. *)
let rec where_pin t table dim (e : expr) : (expr -> riset) option =
  let is_col = is_col table in
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
            (aliases_for t table)
      in
      let pin ~right alias other =
        Option.map
          (fun g ->
            let of_value =
              match alias with
              | None -> value_set
              | Some acol -> alias_lookup t table acol
            in
            function
            | Binop (_, l, r) -> (
                match g (if right then r else l) with
                | Some v -> of_value v
                | None -> Any)
            | _ -> not_of_shape ())
          (value_path other)
      in
      match (names lhs, names rhs) with
      | Some alias, _ -> pin ~right:true alias rhs
      | None, Some alias -> pin ~right:false alias lhs
      | None, None -> None)
  | In_list (c, items) when is_col dim c ->
      let gs = List.map value_path items in
      if List.for_all Option.is_some gs then
        let gs = List.map Option.get gs in
        Some
          (function
          | In_list (_, items) ->
              let vals = List.map2 (fun g e -> g e) gs items in
              if List.for_all Option.is_some vals then
                Vals
                  (Vset.of_list
                     (List.map (fun v -> Value.serialize (Option.get v)) vals))
              else Any
          | _ -> not_of_shape ())
      else None
  | Binop (And, a, b) -> (
      (* [Any] is [rs_inter]'s identity *)
      match (where_pin t table dim a, where_pin t table dim b) with
      | None, None -> None
      | Some pa, None ->
          Some (function Binop (_, a, _) -> pa a | _ -> not_of_shape ())
      | None, Some pb ->
          Some (function Binop (_, _, b) -> pb b | _ -> not_of_shape ())
      | Some pa, Some pb ->
          Some
            (function
            | Binop (_, a, b) -> rs_inter (pa a) (pb b)
            | _ -> not_of_shape ()))
  | Binop (Or, a, b) -> (
      (* [Any] absorbs [rs_union] *)
      match (where_pin t table dim a, where_pin t table dim b) with
      | Some pa, Some pb ->
          Some
            (function
            | Binop (_, a, b) -> rs_union (pa a) (pb b)
            | _ -> not_of_shape ())
      | _ -> None)
  | _ -> None

(* [constrain_dims], compiled: one pin per RI dimension of [table]. *)
let dim_pins t sv table where =
  match ri_dims t sv table with
  | [] -> [| None |]
  | dims ->
      Array.of_list
        (List.map (fun dim -> Option.bind where (where_pin t table dim)) dims)

let no_rows = Vals Vset.empty

(* The pinned rows of the entry's [where], one access per dimension. *)
let pinned pins where access : taccess =
  Array.map
    (function
      | None -> access Any
      | Some pin -> (
          match where with Some w -> access (pin w) | None -> not_of_shape ()))
    pins

let read_only rs = { dr = rs; dw = no_rows }
let read_write rs = { dr = rs; dw = rs }

let has_subquery e =
  Visit.fold_expr
    (fun found -> function Subselect _ | Exists _ -> true | _ -> found)
    false e

(* [base], then [sub base s]: the rows the subqueries of the entry [s]
   read, interpreted on its own subtrees and merged in as [stmt_rows]
   merges them. [base] alone when the shape has no subquery in
   [shape_exprs]. *)
let with_subqueries shape_exprs base sub =
  if List.exists has_subquery shape_exprs then fun s nondet ->
    sub (base s nondet) s
  else base

(* [expr_subquery_rows] of each expression in turn, merged onto [acc] *)
let subquery_rows t sv acc exprs =
  let env : penv = Hashtbl.create 4 in
  List.fold_left (fun acc e -> merge_rows acc (expr_subquery_rows t env sv e)) acc exprs

(* The whole statement through the interpreter. *)
let interpret t sv =
  {
    interpreted = true;
    run = (fun s nondet -> stmt_rows t (Hashtbl.create 4) sv s nondet);
  }

let staged run = { interpreted = false; run }

(* Where each RI dimension's or alias column's value comes from in one
   VALUES row of an INSERT. *)
type source = Unbound | Drawn | At of int * (expr -> Value.t option)

(* [insert_rows], planned: per VALUES row, its draw count and where each
   dimension and declared alias pair reads its value. *)
let insert_plan t sv table columns values =
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
            match value_path e with Some g -> At (i, g) | None -> Unbound)
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
  let ndims = max 1 (List.length dims) in
  fun (values : expr list list) nondet ->
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
          | At (i, g) -> g (List.nth row i)
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

(* [update_rows_access], planned: the pins of the WHERE, and which
   assignments rewrite an RI dimension or a declared alias pair. *)
let update_plan t sv table assigns where =
  let real_table = write_table sv table in
  let dims = ri_dims t sv real_table in
  let pins = dim_pins t sv real_table where in
  let assigned col =
    let rec find i = function
      | (c, e) :: rest -> if String.equal c col then Some (i, e) else find (i + 1) rest
      | [] -> None
    in
    find 0 assigns
  in
  let path_of col =
    Option.bind (assigned col) (fun (i, e) ->
        Option.map (fun g -> (i, g)) (value_path e))
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
  fun (assigns : (string * expr) list) where ->
    let access = pinned pins where read_write in
    let value (i, g) = g (snd (List.nth assigns i)) in
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

let where_exprs = function Some w -> [ w ] | None -> []

(* DML fires its write table's triggers, whose bodies are interpreted
   on every run: they learn and read the row state *)
let fire_triggers t sv stmt p =
  match dml_event stmt with
  | None -> p
  | Some (table, event) -> (
      match Schema_view.triggers_for sv (write_table sv table) event with
      | [] -> p
      | trigs ->
          {
            p with
            run =
              (fun s nondet ->
                let base = p.run s nondet in
                merge_rows base (trigger_rows t sv trigs nondet));
          })

(* [stmt_rows] under the empty environment, planned. A statement fires
   its triggers in [fire_triggers], at top level and inside a
   transaction alike. *)
let rec stmt_plan t sv (s : stmt) : plan =
  let where_subquery base where =
    merge_rows base (where_subquery_rows t (Hashtbl.create 4) sv where)
  in
  match s with
  | Select { sel_joins = _ :: _; _ } | Insert_select _ | Call _ -> interpret t sv
  | Select sel ->
      let base =
        match sel.sel_from with
        | None -> fun _ -> []
        | Some (table, _) -> (
            match Schema_view.view sv table with
            | Some { sel_from = Some (parent, _); sel_where = w; _ } ->
                (* a read through a view reads its base table's rows
                   under the view's own WHERE *)
                let pins = dim_pins t sv parent w in
                fun _ -> [ (parent, pinned pins w read_only) ]
            | Some _ -> fun _ -> []
            | None ->
                let pins = dim_pins t sv table sel.sel_where in
                fun (sel : select) -> [ (table, pinned pins sel.sel_where read_only) ])
      in
      let exprs (sel : select) =
        where_exprs sel.sel_where
        @ where_exprs sel.sel_having
        @ List.filter_map
            (function Item (e, _) -> Some e | Star -> None)
            sel.sel_items
      in
      let of_select f = function Select sel -> f sel | _ -> not_of_shape () in
      staged
        (with_subqueries (exprs sel)
           (fun s _ -> of_select base s)
           (fun base s -> subquery_rows t sv base (of_select exprs s)))
  | Insert { table; columns; values } ->
      let rows = insert_plan t sv table columns values in
      let values_of = function Insert i -> i.values | _ -> not_of_shape () in
      staged
        (with_subqueries (List.concat values)
           (fun s nondet -> rows (values_of s) nondet)
           (fun base s ->
             merge_rows base (subquery_rows t sv [] (List.concat (values_of s)))))
  | Update { table; assigns; where } ->
      let rows = update_plan t sv table assigns where in
      let where_of = function Update u -> u.where | _ -> not_of_shape () in
      staged
        (with_subqueries (where_exprs where)
           (fun s _ ->
             match s with
             | Update u -> rows u.assigns u.where
             | _ -> not_of_shape ())
           (fun base s -> where_subquery base (where_of s)))
  | Delete { table; where } ->
      let real_table = write_table sv table in
      let pins = dim_pins t sv real_table where in
      let where_of = function Delete d -> d.where | _ -> not_of_shape () in
      staged
        (with_subqueries (where_exprs where)
           (fun s _ -> [ (real_table, pinned pins (where_of s) read_write) ])
           (fun base s -> where_subquery base (where_of s)))
  | Transaction stmts ->
      let plans =
        List.map (fun s -> fire_triggers t sv s (stmt_plan t sv s)) stmts
      in
      {
        interpreted =
          (not (List.is_empty plans))
          && List.for_all (fun p -> p.interpreted) plans;
        run =
          (fun s nondet ->
            match s with
            | Transaction stmts ->
                List.fold_left2
                  (fun acc p s -> merge_rows acc (p.run s nondet))
                  [] plans stmts
            | _ -> not_of_shape ());
      }
  | Create_table { name; _ }
  | Drop_table { name; _ }
  | Truncate_table name
  | Alter_table (name, _) ->
      let n = max 1 (List.length (ri_dims t sv name)) in
      staged (fun _ _ -> [ (name, Array.make n { dr = Any; dw = Any }) ])
  | Create_view _ | Drop_view _ | Create_index _ | Drop_index _
  | Create_procedure _ | Drop_procedure _ | Create_trigger _ | Drop_trigger _ ->
      staged (fun _ _ -> [])

let plan t sv stmt = fire_triggers t sv stmt (stmt_plan t sv stmt)

let run p stmt nondet = p.run stmt nondet
let interpreted p = p.interpreted
let of_entry t sv stmt nondet = run (plan t sv stmt) stmt nondet

(* ------------------------------------------------------------------ *)
(* Overlap predicates                                                   *)
(* ------------------------------------------------------------------ *)

let overlaps t table (earlier : taccess) kind (later : taccess) =
  let dims_e = Array.length earlier and dims_l = Array.length later in
  if dims_e <> dims_l then true (* shape mismatch: be conservative *)
  else begin
    let dims =
      (* dimension column names for canonicalisation; we only have the
         index here, so use positional pseudo-names *)
      Array.init dims_e (fun i -> "#" ^ string_of_int i)
    in
    ignore dims;
    let dim_names =
      match List.assoc_opt table t.config.ri_columns with
      | Some ds when List.length ds = dims_e -> Array.of_list ds
      | _ -> Array.init dims_e (fun i -> "#" ^ string_of_int i)
    in
    let pair_overlap a b =
      let ok = ref true in
      Array.iteri
        (fun i dim ->
          if !ok && not (rs_overlap t table dim (a i) (b i)) then ok := false)
        dim_names;
      !ok
    in
    match kind with
    | `W_then_R -> pair_overlap (fun i -> earlier.(i).dw) (fun i -> later.(i).dr)
    | `Any_conflict ->
        pair_overlap (fun i -> earlier.(i).dw) (fun i -> later.(i).dr)
        || pair_overlap (fun i -> earlier.(i).dr) (fun i -> later.(i).dw)
        || pair_overlap (fun i -> earlier.(i).dw) (fun i -> later.(i).dw)
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
