(* Row-set extraction as one interpreter over the whole statement: the
   only interpreter of it, kept as the reference [Rowset.plan]/
   [Rowset.run] are checked against. It walks each entry's statement
   whole, procedure and trigger bodies, subqueries and joins included,
   as the library did before it staged the extraction into a per-shape
   plan and a per-entry run; since then it took the fixes that DML
   through an updatable view fires its base table's triggers, that a
   column in a join pins only the source it names, and that a trigger
   firing itself is expanded once. It keeps its own alias map and merge
   parents, so a test feeds it the analysed statements in commit order
   on a state of its own and compares rows and state with the
   analyzer's. *)

open Uv_sql
open Ast
open Uv_retroactive
module Vset = Rowset.Vset

type riset = Rowset.riset = Any | Vals of Vset.t
type dim_access = Rowset.dim_access = { dr : riset; dw : riset }
type taccess = dim_access array
type entry_rows = (string * taccess) list

type t = {
  config : Rowset.config;
  alias_map : (string * string * string, string) Hashtbl.t;
  merge_parent : (string * string * string, string) Hashtbl.t;
  mutable merge_generation : int;
}

let create config =
  { config; alias_map = Hashtbl.create 256; merge_parent = Hashtbl.create 64;
    merge_generation = 0 }

let merge_generation t = t.merge_generation

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
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
    t.config.Rowset.ri_aliases

let rec find_root t table dim v =
  match Hashtbl.find_opt t.merge_parent (table, dim, v) with
  | None -> v
  | Some p when String.equal p v -> v
  | Some p -> find_root t table dim p

let merge_values t table dim v1 v2 =
  let r1 = find_root t table dim v1 and r2 = find_root t table dim v2 in
  if not (String.equal r1 r2) then begin
    Hashtbl.replace t.merge_parent (table, dim, r2) r1;
    t.merge_generation <- t.merge_generation + 1
  end

let ri_dims t sv table =
  match List.assoc_opt table t.config.Rowset.ri_columns with
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
    t.config.Rowset.ri_aliases

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

(* Does [e] name column [name] of the one table a statement reads or
   writes: unqualified, or qualified by the table's own name? *)
let is_col table name = function
  | Col (None, c) -> String.equal c name
  | Col (Some q, c) -> String.equal q table && String.equal c name
  | _ -> false

(* Does [e] name column [name] of source [k] of a join? An unqualified
   column belongs to the first source, FROM then joins, that has it, a
   qualified one to the first source it prefixes (by alias, else by
   name), as the engine binds them. A view, or a table the schema does
   not know, may have any column. *)
let join_col sv sources k name e =
  let first p =
    let rec go i = function
      | [] -> None
      | s :: rest -> if p s then Some i else go (i + 1) rest
    in
    go 0 sources
  in
  match e with
  | Col (None, c) ->
      String.equal c name
      && first (fun (table, _) ->
             match Schema_view.table_columns sv table with
             | Some cols -> List.mem c cols
             | None -> true)
         = Some k
  | Col (Some q, c) ->
      String.equal c name
      && first (fun (table, alias) -> String.equal q (Option.value alias ~default:table))
         = Some k
  | _ -> false

(* Extract the riset a WHERE clause pins for dimension [dim] of [table],
   considering alias columns; [is_col] tells which columns are
   [table]'s. *)
let rec where_constraint t env ~is_col table dim (e : expr) : riset =
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
      rs_inter
        (where_constraint t env ~is_col table dim a)
        (where_constraint t env ~is_col table dim b)
  | Binop (Or, a, b) ->
      rs_union
        (where_constraint t env ~is_col table dim a)
        (where_constraint t env ~is_col table dim b)
  | _ -> Any

let constrain_dims ?(is_col = is_col) t env sv table where : riset array =
  let dims = ri_dims t sv table in
  match dims with
  | [] -> [| Any |]
  | _ ->
      Array.of_list
        (List.map
           (fun dim ->
             match where with
             | None -> Any
             | Some w -> where_constraint t env ~is_col:(is_col table) table dim w)
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
  | Insert { table; _ } | Insert_select { table; _ } -> Some (table, Ev_insert)
  | Update { table; _ } -> Some (table, Ev_update)
  | Delete { table; _ } -> Some (table, Ev_delete)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-statement extraction                                             *)
(* ------------------------------------------------------------------ *)

let read_only_dims ?is_col t sv table where env : taccess =
  let cs = constrain_dims ?is_col t env sv table where in
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
    Option.to_list s.sel_from
    @ List.map (fun j -> (j.join_table, j.join_alias)) s.sel_joins
  in
  (* in a join, each column pins only the source it names *)
  let is_col k =
    match sources with [ _ ] -> None | _ -> Some (fun _ -> join_col sv sources k)
  in
  List.fold_left
    (fun acc (k, (table, _)) ->
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
        merge_rows acc
          [ (table, read_only_dims ?is_col:(is_col k) t sv table s.sel_where env) ])
    [] (List.mapi (fun k src -> (k, src)) sources)

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
              merge_values t real_table (Rowset.dim_name t.config real_table i)
                (Vset.choose olds) (Value.serialize nv)
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

(* The triggers and procedures whose bodies are being expanded *)
let expanding : [ `Trigger of string | `Proc of string ] list ref = ref []

(* A CALL of a procedure being expanded: any row of every table the
   procedure's column sets name, read and written. *)
let recursive_call_rows t sv call : entry_rows =
  let rw = Rwset.of_stmt sv call in
  let names = Rwset.Colset.elements (Rwset.Colset.union rw.Rwset.r rw.Rwset.w) in
  let tables =
    List.sort_uniq compare
      (List.filter_map
         (fun c ->
           if String.length c > 3 && String.sub c 0 3 = "_S." then None
           else
             match String.index_opt c '.' with
             | Some i -> Some (String.sub c 0 i)
             | None -> None)
         names)
  in
  List.map (fun table -> (table, any_access t sv table)) tables

let rec stmt_rows t env sv (s : stmt) nondet : entry_rows =
  match s with
  | Select sel -> select_reads t env sv sel
  | Insert_select { table; query; _ } ->
      (* written RI values are data-dependent: wildcard write on the real
         table; reads come from the source query *)
      let real_table = write_table sv table in
      let dims = ri_dims t sv real_table in
      let n = max 1 (List.length dims) in
      let write_any =
        Array.init n (fun _ -> { dr = Vals Vset.empty; dw = Any })
      in
      merge_rows [ (real_table, write_any) ] (select_reads t env sv query)
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
      (* the assigned values' subqueries read, then the WHERE's *)
      let base = update_rows_access t env sv table assigns where in
      exprs_subquery_rows t env sv base (List.map snd assigns @ Option.to_list where)
  | Delete { table; where } ->
      let real_table = write_table sv table in
      merge_rows
        [ (real_table, rw_dims t sv real_table where env) ]
        (where_subquery_rows t env sv where)
  | Call (name, args) ->
      (* the arguments' subqueries read too, before the body runs *)
      let read = exprs_subquery_rows t env sv [] args in
      let body =
        match Schema_view.procedure sv name with
        | None -> []
        | Some _ when List.mem (`Proc name) !expanding ->
            recursive_call_rows t sv s
        | Some proc ->
            let env' : penv = Hashtbl.create 8 in
            (try
               List.iter2
                 (fun (pname, _) a -> Hashtbl.replace env' pname (peval env a))
                 proc.Uv_db.Catalog.proc_params args
             with Invalid_argument _ -> ());
            let outer = !expanding in
            expanding := `Proc name :: outer;
            Fun.protect
              ~finally:(fun () -> expanding := outer)
              (fun () -> pstmts_rows t env' sv proc.Uv_db.Catalog.proc_body nondet)
      in
      merge_rows body read
  | Transaction stmts ->
      (* each DML statement fires its write table's triggers, as at top
         level *)
      List.fold_left (fun acc s -> merge_rows acc (fired_rows t env sv s nondet)) [] stmts
  | Create_table { name; _ }
  | Drop_table { name; _ }
  | Truncate_table name
  | Alter_table (name, _) ->
      [ (name, any_access t sv name) ]
  | Create_view _ | Drop_view _ | Create_index _ | Drop_index _
  | Create_procedure _ | Drop_procedure _ | Create_trigger _ | Drop_trigger _ ->
      []

(* A SELECT's rows: its sources', then its subqueries' (nested ones
   included) in its WHERE, HAVING and projection. *)
and select_reads t env sv (sel : select) : entry_rows =
  exprs_subquery_rows t env sv (select_rows t env sv sel)
    (Option.to_list sel.sel_where
    @ Option.to_list sel.sel_having
    @ List.filter_map (function Item (e, _) -> Some e | Star -> None) sel.sel_items)

(* [acc], then each expression's subquery rows merged in turn *)
and exprs_subquery_rows t env sv acc es =
  List.fold_left (fun acc e -> merge_rows acc (expr_subquery_rows t env sv e)) acc es

and expr_subquery_rows t env sv (e : expr) : entry_rows =
  let rec walk (e : expr) acc =
    match e with
    | Subselect s | Exists s -> merge_rows acc (select_reads t env sv s)
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
  | P_stmt s -> fired_rows t env sv s nondet
  | P_declare (v, _, init) ->
      (* the value's subqueries read, before the variable is set *)
      let read = exprs_subquery_rows t env sv [] (Option.to_list init) in
      Hashtbl.replace env v (Option.bind init (peval env));
      read
  | P_set (v, e) ->
      let read = exprs_subquery_rows t env sv [] [ e ] in
      Hashtbl.replace env v (peval env e);
      read
  | P_select_into (s, vars) ->
      (* database read: results are unknown at analysis time *)
      List.iter (fun v -> Hashtbl.replace env v None) vars;
      select_reads t env sv s
  | P_if (branches, else_body) ->
      (* the conditions' subqueries read first; then both arms, with
         variable states merged pessimistically *)
      let read = exprs_subquery_rows t env sv [] (List.map fst branches) in
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
      merge_rows
        (List.fold_left (fun acc (_, rows) -> merge_rows acc rows) [] results)
        read
  | P_while (cond, body) ->
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
      (* the condition's subqueries read under the loop's unknowns *)
      let read = exprs_subquery_rows t env sv [] [ cond ] in
      merge_rows (pstmts_rows t env sv body nondet) read
  | P_leave _ | P_signal _ -> []

(* Each trigger body under an environment of its own. A trigger whose
   body is being expanded adds nothing new when it fires again, so it is
   not expanded again. *)
and trigger_rows t sv table event nondet : entry_rows =
  List.fold_left
    (fun acc (trig : Uv_db.Catalog.trigger) ->
      let name = trig.Uv_db.Catalog.trig_name and outer = !expanding in
      if List.mem (`Trigger name) outer then acc
      else begin
        expanding := `Trigger name :: outer;
        let env : penv = Hashtbl.create 4 in
        let rows =
          Fun.protect
            ~finally:(fun () -> expanding := outer)
            (fun () -> pstmts_rows t env sv trig.Uv_db.Catalog.trig_body nondet)
        in
        merge_rows acc rows
      end)
    []
    (Schema_view.triggers_for sv table event)

(* A statement's rows, then those of the triggers it fires: its write
   table's, for its event. *)
and fired_rows t env sv (s : stmt) nondet : entry_rows =
  let base = stmt_rows t env sv s nondet in
  match dml_event s with
  | Some (table, event) ->
      merge_rows base (trigger_rows t sv (write_table sv table) event nondet)
  | None -> base

let of_entry t sv stmt nondet = fired_rows t (Hashtbl.create 4) sv stmt nondet

