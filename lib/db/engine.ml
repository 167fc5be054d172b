open Uv_sql
open Ast

exception Sql_error of string
exception Signal_raised of string

let sql_error fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

type result = {
  columns : string list;
  rows : Value.t array list;
  rows_written : int;
  hash_deltas : (string * int64) list;
}

let empty_result = { columns = []; rows = []; rows_written = 0; hash_deltas = [] }

type t = {
  cat : Catalog.t;
  log : Log.t;
  clock : Uv_util.Clock.t;
  mutable prng : Uv_util.Prng.t;
      (* mutable so rollback can restore the pre-statement stream: a
         retried statement must draw the same fresh values *)
  enforce_fk : bool;
  obs : Uv_obs.Trace.t;
  fault : Uv_fault.Fault.t;
  mutable sim_time : int;
  mutable last_insert_id : Value.t;
  (* per-statement execution state *)
  mutable journal : Log.undo list;
  mutable nondet_in : Value.t list;
  mutable nondet_out : Value.t list; (* reversed *)
  mutable written : (string * Uv_util.Table_hash.t) list;
      (* tables with row writes, most recent first, each with the hash
         delta the statement's mutations applied to it *)
  mutable rows_written : int;
  mutable trigger_depth : int;
  (* where a replayed statement's inserts land, identical at every
     worker count *)
  mutable rowid_alloc : rowid_alloc option;
  (* periodic catalog snapshots, written out by [dump --checkpoints] *)
  mutable checkpoints : Checkpoint.t option;
  (* the templates of the statements given as text, made on first use *)
  mutable memo : Stmt_memo.t option;
}

(* An insert into a table takes the first rowid left in [hist] (the
   historical journal's inserts, oldest first) that went into that
   table, while it is free; otherwise [base + n] for the statement's
   n-th insert. *)
and rowid_alloc = {
  base : int;
  mutable n : int;
  mutable hist : (string * int) list;
}

let of_catalog ?(seed = 42) ?(rtt_ms = 1.0) ?(enforce_fk = false)
    ?(obs = Uv_obs.Trace.disabled) ?(fault = Uv_fault.Fault.disabled)
    ?(log = Log.create ()) cat =
  {
    cat;
    log;
    clock = Uv_util.Clock.create ~rtt_ms ();
    prng = Uv_util.Prng.create seed;
    enforce_fk;
    obs;
    fault;
    sim_time = 1_700_000_000;
    last_insert_id = Value.Null;
    journal = [];
    nondet_in = [];
    nondet_out = [];
    written = [];
    rows_written = 0;
    trigger_depth = 0;
    rowid_alloc = None;
    checkpoints = None;
    memo = None;
  }

let create ?seed ?rtt_ms ?enforce_fk ?obs ?fault () =
  of_catalog ?seed ?rtt_ms ?enforce_fk ?obs ?fault (Catalog.create ())

let catalog t = t.cat
let log t = t.log
let clock t = t.clock

let set_sim_time t s = t.sim_time <- s

let find_table t name =
  match Catalog.table t.cat name with
  | Some tbl -> tbl
  | None -> sql_error "unknown table %s" name

let table_hash t name = Storage.hash (find_table t name)

let db_hash t = Catalog.db_hash t.cat

let snapshot t = Catalog.snapshot t.cat

let restore t snap = Catalog.restore t.cat ~from:snap

let reset_log t =
  Log.truncate t.log 0;
  Option.iter (fun l -> Checkpoint.invalidate_from l 1) t.checkpoints

let enable_checkpoints t ~every =
  t.checkpoints <- (if every > 0 then Some (Checkpoint.create ~every) else None)

let checkpoints t = t.checkpoints

let memory_bytes t = Catalog.memory_bytes t.cat

(* ------------------------------------------------------------------ *)
(* Journalled storage mutations                                         *)
(* ------------------------------------------------------------------ *)

(* Mark [name] written by the current statement; returns the table's
   hash-delta accumulator, which the storage mutation then feeds. *)
let written_delta t name =
  let rec find = function
    | [] ->
        let d = Uv_util.Table_hash.create () in
        t.written <- (name, d) :: t.written;
        d
    | (n, d) :: rest -> if String.equal n name then d else find rest
  in
  find t.written

let rec take name = function
  | [] -> (None, [])
  | (n, r) :: rest when String.equal n name -> (Some r, rest)
  | x :: rest ->
      let r, rest = take name rest in
      (r, x :: rest)

let j_insert t tbl row =
  let name = Storage.name tbl in
  let delta = written_delta t name in
  let id =
    match t.rowid_alloc with
    | Some a ->
        let fallback = a.base + a.n in
        a.n <- a.n + 1;
        let h, rest = take name a.hist in
        a.hist <- rest;
        let id =
          match h with Some h when not (Storage.mem tbl h) -> h | _ -> fallback
        in
        Storage.insert_at ~delta tbl id row
    | None -> Storage.insert ~delta tbl row
  in
  t.journal <- Log.U_row_insert (name, id, Array.copy row) :: t.journal;
  t.rows_written <- t.rows_written + 1;
  id

let j_delete t tbl id =
  let name = Storage.name tbl in
  let row = Storage.delete ~delta:(written_delta t name) tbl id in
  t.journal <- Log.U_row_delete (name, id, row) :: t.journal;
  t.rows_written <- t.rows_written + 1;
  row

let j_update t tbl id row =
  let name = Storage.name tbl in
  let before = Storage.update ~delta:(written_delta t name) tbl id row in
  t.journal <- Log.U_row_update (name, id, before, Array.copy row) :: t.journal;
  t.rows_written <- t.rows_written + 1;
  before

let undo_journal t =
  Log.apply_undo t.cat t.journal;
  t.journal <- []

(* Object-definition captures pushed before DDL mutations so the entry's
   undo list can restore the prior schema state. *)
let capture_table t name =
  t.journal <-
    Log.U_table_def (name, Option.map Storage.copy (Catalog.table t.cat name))
    :: t.journal

let capture_view t name =
  t.journal <- Log.U_view_def (name, Catalog.view t.cat name) :: t.journal

let capture_proc t name =
  t.journal <- Log.U_proc_def (name, Catalog.procedure t.cat name) :: t.journal

let capture_trigger t name =
  let prior =
    (* catalog stores triggers by name across all tables *)
    List.find_opt
      (fun (tr : Catalog.trigger) -> String.equal tr.Catalog.trig_name name)
      (List.concat_map
         (fun ev ->
           List.concat_map
             (fun (tname, _) -> Catalog.triggers_for t.cat tname ev)
             (Catalog.tables t.cat))
         [ Ast.Ev_insert; Ast.Ev_update; Ast.Ev_delete ])
  in
  t.journal <- Log.U_trigger_def (name, prior) :: t.journal

let capture_index t name existing =
  t.journal <- Log.U_index_def (name, existing) :: t.journal

(* ------------------------------------------------------------------ *)
(* Non-determinism                                                      *)
(* ------------------------------------------------------------------ *)

(* Forced replay values are consumed in draw order; fresh draws are used
   once the recorded list runs out (retroactively added statements). *)
let draw t fresh =
  let v =
    match t.nondet_in with
    | v :: rest ->
        t.nondet_in <- rest;
        v
    | [] -> fresh ()
  in
  t.nondet_out <- v :: t.nondet_out;
  v

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                                *)
(* ------------------------------------------------------------------ *)

type env = {
  vars : (string, Value.t) Hashtbl.t;
  bindings : (string * Value.t) list; (* current row: qualified + plain *)
}

let empty_env () = { vars = Hashtbl.create 4; bindings = [] }

let with_bindings env bindings = { env with bindings }

let lookup_binding env key = List.assoc_opt key env.bindings

let cmp_value a b pred =
  if Value.is_null a || Value.is_null b then Value.Null
  else Value.Bool (pred (Value.compare_sql a b))

(* Precompiled row-binding builders: qualified names are concatenated
   once per scan instead of once per row (the old [bindings_of] rebuilt
   ["prefix.col"] strings for every row of every scan). Both orders are
   kept so each call site binds exactly the list the interpreter built
   before. *)
let mk_binder ~qualified_first prefix cols =
  let cols_a = Array.of_list cols in
  let quals_a = Array.map (fun c -> prefix ^ "." ^ c) cols_a in
  let n = Array.length cols_a in
  fun (row : Value.t array) ->
    let rec one (names : string array) i tail =
      if i < 0 then tail
      else one names (i - 1) ((Array.unsafe_get names i, row.(i)) :: tail)
    in
    if qualified_first then one quals_a (n - 1) (one cols_a (n - 1) [])
    else one cols_a (n - 1) (one quals_a (n - 1) [])

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                                 *)
(* ------------------------------------------------------------------ *)

(* How a compiled expression reads the cells of the row it runs on. *)
module type CELLS = sig
  type cur

  val value : cur -> int -> Value.t
  val is_null : cur -> int -> bool
  val cmp_lit : cur -> int -> Value.t -> int
  val equal_lit : cur -> int -> Value.t -> bool
end

exception Not_compilable

(* [eval] over a pure subset, compiled once per statement into closures
   over one row's cells: no per-row bindings, and, on the typed columns,
   no boxing of cells the expression never reads and unboxed
   cell-vs-literal comparisons. [Var]s are frozen to their current
   values (a variable cannot change while one statement filters rows).
   Anything effectful or out of scope (function calls, subselects,
   EXISTS, other-table columns) refuses compilation and the caller falls
   back to the interpreter, which is always sound. Each case must give
   [eval]'s value; divergence here would break bitwise replay identity
   ([test_db]'s "compiled == interpreter" property checks it). *)
module Compile (C : CELLS) = struct
  let compile ~vars (sch : Schema.table) tname (e : expr) : C.cur -> Value.t =
    let own_col = function
      | Col (qual, name) when qual = None || qual = Some tname -> (
          match Schema.column_index sch name with
          | None -> raise Not_compilable
          | found -> found)
      | _ -> None
    in
    let cmp_pred = function
      | Eq -> Some (fun c -> c = 0)
      | Neq -> Some (fun c -> c <> 0)
      | Lt -> Some (fun c -> c < 0)
      | Le -> Some (fun c -> c <= 0)
      | Gt -> Some (fun c -> c > 0)
      | Ge -> Some (fun c -> c >= 0)
      | _ -> None
    in
    let rec go e =
      match e with
      | Lit v -> fun _ -> v
      | Var name -> (
          match Hashtbl.find_opt vars name with
          | Some v -> fun _ -> v
          | None -> raise Not_compilable)
      | Binop (And, a, b) ->
          let ca = go a and cb = go b in
          fun cur ->
            if not (Value.to_bool (ca cur)) then Value.Bool false
            else Value.Bool (Value.to_bool (cb cur))
      | Binop (Or, a, b) ->
          let ca = go a and cb = go b in
          fun cur ->
            if Value.to_bool (ca cur) then Value.Bool true
            else Value.Bool (Value.to_bool (cb cur))
      | Binop (Eq, l, Lit v) when own_col l <> None && not (Value.is_null v) ->
          let i = Option.get (own_col l) in
          fun cur ->
            if C.is_null cur i then Value.Null
            else Value.Bool (C.equal_lit cur i v)
      | Binop (Eq, Lit v, r) when own_col r <> None && not (Value.is_null v) ->
          let i = Option.get (own_col r) in
          fun cur ->
            if C.is_null cur i then Value.Null
            else Value.Bool (C.equal_lit cur i v)
      | Binop (op, l, Lit v)
        when cmp_pred op <> None && own_col l <> None && not (Value.is_null v) ->
          let i = Option.get (own_col l) in
          let p = Option.get (cmp_pred op) in
          fun cur ->
            if C.is_null cur i then Value.Null
            else Value.Bool (p (C.cmp_lit cur i v))
      | Binop (op, Lit v, r)
        when cmp_pred op <> None && own_col r <> None && not (Value.is_null v) ->
          (* compare_sql is antisymmetric, so lit-vs-cell is -1 * cell-vs-lit *)
          let i = Option.get (own_col r) in
          let p = Option.get (cmp_pred op) in
          fun cur ->
            if C.is_null cur i then Value.Null
            else Value.Bool (p (-C.cmp_lit cur i v))
      | Binop (op, a, b) ->
          let ca = go a and cb = go b in
          let f =
            match op with
            | Add -> Value.add
            | Sub -> Value.sub
            | Mul -> Value.mul
            | Div -> Value.div
            | Mod -> Value.modulo
            | Eq -> fun x y -> cmp_value x y (fun c -> c = 0)
            | Neq -> fun x y -> cmp_value x y (fun c -> c <> 0)
            | Lt -> fun x y -> cmp_value x y (fun c -> c < 0)
            | Le -> fun x y -> cmp_value x y (fun c -> c <= 0)
            | Gt -> fun x y -> cmp_value x y (fun c -> c > 0)
            | Ge -> fun x y -> cmp_value x y (fun c -> c >= 0)
            | And | Or -> assert false
          in
          fun cur -> f (ca cur) (cb cur)
      | Unop (Not, a) ->
          let ca = go a in
          fun cur -> Value.Bool (not (Value.to_bool (ca cur)))
      | Unop (Neg, a) ->
          let ca = go a in
          fun cur -> Value.sub (Value.Int 0) (ca cur)
      | Is_null (a, positive) -> (
          match own_col a with
          | Some i -> fun cur -> Value.Bool (C.is_null cur i = positive)
          | None ->
              let ca = go a in
              fun cur -> Value.Bool (Value.is_null (ca cur) = positive))
      | Between (a, lo, hi) ->
          let ca = go a and cl = go lo and ch = go hi in
          fun cur ->
            let v = ca cur in
            let l = cl cur and h = ch cur in
            if Value.is_null v || Value.is_null l || Value.is_null h then
              Value.Null
            else
              Value.Bool (Value.compare_sql v l >= 0 && Value.compare_sql v h <= 0)
      | In_list (a, items) ->
          let ca = go a in
          let citems = List.map go items in
          fun cur ->
            let v = ca cur in
            Value.Bool (List.exists (fun ci -> Value.equal_sql v (ci cur)) citems)
      | Col _ as c -> (
          match own_col c with
          | Some i -> fun cur -> C.value cur i
          | None -> raise Not_compilable)
      | Fun_call _ | Subselect _ | Exists _ -> raise Not_compilable
    in
    go e

  let compile_opt ~vars sch tname e =
    try Some (compile ~vars sch tname e) with Not_compilable -> None
end

(* The scan's instance, on the typed columns. *)
module Compile_cur = Compile (Storage.Col)

(* The instance over a boxed row image; a cell past the row's width
   reads as NULL, as ALTER TABLE ADD COLUMN fills it. *)
module Compile_row = Compile (struct
  type cur = Value.t array

  let value row i = if i < Array.length row then row.(i) else Value.Null
  let is_null row i = Value.is_null (value row i)
  let cmp_lit row i lit = Value.compare_sql (value row i) lit
  let equal_lit row i lit = cmp_lit row i lit = 0
end)

(* Syntactic gate for batched mutation: an expression that cannot read
   any table (no subselects, however nested) evaluates identically
   against the pre-statement state and the mid-statement state, so the
   storage writes it feeds may be applied as one batch. *)
let rec expr_reads_tables = function
  | Subselect _ | Exists _ -> true
  | Fun_call (_, args) -> List.exists expr_reads_tables args
  | Binop (_, a, b) -> expr_reads_tables a || expr_reads_tables b
  | Unop (_, a) -> expr_reads_tables a
  | In_list (a, items) -> List.exists expr_reads_tables (a :: items)
  | Between (a, b, c) -> List.exists expr_reads_tables [ a; b; c ]
  | Is_null (a, _) -> expr_reads_tables a
  | Lit _ | Col _ | Var _ -> false

let is_aggregate_name = function
  | "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" -> true
  | "COUNT.D" | "SUM.D" | "AVG.D" | "MIN.D" | "MAX.D" -> true
  | _ -> false

let rec expr_has_aggregate = function
  | Fun_call (name, args) ->
      is_aggregate_name name || List.exists expr_has_aggregate args
  | Binop (_, a, b) -> expr_has_aggregate a || expr_has_aggregate b
  | Unop (_, a) -> expr_has_aggregate a
  | In_list (a, items) -> List.exists expr_has_aggregate (a :: items)
  | Between (a, b, c) -> List.exists expr_has_aggregate [ a; b; c ]
  | Is_null (a, _) -> expr_has_aggregate a
  | Lit _ | Col _ | Var _ | Subselect _ | Exists _ -> false

let like_match pattern s =
  (* SQL LIKE: % = any run, _ = any single char. *)
  let np = String.length pattern and ns = String.length s in
  let rec go p i =
    if p >= np then i >= ns
    else
      match pattern.[p] with
      | '%' ->
          let rec try_from j = if go (p + 1) j then true else j < ns && try_from (j + 1) in
          try_from i
      | '_' -> i < ns && go (p + 1) (i + 1)
      | c -> i < ns && s.[i] = c && go (p + 1) (i + 1)
  in
  go 0 0

(* The class a DISTINCT aggregate keeps one value of (engine.mli): an
   integral DOUBLE that fits an int is keyed as that INT. *)
let distinct_key v =
  let num f =
    if Float.is_integer f && Float.abs f < 0x1p62 then
      "N" ^ string_of_int (int_of_float f)
    else "N" ^ Value.hex_float f
  in
  match v with
  | Value.Int i -> "N" ^ string_of_int i
  | Value.Float f -> num f
  | Value.Bool b -> if b then "N1" else "N0"
  | Value.Null -> "\x00null"
  | Value.Text s -> "T" ^ s

let rec eval t env e : Value.t =
  match e with
  | Lit v -> v
  | Var name -> (
      match Hashtbl.find_opt env.vars name with
      | Some v -> v
      | None -> sql_error "unknown variable %s" name)
  | Col (qual, name) -> (
      let key = match qual with Some q -> q ^ "." ^ name | None -> name in
      match lookup_binding env key with
      | Some v -> v
      | None -> (
          (* An unqualified name may also be a procedure variable. *)
          match (qual, Hashtbl.find_opt env.vars name) with
          | None, Some v -> v
          | _ -> sql_error "unknown column %s" key))
  | Binop (op, a, b) -> eval_binop t env op a b
  | Unop (Not, a) -> Value.Bool (not (Value.to_bool (eval t env a)))
  | Unop (Neg, a) -> Value.sub (Value.Int 0) (eval t env a)
  | Fun_call ("ROWCOUNT", [ Subselect s ]) ->
      (* dialect extension: the number of rows a query returns, usable
         where MySQL would need a COUNT over a derived table. The
         transpiler emits it for rows.length over grouped queries. *)
      Value.Int (List.length (run_select t env s).rows)
  | Fun_call (name, args) -> eval_fun t env name args
  | Subselect s -> (
      let r = run_select t env s in
      match r.rows with
      | [] -> Value.Null
      | row :: _ -> if Array.length row = 0 then Value.Null else row.(0))
  | Exists s ->
      let r = run_select t env { s with sel_limit = Some 1 } in
      Value.Bool (r.rows <> [])
  | In_list (e, items) ->
      let v = eval t env e in
      (* a subselect item contributes every row of its result, not just a
         scalar: x IN (SELECT ...) *)
      Value.Bool
        (List.exists
           (function
             | Subselect s ->
                 let r = run_select t env s in
                 List.exists
                   (fun row -> Array.length row > 0 && Value.equal_sql v row.(0))
                   r.rows
             | it -> Value.equal_sql v (eval t env it))
           items)
  | Between (e, lo, hi) ->
      let v = eval t env e in
      let l = eval t env lo and h = eval t env hi in
      if Value.is_null v || Value.is_null l || Value.is_null h then Value.Null
      else Value.Bool (Value.compare_sql v l >= 0 && Value.compare_sql v h <= 0)
  | Is_null (e, positive) ->
      let v = eval t env e in
      Value.Bool (Value.is_null v = positive)

and eval_binop t env op a b =
  match op with
  | And ->
      (* short-circuit *)
      if not (Value.to_bool (eval t env a)) then Value.Bool false
      else Value.Bool (Value.to_bool (eval t env b))
  | Or ->
      if Value.to_bool (eval t env a) then Value.Bool true
      else Value.Bool (Value.to_bool (eval t env b))
  | _ -> (
      let va = eval t env a and vb = eval t env b in
      match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Mod -> Value.modulo va vb
      | Eq -> cmp_value va vb (fun c -> c = 0)
      | Neq -> cmp_value va vb (fun c -> c <> 0)
      | Lt -> cmp_value va vb (fun c -> c < 0)
      | Le -> cmp_value va vb (fun c -> c <= 0)
      | Gt -> cmp_value va vb (fun c -> c > 0)
      | Ge -> cmp_value va vb (fun c -> c >= 0)
      | And | Or -> assert false)

and eval_fun t env name args =
  let v i = eval t env (List.nth args i) in
  match (name, List.length args) with
  | "CONCAT", _ ->
      Value.Text
        (String.concat ""
           (List.map (fun a -> Value.to_string (eval t env a)) args))
  | "UPPER", 1 -> Value.Text (String.uppercase_ascii (Value.to_string (v 0)))
  | "LOWER", 1 -> Value.Text (String.lowercase_ascii (Value.to_string (v 0)))
  | "LENGTH", 1 -> Value.Int (String.length (Value.to_string (v 0)))
  | "ABS", 1 -> (
      match v 0 with
      | Value.Int i -> Value.Int (abs i)
      | x -> Value.Float (Float.abs (Value.to_float x)))
  | "ROUND", 1 -> Value.Int (int_of_float (Float.round (Value.to_float (v 0))))
  | "FLOOR", 1 -> Value.Int (int_of_float (Float.floor (Value.to_float (v 0))))
  | "CEIL", 1 | "CEILING", 1 -> Value.Int (int_of_float (Float.ceil (Value.to_float (v 0))))
  | "MOD", 2 -> Value.modulo (v 0) (v 1)
  | "IF", 3 -> if Value.to_bool (v 0) then v 1 else v 2
  | "IFNULL", 2 -> ( match v 0 with Value.Null -> v 1 | x -> x)
  | "COALESCE", _ ->
      let rec first = function
        | [] -> Value.Null
        | a :: rest -> ( match eval t env a with Value.Null -> first rest | x -> x)
      in
      first args
  | "NULLIF", 2 -> if Value.equal_sql (v 0) (v 1) then Value.Null else v 0
  | "SUBSTR", 3 | "SUBSTRING", 3 ->
      let s = Value.to_string (v 0) in
      let start = max 0 (Value.to_int (v 1) - 1) in
      let len = Value.to_int (v 2) in
      let len = max 0 (min len (String.length s - start)) in
      if start >= String.length s then Value.Text ""
      else Value.Text (String.sub s start len)
  | "LIKE", 2 ->
      let s = v 0 and p = v 1 in
      if Value.is_null s || Value.is_null p then Value.Null
      else Value.Bool (like_match (Value.to_string p) (Value.to_string s))
  | "RAND", 0 -> draw t (fun () -> Value.Float (Uv_util.Prng.float t.prng 1.0))
  | ("NOW" | "CURTIME" | "CURRENT_TIMESTAMP" | "UNIX_TIMESTAMP"), 0 ->
      draw t (fun () -> Value.Int t.sim_time)
  | "LAST_INSERT_ID", 0 -> draw t (fun () -> t.last_insert_id)
  | ( ( "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "COUNT.D" | "SUM.D"
      | "AVG.D" | "MIN.D" | "MAX.D" ),
      _ ) ->
      sql_error "aggregate %s used outside a SELECT projection" name
  | _ -> sql_error "unknown function %s/%d" name (List.length args)

(* ------------------------------------------------------------------ *)
(* SELECT                                                               *)
(* ------------------------------------------------------------------ *)

(* A row source: a prefix for qualified names, ordered column names, and
   the rows themselves. *)
and source_rows t env (table_name : string) :
    string list * Value.t array list =
  match Catalog.table t.cat table_name with
  | Some tbl ->
      let cols = Schema.column_names (Storage.schema tbl) in
      let rows = List.map snd (Storage.to_rows tbl) in
      (cols, rows)
  | None -> (
      match Catalog.view t.cat table_name with
      | Some view_sel ->
          let r = run_select t env view_sel in
          (r.columns, r.rows)
      | None -> sql_error "unknown table or view %s" table_name)

and run_select t env (s : select) : result =
  (* 1. build the joined row set; [where_done] marks that the scan
     already applied the WHERE *)
  let sources, joined, where_done =
    match s.sel_from with
    | None -> ([], [ [] ], false)
    | Some (tbl, alias) ->
        let prefix = Option.value alias ~default:tbl in
        (* a join-free scan of a base table filters as UPDATE and DELETE
           do, and binds only the matching rows *)
        let (cols, rows), where_done =
          match (s.sel_joins, Catalog.table t.cat tbl) with
          | [], Some storage ->
              ( ( Schema.column_names (Storage.schema storage),
                  List.map snd (matching_rows ~prefix t env storage s.sel_where) ),
                true )
          | _ -> (source_rows t env tbl, false)
        in
        let bind = mk_binder ~qualified_first:true prefix cols in
        let base = List.map bind rows in
        let sources = ref [ (prefix, cols) ] in
        let acc = ref base in
        List.iter
          (fun j ->
            let jprefix = Option.value j.join_alias ~default:j.join_table in
            let jcols, jrows = source_rows t env j.join_table in
            let jbind = mk_binder ~qualified_first:true jprefix jcols in
            let jbound = List.map jbind jrows in
            sources := (jprefix, jcols) :: !sources;
            let next = ref [] in
            List.iter
              (fun left ->
                List.iter
                  (fun jb ->
                    let row_bindings = left @ jb in
                    let jenv = with_bindings env (row_bindings @ env.bindings) in
                    if Value.to_bool (eval t jenv j.join_on) then
                      next := row_bindings :: !next)
                  jbound)
              !acc;
            acc := List.rev !next)
          s.sel_joins;
        (List.rev !sources, !acc, where_done)
  in
  (* 2. WHERE *)
  let filtered =
    match s.sel_where with
    | Some w when not where_done ->
        List.filter
          (fun b ->
            let renv = with_bindings env (b @ env.bindings) in
            Value.to_bool (eval t renv w))
          joined
    | _ -> joined
  in
  select_project t env s sources filtered

and select_project t env (s : select) sources rows : result =
  let row_env b = with_bindings env (b @ env.bindings) in
  (* expand items *)
  let star_columns () =
    List.concat_map (fun (p, cols) -> List.map (fun c -> (p, c)) cols) sources
  in
  let items =
    List.concat_map
      (function
        | Star ->
            List.map (fun (p, c) -> (Col (Some p, c), Some c)) (star_columns ())
        | Item (e, alias) -> [ (e, alias) ])
      s.sel_items
  in
  let item_name (e, alias) =
    match alias with
    | Some a -> a
    | None -> Printer.expr e
  in
  let columns = List.map item_name items in
  let has_agg = List.exists (fun (e, _) -> expr_has_aggregate e) items in
  let grouped = s.sel_group_by <> [] || has_agg || s.sel_having <> None in
  let output_rows =
    if not grouped then
      List.map
        (fun b ->
          Array.of_list (List.map (fun (e, _) -> eval t (row_env b) e) items))
        rows
    else begin
      (* group rows *)
      let groups : (string, Value.t list * (string * Value.t) list list) Hashtbl.t =
        Hashtbl.create 16
      in
      let order = ref [] in
      List.iter
        (fun b ->
          let keyvals = List.map (eval t (row_env b)) s.sel_group_by in
          let key = String.concat "\x00" (List.map Value.serialize keyvals) in
          (match Hashtbl.find_opt groups key with
          | Some (kv, members) -> Hashtbl.replace groups key (kv, b :: members)
          | None ->
              order := key :: !order;
              Hashtbl.replace groups key (keyvals, [ b ])))
        rows;
      let keys = List.rev !order in
      let keys =
        if keys = [] && s.sel_group_by = [] then [ "" ] (* aggregate over empty set *)
        else keys
      in
      List.filter_map
        (fun key ->
          let _, members =
            match Hashtbl.find_opt groups key with
            | Some (kv, ms) -> (kv, List.rev ms)
            | None -> ([], [])
          in
          let rep = match members with b :: _ -> b | [] -> [] in
          let keep =
            match s.sel_having with
            | None -> true
            | Some h -> Value.to_bool (eval_agg t env members rep h)
          in
          if keep then
            Some
              (Array.of_list
                 (List.map
                    (fun (e, _) -> eval_agg t env members rep e)
                    items))
          else None)
        keys
    end
  in
  (* DISTINCT: deduplicate projected rows, preserving first occurrence *)
  let output_rows, rows =
    if s.sel_distinct then begin
      let seen = Hashtbl.create 16 in
      let keep = ref [] and kept_src = ref [] in
      List.iter2
        (fun out src ->
          let key =
            String.concat "\x00"
              (Array.to_list (Array.map Value.serialize out))
          in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            keep := out :: !keep;
            kept_src := src :: !kept_src
          end)
        output_rows
        (if grouped then List.map (fun _ -> []) output_rows else rows);
      (List.rev !keep, List.rev !kept_src)
    end
    else (output_rows, if grouped then List.map (fun _ -> []) output_rows else rows)
  in
  (* ORDER BY *)
  let output_rows =
    match s.sel_order_by with
    | [] -> output_rows
    | obs ->
        (* order keys must be computed against source rows for ungrouped
           selects; for simplicity we sort on projected values when the
           expression matches an output column, else on source order keys *)
        if not grouped then begin
          let keyed =
            List.map2
              (fun b out ->
                let keys = List.map (fun (e, _) -> eval t (row_env b) e) obs in
                (keys, out))
              rows output_rows
          in
          sort_keyed obs keyed
        end
        else begin
          (* grouped: evaluate order expressions over the projected row via
             column-name bindings *)
          let keyed =
            List.map
              (fun out ->
                let b = List.map2 (fun c v -> (c, v)) columns (Array.to_list out) in
                let keys =
                  List.map (fun (e, _) -> eval t (with_bindings env b) e) obs
                in
                (keys, out))
              output_rows
          in
          sort_keyed obs keyed
        end
  in
  let output_rows =
    match s.sel_offset with
    | None -> output_rows
    | Some off -> List.filteri (fun i _ -> i >= off) output_rows
  in
  let output_rows =
    match s.sel_limit with
    | None -> output_rows
    | Some n -> List.filteri (fun i _ -> i < n) output_rows
  in
  { empty_result with columns; rows = output_rows }

and sort_keyed obs keyed =
  let dirs = List.map snd obs in
  let cmp (ka, _) (kb, _) =
    let rec go ks1 ks2 ds =
      match (ks1, ks2, ds) with
      | [], [], _ -> 0
      | a :: r1, b :: r2, d :: rd ->
          let c = Value.compare_sql a b in
          let c = match d with Asc -> c | Desc -> -c in
          if c <> 0 then c else go r1 r2 rd
      | _ -> 0
    in
    go ka kb dirs
  in
  List.map snd (List.stable_sort cmp keyed)

(* Aggregate-aware evaluation over one group. [members] are the group's
   source-row bindings; [rep] is the representative row for non-aggregate
   subexpressions. *)
and eval_agg t env members rep e : Value.t =
  match e with
  | Fun_call (name, args) when is_aggregate_name name ->
      let member_env b = with_bindings env (b @ env.bindings) in
      let values arg = List.map (fun b -> eval t (member_env b) arg) members in
      (* NAME.D — the DISTINCT form: deduplicate the argument values *)
      let distinct_values arg =
        let seen = Hashtbl.create 16 in
        List.filter
          (fun v ->
            let k = distinct_key v in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.replace seen k ();
              true
            end)
          (values arg)
      in
      let name, values =
        if String.length name > 2 && String.sub name (String.length name - 2) 2 = ".D"
        then (String.sub name 0 (String.length name - 2), distinct_values)
        else (name, values)
      in
      (match (name, args) with
      | "COUNT", ([] | [ Col (_, "*") ]) -> Value.Int (List.length members)
      | "COUNT", [ arg ] ->
          Value.Int
            (List.length (List.filter (fun v -> not (Value.is_null v)) (values arg)))
      | "SUM", [ arg ] ->
          let vs = List.filter (fun v -> not (Value.is_null v)) (values arg) in
          if vs = [] then Value.Null
          else List.fold_left Value.add (Value.Int 0) vs
      | "AVG", [ arg ] ->
          let vs = List.filter (fun v -> not (Value.is_null v)) (values arg) in
          if vs = [] then Value.Null
          else
            Value.div
              (List.fold_left Value.add (Value.Int 0) vs)
              (Value.Int (List.length vs))
      | "MIN", [ arg ] ->
          let vs = List.filter (fun v -> not (Value.is_null v)) (values arg) in
          (match vs with
          | [] -> Value.Null
          | hd :: tl ->
              List.fold_left (fun a v -> if Value.compare_sql v a < 0 then v else a) hd tl)
      | "MAX", [ arg ] ->
          let vs = List.filter (fun v -> not (Value.is_null v)) (values arg) in
          (match vs with
          | [] -> Value.Null
          | hd :: tl ->
              List.fold_left (fun a v -> if Value.compare_sql v a > 0 then v else a) hd tl)
      | _ -> sql_error "malformed aggregate %s" name)
  | Binop (op, a, b) ->
      let va = eval_agg t env members rep a and vb = eval_agg t env members rep b in
      (match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Mod -> Value.modulo va vb
      | Eq -> cmp_value va vb (fun c -> c = 0)
      | Neq -> cmp_value va vb (fun c -> c <> 0)
      | Lt -> cmp_value va vb (fun c -> c < 0)
      | Le -> cmp_value va vb (fun c -> c <= 0)
      | Gt -> cmp_value va vb (fun c -> c > 0)
      | Ge -> cmp_value va vb (fun c -> c >= 0)
      | And -> Value.Bool (Value.to_bool va && Value.to_bool vb)
      | Or -> Value.Bool (Value.to_bool va || Value.to_bool vb))
  | Unop (Not, a) -> Value.Bool (not (Value.to_bool (eval_agg t env members rep a)))
  | Unop (Neg, a) -> Value.sub (Value.Int 0) (eval_agg t env members rep a)
  | _ -> eval t (with_bindings env (rep @ env.bindings)) e

(* ------------------------------------------------------------------ *)
(* DML                                                                  *)
(* ------------------------------------------------------------------ *)

and check_foreign_keys t tbl row =
  if t.enforce_fk then
    let sch = Storage.schema tbl in
    List.iter
      (fun (local, ftbl, fcol) ->
        match Storage.column_index tbl local with
        | None -> ()
        | Some i ->
            let v = row.(i) in
            if not (Value.is_null v) then begin
              let target = find_table t ftbl in
              match Storage.column_index target fcol with
              | None -> ()
              | Some fi ->
                  let exists =
                    Storage.fold target ~init:false ~f:(fun acc _ trow ->
                        acc || Value.equal_sql trow.(fi) v)
                  in
                  if not exists then
                    sql_error "foreign key violation: %s.%s = %s not in %s.%s"
                      (Storage.name tbl) local (Value.to_string v) ftbl fcol
            end)
      (Schema.foreign_keys sch)

and run_triggers t timing event table_name ~old_row ~new_row =
  if t.trigger_depth > 8 then sql_error "trigger recursion limit exceeded";
  let trigs = Catalog.triggers_for t.cat table_name event in
  let relevant = List.filter (fun tr -> tr.Catalog.trig_timing = timing) trigs in
  if relevant <> [] then begin
    let tbl = find_table t table_name in
    let cols = Schema.column_names (Storage.schema tbl) in
    let bind prefix row =
      match row with
      | None -> []
      | Some r -> List.mapi (fun i c -> (prefix ^ "." ^ c, r.(i))) cols
    in
    let bindings = bind "NEW" new_row @ bind "OLD" old_row in
    t.trigger_depth <- t.trigger_depth + 1;
    Fun.protect
      ~finally:(fun () -> t.trigger_depth <- t.trigger_depth - 1)
      (fun () ->
        List.iter
          (fun trig ->
            let env = { vars = Hashtbl.create 4; bindings } in
            ignore (run_pstmts t env ~label:None trig.Catalog.trig_body))
          relevant)
  end

(* NOT NULL and PRIMARY KEY uniqueness, checked on every insert and on
   every updated row image ([skip_rowid] = the row being rewritten). PK
   columns holding NULL are not compared (MySQL treats an unfilled key as
   an error elsewhere; here NULL never equals anything). *)
and check_row_constraints t tbl (skip_rowid : int option) (row : Value.t array)
    : unit =
  ignore t;
  let sch = Storage.schema tbl in
  List.iteri
    (fun i (col : Schema.column) ->
      if
        col.Schema.not_null && Value.is_null row.(i)
        && not col.Schema.auto_increment
      then
        sql_error "column %s.%s cannot be NULL" (Storage.name tbl)
          col.Schema.col_name)
    sch.Schema.tbl_columns;
  (* single-column UNIQUE constraints *)
  List.iter
    (fun uname ->
      match Storage.column_index tbl uname with
      | None -> ()
      | Some ui ->
          if not (Value.is_null row.(ui)) then
            let candidates =
              match Storage.indexed_lookup tbl uname row.(ui) with
              | Some ids -> ids
              | None -> Storage.fold tbl ~init:[] ~f:(fun acc id _ -> id :: acc)
            in
            List.iter
              (fun id ->
                if Some id <> skip_rowid then
                  match Storage.get tbl id with
                  | Some other ->
                      if Value.equal_sql other.(ui) row.(ui) then
                        sql_error "duplicate entry for UNIQUE column %s.%s"
                          (Storage.name tbl) uname
                  | None -> ())
              candidates)
    (Schema.unique_columns sch);
  match Schema.primary_key_columns sch with
  | [] -> ()
  | pks -> (
      let idx_of name =
        match Storage.column_index tbl name with
        | Some i -> i
        | None -> sql_error "unknown PRIMARY KEY column %s" name
      in
      let pk_idxs = List.map idx_of pks in
      if not (List.exists (fun i -> Value.is_null row.(i)) pk_idxs) then
        let first_idx = List.hd pk_idxs in
        let candidates =
          match Storage.indexed_lookup tbl (List.hd pks) row.(first_idx) with
          | Some ids -> ids
          | None -> Storage.fold tbl ~init:[] ~f:(fun acc id _ -> id :: acc)
        in
        List.iter
          (fun id ->
            if Some id <> skip_rowid then
              match Storage.get tbl id with
              | Some other ->
                  if
                    List.for_all
                      (fun i -> Value.equal_sql other.(i) row.(i))
                      pk_idxs
                  then
                    sql_error "duplicate entry for PRIMARY KEY in %s"
                      (Storage.name tbl)
              | None -> ())
          candidates)

and insert_row t table_name (columns : string list option) (values : Value.t list)
    : unit =
  (* Updatable view: route to the parent table (§4.2 "Updatable VIEWs"). *)
  match Catalog.table t.cat table_name with
  | None -> (
      match Catalog.view t.cat table_name with
      | Some vsel -> (
          match vsel.sel_from with
          | Some (parent, _) -> insert_row t parent columns values
          | None -> sql_error "view %s is not insertable" table_name)
      | None -> sql_error "unknown table %s" table_name)
  | Some tbl ->
      let sch = Storage.schema tbl in
      let cols_a = Array.of_list sch.Schema.tbl_columns in
      let ncols = Array.length cols_a in
      let row = Array.make ncols Value.Null in
      let set_col name v =
        match Storage.column_index tbl name with
        | Some i -> row.(i) <- Value.coerce cols_a.(i).Schema.col_ty v
        | None -> sql_error "unknown column %s.%s" table_name name
      in
      (match columns with
      | Some cols ->
          if List.length cols <> List.length values then
            sql_error "INSERT into %s: %d columns but %d values" table_name
              (List.length cols) (List.length values);
          List.iter2 set_col cols values
      | None ->
          if List.length values <> ncols then
            sql_error "INSERT into %s: expected %d values, got %d" table_name ncols
              (List.length values);
          List.iteri
            (fun i v -> row.(i) <- Value.coerce cols_a.(i).Schema.col_ty v)
            values);
      (* AUTO_INCREMENT: fill a missing value, or bump past an explicit one.
         The assigned value is a recorded draw so replay reuses it (§4.4). *)
      (match Schema.auto_increment_column sch with
      | Some ac -> (
          match Storage.column_index tbl ac with
          | Some i ->
              (* counter restored on rollback so a retried statement
                 draws the same fresh keys *)
              t.journal <-
                Log.U_auto_value (table_name, Storage.next_auto_value tbl)
                :: t.journal;
              if Value.is_null row.(i) then begin
                let v =
                  draw t (fun () -> Value.Int (Storage.take_auto_value tbl))
                in
                Storage.bump_auto_value tbl (Value.to_int v);
                row.(i) <- Value.coerce Value.Tint v;
                t.last_insert_id <- row.(i)
              end
              else Storage.bump_auto_value tbl (Value.to_int row.(i))
          | None -> ())
      | None -> ());
      check_row_constraints t tbl None row;
      check_foreign_keys t tbl row;
      run_triggers t Before Ev_insert table_name ~old_row:None ~new_row:(Some row);
      ignore (j_insert t tbl row);
      run_triggers t After Ev_insert table_name ~old_row:None ~new_row:(Some row)

(* Find an AND-reachable equality conjunct [col = value] on an indexed
   column, bare or qualified by [prefix] (the name the scan binds the
   table's columns under), whose value is computable without row
   bindings; the index rows are then a sound superset of the matches. *)
and index_probe t env tbl prefix (w : expr) : Storage.rowid list option =
  let try_eq col e =
    match Storage.column_index tbl col with
    | None -> None
    | Some _ -> (
        match eval t env e with
        | Value.Null -> Some [] (* col = NULL matches no row *)
        | v -> Storage.indexed_lookup tbl col v
        | exception Sql_error _ -> None)
  in
  match w with
  | Binop (And, a, b) -> (
      match index_probe t env tbl prefix a with
      | Some _ as r -> r
      | None -> index_probe t env tbl prefix b)
  | Binop (Eq, Col (qual, col), e) when qual = None || qual = Some prefix ->
      try_eq col e
  | Binop (Eq, e, Col (qual, col)) when qual = None || qual = Some prefix ->
      try_eq col e
  | _ -> None

(* The rows of [tbl] that [where] selects, with their rowids, in scan
   order: an index probe narrows the candidates, then the WHERE runs
   compiled on the typed columns, else through the interpreter. A SELECT
   passes [prefix] (its alias or the table's name) and binds qualified
   names first; UPDATE and DELETE bind plain names first, since a
   backtick column named [t.c] resolves differently in the two orders. *)
and matching_rows ?prefix t env tbl where =
  match where with
  | None -> Storage.to_rows tbl
  | Some w -> (
      let sch = Storage.schema tbl in
      let qualified_first, prefix =
        match prefix with Some p -> (true, p) | None -> (false, Storage.name tbl)
      in
      let compiled = Compile_cur.compile_opt ~vars:env.vars sch prefix w in
      let ids =
        Option.map (List.sort compare) (index_probe t env tbl prefix w)
      in
      match compiled with
      | Some ce -> (
          (* filtered on the typed columns; only matches box *)
          let pred cur = Value.to_bool (ce cur) in
          match ids with
          | Some ids -> Storage.Col.select_ids tbl ids pred
          | None -> Storage.Col.select tbl pred)
      | None ->
          let candidates =
            match ids with
            | Some ids ->
                List.filter_map
                  (fun id -> Option.map (fun row -> (id, row)) (Storage.get tbl id))
                  ids
            | None -> Storage.to_rows tbl
          in
          let bind = mk_binder ~qualified_first prefix (Schema.column_names sch) in
          List.filter
            (fun (_, row) ->
              Value.to_bool
                (eval t (with_bindings env (bind row @ env.bindings)) w))
            candidates)

and resolve_write_target t table_name where =
  (* For UPDATE/DELETE on an updatable view, push the view predicate into
     the WHERE clause and target the parent table. *)
  match Catalog.table t.cat table_name with
  | Some tbl -> (tbl, where)
  | None -> (
      match Catalog.view t.cat table_name with
      | Some vsel -> (
          match vsel.sel_from with
          | Some (parent, _) ->
              let tbl = find_table t parent in
              let where' =
                match (vsel.sel_where, where) with
                | None, w -> w
                | Some vw, None -> Some vw
                | Some vw, Some w -> Some (Binop (And, vw, w))
              in
              (tbl, where')
          | None -> sql_error "view %s is not updatable" table_name)
      | None -> sql_error "unknown table %s" table_name)

and update_rows t env table_name assigns where : int =
  let tbl, where = resolve_write_target t table_name where in
  let sch = Storage.schema tbl in
  let name = Storage.name tbl in
  let victims = matching_rows t env tbl where in
  (match victims with
  | [] -> ()
  | _ ->
      let cols = Schema.column_names sch in
      let bind = mk_binder ~qualified_first:false name cols in
      let cols_a = Array.of_list sch.Schema.tbl_columns in
      (* assign targets resolve lazily at first use and cache — the
         resolution/evaluation interleaving of the first victim must
         reproduce the per-victim interpreter exactly (an unknown-column
         error may interrupt a half-evaluated assign list) *)
      let resolved = Array.make (List.length assigns) None in
      let fresh_of row renv =
        let fresh = Array.copy row in
        List.iteri
          (fun k (cname, e) ->
            let i, ty =
              match resolved.(k) with
              | Some p -> p
              | None ->
                  let p =
                    match Storage.column_index tbl cname with
                    | Some i -> (i, cols_a.(i).Schema.col_ty)
                    | None -> sql_error "unknown column %s.%s" name cname
                  in
                  resolved.(k) <- Some p;
                  p
            in
            fresh.(i) <- Value.coerce ty (eval t renv e))
          assigns;
        fresh
      in
      (* One storage batch per statement when sequential semantics are
         provably preserved: no UPDATE triggers, no assign reads any
         table (so row images evaluated against the pre-statement state
         equal the sequential ones), and no PRIMARY KEY / UNIQUE column
         is assigned (so the per-victim constraint checks are
         independent of the other victims' writes). *)
      let keyed = Schema.primary_key_columns sch @ Schema.unique_columns sch in
      let batchable =
        Catalog.triggers_for t.cat name Ev_update = []
        && List.for_all
             (fun (cname, e) ->
               (not (List.exists (String.equal cname) keyed))
               && not (expr_reads_tables e))
             assigns
      in
      if batchable then begin
        let updates =
          List.map
            (fun (rid, row) ->
              let renv = with_bindings env (bind row @ env.bindings) in
              let fresh = fresh_of row renv in
              check_row_constraints t tbl (Some rid) fresh;
              (rid, fresh))
            victims
        in
        let before =
          Storage.update_many ~delta:(written_delta t name) tbl updates
        in
        List.iter2
          (fun (rid, fresh) (_, old) ->
            t.journal <-
              Log.U_row_update (name, rid, old, Array.copy fresh) :: t.journal;
            t.rows_written <- t.rows_written + 1)
          updates before
      end
      else
        List.iter
          (fun (rid, row) ->
            let renv = with_bindings env (bind row @ env.bindings) in
            let fresh = fresh_of row renv in
            check_row_constraints t tbl (Some rid) fresh;
            run_triggers t Before Ev_update name ~old_row:(Some row)
              ~new_row:(Some fresh);
            ignore (j_update t tbl rid fresh);
            run_triggers t After Ev_update name ~old_row:(Some row)
              ~new_row:(Some fresh))
          victims);
  List.length victims

and delete_rows t env table_name where : int =
  let tbl, where = resolve_write_target t table_name where in
  let name = Storage.name tbl in
  let victims = matching_rows t env tbl where in
  (match victims with
  | [] -> ()
  | _ ->
      if Catalog.triggers_for t.cat name Ev_delete = [] then begin
        (* one storage batch and one hash-chain update per statement *)
        let removed =
          Storage.delete_many ~delta:(written_delta t name) tbl
            (List.map fst victims)
        in
        List.iter
          (fun (rid, row) ->
            t.journal <- Log.U_row_delete (name, rid, row) :: t.journal;
            t.rows_written <- t.rows_written + 1)
          removed
      end
      else
        List.iter
          (fun (rid, row) ->
            run_triggers t Before Ev_delete name ~old_row:(Some row)
              ~new_row:None;
            ignore (j_delete t tbl rid);
            run_triggers t After Ev_delete name ~old_row:(Some row)
              ~new_row:None)
          victims);
  List.length victims

(* ------------------------------------------------------------------ *)
(* Procedure bodies                                                     *)
(* ------------------------------------------------------------------ *)

and run_pstmts t env ~label body : result =
  let exception Leave_block in
  let last = ref empty_result in
  (try
     List.iter
       (fun p ->
         match run_pstmt t env ~label p with
         | `Result r -> last := r
         | `Leave _ -> raise Leave_block (* leaving any label ends the body *))
       body
   with Leave_block -> ());
  !last

and run_pstmt t env ~label p : [ `Result of result | `Leave of string ] =
  match p with
  | P_stmt s -> `Result (exec_stmt t env s)
  | P_declare (v, ty, init) ->
      let value =
        match init with
        | None -> Value.Null
        | Some e -> Value.coerce ty (eval t env e)
      in
      Hashtbl.replace env.vars v value;
      `Result empty_result
  | P_set (v, e) ->
      Hashtbl.replace env.vars v (eval t env e);
      `Result empty_result
  | P_select_into (s, vars) ->
      let r = run_select t env s in
      (match r.rows with
      | [] -> List.iter (fun v -> Hashtbl.replace env.vars v Value.Null) vars
      | row :: _ ->
          List.iteri
            (fun i v ->
              let value = if i < Array.length row then row.(i) else Value.Null in
              Hashtbl.replace env.vars v value)
            vars);
      `Result empty_result
  | P_if (branches, else_body) ->
      let rec pick = function
        | [] -> else_body
        | (cond, body) :: rest ->
            if Value.to_bool (eval t env cond) then body else pick rest
      in
      run_block t env ~label (pick branches)
  | P_while (cond, body) ->
      let guard = ref 0 in
      let out = ref (`Result empty_result) in
      let continue = ref true in
      while !continue && Value.to_bool (eval t env cond) do
        incr guard;
        if !guard > 1_000_000 then sql_error "WHILE iteration limit exceeded";
        match run_block t env ~label body with
        | `Leave _ as l ->
            out := l;
            continue := false
        | `Result _ as r -> out := r
      done;
      !out
  | P_leave l -> `Leave l
  | P_signal state -> raise (Signal_raised state)

and run_block t env ~label body :
    [ `Result of result | `Leave of string ] =
  let rec go last = function
    | [] -> `Result last
    | p :: rest -> (
        match run_pstmt t env ~label p with
        | `Result r -> go r rest
        | `Leave _ as l -> l)
  in
  go empty_result body

and call_procedure t name args : result =
  match Catalog.procedure t.cat name with
  | None -> sql_error "unknown procedure %s" name
  | Some proc ->
      if List.length args <> List.length proc.Catalog.proc_params then
        sql_error "procedure %s expects %d arguments, got %d" name
          (List.length proc.Catalog.proc_params)
          (List.length args);
      let env = empty_env () in
      List.iter2
        (fun (pname, ty) v -> Hashtbl.replace env.vars pname (Value.coerce ty v))
        proc.Catalog.proc_params args;
      run_pstmts t env ~label:proc.Catalog.proc_label proc.Catalog.proc_body

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

and exec_stmt t env (s : stmt) : result =
  match s with
  | Select sel -> run_select t env sel
  | Insert { table; columns; values } ->
      List.iter
        (fun row_exprs ->
          let vs = List.map (eval t env) row_exprs in
          insert_row t table columns vs)
        values;
      { empty_result with rows_written = List.length values }
  | Insert_select { table; columns; query } ->
      (* materialise the source rows first: INSERT INTO t SELECT ... FROM t
         must not observe its own insertions *)
      let r = run_select t env query in
      List.iter (fun row -> insert_row t table columns (Array.to_list row)) r.rows;
      { empty_result with rows_written = List.length r.rows }
  | Update { table; assigns; where } ->
      let n = update_rows t env table assigns where in
      { empty_result with rows_written = n }
  | Delete { table; where } ->
      let n = delete_rows t env table where in
      { empty_result with rows_written = n }
  | Call (name, args) ->
      let vs = List.map (eval t env) args in
      call_procedure t name vs
  | Transaction stmts ->
      let last = ref empty_result in
      List.iter (fun s -> last := exec_stmt t env s) stmts;
      !last
  | Create_table { name; columns; if_not_exists } ->
      if Catalog.table t.cat name <> None then begin
        if not if_not_exists then sql_error "table %s already exists" name
      end
      else begin
        capture_table t name;
        Catalog.add_table t.cat (Storage.create (Schema.table name columns))
      end;
      empty_result
  | Drop_table { name; if_exists } ->
      if Catalog.table t.cat name = None then begin
        if not if_exists then sql_error "unknown table %s" name
      end
      else begin
        capture_table t name;
        Catalog.remove_table t.cat name
      end;
      empty_result
  | Truncate_table name ->
      let tbl = find_table t name in
      let ids = List.map fst (Storage.to_rows tbl) in
      List.iter (fun id -> ignore (j_delete t tbl id)) ids;
      empty_result
  | Alter_table (name, action) ->
      let tbl = find_table t name in
      (match action with
      | Set_auto_increment _ ->
          (* a counter pin needs no table capture; journal just the
             counter *)
          t.journal <-
            Log.U_auto_value (name, Storage.next_auto_value tbl) :: t.journal
      | _ -> capture_table t name);
      (match action with
      | Rename_table n2 -> capture_table t n2
      | _ -> ());
      let sch = Storage.schema tbl in
      (match action with
      | Set_auto_increment v -> Storage.set_auto_value tbl v
      | Add_column c ->
          let fresh =
            { sch with Schema.tbl_columns = sch.Schema.tbl_columns @ [ c ] }
          in
          Storage.set_schema tbl fresh (fun row ->
              Array.append row [| Value.Null |])
      | Drop_column cname ->
          let idx =
            match Storage.column_index tbl cname with
            | Some i -> i
            | None -> sql_error "unknown column %s.%s" name cname
          in
          let fresh =
            {
              sch with
              Schema.tbl_columns =
                List.filteri (fun i _ -> i <> idx) sch.Schema.tbl_columns;
            }
          in
          Storage.set_schema tbl fresh (fun row ->
              Array.of_list
                (List.filteri (fun i _ -> i <> idx) (Array.to_list row)))
      | Rename_table n2 -> Catalog.rename_table t.cat name n2);
      empty_result
  | Create_view { name; query; or_replace } ->
      if (not or_replace) && Catalog.view t.cat name <> None then
        sql_error "view %s already exists" name;
      capture_view t name;
      Catalog.add_view t.cat name query;
      empty_result
  | Drop_view name ->
      capture_view t name;
      Catalog.remove_view t.cat name;
      empty_result
  | Create_index { name; table; columns } ->
      capture_index t name None;
      Catalog.add_index t.cat name (table, columns);
      (match (Catalog.table t.cat table, columns) with
      | Some tbl, col :: _ -> Storage.create_value_index tbl col
      | _ -> ());
      empty_result
  | Drop_index { name; _ } ->
      capture_index t name None;
      Catalog.remove_index t.cat name;
      empty_result
  | Create_procedure { name; params; label; body } ->
      capture_proc t name;
      Catalog.add_procedure t.cat
        {
          Catalog.proc_name = name;
          proc_params = params;
          proc_label = label;
          proc_body = body;
        };
      empty_result
  | Drop_procedure name ->
      capture_proc t name;
      Catalog.remove_procedure t.cat name;
      empty_result
  | Create_trigger { name; timing; event; table; body } ->
      capture_trigger t name;
      Catalog.add_trigger t.cat
        {
          Catalog.trig_name = name;
          trig_timing = timing;
          trig_event = event;
          trig_table = table;
          trig_body = body;
        };
      empty_result
  | Drop_trigger name ->
      capture_trigger t name;
      Catalog.remove_trigger t.cat name;
      empty_result

(* ------------------------------------------------------------------ *)
(* Row filters                                                          *)
(* ------------------------------------------------------------------ *)

(* The [index_probe] restriction that stays valid without an engine: an
   AND-reachable [col = literal] conjunct. *)
let rec probe_of tname (w : expr) =
  match w with
  | Binop (And, a, b) -> (
      match probe_of tname a with
      | Some _ as r -> r
      | None -> probe_of tname b)
  | Binop (Eq, Col (qual, col), Lit v) when qual = None || qual = Some tname ->
      Some (col, v)
  | Binop (Eq, Lit v, Col (qual, col)) when qual = None || qual = Some tname ->
      Some (col, v)
  | _ -> None

(* The [col = literal] conjunct rules a row out at the cost of one cell
   comparison, so the rest of [w] is compiled only for the rows it
   lets through. *)
let row_filter (sch : Schema.table) (w : expr) =
  let tname = sch.Schema.tbl_name in
  let probe =
    Option.bind (probe_of tname w) (fun (col, v) ->
        Option.map (fun i -> (i, v)) (Schema.column_index sch col))
  in
  let full =
    lazy (Compile_row.compile_opt ~vars:(Hashtbl.create 1) sch tname w)
  in
  fun row ->
    (match probe with
    | Some (i, v) -> i < Array.length row && Value.equal_sql row.(i) v
    | None -> true)
    &&
    match Lazy.force full with
    | Some ce -> (
        (* a row the evaluation fails on is one it may select *)
        try Value.to_bool (ce row)
        with Sql_error _ | Invalid_argument _ | Failure _ | Division_by_zero ->
          true)
    | None -> true

let vars_table vars =
  let h = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) vars;
  h

let interpret t ~vars ~prefix sch e row =
  let bind = mk_binder ~qualified_first:true prefix (Schema.column_names sch) in
  eval t { vars = vars_table vars; bindings = bind row } e

let compile_cursor ~vars ~prefix sch e =
  Compile_cur.compile_opt ~vars:(vars_table vars) sch prefix e

let compile_row ~vars ~prefix sch e =
  Compile_row.compile_opt ~vars:(vars_table vars) sch prefix e

(* ------------------------------------------------------------------ *)
(* Top-level entry points                                               *)
(* ------------------------------------------------------------------ *)

let begin_statement ?rowid_base ?(history = []) t nondet =
  t.journal <- [];
  t.nondet_in <- nondet;
  t.nondet_out <- [];
  t.written <- [];
  t.rows_written <- 0;
  (* the journal is newest first *)
  let hist acc = function
    | Log.U_row_insert (n, r, _) -> (n, r) :: acc
    | _ -> acc
  in
  t.rowid_alloc <-
    Option.map
      (fun base -> { base; n = 0; hist = List.fold_left hist [] history })
      rowid_base

(* The entry's statement text: the caller's copy of the rendering when it
   passed one (replay reuses the logged text), otherwise rendered here. *)
let stmt_text ?sql stmt =
  match sql with Some s -> s | None -> Printer.stmt_compact stmt

(* Statement text attached to Sql_error so chaos-run failures are
   diagnosable from the message alone; long statements are clipped. *)
let error_context t sql =
  let sql =
    if String.length sql > 160 then String.sub sql 0 157 ^ "..." else sql
  in
  Printf.sprintf " [at log index %d: %s]" (Log.length t.log + 1) sql

let exec ?app_txn ?(nondet = []) ?rowid_base ?history ?sql t stmt =
  begin_statement ?rowid_base ?history t nondet;
  Uv_util.Clock.charge_rtt t.clock ();
  (* pre-statement state: an injected (infrastructure) fault restores all
     of it so a retried statement reenacts exactly — an application-level
     error keeps the historical behaviour (clock and PRNG advance) *)
  let sim0 = t.sim_time in
  let li0 = t.last_insert_id in
  let prng0 = Uv_util.Prng.copy t.prng in
  t.sim_time <- t.sim_time + 1;
  let traced = Uv_obs.Trace.enabled t.obs in
  let t0 = if traced then Uv_util.Clock.now_ms () else 0.0 in
  let run () =
    Uv_fault.Fault.fire ~key:t.sim_time t.fault Uv_fault.Fault.Site.engine_exec
      [ Uv_fault.Fault.Stmt_fail ];
    let r =
      try exec_stmt t (empty_env ()) stmt
      with Failure msg -> sql_error "%s" msg
    in
    (* the statement executed; a fault here models a crash before its log
       entry commits, forcing the full journal rollback below *)
    Uv_fault.Fault.fire ~key:t.sim_time t.fault
      Uv_fault.Fault.Site.engine_commit
      [ Uv_fault.Fault.Stmt_fail ];
    r
  in
  match run () with
  | r ->
      if traced then begin
        Uv_obs.Trace.observe t.obs "db.exec_ms" (Uv_util.Clock.now_ms () -. t0);
        Uv_obs.Trace.incr t.obs "db.log_appends"
      end;
      let written_hashes =
        List.rev_map (fun (name, _) -> (name, table_hash t name)) t.written
      in
      let entry =
        {
          Log.index = Log.length t.log + 1;
          stmt;
          sql = stmt_text ?sql stmt;
          nondet = List.rev t.nondet_out;
          rows_written = t.rows_written;
          written_hashes;
          undo = t.journal;
          app_txn;
        }
      in
      Log.append t.log entry;
      (* a fault at the checkpoint site abandons this rung only: the
         ladder stays consistent and the next stride multiple tries again *)
      (match t.checkpoints with
      | Some ladder
        when Checkpoint.due ladder entry.Log.index
             && Option.is_none
                  (Uv_fault.Fault.check ~key:entry.Log.index t.fault
                     Uv_fault.Fault.Site.checkpoint [ Uv_fault.Fault.Stmt_fail ]) ->
          Checkpoint.record ladder t.cat entry.Log.index;
          if traced then Uv_obs.Trace.incr t.obs "db.checkpoints"
      | _ -> ());
      {
        r with
        rows_written = t.rows_written;
        hash_deltas =
          List.rev_map
            (fun (name, d) -> (name, Uv_util.Table_hash.value d))
            t.written;
      }
  | exception exn ->
      (* statement atomicity on *every* failure path: roll the journal
         back whatever escaped, not just SQL-level errors *)
      let r0 = if traced then Uv_util.Clock.now_ms () else 0.0 in
      undo_journal t;
      (match exn with
      | Uv_fault.Fault.Injected _ ->
          t.prng <- prng0;
          t.sim_time <- sim0;
          t.last_insert_id <- li0
      | _ -> ());
      if traced then begin
        Uv_obs.Trace.observe t.obs "db.rollback_ms" (Uv_util.Clock.now_ms () -. r0);
        Uv_obs.Trace.incr t.obs "db.rollbacks"
      end;
      (match exn with
      | Sql_error msg ->
          raise (Sql_error (msg ^ error_context t (stmt_text ?sql stmt)))
      | _ -> raise exn)

let memo t =
  match t.memo with
  | Some m -> m
  | None ->
      let m = Stmt_memo.create () in
      t.memo <- Some m;
      m

let exec_sql ?app_txn ?nondet t sql =
  let stmt, text = Stmt_memo.parse_logged (memo t) sql in
  exec ?app_txn ?nondet ~sql:text t stmt

(* A script's statements are found by parsing it whole. *)
let exec_script t sql = List.map (fun s -> exec t s) (Parser.parse_script sql)

let query t sel =
  begin_statement t [];
  run_select t (empty_env ()) sel

let query_sql t sql =
  match Stmt_memo.parse (memo t) sql with
  | Select sel -> query t sel
  | _ -> sql_error "query_sql expects a SELECT"
