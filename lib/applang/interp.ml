open Value

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type hooks = {
  sql_exec : cv -> cv;
  blackbox : string -> cv list -> cv option;
  sym_access : Uv_symexec.Sym.t -> cv;
  on_branch : Uv_symexec.Sym.t -> bool -> unit;
}

let default_hooks =
  {
    sql_exec = (fun _ -> err "SQL_exec: no database attached");
    blackbox = (fun _ _ -> None);
    sym_access = (fun _ -> Value.num 0.0);
    on_branch = (fun _ _ -> ());
  }

let blackbox_apis =
  [ "Math.random"; "Date.getTime"; "Date.now"; "http.send"; "runtime.eval" ]

type t = {
  hooks : hooks;
  globals : scope;
  prng : Uv_util.Prng.t;
  mutable sim_time : float;
}

exception Return_exc of cv
exception Break_exc
exception Continue_exc

let make_obj fields =
  let tbl = Hashtbl.create (List.length fields) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fields;
  Obj tbl

let create ?(hooks = default_hooks) ?(seed = 11) () =
  let globals : scope = Hashtbl.create 32 in
  let def name v = Hashtbl.replace globals name (ref v) in
  def "Math"
    (conc
       (make_obj
          [
            ("random", conc (Builtin "Math.random"));
            ("floor", conc (Builtin "Math.floor"));
            ("ceil", conc (Builtin "Math.ceil"));
            ("abs", conc (Builtin "Math.abs"));
            ("min", conc (Builtin "Math.min"));
            ("max", conc (Builtin "Math.max"));
            ("round", conc (Builtin "Math.round"));
          ]));
  def "Date"
    (conc
       (make_obj
          [
            ("getTime", conc (Builtin "Date.getTime"));
            ("now", conc (Builtin "Date.now"));
          ]));
  def "console" (conc (make_obj [ ("log", conc (Builtin "console.log")) ]));
  def "http" (conc (make_obj [ ("send", conc (Builtin "http.send")) ]));
  def "runtime" (conc (make_obj [ ("eval", conc (Builtin "runtime.eval")) ]));
  def "SQL_exec" (conc (Builtin "SQL_exec"));
  def "Ultraverse_log" (conc (Builtin "Ultraverse_log"));
  def "parseInt" (conc (Builtin "parseInt"));
  def "parseFloat" (conc (Builtin "parseFloat"));
  def "String" (conc (Builtin "String"));
  def "Number" (conc (Builtin "Number"));
  { hooks; globals; prng = Uv_util.Prng.create seed; sim_time = 1.7e12 }

(* ------------------------------------------------------------------ *)
(* Scope handling                                                       *)
(* ------------------------------------------------------------------ *)

let rec lookup scopes name =
  match scopes with
  | [] -> None
  | s :: rest -> (
      match Hashtbl.find_opt s name with Some r -> Some r | None -> lookup rest name)

let declare scope name v = Hashtbl.replace scope name (ref v)

(* ------------------------------------------------------------------ *)
(* Symbolic helpers                                                     *)
(* ------------------------------------------------------------------ *)

let sym_of_cv (c : cv) : Uv_symexec.Sym.t option =
  match c.sym with
  | Some s -> Some s
  | None -> (
      match c.v with
      | Num f -> Some (Uv_symexec.Sym.Const_num f)
      | Str s -> Some (Uv_symexec.Sym.Const_str s)
      | Bool b -> Some (Uv_symexec.Sym.Const_bool b)
      | Null | Undefined -> Some Uv_symexec.Sym.Const_null
      | _ -> None)

let is_symbolic (c : cv) = c.sym <> None || c.segs <> None

let combine_sym op a b =
  if is_symbolic a || is_symbolic b then
    match (sym_of_cv a, sym_of_cv b) with
    | Some sa, Some sb -> Some (Uv_symexec.Sym.Binop (op, sa, sb))
    | _ -> None
  else None

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

(* A symbolic container used in scalar position collapses to the derived
   leaf's concrete value via the sym_access hook. *)
let scalarize t (c : cv) =
  match c.v with
  | Sym_container leaf -> t.hooks.sym_access leaf
  | _ -> c

let rec eval t scopes (e : Ast.expr) : cv =
  match e with
  | Ast.Num f -> num f
  | Ast.Str s -> str s
  | Ast.Bool b -> bool b
  | Ast.Null -> null
  | Ast.Undefined -> undefined
  | Ast.Template parts ->
      let cvs =
        List.map
          (function
            | Ast.Ptext s -> str s
            | Ast.Phole e -> scalarize t (eval t scopes e))
          parts
      in
      let concrete =
        String.concat "" (List.map (fun c -> to_display c.v) cvs)
      in
      if List.exists is_symbolic cvs then begin
        let segs =
          List.concat_map segs_of cvs
          |> List.fold_left
               (fun acc seg ->
                 match (acc, seg) with
                 | S_text a :: rest, S_text b -> S_text (a ^ b) :: rest
                 | _ -> seg :: acc)
               []
          |> List.rev
        in
        let sym =
          List.fold_left
            (fun acc c ->
              match (acc, sym_of_cv c) with
              | None, s -> s
              | Some a, Some b -> Some (Uv_symexec.Sym.Binop ("str.++", a, b))
              | Some a, None -> Some a)
            None cvs
        in
        { v = Str concrete; sym; segs = Some segs }
      end
      else str concrete
  | Ast.Ident name -> (
      match lookup scopes name with
      | Some r -> !r
      | None -> err "unbound identifier %s" name)
  | Ast.Binop (op, a, b) -> eval_binop t scopes op a b
  | Ast.Unop ("!", a) ->
      let v = scalarize t (eval t scopes a) in
      {
        v = Bool (not (truthy v.v));
        sym = Option.map (fun s -> Uv_symexec.Sym.Unop ("!", s)) v.sym;
        segs = None;
      }
  | Ast.Unop ("-", a) ->
      let v = scalarize t (eval t scopes a) in
      {
        v = Num (-.to_num v.v);
        sym = Option.map (fun s -> Uv_symexec.Sym.Unop ("-", s)) v.sym;
        segs = None;
      }
  | Ast.Unop ("typeof", a) ->
      let v = eval t scopes a in
      let ty =
        match v.v with
        | Num _ -> "number"
        | Str _ -> "string"
        | Bool _ -> "boolean"
        | Null -> "object"
        | Undefined -> "undefined"
        | Obj _ | Arr _ | Sym_container _ -> "object"
        | Closure _ | Builtin _ -> "function"
      in
      str ty
  | Ast.Unop (op, _) -> err "unknown unary operator %s" op
  | Ast.Cond (c, a, b) ->
      let cond = scalarize t (eval t scopes c) in
      let taken = truthy cond.v in
      (match cond.sym with Some s -> t.hooks.on_branch s taken | None -> ());
      if taken then eval t scopes a else eval t scopes b
  | Ast.Member (obj_expr, field) ->
      let obj = eval t scopes obj_expr in
      member t obj field
  | Ast.Index (obj_expr, idx_expr) ->
      let obj = eval t scopes obj_expr in
      let idx = eval t scopes idx_expr in
      index t obj idx
  | Ast.Object_lit fields ->
      let tbl = Hashtbl.create (List.length fields) in
      List.iter (fun (k, e) -> Hashtbl.replace tbl k (eval t scopes e)) fields;
      conc (Obj tbl)
  | Ast.Array_lit items ->
      conc (Arr (ref (List.map (eval t scopes) items)))
  | Ast.Fun_expr (params, body) -> conc (Closure (params, body, scopes))
  | Ast.Call (callee, args) -> eval_call t scopes callee args

and eval_binop t scopes op a_expr b_expr =
  match op with
  | "&&" ->
      let a = scalarize t (eval t scopes a_expr) in
      let taken = truthy a.v in
      (match a.sym with Some s -> t.hooks.on_branch s taken | None -> ());
      if taken then eval t scopes b_expr else a
  | "||" ->
      let a = scalarize t (eval t scopes a_expr) in
      let taken = truthy a.v in
      (match a.sym with Some s -> t.hooks.on_branch s taken | None -> ());
      if taken then a else eval t scopes b_expr
  | _ -> (
      let a = scalarize t (eval t scopes a_expr) in
      let b = scalarize t (eval t scopes b_expr) in
      let stringish =
        match (a.v, b.v) with Str _, _ | _, Str _ -> true | _ -> false
      in
      match op with
      | "+" when stringish ->
          let concrete = to_display a.v ^ to_display b.v in
          if is_symbolic a || is_symbolic b then
            {
              v = Str concrete;
              sym = combine_sym "str.++" a b;
              segs = Some (segs_concat a b);
            }
          else str concrete
      | "+" -> { v = Num (to_num a.v +. to_num b.v); sym = combine_sym "+" a b; segs = None }
      | "-" -> { v = Num (to_num a.v -. to_num b.v); sym = combine_sym "-" a b; segs = None }
      | "*" -> { v = Num (to_num a.v *. to_num b.v); sym = combine_sym "*" a b; segs = None }
      | "/" -> { v = Num (to_num a.v /. to_num b.v); sym = combine_sym "/" a b; segs = None }
      | "%" ->
          {
            v = Num (Float.rem (to_num a.v) (to_num b.v));
            sym = combine_sym "%" a b;
            segs = None;
          }
      | "==" -> { v = Bool (loose_eq a.v b.v); sym = combine_sym "==" a b; segs = None }
      | "!=" ->
          { v = Bool (not (loose_eq a.v b.v)); sym = combine_sym "!=" a b; segs = None }
      | "===" -> { v = Bool (strict_eq a.v b.v); sym = combine_sym "==" a b; segs = None }
      | "!==" ->
          { v = Bool (not (strict_eq a.v b.v)); sym = combine_sym "!=" a b; segs = None }
      | "<" | "<=" | ">" | ">=" ->
          let c =
            match (a.v, b.v) with
            | Str x, Str y -> compare x y
            | _ -> Float.compare (to_num a.v) (to_num b.v)
          in
          let r =
            match op with
            | "<" -> c < 0
            | "<=" -> c <= 0
            | ">" -> c > 0
            | _ -> c >= 0
          in
          { v = Bool r; sym = combine_sym op a b; segs = None }
      | _ -> err "unknown operator %s" op)

and member t obj field =
  match obj.v with
  | Obj tbl -> (
      match Hashtbl.find_opt tbl field with Some v -> v | None -> undefined)
  | Arr items when field = "length" -> num (float_of_int (List.length !items))
  | Str s when field = "length" -> num (float_of_int (String.length s))
  | Sym_container base ->
      let derived = Uv_symexec.Sym.Field (base, field) in
      if field = "length" then t.hooks.sym_access derived
      else { v = Sym_container derived; sym = Some derived; segs = None }
  | Str _ -> conc (Builtin ("string." ^ field))
  | Arr _ -> conc (Builtin ("array." ^ field))
  | Null | Undefined -> err "cannot read property %s of %s" field (to_display obj.v)
  | _ -> undefined

and index _t obj idx =
  match (obj.v, idx.v) with
  | Arr items, Num f ->
      let i = int_of_float f in
      if i >= 0 && i < List.length !items then List.nth !items i else undefined
  | Obj tbl, _ -> (
      match Hashtbl.find_opt tbl (to_display idx.v) with
      | Some v -> v
      | None -> undefined)
  | Sym_container base, Num f ->
      let derived = Uv_symexec.Sym.Item (base, int_of_float f) in
      { v = Sym_container derived; sym = Some derived; segs = None }
  | Sym_container base, _ ->
      let derived = Uv_symexec.Sym.Field (base, to_display idx.v) in
      { v = Sym_container derived; sym = Some derived; segs = None }
  | Str s, Num f ->
      let i = int_of_float f in
      if i >= 0 && i < String.length s then str (String.make 1 s.[i]) else undefined
  | _ -> undefined

and eval_call t scopes callee args =
  match callee with
  | Ast.Member (obj_expr, m) -> (
      let obj = eval t scopes obj_expr in
      match obj.v with
      | Str _ | Arr _ ->
          let argv = List.map (eval t scopes) args in
          call_method t obj m argv
      | _ ->
          let f = member t obj m in
          let argv = List.map (eval t scopes) args in
          apply t f argv)
  | _ ->
      let f = eval t scopes callee in
      let argv = List.map (eval t scopes) args in
      apply t f argv

and call_method t recv m argv =
  match (recv.v, m) with
  | Str s, "concat" ->
      let parts = recv :: argv in
      let concrete = String.concat "" (List.map (fun c -> to_display c.v) parts) in
      ignore s;
      if List.exists is_symbolic parts then
        let sym =
          List.fold_left
            (fun acc c ->
              match (acc, sym_of_cv c) with
              | None, s -> s
              | Some a, Some b -> Some (Uv_symexec.Sym.Binop ("str.++", a, b))
              | Some a, None -> Some a)
            None parts
        in
        let segs = List.concat_map segs_of parts in
        { v = Str concrete; sym; segs = Some segs }
      else str concrete
  | Str s, "toUpperCase" -> str (String.uppercase_ascii s)
  | Str s, "toLowerCase" -> str (String.lowercase_ascii s)
  | Str s, "indexOf" -> (
      match argv with
      | [ { v = Str needle; _ } ] ->
          let rec find i =
            if i + String.length needle > String.length s then -1
            else if String.sub s i (String.length needle) = needle then i
            else find (i + 1)
          in
          num (float_of_int (find 0))
      | _ -> num (-1.0))
  | Str s, ("substring" | "substr") ->
      let geti i d =
        match List.nth_opt argv i with
        | Some { v; _ } -> int_of_float (to_num v)
        | None -> d
      in
      let a = max 0 (geti 0 0) in
      let b = min (String.length s) (geti 1 (String.length s)) in
      if a >= b then str "" else str (String.sub s a (b - a))
  | Arr items, "push" ->
      items := !items @ argv;
      num (float_of_int (List.length !items))
  | Arr items, "pop" -> (
      match List.rev !items with
      | [] -> undefined
      | last :: rest ->
          items := List.rev rest;
          last)
  | Arr items, "includes" -> (
      match argv with
      | [ needle ] -> bool (List.exists (fun c -> loose_eq c.v needle.v) !items)
      | _ -> bool false)
  | Arr items, "join" ->
      let sep =
        match argv with { v = Str s; _ } :: _ -> s | _ -> ","
      in
      str (String.concat sep (List.map (fun c -> to_display c.v) !items))
  | Str s, "trim" -> str (String.trim s)
  | Str s, "split" -> (
      match argv with
      | [ { v = Str sep; _ } ] when sep <> "" ->
          let parts = ref [] and start = ref 0 in
          let n = String.length s and k = String.length sep in
          let i = ref 0 in
          while !i + k <= n do
            if String.sub s !i k = sep then begin
              parts := String.sub s !start (!i - !start) :: !parts;
              start := !i + k;
              i := !i + k
            end
            else incr i
          done;
          parts := String.sub s !start (n - !start) :: !parts;
          conc (Arr (ref (List.rev_map (fun p -> str p) !parts)))
      | _ ->
          (* no / empty separator: one-element array, like JS with no match *)
          conc (Arr (ref [ str s ])))
  | Arr items, "slice" ->
      let len = List.length !items in
      let norm d = function
        | Some { v; _ } ->
            let i = int_of_float (to_num v) in
            if i < 0 then max 0 (len + i) else min len i
        | None -> d
      in
      let a = norm 0 (List.nth_opt argv 0) in
      let b = norm len (List.nth_opt argv 1) in
      conc (Arr (ref (List.filteri (fun i _ -> i >= a && i < b) !items)))
  | Arr items, "indexOf" -> (
      match argv with
      | [ needle ] ->
          let rec find i = function
            | [] -> -1
            | c :: rest -> if loose_eq c.v needle.v then i else find (i + 1) rest
          in
          num (float_of_int (find 0 !items))
      | _ -> num (-1.0))
  | Arr items, "map" -> (
      match argv with
      | [ f ] -> conc (Arr (ref (List.map (fun c -> apply t f [ c ]) !items)))
      | _ -> err "map expects a function")
  | Arr items, "filter" -> (
      match argv with
      | [ f ] ->
          conc
            (Arr
               (ref
                  (List.filter
                     (fun c -> truthy (scalarize t (apply t f [ c ])).v)
                     !items)))
      | _ -> err "filter expects a function")
  | Arr items, "forEach" -> (
      match argv with
      | [ f ] ->
          List.iter (fun c -> ignore (apply t f [ c ])) !items;
          undefined
      | _ -> err "forEach expects a function")
  | _, m -> err "unknown method %s on %s" m (to_display recv.v)

and apply t f argv =
  match f.v with
  | Closure (params, body, captured) ->
      let scope : scope = Hashtbl.create 8 in
      List.iteri
        (fun i p ->
          declare scope p
            (match List.nth_opt argv i with Some v -> v | None -> undefined))
        params;
      run_body t (scope :: captured) body
  | Builtin name -> call_builtin t name argv
  | _ -> err "not a function: %s" (to_display f.v)

and call_builtin t name argv =
  let arg i = match List.nth_opt argv i with Some v -> v | None -> undefined in
  if List.mem name blackbox_apis then
    match t.hooks.blackbox name argv with
    | Some v -> v
    | None -> (
        (* concrete default implementations *)
        match name with
        | "Math.random" -> num (Uv_util.Prng.float t.prng 1.0)
        | "Date.getTime" | "Date.now" ->
            t.sim_time <- t.sim_time +. 1.0;
            num t.sim_time
        | "http.send" -> conc (make_obj [ ("code", num 1.0); ("error", str "") ])
        | "runtime.eval" -> undefined
        | _ -> undefined)
  else
    match name with
    | "SQL_exec" -> t.hooks.sql_exec (arg 0)
    | "Ultraverse_log" | "console.log" -> undefined
    | "Math.floor" -> num (Float.floor (to_num (arg 0).v))
    | "Math.ceil" -> num (Float.ceil (to_num (arg 0).v))
    | "Math.abs" -> num (Float.abs (to_num (arg 0).v))
    | "Math.round" -> num (Float.round (to_num (arg 0).v))
    | "Math.min" ->
        num
          (List.fold_left
             (fun acc c -> Float.min acc (to_num c.v))
             Float.infinity argv)
    | "Math.max" ->
        num
          (List.fold_left
             (fun acc c -> Float.max acc (to_num c.v))
             Float.neg_infinity argv)
    | "parseInt" -> (
        let v = arg 0 in
        match v.v with
        | Num f -> { v with v = Num (Float.of_int (int_of_float f)) }
        | _ -> (
            let s = String.trim (to_display v.v) in
            let digits =
              let b = Buffer.create 8 in
              (try
                 String.iteri
                   (fun i c ->
                     if (c >= '0' && c <= '9') || (i = 0 && (c = '-' || c = '+'))
                     then Buffer.add_char b c
                     else raise Exit)
                   s
               with Exit -> ());
              Buffer.contents b
            in
            match int_of_string_opt digits with
            | Some i -> { v with v = Num (float_of_int i) }
            | None -> num Float.nan))
    | "parseFloat" | "Number" ->
        let v = arg 0 in
        { v with v = Num (to_num v.v); segs = None }
    | "String" ->
        let v = arg 0 in
        { v with v = Str (to_display v.v) }
    | _ -> err "unknown builtin %s" name

and run_body t scopes body : cv =
  try
    exec_stmts t scopes body;
    undefined
  with Return_exc v -> v

and exec_stmts t scopes stmts = List.iter (exec_stmt t scopes) stmts

and exec_stmt t scopes (s : Ast.stmt) =
  match s with
  | Ast.Expr_stmt e -> ignore (eval t scopes e)
  | Ast.Let (name, init) ->
      let v = match init with Some e -> eval t scopes e | None -> undefined in
      (match scopes with
      | scope :: _ -> declare scope name v
      | [] -> err "no scope")
  | Ast.Assign (lv, e) ->
      let v = eval t scopes e in
      assign t scopes lv v
  | Ast.If (cond, then_b, else_b) ->
      let c = scalarize t (eval t scopes cond) in
      let taken = truthy c.v in
      (match c.sym with Some s -> t.hooks.on_branch s taken | None -> ());
      if taken then exec_stmts t scopes then_b else exec_stmts t scopes else_b
  | Ast.While (cond, body) ->
      let guard = ref 0 in
      let continue = ref true in
      (try
         while !continue do
           let c = scalarize t (eval t scopes cond) in
           let taken = truthy c.v in
           (match c.sym with Some s -> t.hooks.on_branch s taken | None -> ());
           if taken then begin
             incr guard;
             if !guard > 100_000 then err "loop iteration limit exceeded";
             try exec_stmts t scopes body with Continue_exc -> ()
           end
           else continue := false
         done
       with Break_exc -> ())
  | Ast.For (init, cond, update, body) ->
      let scope : scope = Hashtbl.create 4 in
      let scopes = scope :: scopes in
      (match init with Some s -> exec_stmt t scopes s | None -> ());
      let guard = ref 0 in
      let continue = ref true in
      (try
         while !continue do
           let taken =
             match cond with
             | None -> true
             | Some ce ->
                 let c = scalarize t (eval t scopes ce) in
                 let tk = truthy c.v in
                 (match c.sym with Some s -> t.hooks.on_branch s tk | None -> ());
                 tk
           in
           if taken then begin
             incr guard;
             if !guard > 100_000 then err "loop iteration limit exceeded";
             (try exec_stmts t scopes body with Continue_exc -> ());
             match update with Some s -> exec_stmt t scopes s | None -> ()
           end
           else continue := false
         done
       with Break_exc -> ())
  | Ast.Return e ->
      let v = match e with Some e -> eval t scopes e | None -> undefined in
      raise (Return_exc v)
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Fun_decl (name, params, body) ->
      (match scopes with
      | scope :: _ -> declare scope name (conc (Closure (params, body, scopes)))
      | [] -> err "no scope")

and assign t scopes lv v =
  match lv with
  | Ast.L_ident name -> (
      match lookup scopes name with
      | Some r -> r := v
      | None -> (
          (* implicit global *)
          match List.rev scopes with
          | g :: _ -> declare g name v
          | [] -> err "no scope"))
  | Ast.L_member (obj_expr, field) -> (
      let obj = eval t scopes obj_expr in
      match obj.v with
      | Obj tbl -> Hashtbl.replace tbl field v
      | _ -> err "cannot set property %s" field)
  | Ast.L_index (obj_expr, idx_expr) -> (
      let obj = eval t scopes obj_expr in
      let idx = eval t scopes idx_expr in
      match (obj.v, idx.v) with
      | Obj tbl, _ -> Hashtbl.replace tbl (to_display idx.v) v
      | Arr items, Num f ->
          let i = int_of_float f in
          let n = List.length !items in
          if i >= 0 && i < n then
            items := List.mapi (fun j x -> if j = i then v else x) !items
          else if i = n then items := !items @ [ v ]
          else err "array index out of range"
      | _ -> err "cannot set index")

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let load t prog = exec_stmts t [ t.globals ] prog

let load_source t src = load t (Parser.parse_program src)

let call_function t name argv =
  match lookup [ t.globals ] name with
  | Some { contents = { v = Closure _; _ } as f } -> apply t f argv
  | Some _ -> err "%s is not a function" name
  | None -> err "unknown function %s" name

let functions t =
  Hashtbl.fold
    (fun name r acc ->
      match !r with { v = Closure _; _ } -> name :: acc | _ -> acc)
    t.globals []
  |> List.sort compare

let eval_expr t e = eval t [ t.globals ] e
