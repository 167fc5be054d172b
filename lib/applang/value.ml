type t =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Undefined
  | Obj of (string, cv) Hashtbl.t
  | Arr of cv list ref
  | Closure of string list * Ast.stmt list * scope list
  | Builtin of string
  | Sym_container of Uv_symexec.Sym.t

and cv = { v : t; sym : Uv_symexec.Sym.t option; segs : seg list option }

and seg = S_text of string | S_hole of Uv_symexec.Sym.t

and scope = (string, cv ref) Hashtbl.t

let conc v = { v; sym = None; segs = None }
let with_sym v sym = { v; sym = Some sym; segs = None }

let num f = conc (Num f)
let str s = conc (Str s)
let bool b = conc (Bool b)
let null = conc Null
let undefined = conc Undefined

let of_scalar = function
  | Uv_symexec.Assignment.Num f -> Num f
  | Uv_symexec.Assignment.Str s -> Str s
  | Uv_symexec.Assignment.Bool b -> Bool b
  | Uv_symexec.Assignment.Null -> Null

let truthy = function
  | Num f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> s <> ""
  | Bool b -> b
  | Null | Undefined -> false
  | Obj _ | Arr _ | Closure _ | Builtin _ | Sym_container _ -> true

let to_num = function
  | Num f -> f
  | Str s -> ( try float_of_string (String.trim s) with _ -> Float.nan)
  | Bool b -> if b then 1.0 else 0.0
  | Null -> 0.0
  | Undefined -> Float.nan
  | Obj _ | Arr _ | Closure _ | Builtin _ | Sym_container _ -> Float.nan

let num_display f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest representation that round-trips *)
    let s12 = Printf.sprintf "%.12g" f in
    if float_of_string s12 = f then s12 else Printf.sprintf "%.17g" f

let rec to_display = function
  | Num f -> num_display f
  | Str s -> s
  | Bool b -> string_of_bool b
  | Null -> "null"
  | Undefined -> "undefined"
  | Obj _ -> "[object Object]"
  | Arr items -> String.concat "," (List.map (fun c -> to_display c.v) !items)
  | Closure _ | Builtin _ -> "[function]"
  | Sym_container s -> "[symbolic " ^ Uv_symexec.Sym.to_string s ^ "]"

let loose_eq a b =
  match (a, b) with
  | Null, (Null | Undefined) | Undefined, (Null | Undefined) -> true
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Num _ | Str _ | Bool _), (Num _ | Str _ | Bool _) ->
      let x = to_num a and y = to_num b in
      (not (Float.is_nan x)) && (not (Float.is_nan y)) && x = y
  | Obj x, Obj y -> x == y
  | Arr x, Arr y -> x == y
  | _ -> false

let strict_eq a b =
  match (a, b) with
  | Num x, Num y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Null, Null | Undefined, Undefined -> true
  | Obj x, Obj y -> x == y
  | Arr x, Arr y -> x == y
  | _ -> false

let segs_of cv =
  match cv.segs with
  | Some segs -> segs
  | None -> (
      match cv.sym with
      | Some sym -> [ S_hole sym ]
      | None -> [ S_text (to_display cv.v) ])

let segs_concat a b =
  let merge segs =
    (* collapse adjacent text segments *)
    List.fold_right
      (fun seg acc ->
        match (seg, acc) with
        | S_text s, S_text s2 :: rest -> S_text (s ^ s2) :: rest
        | _ -> seg :: acc)
      segs []
  in
  merge (segs_of a @ segs_of b)

let segs_to_string segs =
  String.concat ""
    (List.map
       (function
         | S_text s -> s
         | S_hole sym -> "${" ^ Uv_symexec.Sym.to_string sym ^ "}")
       segs)

let of_sql_value = function
  | Uv_sql.Value.Int i -> Num (float_of_int i)
  | Uv_sql.Value.Float f -> Num f
  | Uv_sql.Value.Text s -> Str s
  | Uv_sql.Value.Bool b -> Bool b
  | Uv_sql.Value.Null -> Null
