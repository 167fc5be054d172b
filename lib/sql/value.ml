type ty = Tint | Tfloat | Ttext | Tbool

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

let ty_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Text _ -> Some Ttext
  | Bool _ -> Some Tbool

let ty_name = function
  | Tint -> "INT"
  | Tfloat -> "DOUBLE"
  | Ttext -> "VARCHAR"
  | Tbool -> "BOOLEAN"

let ty_of_name name =
  let base =
    match String.index_opt name '(' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match String.uppercase_ascii (String.trim base) with
  | "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" -> Some Tint
  | "DOUBLE" | "FLOAT" | "DECIMAL" | "REAL" | "NUMERIC" -> Some Tfloat
  | "VARCHAR" | "TEXT" | "CHAR" | "DATETIME" | "TIMESTAMP" | "DATE" -> Some Ttext
  | "BOOLEAN" | "BOOL" -> Some Tbool
  | _ -> None

let is_null = function Null -> true | _ -> false

let to_bool = function
  | Null -> false
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Bool b -> b
  | Text s -> s <> "" && s <> "0"

let to_int = function
  | Null -> 0
  | Int i -> i
  | Float f -> int_of_float f
  | Bool b -> if b then 1 else 0
  | Text s -> ( try int_of_string (String.trim s) with _ -> 0)

let to_float = function
  | Null -> 0.0
  | Int i -> float_of_int i
  | Float f -> f
  | Bool b -> if b then 1.0 else 0.0
  | Text s -> ( try float_of_string (String.trim s) with _ -> 0.0)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest representation that round-trips *)
    let s12 = Printf.sprintf "%.12g" f in
    if float_of_string s12 = f then s12 else Printf.sprintf "%.17g" f

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> float_repr f
  | Bool b -> if b then "1" else "0"
  | Text s -> s

let coerce ty v =
  match (v, ty) with
  | Null, _ -> Null
  | Int _, Tint -> v
  | Float _, Tfloat -> v
  | Text _, Ttext -> v
  | Bool _, Tbool -> v
  | _, Tint -> (
      match v with
      | Text s -> (
          match int_of_string_opt (String.trim s) with
          | Some i -> Int i
          | None -> (
              match float_of_string_opt (String.trim s) with
              | Some f -> Int (int_of_float f)
              | None -> failwith ("cannot coerce '" ^ s ^ "' to INT")))
      | _ -> Int (to_int v))
  | _, Tfloat -> (
      match v with
      | Text s -> (
          match float_of_string_opt (String.trim s) with
          | Some f -> Float f
          | None -> failwith ("cannot coerce '" ^ s ^ "' to DOUBLE"))
      | _ -> Float (to_float v))
  | _, Ttext -> Text (to_string v)
  | _, Tbool -> Bool (to_bool v)

let numericp = function Int _ | Float _ | Bool _ -> true | _ -> false

let rec compare_sql a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> compare x y
  | Text x, Text y -> compare x y
  | Bool x, Bool y -> compare x y
  | x, y when numericp x && numericp y -> compare (to_float x) (to_float y)
  | Text s, y when numericp y -> (
      (* MySQL compares string-vs-number numerically when the string parses. *)
      match float_of_string_opt (String.trim s) with
      | Some f -> compare f (to_float y)
      | None -> compare s (to_string y))
  | x, Text s when numericp x -> -compare_text_num s x
  | x, y -> compare (to_string x) (to_string y)

and compare_text_num s x =
  match float_of_string_opt (String.trim s) with
  | Some f -> compare f (to_float x)
  | None -> compare s (to_string x)

let equal_sql a b =
  match (a, b) with Null, _ | _, Null -> false | _ -> compare_sql a b = 0

(* Structural equality: NULL = NULL holds and constructors never mix, so
   [equal a b] agrees with [serialize a = serialize b] without building
   the strings — the rollback hot path compares before/after cells. *)
let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
      (* serialize prints %h, under which 0. <> -0. and NaNs differ only
         by sign: [nan] and [-nan] *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || Float.is_nan x && Float.is_nan y
         && Bool.equal (Float.sign_bit x) (Float.sign_bit y)
  | Text x, Text y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | _ -> false

let arith op_i op_f a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (op_i x y)
  | _ -> Float (op_f (to_float a) (to_float b))

let add = arith ( + ) ( +. )
let sub = arith ( - ) ( -. )
let mul = arith ( * ) ( *. )

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ ->
      let d = to_float b in
      if d = 0.0 then Null else Float (to_float a /. d)

let modulo a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> if y = 0 then Null else Int (x mod y)
  | _ ->
      let d = to_float b in
      if d = 0.0 then Null else Float (Float.rem (to_float a) d)

(* Printf's [%h] form of [f], written at [pos] into [buf], which must
   have [hex_float_max] bytes free there; returns the end position. The
   format is the runtime's: [-] on a set sign bit (NaN too), then [nan],
   [infinity], or [0x], the leading digit (1 normal, 0 subnormal or
   zero), [.] and the mantissa's nibbles without trailing zeros when it
   has any, [p] and the signed unbiased exponent. *)
let hex_float_max = 24

let write_hex_float buf pos f =
  let bits = Int64.bits_of_float f in
  let exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  let pos =
    if Int64.to_int (Int64.shift_right_logical bits 63) = 1 then begin
      Bytes.unsafe_set buf pos '-';
      pos + 1
    end
    else pos
  in
  if exp = 0x7ff then begin
    let s = if m = 0 then "infinity" else "nan" in
    Bytes.unsafe_blit_string s 0 buf pos (String.length s);
    pos + String.length s
  end
  else begin
    Bytes.unsafe_set buf pos '0';
    Bytes.unsafe_set buf (pos + 1) 'x';
    Bytes.unsafe_set buf (pos + 2) (if exp = 0 then '0' else '1');
    let p = ref (pos + 3) in
    if m <> 0 then begin
      Bytes.unsafe_set buf !p '.';
      incr p;
      let rest = ref m and shift = ref 48 in
      while !rest <> 0 do
        let d = (!rest lsr !shift) land 15 in
        Bytes.unsafe_set buf !p
          (Char.unsafe_chr (if d < 10 then 48 + d else 87 + d));
        incr p;
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    let e = if exp = 0 then if m = 0 then 0 else -1022 else exp - 1023 in
    Bytes.unsafe_set buf !p 'p';
    Bytes.unsafe_set buf (!p + 1) (if e < 0 then '-' else '+');
    let e = abs e in
    let digits =
      if e >= 1000 then 4 else if e >= 100 then 3 else if e >= 10 then 2 else 1
    in
    let q = ref e in
    for k = !p + 1 + digits downto !p + 2 do
      Bytes.unsafe_set buf k (Char.unsafe_chr (48 + (!q mod 10)));
      q := !q / 10
    done;
    !p + 2 + digits
  end

let hex_float f =
  let b = Bytes.create hex_float_max in
  Bytes.sub_string b 0 (write_hex_float b 0 f)

let serialize = function
  | Null -> "N"
  | Int i -> "I" ^ string_of_int i
  | Float f -> "F" ^ hex_float f
  | Bool b -> if b then "B1" else "B0"
  | Text s -> "T" ^ string_of_int (String.length s) ^ ":" ^ s

let deserialize s =
  let n = String.length s in
  if n = 0 then failwith "Value.deserialize: empty"
  else
    match s.[0] with
    | 'N' when n = 1 -> Null
    | 'I' -> (
        match int_of_string_opt (String.sub s 1 (n - 1)) with
        | Some i -> Int i
        | None -> failwith "Value.deserialize: bad int")
    | 'F' -> (
        match float_of_string_opt (String.sub s 1 (n - 1)) with
        | Some f -> Float f
        | None -> failwith "Value.deserialize: bad float")
    | 'B' when s = "B1" -> Bool true
    | 'B' when s = "B0" -> Bool false
    | 'T' -> (
        match String.index_opt s ':' with
        | Some colon -> (
            match int_of_string_opt (String.sub s 1 (colon - 1)) with
            | Some len when colon + 1 + len = n ->
                Text (String.sub s (colon + 1) len)
            | _ -> failwith "Value.deserialize: bad text length")
        | None -> failwith "Value.deserialize: missing text length")
    | _ -> failwith "Value.deserialize: unknown tag"

(* The end of the decimal digits of [s] from [i], before [stop], and
   their value (at most 18 digits: no overflow) *)
let rec digits_end s i stop =
  if i < stop && s.[i] >= '0' && s.[i] <= '9' then digits_end s (i + 1) stop else i

let rec digits_value s i stop acc =
  if i = stop then acc else digits_value s (i + 1) stop ((acc * 10) + Char.code s.[i] - 48)

(* [s.[off .. off + len - 1]] is a form [serialize] writes for a value
   other than a float: [N], [B0], [B1], [I] with an optional [-] and 1
   to 18 digits, or [T] with 1 to 18 digits, a colon and exactly that
   many bytes. Each deserializes. *)
let written_form s off len =
  let stop = off + len in
  len > 0
  &&
  match s.[off] with
  | 'N' -> len = 1
  | 'B' -> len = 2 && (s.[off + 1] = '0' || s.[off + 1] = '1')
  | 'I' ->
      let first = if len > 1 && s.[off + 1] = '-' then off + 2 else off + 1 in
      stop > first && stop - first <= 18 && digits_end s first stop = stop
  | 'T' ->
      let colon = digits_end s (off + 1) stop in
      colon > off + 1
      && colon - off - 1 <= 18
      && colon < stop
      && s.[colon] = ':'
      && digits_value s (off + 1) colon 0 = stop - colon - 1
  | _ -> false

let deserialize_error s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Value.deserialize_error";
  if written_form s off len then None
  else
    match deserialize (String.sub s off len) with
    | (_ : t) -> None
    | exception Failure m -> Some m

let to_literal = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  (* an integral float keeps a fraction, so its text lexes as a float *)
  | Float f when Float.is_integer f -> Printf.sprintf "%.1f" f
  | Float f -> float_repr f
  | Bool b -> if b then "TRUE" else "FALSE"
  | Text s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_literal v)
