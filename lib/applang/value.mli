(** MiniJS runtime values, optionally carrying symbolic shadows.

    A concolic value [cv] pairs the concrete value driving execution with
    (a) an optional symbolic expression — present when the value derives
    from a transaction input, a database result, or a blackbox API — and
    (b) for strings, an optional segment decomposition that remembers
    which substrings came from symbolic holes. Segments are what let the
    transpiler recover a parsable SQL statement with parameter holes from
    a dynamically assembled query string (§3.2). *)

type t =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Undefined
  | Obj of (string, cv) Hashtbl.t
  | Arr of cv list ref
  | Closure of string list * Ast.stmt list * scope list
  | Builtin of string  (** name resolved by the interpreter *)
  | Sym_container of Uv_symexec.Sym.t
      (** opaque symbolic record/array (a database call's result set);
          member and index access produce fresh symbolic scalars *)

and cv = {
  v : t;
  sym : Uv_symexec.Sym.t option;
  segs : seg list option;  (** string provenance segments *)
}

and seg = S_text of string | S_hole of Uv_symexec.Sym.t

and scope = (string, cv ref) Hashtbl.t

val conc : t -> cv
(** Purely concrete value. *)

val with_sym : t -> Uv_symexec.Sym.t -> cv

val num : float -> cv
val str : string -> cv
val bool : bool -> cv
val null : cv
val undefined : cv

val of_scalar : Uv_symexec.Assignment.scalar -> t

val truthy : t -> bool
val to_num : t -> float
val to_display : t -> string
(** JS-style string conversion. *)

val loose_eq : t -> t -> bool
val strict_eq : t -> t -> bool

val segs_of : cv -> seg list
(** The segment decomposition of a stringish value: explicit segments if
    present, a single symbolic hole if the value is symbolic, otherwise
    one text segment. *)

val segs_concat : cv -> cv -> seg list
val segs_to_string : seg list -> string
(** Concrete rendering is impossible for holes; used for debugging. *)

val of_sql_value : Uv_sql.Value.t -> t
