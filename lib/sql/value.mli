(** SQL runtime values and column types.

    The engine supports the four scalar families the paper's workloads
    need: integers, floats, text, and booleans, plus [Null]. Comparison and
    arithmetic follow MySQL-flavoured coercion: any operation on [Null]
    yields [Null]; numeric contexts coerce numerically; string contexts
    stringify. *)

type ty = Tint | Tfloat | Ttext | Tbool

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

val ty_of : t -> ty option
(** [None] for [Null]. *)

val ty_name : ty -> string
(** SQL type keyword: INT, DOUBLE, VARCHAR, BOOLEAN. *)

val ty_of_name : string -> ty option
(** Parse a SQL type keyword (case-insensitive; accepts VARCHAR(n), TEXT,
    INT, INTEGER, BIGINT, DOUBLE, FLOAT, DECIMAL, BOOLEAN, BOOL,
    DATETIME/TIMESTAMP as text). *)

val is_null : t -> bool

val to_bool : t -> bool
(** SQL truthiness: [Null] is false, numbers are [<> 0], text is non-empty
    and not ["0"]. *)

val to_int : t -> int
val to_float : t -> float
val to_string : t -> string
(** Raw string content (no SQL quoting). [Null] is ["NULL"]. *)

val coerce : ty -> t -> t
(** Coerce a value to a column type; [Null] stays [Null]. Raises
    [Failure] on a lossy text→number coercion of a non-numeric string. *)

val compare_sql : t -> t -> int
(** Three-way comparison with numeric coercion across [Int]/[Float]/[Bool]
    and lexicographic text comparison. [Null] sorts first. *)

val equal_sql : t -> t -> bool
(** SQL [=] semantics over non-null values ([Null = x] is false). *)

val equal : t -> t -> bool
(** Structural equality — [Null] equals [Null], constructors never mix.
    Agrees with [serialize a = serialize b] at no allocation; the
    rollback path uses it to find the cells a statement changed. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val modulo : t -> t -> t

val hex_float_max : int
(** The longest {!write_hex_float} output, in bytes. *)

val write_hex_float : Bytes.t -> int -> float -> int
(** [write_hex_float buf pos f] writes [Printf.sprintf "%h" f] into [buf]
    at [pos], which needs {!hex_float_max} bytes free, and returns the
    position after it. Allocates nothing. *)

val hex_float : float -> string
(** [Printf.sprintf "%h" f], built by {!write_hex_float}. *)

val serialize : t -> string
(** Compact, unambiguous, injective wire form used for row hashing and the
    statement log. *)

val deserialize : string -> t
(** Inverse of {!serialize}.
    @raise Failure on a malformed wire form. *)

val deserialize_error : string -> int -> int -> string option
(** [deserialize_error s off len]: [None] when {!deserialize} accepts
    [String.sub s off len], else [Some] of the message it fails with.
    The forms {!serialize} writes, but a float's, are checked in place
    and allocate nothing: [N], [B0], [B1], [I] with an optional [-] and
    at most 18 digits, and [T<len>:] with exactly [len] bytes after the
    colon. Any other goes through {!deserialize}.
    @raise Invalid_argument if [off, len] is not a range of [s]. *)

val to_literal : t -> string
(** SQL literal syntax ('quoted' text, NULL, TRUE/FALSE). An integral
    float keeps a fraction ([42.0]), so the lexer reads it back as a
    float; {!to_string} prints [42]. *)

val pp : Format.formatter -> t -> unit
