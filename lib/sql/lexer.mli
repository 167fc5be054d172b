(** Tokenizer for the SQL dialect.

    Keywords are recognised case-insensitively; identifiers keep their
    original spelling. Comments ([-- ...] to end of line and [/* ... */])
    are skipped. *)

type token =
  | Ident of string      (** bare identifier (non-keyword) *)
  | Keyword of string    (** uppercased keyword *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | At_var of string     (** [@name] session/user variable *)
  | Punct of string      (** '(', ')', ',', ';', '.', ':' *)
  | Op of string         (** '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', '%', '!=' *)
  | Eof

exception Lex_error of string * int
(** Message and byte position. *)

val keywords : string list
(** The reserved-word list, sorted and duplicate-free. Classifying a
    word against it is one hashed lookup of the word's uppercased
    spelling. *)

val tokenize : string -> token array
(** Whole-input tokenization, ending with [Eof]. *)

(** {2 Literal scan}

    One pass over a statement's bytes that finds its literal tokens
    without building any token: the byte shape a statement memo keys
    on. It steps over every token by the rules [tokenize] uses (the
    same character classes, the same string and number rules), records
    each integer, float and string literal's byte span, and hashes the
    bytes outside the spans together with the literals' kinds. Two
    statements whose bytes outside their literal spans are equal, and
    whose literals have the same kinds, lex to the same tokens except
    for the literals' values. *)

type literal = Lit_int | Lit_float | Lit_str

type scan
(** A reusable scan buffer: the last accepted statement's literal spans
    and key. *)

val scanner : unit -> scan

val scan : scan -> string -> int -> int -> bool
(** [scan sc src off len] scans the statement [String.sub src off len]
    into [sc], in place: its literal spans are offsets in [src]. It
    declines ([false]) wherever it cannot vouch for agreeing with
    [tokenize] on that statement: on a comment, and on any input
    [tokenize] rejects with [Lex_error]. After a [false] the contents of
    [sc] are unspecified. An integer literal above [max_int] is accepted
    here; {!literal_token} then raises the [Failure] that [tokenize]
    raises. A scan allocates nothing once [sc] has room for the
    statement's literals.
    @raise Invalid_argument if [off, len] is not a range of [src]. *)

val key : scan -> int
(** Non-negative hash of the bytes outside the literal spans and of the
    literals' kinds. Equal shapes hash equal; the converse needs a byte
    comparison. *)

val span_start : scan -> int
(** The scanned span's offset in its string ([off] of {!scan}). *)

val span_length : scan -> int
(** The scanned span's length ([len] of {!scan}). *)

val literals : scan -> int
(** Literal tokens found, in source order. *)

val literal_start : scan -> int -> int
(** Byte offset of literal [k] (from 0) in the scanned string, its
    opening quote included for a string.
    @raise Invalid_argument when there is no literal [k]. *)

val literal_stop : scan -> int -> int
(** One past literal [k]'s last byte, its closing quote included. *)

val literal_kind : scan -> int -> literal

val literal_token : scan -> string -> int -> token
(** [literal_token sc src k] is the [Int_lit], [Float_lit] or [Str_lit]
    token [tokenize src] produces for literal [k].
    @raise Failure ["int_of_string"] on an integer above [max_int]. *)

val literal_converts : scan -> string -> int -> bool
(** [literal_converts sc src k]: {!literal_token} of literal [k] does not
    raise, i.e. it is not an integer above [max_int]. Allocates
    nothing. *)

val same_shape : scan -> string -> scan -> string -> keep:bool array -> bool
(** [same_shape a asrc b bsrc ~keep], for a span of [asrc] scanned into
    [a] and one of [bsrc] into [b]: the same literal count and kinds,
    equal bytes outside the literal spans within the two spans, and
    equal bytes inside literal [k] wherever [keep.(k)] ([keep] has a
    slot per literal of [a]). Compares eight bytes at a time and
    allocates nothing. *)

val snapshot : scan -> scan
(** An independent copy, unaffected by later scans, of a scan of
    [src]'s span at [off]: a scan of [String.sub src off len], its
    offsets counted from the span's start. *)

val show_token : token -> string
