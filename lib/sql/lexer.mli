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

val show_token : token -> string
