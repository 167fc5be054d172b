(** Recursive-descent parser for the SQL dialect.

    Inside procedure and trigger bodies, bare identifiers that match a
    declared local variable or parameter parse as [Ast.Var]; everything
    else parses as a column reference, matching how the engine and the
    dependency analysis resolve names. *)

exception Parse_error of string

val parse_stmt : string -> Ast.stmt
(** Parse exactly one statement (a trailing [';'] is allowed). *)

type hole = {
  literal : int;  (** the literal token's index among the statement's literal tokens, from 0 *)
  node : Ast.expr;  (** the [Lit] it fed, physically *)
  negated : bool;  (** a folded unary minus negates the token's value *)
}
(** A literal token that fed a [Lit] node. *)

val parse_template : string -> Ast.stmt * hole list
(** {!parse_stmt}, with the same result, errors and exceptions, that
    also reports which literal token fed each [Lit] it built, in token
    order. The negative literals the parser folds ([- 5] parses as
    [Lit (Int (-5))]) come back as negated holes. A literal token that
    fed no [Lit] (a LIMIT or OFFSET count, [AUTO_INCREMENT = n],
    [SIGNAL SQLSTATE '...'], a type size) has no hole; a hole's node may
    be absent from the statement when the parser drops it (a column's
    [DEFAULT]). *)

val parse_script : string -> Ast.stmt list
(** Parse a [';']-separated sequence of statements. *)

val parse_expr : string -> Ast.expr
(** Parse a standalone expression (used by tests and the transpiler). *)
