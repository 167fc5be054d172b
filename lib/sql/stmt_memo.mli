(** A statement memo: parse each statement shape once, then build every
    later statement of that shape straight from its bytes.

    A shape is byte-level: two statements share one when their bytes
    outside their literal tokens are equal and their literals have the
    same kinds (integer, float, string), as {!Lexer.scan} finds them.
    On the first statement of a shape the memo parses in full with
    {!Parser.parse_template} and keeps the result as a template, with a
    hole for each literal token that fed a [Lit] node. A later
    statement of the shape is scanned once, its hole literals are
    converted, and the template is instantiated: the [Lit] nodes that
    came from holes are replaced and every other subtree is shared with
    the template (the AST is immutable). A literal token that fed no
    [Lit] (a LIMIT count, [AUTO_INCREMENT = n], [SIGNAL SQLSTATE '...'],
    a type size) is part of the shape and must match byte for byte.

    Wherever the scan declines (a comment, a lex error), the memo calls
    {!Parser.parse_stmt}; a statement that fails to parse leaves no
    template. So {!parse} returns, raises and reports exactly what
    {!Parser.parse_stmt} does on the same text.

    A memo is mutable and not safe to share between domains. It keeps
    one template per shape it has seen, so its lifetime should be one
    pass over a history (the analyzer makes one per build). *)

type t

val create : unit -> t

val parse : t -> string -> Ast.stmt
(** Equal to [Parser.parse_stmt src], and raises what it raises. *)

val parse_named : t -> string -> int * Ast.stmt
(** [parse t src], with the id {!template} gives [src]: the statement
    and the template it was built from, in one scan. *)

val template : t -> string -> int
(** The id of the template [parse t src] would instantiate, named from
    [src]'s bytes without building its AST; a template made from [src]
    itself when the memo has none of its shape yet (parsed in full, as
    [parse] would). [-1] where [parse] would not instantiate one: the
    scan declines, or a hole literal fails to convert. Ids count the
    memo's templates from 0. Raises what [parse t src] raises when it
    makes a template. *)

val template_stmt : t -> int -> Ast.stmt
(** The statement template [id] was parsed from:
    {!Shape.equal} to every statement of its shape, [parse t src] for
    each [src] whose {!template} is [id] included. *)

val full_parses : t -> int
(** Statements parsed in full so far: one per shape that parsed, plus
    every statement the scan declined, that failed to parse, or whose
    integer literal failed to convert. *)
