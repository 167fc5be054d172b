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
    the template (the AST is immutable). A reader that needs only the
    statement's shape and literal values names it ({!template}) and
    reads its literals by position ({!lits}): no AST is built for it.
    A literal token that fed no
    [Lit] (a LIMIT count, [AUTO_INCREMENT = n], [SIGNAL SQLSTATE '...'],
    a type size) is part of the shape and must match byte for byte.

    Wherever the scan declines (a comment, a lex error), the memo calls
    {!Parser.parse_stmt}; a statement that fails to parse leaves no
    template. So {!parse} returns, raises and reports exactly what
    {!Parser.parse_stmt} does on the same text.

    A memo is mutable and not safe to share between domains. It keeps
    one template per shape it has seen, so its lifetime should be one
    pass over a history (the analyzer makes one per build), or one live
    engine, whose memo files no DDL ({!parse_logged}). *)

type t

val create : unit -> t

val parse : t -> string -> Ast.stmt
(** Equal to [Parser.parse_stmt src], and raises what it raises. *)

val template : t -> string -> int -> int -> int
(** [template t text off len]: for the statement [src = String.sub text
    off len], the id of the template [parse t src] would instantiate,
    named from [text]'s bytes in place, without copying [src] or
    building its AST; a template made from [src] when the memo has none
    of its shape yet (copied out of [text] unless it is the whole of it,
    and parsed in full, as [parse] would). [-1] where [parse] would not
    instantiate one: the scan declines, or a hole literal fails to
    convert. Ids count the memo's templates from 0. Raises what
    [parse t src] raises when it makes a template, and
    [Invalid_argument] if [off, len] is not a range of [text].

    Naming also binds [src]'s literals: {!lits} then reads them from
    [text]. On a memo that already has [src]'s template, naming and
    binding allocate nothing: the scan, the hash lookup, the byte match
    and the check that every hole converts work in place, and binding
    sets three fields. *)

val template_stmt : t -> int -> Ast.stmt
(** The statement template [id] was parsed from:
    {!Shape.equal} to every statement of its shape, [parse t src] for
    each [src] whose {!template} is [id] included. *)

val full_parses : t -> int
(** Statements parsed in full so far: one per shape that parsed, plus
    every statement the scan declined, that failed to parse, or whose
    integer literal failed to convert. *)

val templates : t -> int
(** Templates the memo keeps. *)

(** {2 Live statements}

    A live engine parses each client statement and logs its rendering.
    Both are done once per template: a template's rendering is made
    once, from its AST with a marker where each hole's [Lit] is, and cut
    at the markers; a later statement of the template has
    {!Uv_sql.Value.to_literal} of each hole spliced between the pieces.
    The splice gives exactly [Printer.stmt_compact] of the statement,
    which splits the rendering into lines and trims each: where a
    literal's rendering holds a newline or starts or ends with a blank,
    or the markers do not come back one each, the statement is rendered
    in full instead. *)

val parse_logged : t -> string -> Ast.stmt * string
(** [(s, Printer.stmt_compact s)] for [s = Parser.parse_stmt src], and
    raises what [Parser.parse_stmt src] raises. A statement of a known
    template is instantiated and its text spliced, neither parsed nor
    rendered in full. DDL (tables, views, indexes, procedures, triggers)
    is parsed and rendered in full and files no template: it does not
    repeat, so the memo's size follows the history's DML shapes only. *)

(** {2 Literals by position}

    A statement's literals are its [Lit] nodes in one fixed visit order,
    the order {!map_lits} visits them; a plan built from one statement
    of a {!Shape} reads any other's by position ([Rowset]). *)

type lits
(** A statement's literal values, numbered from 0 in {!map_lits}'s
    order. *)

val lits : t -> lits
(** The literals of the statement the last {!template} call named (one
    that returned an id): a hole literal is read from that statement's
    bytes when asked for, converted as [parse] converts it (negated
    where the parser folded a minus sign in), and every other [Lit]
    ([TRUE], [NULL], a literal the parser built itself) is the
    template's. The memo's own buffer: valid until the memo's next
    call. *)

val lits_of_stmt : Ast.stmt -> lits
(** The values of the statement's [Lit] nodes, collected by
    {!map_lits}. After [template t src] names [src],
    [lit (lits t) k] equals [lit (lits_of_stmt (parse t src)) k] for
    every [k]. *)

val lit_count : lits -> int

val lit : lits -> int -> Value.t
(** [lit l k]: literal [k]'s value. A hole literal is converted on each
    call. @raise Invalid_argument when there is no literal [k]. *)

val map_lits : (Ast.expr -> Ast.expr) -> Ast.stmt -> Ast.stmt
(** [map_lits f s] applies [f] to every [Lit] node of [s] in the memo's
    one visit order, and rebuilds only the subtrees that hold a node [f]
    changed: the rest is shared with [s], physically. Statements of one
    shape visit their literals in one order. *)
