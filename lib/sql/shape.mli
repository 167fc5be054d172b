(** Statement shapes: a statement with the payloads of its literals
    erased.

    Two statements have one shape when they are equal everywhere except
    inside [Lit] nodes: names, operators, nesting, list lengths, the
    LIMIT/OFFSET counts and every DDL field still count. A literal is a
    literal whatever its value or type, NULL included. A statement's
    column-wise read/write sets (§4.2) never read a literal, so under one
    schema view every statement of a shape gets the same sets; the
    analyzer derives them once per shape.

    Both functions walk the statement once and allocate nothing. *)

val hash : Ast.stmt -> int
(** Non-negative; equal shapes hash equal. *)

val equal : Ast.stmt -> Ast.stmt -> bool
(** Exact shape equality: no two statements of different shapes are
    equal, whatever their hashes. *)

module Tbl : Hashtbl.S with type key = Ast.stmt
(** Hash tables keyed by shape. *)
