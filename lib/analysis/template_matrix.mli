(** The precomputed column-wise template-pair dependency matrix (the
    static half of Ultraverse's "query-template dependency analysis").

    For every ordered template pair (a, b) the matrix records the shared
    columns in each conflict direction — WW (both write), WR (a writes,
    b reads), RW (a reads, b writes) — computed once, statically, from
    the templates' column sets. An empty intersection in all three
    directions means statements matching a and b can never column-wise
    conflict, whatever their parameters; the pair is absent.

    Predicate-disjointness refinement: a template *guards* a table when
    every access of that table is constrained by one consistent equality
    on the table's first RI dimension (or a declared alias column) —
    [WHERE s_id = $p], a single-row INSERT with a slot in the RI
    position, etc. A pair whose conflict columns all belong to tables
    guarded on the same column by both templates is [prunable]: two
    matching statements conflict only if their guard values coincide,
    so equality predicates on distinct parameters refute the dependency
    (§4.3's row-identifier reasoning lifted to template granularity). *)

open Uv_sql

type gsource =
  | Gslot of string  (** guarded by a template slot's value *)
  | Gconst of Value.t  (** guarded by a constant *)

type guard = { gcol : string; gsrc : gsource }

type pair = {
  ww : string list;  (** a.w ∩ b.w *)
  wr : string list;  (** a.w ∩ b.r *)
  rw : string list;  (** a.r ∩ b.w *)
  prunable : bool;
  guard_tables : string list;  (** tables of all conflict columns *)
}

type t

val build : config:Uv_retroactive.Rowset.config -> Template_extract.set -> t

val guards : t -> int -> (string * guard) list
(** Guarded tables of one template. *)

val pair : t -> int -> int -> pair option
(** [pair t a b] — [None] when templates [a] and [b] can never
    column-wise conflict. *)

val all_pairs : t -> ((int * int) * pair) list
(** Every nonempty pair, ordered — the CLI dump. *)

val ids : t -> int list

val config : t -> Uv_retroactive.Rowset.config

val guard_value :
  t -> id:int -> table:string -> (string * Value.t) list -> (string * Value.t) option
(** Resolve a matched entry's guard on [table] from its slot binding:
    [(guard column, value)]. [None] when the template does not guard the
    table (or the binding lacks the slot). *)

val guard_on_dim0 : t -> id:int -> table:string -> bool
(** Whether the guard column is the table's first RI dimension — only
    those values live in the analyzer's canonical (merge-mapped) value
    space; alias-column guards compare raw. *)

val gsource_label : gsource -> string
(** ["$slot"] or ["=value"] — report rendering. *)
