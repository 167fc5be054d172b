(** Column-wise read/write sets (§4.2, Appendix Table A).

    Column keys are fully qualified: ["Users.uid"] for a real column,
    ["_S.Users"] for the virtual schema-monitoring column of a table,
    view, procedure or trigger (§4.2 "_S.tablename").

    Design points straight from the paper:
    - conditional branches inside procedures/triggers contribute *both*
      arms (over-approximation preserves correctness);
    - SELECTs nested in any statement merge their read set into the
      wrapper;
    - reads/writes through a view expand to the parent tables' columns;
    - INSERT on an AUTO_INCREMENT table reads the primary-key column;
    - UPDATE/DELETE write the FOREIGN KEY columns of referencing tables;
    - CALL/TRANSACTION take the union of their bodies;
    - statements on a table with triggers inherit the triggered bodies'
      sets plus [_S.trigger]. *)

open Uv_sql

module Colset : Set.S with type elt = string

type rw = { r : Colset.t; w : Colset.t }

val empty : rw
val union : rw -> rw -> rw

val of_stmt : Schema_view.t -> Ast.stmt -> rw
(** Column-wise sets of one statement against the current schema view.
    The schema view is *not* advanced; callers do that with
    [Schema_view.apply] after analysing each log entry. *)

val pp : Format.formatter -> rw -> unit
