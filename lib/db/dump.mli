(** Logical database dump (the mysqldump equivalent).

    Renders the entire catalog — table schemas, rows, views, stored
    procedures, triggers and CREATE INDEX definitions — as a SQL script
    that rebuilds a bit-identical database when executed on a fresh
    engine. Together with {!Log_io} this completes the recovery story:
    a dump is the checkpoint, the persisted statement log is the tail.

    Determinism: tables and catalog objects are emitted in name order,
    rows in rowid (insertion) order, so dumping the same database twice
    yields the same script.

    AUTO_INCREMENT counters are persisted explicitly: after a table's
    rows, the script pins the counter with
    [ALTER TABLE t AUTO_INCREMENT = n], so the restored database hands
    out the same fresh keys as the source even when the row holding the
    highest key had been deleted before the dump. *)

val to_sql : Catalog.t -> string
(** Render the catalog as an executable SQL script. *)

val restore : Engine.t -> string -> unit
(** Execute a dump script against an engine (normally a fresh one).
    @raise Engine.Sql_error if a statement fails. *)

(** {2 Checkpoint-ladder format}

    The UCKPv1 format stores each rung as a length-delimited {!to_sql}
    script guarded by a CRC-32, so a torn write is detected before any
    rung is restored:
    {v
    UCKPv1 <rung count>
    R <commit index> <payload bytes> <crc32 hex>
    <payload>
    ...
    v} *)

exception Corrupt of string
(** Raised by {!parse_checkpoints} on a malformed, truncated or
    checksum-failing document. *)

val print_checkpoints : Checkpoint.t -> string
(** Render a ladder in the UCKPv1 format, rungs ascending. *)

val parse_checkpoints : string -> (int * Catalog.t) list
(** Decode a UCKPv1 document as (commit index, catalog) rungs,
    ascending. Each rung's payload is checksum-verified and then
    executed on a fresh engine. @raise Corrupt on bad input. *)
