(** Durable form of the statement log.

    Ultraverse's recovery story (paper §4.1) keeps the query history —
    statement text, per-statement non-determinism and the application-
    transaction tag — on disk next to the DBMS redo log; everything else
    (row images, undo records, table hashes) is re-derivable by replay.
    This module implements that redo-log persistence: a line-oriented,
    versioned, 8-bit-clean text format with per-record checksums and a
    salvage path for torn tails.

    {2 Format (ULOGv2)}

    {v
    ULOGv2
    Q <escaped sql>
    N <escaped serialized value>     (zero or more, in draw order)
    A <escaped tag>                  (optional)
    C <crc32 of the Q/N/A lines>     (8 lowercase hex digits)
    E
    v}

    Escaping maps backslash, newline and carriage return to
    [\\], [\n], [\r] so records survive any statement text. The C line
    holds the CRC-32 of the record's body bytes (Q through A lines,
    newlines included), so a torn or bit-flipped record is detected
    before it is replayed. {!parse} still accepts the checksum-free
    ULOGv1 header for logs written by earlier versions.

    Files in this format are written and read by [Log_store]'s
    single-file helpers ([save_log_file], [load_log_file],
    [salvage_log_file]) and its segments. *)

type record = {
  r_sql : string;  (** statement text, parseable by {!Uv_sql.Parser} *)
  r_nondet : Uv_sql.Value.t list;
      (** recorded RAND / NOW / AUTO_INCREMENT draws, in order *)
  r_app_txn : string option;  (** application-transaction tag *)
}

exception Corrupt of string
(** Raised by {!parse} on malformed or truncated input. *)

type diagnosis = {
  version : int;  (** 1 or 2; [0] when even the header is unreadable *)
  total_bytes : int;
  valid_records : int;
  cut_at : int option;
      (** byte offset where the valid prefix ends; [None] for a clean
          file *)
  reason : string option;  (** what was wrong at [cut_at] *)
}

val records_of_log : Log.t -> record list
(** Project the durable fields out of an in-memory log. *)

val print : record list -> string
(** Render records in the ULOGv2 format. *)

val parse : string -> record list
(** Inverse of {!print}; also accepts ULOGv1 input. {!salvage}, then
    every record.
    @raise Corrupt on bad input. *)

type decoded
(** A decoded log text: the text itself and, per valid record, the
    offsets of its SQL, its N lines and its A line. A record, or one of
    its fields, is built from the offsets only when asked for. Indexes
    are 0-based positions among the valid records. *)

val salvage : ?count:int -> string -> decoded * diagnosis
(** The decoder. Best-effort parse that never raises: keeps the longest
    valid record {e prefix} (a record counts only when its whole block
    parses and, on v2, its checksum matches) plus a diagnosis of the
    first damage found. Recovery deliberately stops at the first bad
    record — replaying records past a hole would silently reorder
    history. A kept record's payloads are checked as building them
    checks them (escapes, N values), so every accessor below succeeds
    on it.

    One loop over the text's lines, its state in local variables: no
    closure, ref cell or exception handler per record; the first damage
    is recorded as a reason and the damaged record's offset. Line ends
    and backslashes are found with [memchr] ({!Uv_util.Memchr}), a
    record's checksum runs over its body bytes in place (the C CRC-32
    kernel, {!Uv_util.Crc32}), and an N value in a form the writer
    produces, but a float, is checked in place
    ({!Uv_sql.Value.deserialize_error}). [count] (default 64), the
    records the caller expects, presizes the offsets; on a clean text of
    at most [count] records, the non-float N values and checksums
    allocate nothing per record. *)

val length : decoded -> int
(** Valid records ([valid_records] of the diagnosis). *)

val record : decoded -> int -> record
val records : decoded -> record list

val sql : decoded -> int -> string
(** [(record d k).r_sql], without the rest of the record. *)

val text : decoded -> string
(** The text a {!salvage} result decoded; [""] for {!of_records}. *)

val sql_offset : decoded -> int -> int
(** Where record [k]'s SQL lies in {!text} as it is, escape-free: its
    offset, or [-1] when it must be unescaped ({!sql} builds it) or the
    records were built ({!of_records}). *)

val sql_length : decoded -> int -> int
(** The length of record [k]'s SQL in {!text} when {!sql_offset} is not
    [-1]. *)

val app_txn : decoded -> int -> string option
(** [(record d k).r_app_txn], without the rest of the record. *)

val nondet : decoded -> int -> Uv_sql.Value.t list
(** [(record d k).r_nondet], without the rest of the record. *)

val nondet_count : decoded -> int -> int
(** [List.length (record d k).r_nondet], without deserialising them. *)

val of_records : record array -> decoded
(** Records already built (an unsynced tail), served by the same
    accessors. *)

val replay : Engine.t -> record list -> int list
(** Re-execute the records in order against [engine], forcing each
    statement's recorded non-determinism, rebuilding the full in-memory
    log (undo images, table hashes, row counts) as a side effect.
    Statements that fail with a SQL error are skipped, mirroring how the
    original execution logged only successful statements; the returned
    list holds the 1-based indices of the skipped records (empty on a
    faithful replay). *)

val escape : string -> string
(** Exposed for property tests. *)

val unescape : string -> string
(** Inverse of {!escape}.
    @raise Corrupt on a dangling escape. *)
