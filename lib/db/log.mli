(** Committed-statement log (the engine's "binary log").

    One entry per committed top-level statement, carrying everything the
    retroactive plugin needs: the statement AST, the recorded
    non-deterministic draws (RAND/NOW/AUTO_INCREMENT — replayed verbatim,
    §4.4 "Replaying Non-determinism"), the post-commit hash of every table
    the statement wrote (consumed by the Hash-jumper), and the
    application-level transaction tag emitted by the augmented application
    code (§3, Figure 3). *)

open Uv_sql

type undo =
  | U_row_insert of string * int * Value.t array
      (** the statement inserted (table, rowid, row image): undo deletes
          it; the image lets redo re-insert without re-execution (it is
          never persisted — ULOGv2 stores only the statement) *)
  | U_row_delete of string * int * Value.t array
      (** the statement deleted this row image: undo re-inserts it *)
  | U_row_update of string * int * Value.t array * Value.t array
      (** (table, rowid, before, after) images of an updated row. Undo
          restores only the cells the statement changed (before <> after)
          so that independent later writes to *other* columns of the same
          row survive selective rollback — matching the column-granular
          dependency rules. *)
  | U_table_def of string * Storage.t option
      (** full table state before a DDL statement touched it
          ([None] = table did not exist) *)
  | U_view_def of string * Ast.select option
  | U_proc_def of string * Catalog.procedure option
  | U_trigger_def of string * Catalog.trigger option
  | U_index_def of string * (string * string list) option
  | U_auto_value of string * int
      (** restore the table's AUTO_INCREMENT counter to exactly this
          value — journalled before any statement mutates the counter, so
          rollback (and what-if's selective undo) reenacts the same fresh
          key draws on replay *)

type entry = {
  index : int;  (** commit order, 1-based *)
  stmt : Ast.stmt;
  sql : string;  (** rendered statement, as a binlog would store it *)
  nondet : Value.t list;  (** draws in evaluation order *)
  rows_written : int;
  written_hashes : (string * int64) list;
      (** post-commit hash of each written table *)
  undo : undo list;
      (** row-level inverse operations, most recent change first — the
          binlog-row-format before-images that make selective rollback
          (§4.4 rollback option (i)) possible *)
  app_txn : string option;  (** application-level transaction name *)
}

type undo_stats = {
  undo_records : int;  (** records walked, DDL included *)
  rows_restored : int;
      (** rows written: those whose final image differs from the one
          first read *)
}

val undo_entries : Catalog.t -> undo list list -> undo_stats
(** Undo a set of entries against a catalog: [journals] holds their
    inverse operations, the entries newest first and each journal most
    recent first, as newest-first selective rollback applies them.

    The records are folded, not applied one by one. Undoing newest
    first leaves each cell an update changed (before <> after) at the
    before-image of the oldest undone update to it, each row's presence
    at its oldest undone insert or delete (absent, or that delete's
    image), and each table's AUTO_INCREMENT counter where
    {!undo_counters} sets it. The fold walks the records over a per-row
    state first read from the catalog, then writes each table once
    ({!Storage.restore_many}): only the rows whose final image differs
    from the first one read. The table hash, row digests, scan order,
    index postings and [next_rowid] come out as applying every record
    would leave them; a re-insert over a row that is live in the
    folded state replaces it, as {!Storage.insert_with_rowid} does. A
    DDL record is applied as it comes, after the rows pending before it
    are written. Tables absent from the catalog are skipped. *)

val apply_undo : Catalog.t -> undo list -> unit
(** [undo_entries] of one entry's journal (statement rollback). *)

val undo_counters : Catalog.t -> undo list list -> unit
(** Set each table's AUTO_INCREMENT counter where rolling back
    [journals] (newest first, as {!undo_entries} takes them) leaves it,
    and touch nothing else. [cat]'s counters must be the live ones.

    The rule: the counter falls to the oldest undone entry's
    pre-statement value, but never to or below a key that a kept entry
    after it drew. It reads only the undone journals and the live
    counter, not the kept entries: walking the undone entries newest
    first, each one that inserted left the counter past its keys, so
    where the counter just above it (the live one, or the next newer
    undone entry's pre-statement value) stands higher, kept entries in
    between raised it, and the counter stays there at least. A key a
    kept entry set explicitly below the running counter moves nothing,
    and a counter an undone [ALTER TABLE … AUTO_INCREMENT] pinned has
    no known value after it, so neither is seen. *)

type redone = {
  redo_undo : undo list;
      (** the fresh journal, most recent first, before-images read from
          the catalog the entry was redone over *)
  redo_rows : int;  (** row records, as [rows_written] counts them *)
  redo_deltas : (string * int64) list;
      (** per table written, in first-write order, the hash delta the
          redo applied (like [Engine.result.hash_deltas]) *)
}

val apply_redo : assigned:int list -> Catalog.t -> undo list -> redone
(** Reenact one entry's forward row effect from its journal images
    (insert the inserted rows, delete the deleted ones, write each
    update's after-image to the cells it changed and to every column
    position in [assigned]). Entries must be redone in
    commit order. An AUTO_INCREMENT record journals the table's current
    counter and the next insert into the table raises the counter past
    the inserted key, as executing the insert does. Tables absent from
    the catalog, missing rows and already-deleted rows are skipped.

    [assigned] matters because the entry's cells may have been changed
    since history (what-if member redo): an UPDATE that wrote a value
    equal to the one it found journalled its column as unchanged, yet
    redone over a changed cell it must write it.
    @raise Invalid_argument on DDL records, which carry before-images
    only. *)

val redo_counters : Catalog.t -> undo list -> unit
(** [apply_redo]'s effect on the AUTO_INCREMENT counters and rowid floors
    alone, for a journal [Engine] wrote: each insert raises its table's
    [next_rowid] past its rowid and its counter past its key. A stopped
    replay's universe takes the counters the skipped entries would
    leave. *)

type t

val create : unit -> t

val append : t -> entry -> unit

val length : t -> int

val entry : t -> int -> entry
(** [entry log i] with [i] the 1-based commit index. *)

val entries : t -> entry list
(** In commit order. *)

val iter : t -> (entry -> unit) -> unit

val to_array : t -> entry array

val copy : t -> t

val map : (entry -> entry) -> t -> t
(** A fresh log with [f] applied to every entry — e.g. static-analysis
    fixtures that strip recorded non-determinism from a real history. *)

val nondet_count : entry -> int
(** Number of recorded non-deterministic draws (RAND/NOW/AUTO_INCREMENT)
    in the entry — the replay-divergence metadata the static lint passes
    check against each statement's syntactic draw sites. *)

val truncate : t -> int -> unit
(** [truncate log n] keeps the first [n] entries. A shrinking truncation
    moves the log to a fresh backing array, so {!prefix}es captured
    earlier stay intact. *)

type prefix
(** A read-only view of a log's first [length] entries at capture time. *)

val prefix : t -> prefix
(** O(1): shares the log's backing array. Later appends and truncations
    of the log never change what the prefix reads. *)

val prefix_length : prefix -> int

val prefix_entry : prefix -> int -> entry
(** 1-based, like {!entry}. *)

val binlog_bytes : entry -> int
(** Size this entry would occupy in a MySQL-style statement binlog
    (rendered SQL + fixed header), for Table 7(b). *)

val uv_log_bytes : entry -> int
(** Size of Ultraverse's *additional* per-query log record: the R/W-set
    digests and table hashes, not the SQL text (Table 7(b)). *)
