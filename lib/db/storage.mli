(** Physical table storage, columnar.

    Each table is a struct-of-arrays: one typed column chunk per schema
    column (a tag byte per slot plus unboxed [int array] / [float array]
    payloads and an interned string pool), a validity array marking live
    slots, and a rowid-to-slot map. Every per-slot array, the string
    pool and the bucket arrays of the hash maps (rowid -> slot, string
    -> pool id, index key -> posting) are split into fixed-size
    copy-on-write pages ({!Uv_util.Cow}), which is what makes {!copy}
    cheap and a copy's writes proportional to what they touch. [Value.t]
    is materialized only at this API boundary — scans and compiled WHERE
    predicates read the typed columns directly through {!Col}. Every
    mutation keeps the table's incremental hash (§4.5) in sync — inserts
    add the row digest, deletes subtract it, updates do both — and the
    batched entry points ({!update_many}, {!delete_many}, {!Col.write})
    fold one hash-chain delta per statement instead of per row, so
    reading the hash is O(1) at any commit point. A row's digest is
    {!Uv_util.Table_hash.row_digest} of its canonical bytes — the table
    name, then for each cell ['|'] and its {!Value.serialize} form —
    streamed into a per-domain scratch buffer, never built as a string.
    Every mutator also folds the delta it applied into an optional
    caller-owned [?delta] accumulator, which is how the engine reports
    each statement's per-table hash delta without re-reading its row
    images.

    Thread safety: every operation holds an internal per-table
    readers-writer lock in its writer-priority variant — reads (scans,
    lookups, hash) share it, mutations and {!copy} are exclusive, and a
    queued writer blocks new reader admissions so scan streams cannot
    starve it. Statements touching disjoint tables, or disjoint rows of
    one table as scheduled by the wave executor, may run on concurrent
    domains. Under writer priority, nested read acquisition can
    deadlock, so the callbacks of [iter]/[fold] and the predicates of
    {!Col.select} must be pure row functions that never re-enter this
    table's lock — the engine collects matching rows before mutating or
    evaluating subqueries. Row arrays returned by reads are fresh
    materializations, never aliased to storage, so they stay consistent
    after the lock is released. *)

open Uv_sql

type rowid = int

type t

val create : Schema.table -> t

val schema : t -> Schema.table

val name : t -> string

val row_count : t -> int

val hash : t -> int64
(** Current incremental table hash (§4.5). *)

val next_auto_value : t -> int
(** Peek the next AUTO_INCREMENT value without consuming it. *)

val take_auto_value : t -> int
(** Consume and return the next AUTO_INCREMENT value. *)

val bump_auto_value : t -> int -> unit
(** Raise the counter to at least [v + 1] (applied when an explicit value
    is inserted into an AUTO_INCREMENT column). *)

val set_auto_value : t -> int -> unit
(** Pin the counter to exactly [v] (clamped to at least 1). Used by
    [ALTER TABLE ... AUTO_INCREMENT = v] and by statement rollback, which
    must restore the pre-statement counter so a retried statement draws
    the same fresh keys. *)

val insert : ?delta:Uv_util.Table_hash.t -> t -> Value.t array -> rowid
(** Insert a row (already coerced and padded to schema width). [delta],
    here and on every mutator below, receives the hash delta the call
    applied to the table (the row digests it added and subtracted). *)

val insert_with_rowid :
  ?delta:Uv_util.Table_hash.t -> t -> rowid -> Value.t array -> unit
(** Re-insert a row under a known rowid (undo of a delete). The dead
    slot the delete left is revived in place, so the scan order needs
    no change. Over a live rowid the row is replaced: the old image
    leaves the hash and the indexes, as in {!restore_many}. *)

val insert_at : ?delta:Uv_util.Table_hash.t -> t -> rowid -> Value.t array -> rowid
(** Insert under an explicit fresh rowid, raising [Invalid_argument] if
    the rowid is taken. Parallel replay pins each statement to a private
    rowid range so allocation is deterministic at every worker count. *)

val next_rowid : t -> rowid
(** The rowid the next plain [insert] would use. *)

val set_rowid_floor : t -> rowid -> unit
(** Raise [next_rowid] to at least [v]. Redo and the undo fold's
    counter rule use it so a reenacted insert leaves the allocator where
    executing it would, and a stopped replay's universe takes the
    floors its skipped members would leave. *)

val delete : ?delta:Uv_util.Table_hash.t -> t -> rowid -> Value.t array
(** Remove a row; returns the removed image. Raises [Not_found]. *)

val update :
  ?delta:Uv_util.Table_hash.t -> t -> rowid -> Value.t array -> Value.t array
(** Replace a row; returns the before-image. Raises [Not_found]. *)

val patch :
  ?delta:Uv_util.Table_hash.t ->
  t ->
  rowid ->
  (Value.t array -> Value.t array) ->
  Value.t array * Value.t array
(** [patch t id f] replaces row [id] with [f] of its current image, under
    one lock acquisition and one materialization; returns the before and
    after images. [f] must not touch the table. Raises [Not_found]. *)

val update_many :
  ?delta:Uv_util.Table_hash.t ->
  t ->
  (rowid * Value.t array) list ->
  (rowid * Value.t array) list
(** Replace a batch of rows under one lock acquisition and one
    hash-chain update (per-statement batching): returns the
    before-images in input order. Raises [Not_found] on the first
    missing rowid, leaving earlier replacements applied — callers batch
    only rowids they have just observed under the same statement. *)

val delete_many :
  ?delta:Uv_util.Table_hash.t -> t -> rowid list -> (rowid * Value.t array) list
(** Remove a batch of rows under one lock acquisition and one hash-chain
    update: returns the removed images in input order. Same [Not_found]
    contract as {!update_many}. *)

val restore_many :
  ?delta:Uv_util.Table_hash.t -> t -> (rowid * Value.t array option) list -> unit
(** Bring each listed rowid to the given image, [None] meaning absent,
    under one lock acquisition and one hash-chain update: a live row is
    rewritten or removed, an absent one inserted at its rowid (reviving
    the dead slot a delete left, and raising [next_rowid] like
    {!insert_with_rowid}); an absent rowid listed as [None] is left as
    it is. The folded rollback ({!Log.undo_entries}) writes each table
    through it once. *)

val get : t -> rowid -> Value.t array option

val mem : t -> rowid -> bool
(** [get t id <> None] without materializing the row. *)

val to_rows : t -> (rowid * Value.t array) list
(** Rows in ascending rowid order (deterministic iteration). *)

val iter : t -> (rowid -> Value.t array -> unit) -> unit
(** Live rows in ascending rowid order, like {!to_rows}. *)

val fold : t -> init:'a -> f:('a -> rowid -> Value.t array -> 'a) -> 'a
(** Live rows in ascending rowid order, like {!to_rows}. *)

val copy : t -> t
(** Snapshot copy, copy-on-write at page granularity. Costs
    O(columns + pages): each side gets its own page spines over the
    same pages, and neither side owns a shared page afterwards — the
    source moves to a fresh ownership generation, which is why [copy]
    takes the source's write lock. The first write to a page on either
    side copies that page, the first write to an index key copies that
    key's posting set, and later writes to them are in place, so a
    write costs O(rows and keys it touches), never O(table). Both sides
    remain fully independent [t] values. *)

val set_schema : t -> Schema.table -> (Value.t array -> Value.t array) -> unit
(** [set_schema t schema remap] rewrites every row through [remap]
    (ALTER TABLE), rebuilding the column chunks and refreshing the
    hash. *)

val column_index : t -> string -> int option
(** {!Uv_sql.Schema.column_index} of the table's current schema. *)

type index_key = Int_key of int | Str_key of string

val index_key : Uv_sql.Value.t -> index_key
(** The hash indexes' key of a value: the class of {!Uv_sql.Value.to_float}
    for numbers, bools and texts that parse as floats, and the text
    itself for other texts, so two SQL-equal values always share a key
    ([Int 5], [Float 5.0] and ["5"] do, and so do [Int (2^53 + 1)] and
    [Float 2^53]). Values sharing a key need not be SQL-equal. Integral
    floats below 2{^62} in magnitude and NULL have integer keys, every
    NaN one string key. *)

val create_value_index : t -> string -> unit
(** Build (or rebuild) a hash index on the column; maintained by every
    subsequent mutation. Primary-key columns are indexed automatically
    at [create]. *)

val indexed_lookup : t -> string -> Value.t -> rowid list option
(** [Some rowids] holding exactly the rows whose column has the value's
    {!index_key} — every row whose column SQL-equals it, and possibly
    others — when the column is indexed; [None] when it is not. The list
    order is unspecified (postings are hash sets) — callers needing
    determinism sort it. *)

val indexed_columns : t -> string list

val memory_bytes : t -> int
(** Rough live size, for the RAM-overhead benches. *)

(** Typed access to the column chunks, bypassing [Value.t] boxing.

    Readers return the unboxed payload when the cell currently holds
    that dynamic kind. The cursor API is the scan hot path: compiled
    WHERE predicates evaluate against a cursor positioned on a slot,
    and only matching rows are materialized. *)
module Col : sig
  type table := t

  type cur
  (** A cursor positioned on one live slot during {!select} /
      {!select_ids}. Only valid inside the predicate callback. *)

  val rowid : cur -> rowid

  val width : cur -> int
  (** Stored width of the current row (rows may be narrower than the
      schema after ALTER TABLE). *)

  val value : cur -> int -> Value.t
  (** Materialize one cell. Raises [Invalid_argument] when the column
      is beyond the stored row width, like [row.(i)] would. *)

  val is_null : cur -> int -> bool
  (** True when the cell is NULL or beyond the stored row width. *)

  val cmp_lit : cur -> int -> Value.t -> int
  (** [Value.compare_sql] of cell vs literal without boxing the cell in
      the same-kind cases. Callers handle NULL on either side first. *)

  val equal_lit : cur -> int -> Value.t -> bool
  (** SQL equality of cell vs literal, unboxed in the common cases. *)

  val select : table -> (cur -> bool) -> (rowid * Value.t array) list
  (** Filtered scan in ascending rowid order, materializing only the
      matching rows. The predicate runs under the table's read lock and
      must be a pure row function (no storage re-entry). *)

  val select_ids :
    table -> rowid list -> (cur -> bool) -> (rowid * Value.t array) list
  (** Like {!select} over an explicit candidate list (an index probe),
      visited in the order given; unknown rowids are skipped. *)

  val read_int : table -> rowid -> int -> int option
  val read_float : table -> rowid -> int -> float option
  val read_text : table -> rowid -> int -> string option
  val read_bool : table -> rowid -> int -> bool option
  (** Typed single-cell readers: [Some payload] when the cell holds that
      dynamic kind, [None] otherwise (including NULL, a missing rowid,
      or a column beyond the stored width). *)

  val write : ?delta:Uv_util.Table_hash.t -> table -> rowid -> int -> Value.t -> unit
  (** Rewrite one cell in place, maintaining the table hash and the
      indexes. Raises [Not_found] on a missing rowid and
      [Invalid_argument] on a column beyond the stored width. *)
end
