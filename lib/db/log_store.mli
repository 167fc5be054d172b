(** Segmented durable history: ULOGv2 chunk files under a manifest.

    {!Log_io} persists a history as one monolithic file, which forces
    every consumer — replay, analysis, fsck, salvage — to hold the
    whole log resident. A [Log_store] splits the same records into
    capped {e segments} (each a standalone ULOGv2 file) described by a
    small manifest, so every path streams one segment at a time: peak
    resident log memory is one segment plus the manifest, regardless of
    history length. This is the unified persistence surface; the
    file-granular entry points on {!Log_io} and {!Dump} are deprecated
    shims over the [*_file] helpers below.

    {2 Layout}

    A store is a directory:

    {v
    <dir>/MANIFEST          manifest (ULSTv1, see below)
    <dir>/seg-000001.ulog   segment 1 (ULOGv2)
    <dir>/seg-000002.ulog   segment 2
    ...
    <dir>/checkpoints.uckp  optional checkpoint ladder (UCKPv1)
    v}

    Every segment except the open tail holds exactly [segment_cap]
    records; the tail holds the remainder. All files are written with
    the temp + fsync + rename protocol, so a crash leaves the previous
    good state intact.

    {2 Manifest (ULSTv1)}

    {v
    ULSTv1 <segment_cap>
    S <seq> <min_idx> <max_idx> <nondet> <epoch> <bytes> <crc32>
    ...
    E <crc32 of every preceding byte>
    v}

    One [S] line per segment, ascending and contiguous ([min_idx] of
    segment [k+1] is [max_idx] of segment [k] plus one; indexes are
    global 1-based commit indexes). [nondet] counts the segment's
    recorded non-deterministic draws, [epoch] is always written as [0]
    (the field stays so that the format is unchanged; nothing reads it),
    [bytes]/[crc32] cover
    the segment file's exact content. The trailing [E] line checksums
    the manifest itself, so truncation at {e any} byte is detected. *)

(** The one typed error surface for history persistence. Every corrupt
    or unreadable input — manifest, segment, single-file log,
    checkpoint ladder, dump — is reported through {!Error} carrying one
    of these, replacing the ad-hoc [Log_io.Corrupt]/[Dump.Corrupt]
    exceptions at the store boundary. Offsets are {e segment-relative}
    byte positions (for a single-file log the file is its own segment,
    so the offset is file-relative). *)
module Store_error : sig
  type t =
    | Io of { path : string; message : string }
        (** the underlying system call failed *)
    | Corrupt_manifest of { path : string; offset : int; reason : string }
    | Corrupt_segment of {
        segment : int;  (** sequence number; [0] for a single-file log *)
        path : string;
        offset : int;  (** segment-relative byte offset of the damage *)
        reason : string;
      }
    | Corrupt_checkpoints of { path : string; reason : string }
    | Corrupt_dump of { path : string; reason : string }

  val to_string : t -> string
end

exception Error of Store_error.t

type t

val default_segment_cap : int
(** Records per segment when [open_] is not told otherwise (4096). *)

type segment = {
  seg_seq : int;  (** 1-based sequence number *)
  seg_file : string;  (** basename within the store directory *)
  seg_min : int;  (** first global commit index covered (1-based) *)
  seg_max : int;  (** last global commit index covered, inclusive *)
  seg_nondet : int;  (** recorded non-deterministic draws in the segment *)
  seg_epoch : int;  (** the manifest's epoch field: always [0] *)
  seg_bytes : int;  (** file size; [0] for the unsynced open tail *)
  seg_crc : string;  (** 8 lowercase hex digits; [""] for the open tail *)
}

(** {2 Lifecycle} *)

val open_ :
  ?fault:Uv_fault.Fault.t ->
  ?fsync:bool ->
  ?segment_cap:int ->
  string ->
  t
(** Open (or create) the store directory. A missing directory is
    created; an empty one becomes an empty store. [segment_cap] applies
    to a new store; an existing store keeps the cap recorded in its
    manifest. Segment contents are read lazily — [open_] itself holds
    only the manifest resident. [fault] probes
    {!Uv_fault.Fault.Site.log_save} with [Torn_write] on every file the
    store writes (stream key = the segment's sequence number; [0] for
    the manifest), the same atomic-write contract as {!save_log_file}:
    the tear leaves a prefix in the temp file, skips the rename and
    raises [Uv_fault.Fault.Injected].
    @raise Error on an unreadable or corrupt manifest. *)

val sync : t -> unit
(** Persist the open tail segment and the manifest. Idempotent; called
    by {!close}. @raise Error on I/O failure. *)

val close : t -> unit
(** {!sync}, then drop buffers. Further use raises [Invalid_argument]. *)

val dir : t -> string
val segment_cap : t -> int

val length : t -> int
(** Total records, including unsynced appends. *)

val segments : t -> segment list
(** Ascending by sequence number, open tail (if non-empty) last. *)

val segment_of_index : t -> int -> segment
(** The segment holding a global commit index.
    @raise Invalid_argument when out of range. *)

val boundaries : t -> int list
(** [seg_max] of every {e sealed} (full) segment, ascending — the
    commit indexes where the checkpoint ladder is aligned so rollback
    re-reads at most one segment tail (see {!Checkpoint.set_boundaries}). *)

(** {2 Append} *)

val append : t -> Log_io.record -> unit
(** Buffer one record into the open tail; when the tail reaches the
    segment cap it is sealed (segment file + manifest written) and a
    fresh tail opened — so an appender also never holds more than one
    segment in memory. Unsealed appends persist on {!sync}/{!close}. *)

val append_log : t -> Log.t -> unit
(** {!append} the durable projection of every entry of an in-memory
    log, in order, but with the manifest written once, at the end, if a
    segment was sealed: a crash or torn write during the call leaves
    the store at its previous manifest, and after the call what is
    sealed and listed is what the appends would have left. *)

val truncate : t -> int -> unit
(** [truncate t n] drops every record with a global index above [n]
    (no-op when [n >= length t]). Whole segments beyond the cut are
    dropped, a boundary segment straddling it is re-opened as the
    trimmed tail, and the change persists on the next {!sync} — the
    shrunk manifest is written before any truncated chunk file is
    unlinked, so a crash mid-truncate leaves a consistent (if longer)
    store. Serve recovery uses this to cut an unacknowledged
    partially-durable ingest batch back out of the history. *)

(** {2 Streaming reads}

    All read paths decode one segment at a time; a one-segment cache
    makes sequential access O(1) amortised per record. *)

val fold_range :
  t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> Log_io.record -> 'a) -> 'a
(** Fold [f] over records with global indexes in [[lo, hi]] (clamped to
    the store's range), in order. @raise Error on a corrupt segment. *)

val iter_range : t -> lo:int -> hi:int -> (int -> Log_io.record -> unit) -> unit

val iter_decoded :
  t -> lo:int -> hi:int -> (int -> Log_io.decoded -> int -> unit) -> unit
(** [iter_range] without building the records: [f index d k] is called
    for each global index in [[lo, hi]], in order, with the decoded
    segment [d] that holds it as its record [k]. A reader builds only
    the fields it needs ({!Log_io.sql}, {!Log_io.app_txn},
    {!Log_io.record}). Every sealed segment read is checked as
    [fold_range] checks it. @raise Error on a corrupt segment. *)

type cursor
(** A pull-based reader over a range — the streaming handle
    {!Uv_retroactive} analysis consumes. *)

val cursor : ?lo:int -> ?hi:int -> t -> cursor
(** Defaults: the store's whole range at creation time. *)

val next : cursor -> (int * Log_io.record) option

val records : t -> Log_io.record list
(** Materialise everything — legacy-compat and tests only; defeats the
    memory bound by design. *)

val entry_of_record :
  memo:Uv_sql.Stmt_memo.t -> index:int -> Log_io.record -> Log.entry
(** Lift a durable record back into a log entry: the statement is
    re-parsed through [memo] (the same AST {!Uv_sql.Parser.parse_stmt}
    gives, parsed in full once per statement shape); volatile fields
    (undo images, written hashes, row counts) start empty, exactly as
    after a fresh {!Log_io.replay}. *)

val replay : t -> Engine.t -> int list
(** Stream-replay the whole store into an engine (one segment
    resident), forcing each record's non-determinism; returns 1-based
    global indexes of records skipped on SQL errors. When the engine
    has a checkpoint ladder, the ladder is aligned to the store's
    segment boundaries first, so every sealed segment ends on a rung
    and a later recovery from a rung re-reads at most one segment
    tail. *)

(** {2 Memory accounting} *)

val resident_peak_bytes : t -> int
(** Largest segment (bytes) ever held resident by this handle — the
    streamed analysis's "one segment" bound witness. *)

(** {2 Integrity: verify and salvage} *)

type check = {
  chk_segment : int;  (** sequence number *)
  chk_file : string;
  chk_records : int;  (** records readable from the segment *)
  chk_crc_ok : bool;  (** manifest CRC-32 matches the file bytes *)
  chk_diag : Log_io.diagnosis option;
      (** [Some] when the segment is damaged; [cut_at] is
          segment-relative *)
}

val verify : ?segment:int -> t -> check list
(** Check every segment (or just [segment]) against the manifest: file
    present, CRC-32 match, records parse. Never raises on damaged
    content; one segment resident at a time. *)

type salvage_report = {
  sr_records : int;  (** records in the salvaged prefix *)
  sr_segments : int;  (** segments wholly or partly retained *)
  sr_manifest_rebuilt : bool;
      (** the manifest was damaged and re-derived from segment files *)
  sr_cut_segment : int option;  (** first damaged segment, if any *)
  sr_cut_at : int option;  (** segment-relative byte offset of the cut *)
  sr_reason : string option;
}

val open_salvage :
  ?fault:Uv_fault.Fault.t -> ?fsync:bool -> string -> t * salvage_report
(** Best-effort open that never raises on damaged content: a corrupt
    manifest is rebuilt from the segment files on disk; the first
    damaged segment is trimmed to its longest valid record prefix and
    every later segment dropped (replaying past a hole would silently
    reorder history — same contract as {!Log_io.salvage}). A segment
    whose bytes disagree with the manifest CRC but parse cleanly — the
    signature of a crash between a tail-segment write and the manifest
    update — keeps its longest valid record prefix rather than being
    dropped, so manifest-acknowledged records always survive. The
    returned handle serves exactly the salvaged prefix; {!sync} would
    commit the trim to the manifest. *)

(** {2 Attached checkpoint ladder} *)

val read_checkpoints : t -> (int * Catalog.t) list
(** The rungs of [<dir>/checkpoints.uckp], ascending; [[]] when there
    is no such file. The store never writes it: {!save_checkpoints_file}
    does, given that path. @raise Error on a corrupt file. *)

(** {2 Single-file helpers}

    The one-file formats under the unified error type: the ULOG log
    file ({!Log_io} bytes), a {!Dump.to_sql} script and a UCKPv1
    checkpoint ladder. Same bytes as the store's attached files, same
    fault sites, same atomic-write protocol (temp file, fsync,
    rename). *)

val is_store : string -> bool
(** Does the path name a store directory (existing directory that is
    empty or has a [MANIFEST])? Distinguishes store paths from
    single-file logs in path-polymorphic commands (fsck, recover). *)

val save_log_file :
  ?fault:Uv_fault.Fault.t -> ?fsync:bool -> Log.t -> path:string -> unit
(** Write the log's durable projection to [path] atomically. [fault]
    probes {!Uv_fault.Fault.Site.log_save} with [Torn_write]: a tear
    leaves any previous file at [path] intact. *)

val load_log_file : path:string -> Log_io.record list
(** @raise Error ([Corrupt_segment] with [segment = 0] and the
    file-relative offset) on bad input. *)

val salvage_log_file : path:string -> Log_io.record list * Log_io.diagnosis

val save_dump_file :
  ?fault:Uv_fault.Fault.t -> ?fsync:bool -> Catalog.t -> path:string -> unit

val load_dump_file : Engine.t -> path:string -> unit
(** @raise Error on bad input. *)

val save_checkpoints_file :
  ?fault:Uv_fault.Fault.t -> ?fsync:bool -> Checkpoint.t -> path:string -> unit

val load_checkpoints_file : path:string -> (int * Catalog.t) list
(** @raise Error ([Corrupt_checkpoints]) on bad input. *)
