(** Checkpoint ladder: periodic catalog snapshots, a recovery file.

    [ultraverse dump --checkpoints] records a ladder while it executes a
    history and writes it as a UCKPv1 file; [fsck] validates that file
    and [recover --checkpoint] restores a rung from it. The what-if
    rollback does not read the ladder: it undoes members from the log's
    own row images. Snapshots share row arrays with live tables (rows are
    replaced on update, never mutated in place), so a rung is a per-table
    hashtable copy, not a deep copy of every row. *)

type t

val max_rungs : int
(** Ladder size cap. When exceeded, every other rung is dropped and the
    stride doubles (exponential thinning), bounding memory over
    arbitrarily long histories. *)

val create : every:int -> t
(** A ladder recording a rung every [every] committed statements.
    @raise Invalid_argument if [every <= 0]. *)

val set_boundaries : t -> int list -> unit
(** Declare extra commit indexes where a rung is always due, beyond the
    stride — used to align the ladder with {!Log_store} segment seals so
    recovery from a rung to any sealed-segment prefix re-reads at most
    one segment tail. Replaces any previous boundary set; non-positive
    indexes are ignored. *)

val due : t -> int -> bool
(** [due t n]: should a rung be recorded after commit [n]? True when [n]
    is a stride multiple or a declared boundary, and newer than the
    newest rung. *)

val record : t -> Catalog.t -> int -> unit
(** Snapshot the catalog as the rung for commit index [n], thinning the
    ladder if it exceeds {!max_rungs}. *)

val invalidate_from : t -> int -> unit
(** Drop every rung at index ≥ [n] — called when the log is truncated so
    stale future state can never be restored. *)

val rungs : t -> (int * Catalog.t) list
(** All rungs, newest first. *)

val count : t -> int
(** Live rung count. *)
