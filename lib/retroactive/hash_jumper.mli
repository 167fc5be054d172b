(** Hash-jumper: early termination of effectless replays (§4.5).

    During regular operation every log entry records the post-commit hash
    of each table it wrote. During a retroactive replay, after replaying
    the entry with original commit index [i], if every mutated table's
    current hash equals its hash at original commit [i] — and no further
    retroactive changes are pending — the remaining replay is guaranteed
    to re-derive the original history, so the replay can stop and the
    original tables be retained. The table hash itself is the incremental
    sum-of-row-digests modulo [2^61-1] maintained by [Uv_db.Storage];
    false-positive probability is bounded by [1/p ≈ 4.3e-19] per
    comparison (the paper's SHA-256 instantiation gives [2^-256]; the
    structure and the constant-time update property are identical). *)

type t

val of_log : ?initial:(string * int64) list -> Uv_db.Log.t -> t
(** Build the per-table hash timeline. [initial] gives hashes of tables
    that predate the log (checkpoint contents); tables absent default to
    the empty-table hash [0]. *)

val hash_at : t -> table:string -> index:int -> int64
(** The table's hash immediately after original commit [index]. *)

val delta : t -> table:string -> index:int -> int64
(** The incremental-hash contribution of the statement at [index] to the
    table, i.e. [hash_at index - hash_at (index-1)] mod p. *)

type expectations
(** Per-member expected hashes for the *selective-undo* replay scheme:
    after replaying the k-th member, a converged replay satisfies
    [temp(T) = final(T) - Σ_{future members} delta(T)] for every mutated
    table — the state in which every non-member keeps its final effect
    and all remaining members still carry their original effects. *)

val expectations :
  t -> final:(string * int64) list -> mutated:string list -> members:int list ->
  expectations

val converged : expectations -> Uv_db.Catalog.t -> member_pos:int -> bool
(** [converged exp temp ~member_pos] — check after replaying the member at
    list position [member_pos] (0-based). *)
