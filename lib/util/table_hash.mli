(** Incremental, order-independent table hashing (§4.5 Hash-jumper).

    The hash of a table is the sum, modulo the Mersenne prime [p = 2^61-1],
    of a collision-resistant digest of each row. Inserting a row adds its
    digest; deleting subtracts it; an update is a delete followed by an
    insert. The cost of maintaining the hash is therefore linear in the
    number of rows touched by a statement and independent of table size,
    exactly as required by the paper's Hash-jumper.

    The paper uses SHA-256 (collision bound [2^-256]); we use a 64-bit
    FNV-1a digest folded modulo [2^61-1] (collision bound [2^-61]), which
    keeps the same constant-time update structure. *)

type t
(** Mutable accumulator for one table's hash. *)

val modulus : int64
(** The prime [p = 2^61 - 1]. *)

val create : unit -> t
(** Hash of the empty table (value 0). *)

val copy : t -> t

val value : t -> int64
(** Current hash value, in [[0, p)]. *)

val row_digest : string -> int64
(** Digest of one serialized row, in [[0, p)]. *)

val digest_bytes : Bytes.t -> int -> int64
(** [digest_bytes b len] is [row_digest] of the first [len] bytes of
    [b], without copying them out. Raises [Invalid_argument] when [len]
    is outside [[0, Bytes.length b]]. *)

val add_digest : t -> int64 -> unit
(** Fold a digest (or a signed delta of digests, in [[0, p)]) into the
    hash. *)

val add_row : t -> string -> unit
(** Fold an inserted row (serialized) into the hash. *)

val remove_row : t -> string -> unit
(** Fold a deleted row (serialized) out of the hash. *)

val equal : t -> t -> bool

val add_mod : int64 -> int64 -> int64
(** Addition modulo [p]; operands must be in [[0, p)]. *)

val sub_mod : int64 -> int64 -> int64

val combine : int64 list -> int64
(** Order-sensitive combination of several table hashes into one database
    state hash (used to log the whole-DB hash per commit). *)
