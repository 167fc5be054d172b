(** The C library's [memchr] over a range of an OCaml string: the
    word-at-a-time byte search a line scanner wants, without a copy. *)

val index : string -> char -> int -> int -> int
(** [index s c off len]: the offset in [s] of the first [c] in
    [s.[off .. off + len - 1]], or [-1]. Allocates nothing.
    @raise Invalid_argument if [off, len] is not a range of [s]. *)
