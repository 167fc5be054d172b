(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

    The kernel is C ([uv_bytes_stubs.c], called [noalloc] with untagged
    integers): slicing-by-8, eight bytes per step through eight
    256-entry tables built once when this module initialises, then a
    tail shorter than eight bytes one byte at a time. It assembles each
    step's words from single bytes, so its values are the same on either
    byte order, and bit-identical to the classic one-table bytewise
    loop.

    Used by the durable log format (ULOGv2), the segment manifest and
    the sealed files to detect torn or corrupted records. The digest is
    returned as a non-negative OCaml [int] in [0, 2^32); [to_hex]
    renders the canonical 8-digit lowercase form. *)

val digest : string -> int
(** CRC-32 of the whole string, with the conventional pre/post
    inversion ([crc32(0, ...)] in zlib terms). *)

val update : int -> string -> int
(** [update crc s] extends a running digest: [digest (a ^ b)] equals
    [update (digest a) b]. *)

val update_sub : int -> string -> int -> int -> int
(** [update_sub crc s off len] is [update crc (String.sub s off len)]
    without the copy.
    @raise Invalid_argument if [off, len] is not a range of [s]. *)

val update_bytes_sub : int -> Bytes.t -> int -> int -> int
(** {!update_sub} over a range of a byte buffer, in place.
    @raise Invalid_argument if [off, len] is not a range of the buffer. *)

val to_hex : int -> string
(** 8 lowercase hex digits, zero-padded. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] unless the input is exactly 8 hex
    digits. *)

val of_hex_sub : string -> int -> int -> int option
(** [of_hex_sub s off len] is [of_hex (String.sub s off len)] without
    the copy; [None] when [off, len] is not a range of [s]. *)

val parse_hex_sub : string -> int -> int -> int
(** {!of_hex_sub} with [-1] for [None]: allocates nothing. *)
