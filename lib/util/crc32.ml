(* The kernel is C (uv_bytes_stubs.c): slicing-by-8 over tables it
   builds when this module initialises. *)
external init : unit -> unit = "uv_crc32_init" [@@noalloc]

external unsafe_update_sub :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "uv_crc32_update_byte" "uv_crc32_update"
[@@noalloc]

external unsafe_update_bytes_sub :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "uv_crc32_update_byte" "uv_crc32_update"
[@@noalloc]

let () = init ()

let update_bytes_sub crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.update_bytes_sub";
  unsafe_update_bytes_sub crc b off len

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.update_sub";
  unsafe_update_sub crc s off len

let update crc s = unsafe_update_sub crc s 0 (String.length s)

let digest s = update 0 s

let to_hex c = Printf.sprintf "%08x" (c land 0xffffffff)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* the hex digits [s.[i .. stop - 1]] after [acc], or [-1] *)
let rec hex_value s i stop acc =
  if i = stop then acc
  else
    let d = hex_digit (String.unsafe_get s i) in
    if d < 0 then -1 else hex_value s (i + 1) stop ((acc lsl 4) lor d)

let parse_hex_sub s off len =
  if len <> 8 || off < 0 || off > String.length s - len then -1
  else hex_value s off (off + len) 0

let of_hex_sub s off len =
  match parse_hex_sub s off len with -1 -> None | c -> Some c

let of_hex s = of_hex_sub s 0 (String.length s)
