external unsafe_index :
  string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "uv_memchr_byte" "uv_memchr"
[@@noalloc]

let index s c off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Memchr.index";
  unsafe_index s off len (Char.code c)
