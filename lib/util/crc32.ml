let polynomial = 0xedb88320

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.update_sub";
  let c = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let update crc s = update_sub crc s 0 (String.length s)

let digest s = update 0 s

let to_hex c = Printf.sprintf "%08x" (c land 0xffffffff)

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) s in
    if not ok then None else int_of_string_opt ("0x" ^ s)
