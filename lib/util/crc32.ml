let polynomial = 0xedb88320

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Slicing-by-8: slice [k] (entries [k * 256 ..]) advances a byte's
   contribution past [k] further zero bytes, so eight bytes fold in with
   eight independent lookups instead of a chain of eight. Slice 0 is
   [table]. *)
let slices =
  let t = Array.make (8 * 256) 0 in
  Array.blit table 0 t 0 256;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (prev lsr 8) lxor table.(prev land 0xff)
    done
  done;
  t

let byte s i = Char.code (String.unsafe_get s i)
let slice k i = Array.unsafe_get slices ((k * 256) + i)

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.update_sub";
  let c = ref (crc lxor 0xffffffff) in
  let i = ref off and stop = off + len in
  while !i + 8 <= stop do
    let j = !i in
    let x =
      !c
      lxor (byte s j lor (byte s (j + 1) lsl 8) lor (byte s (j + 2) lsl 16)
           lor (byte s (j + 3) lsl 24))
    in
    c :=
      slice 7 (x land 0xff)
      lxor slice 6 ((x lsr 8) land 0xff)
      lxor slice 5 ((x lsr 16) land 0xff)
      lxor slice 4 (x lsr 24)
      lxor slice 3 (byte s (j + 4))
      lxor slice 2 (byte s (j + 5))
      lxor slice 1 (byte s (j + 6))
      lxor slice 0 (byte s (j + 7));
    i := j + 8
  done;
  (* the tail, shorter than eight bytes, one byte at a time *)
  for j = !i to stop - 1 do
    c := Array.unsafe_get table ((!c lxor byte s j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let update crc s = update_sub crc s 0 (String.length s)

let digest s = update 0 s

let to_hex c = Printf.sprintf "%08x" (c land 0xffffffff)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let of_hex_sub s off len =
  if len <> 8 || off < 0 || off > String.length s - len then None
  else
    let rec go i acc =
      if i = off + len then Some acc
      else
        let d = hex_digit (String.unsafe_get s i) in
        if d < 0 then None else go (i + 1) ((acc lsl 4) lor d)
    in
    go off 0

let of_hex s = of_hex_sub s 0 (String.length s)
