let modulus = 0x1FFFFFFFFFFFFFFFL (* 2^61 - 1 *)

type t = { mutable acc : int64 }

let create () = { acc = 0L }

let copy t = { acc = t.acc }

let value t = t.acc

(* FNV-1a over bytes [0, len) of [b], then fold the 64-bit digest into
   [0, p). An index loop over a local ref keeps the Int64 state unboxed:
   a closure capturing it (as [String.iter] would need) boxes it once per
   byte. *)
let digest_bytes b len =
  if len < 0 || len > Bytes.length b then invalid_arg "Table_hash.digest_bytes";
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001B3L
  done;
  (* Second mixing round to decorrelate short rows. *)
  let z = !h in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  Int64.rem (Int64.logand z Int64.max_int) modulus

let row_digest s = digest_bytes (Bytes.unsafe_of_string s) (String.length s)

let add_mod a b =
  let s = Int64.add a b in
  if Int64.unsigned_compare s modulus >= 0 then Int64.sub s modulus else s

let sub_mod a b = add_mod a (Int64.sub modulus b)

let add_digest t d = t.acc <- add_mod t.acc d

let add_row t row = t.acc <- add_mod t.acc (row_digest row)

let remove_row t row = t.acc <- sub_mod t.acc (row_digest row)

let equal a b = Int64.equal a.acc b.acc

let combine hashes =
  (* Polynomial combination so the same multiset of table hashes in a
     different per-table assignment yields a different DB hash. *)
  List.fold_left
    (fun acc h ->
      let scaled = Int64.rem (Int64.logand (Int64.mul acc 31L) Int64.max_int) modulus in
      add_mod scaled (Int64.rem h modulus))
    7L hashes
