(* Order statistics shared by the ledger and the comparator. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest sample with at least [p] of the samples at
   or below it *)
let percentile xs p =
  let a = sorted xs in
  match Array.length a with
  | 0 -> nan
  | n ->
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so the comparator's spreads match the ones the benchmark's
   acceptance check computes *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* The samples whose [key] lies in the middle tenth of the distribution
   (at least one): their average per-layer breakdown is the breakdown of
   a median operation, so its parts add up to the p50 latency rather than
   to the mean. *)
let median_band ~key xs =
  let a = Array.of_list xs in
  Array.sort (fun x y -> Float.compare (key x) (key y)) a;
  let n = Array.length a in
  if n = 0 then []
  else
    let lo = n * 45 / 100 in
    let hi = max (lo + 1) (n * 55 / 100) in
    Array.to_list (Array.sub a lo (min n hi - lo))
