(* Host-speed calibration.

   The ledger runs on shared hosts whose speed drifts by tens of percent
   within seconds, and halves for minutes: ten runs of one workload gave
   p99 latencies that spread 28% (IQR over median). So every time the
   ledger reports is scaled to a reference speed. A probe times a fixed
   kernel, which touches nothing of the program under test; probes run
   between samples, and a sample's wall time is multiplied by
   [reference_ms] over the median of the probes around it. A change to
   the program moves the scaled time as it moves the wall time; a slow
   spell of the host slows the kernel too, and mostly cancels out.

   The kernel does not allocate, so the program's heap and its collector
   do not reach into it: a change that makes the program's collections
   dearer slows its questions and leaves the kernel as it was. A probe
   keeps the fastest of three runs of each part, so a one-off preemption
   does not reach into it either. *)

(* about a probe's time on the 2-core host the ledger was tuned on, in a
   quiet spell: scaled times read in milliseconds of that host *)
let reference_ms = 0.5

(* the least time between probes *)
let every_ms = 10.0

let mix x =
  let x = x lxor (x lsr 17) in
  let x = x * 0x2c1b3c6d in
  x lxor (x lsr 13)

(* plain arithmetic *)
let arith () =
  let x = ref 7 in
  for _ = 1 to 60_000 do
    x := mix !x
  done;
  !x

(* Writes, then reads, 512 KB of an 8 MB region, a different stretch each
   time: the stretch was last touched sixteen streams ago, so it comes
   from the shared last-level cache, or from memory when the host's
   neighbours have pushed it out. Bytes, not an array, so the collector
   never scans the region. *)
let region = Bytes.create (8 lsl 20)
let stretch = 512 * 1024
let cursor = ref 0

let stream () =
  let base = !cursor in
  cursor := (base + stretch) mod Bytes.length region;
  for i = 0 to (stretch / 8) - 1 do
    Bytes.set_int64_le region (base + (8 * i)) (Int64.of_int (i lxor base))
  done;
  let s = ref 0 in
  for i = 0 to (stretch / 8) - 1 do
    s := !s + Int64.to_int (Bytes.get_int64_le region (base + (8 * i)))
  done;
  !s

let fastest f =
  let once () =
    let t0 = Measure.now () in
    ignore (Sys.opaque_identity (f ()));
    Measure.now () -. t0
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

(* A what-if waits on the shared cache and memory, and on plain
   arithmetic, and a slow spell of a shared host slows the two by
   different shares, so the kernel has a part of each. Of the kernels
   tried against ten runs of every workload, this pair tracked the
   questions' slowdowns best; arithmetic alone, or random reads of a
   2 MB table, did far worse. *)
let probe () = fastest stream +. fastest arith

(* a sample is scaled by the median of the probes within this many of
   the interval it lies in: enough to smooth one probe's jitter, which
   otherwise lands in the tail percentiles, and few enough (about a
   quarter of a second) to follow a slow spell *)
let radius = 10

type t = {
  mutable probes : float list;  (* newest first *)
  mutable count : int;
  mutable since : float;  (* when the last probe was taken *)
}

let tick c =
  c.probes <- probe () :: c.probes;
  c.count <- c.count + 1;
  c.since <- Measure.now ()

let start () =
  let c = { probes = []; count = 0; since = 0.0 } in
  tick c;
  c

(* a probe is due *)
let due c = Measure.now () -. c.since >= every_ms

(* the index of the last probe: a sample taken now lies between it and
   the next one *)
let mark c = c.count - 1

(* Once every probe is in: the factor that scales the wall time of a
   sample taken under [mark] [i]. *)
let scale c =
  let a = Array.of_list (List.rev c.probes) in
  let n = Array.length a in
  fun i ->
    let lo = max 0 (i - radius) and hi = min n (i + radius + 2) in
    reference_ms /. Sample.percentile (Array.to_list (Array.sub a lo (hi - lo))) 0.5

(* how fast the host ran, as a share of the reference speed: the median
   probe over the run *)
let speed c = reference_ms /. Sample.percentile c.probes 0.5

(* A run's set-ups, timed in steps with a probe after each step. *)
module Setups = struct
  type cal = t

  type t = {
    cal : cal;
    mutable current : int;  (* the set-up under way, from 1 *)
    mutable steps : (int * int * float) list;  (* set-up, mark, wall ms *)
  }

  let create () = { cal = start (); current = 0; steps = [] }
  let next s = s.current <- s.current + 1

  let step s f =
    let r, wall = Measure.time f in
    s.steps <- (s.current, mark s.cal, wall) :: s.steps;
    tick s.cal;
    r

  (* each set-up's wall time and scaled time, in ms *)
  let totals s =
    let scale = scale s.cal in
    List.init s.current (fun k ->
        List.fold_left
          (fun (w, c) (k', i, wall) -> if k' = k + 1 then (w +. wall, c +. (wall *. scale i)) else (w, c))
          (0.0, 0.0) s.steps)
end
