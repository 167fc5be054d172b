(* Seeded application histories. Every bundled app runs in Raw mode, so
   the log holds the application's plain SQL statements — the
   granularity the plan cache compiles and the replay set is drawn at. *)

open Uv_db
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module Prng = Uv_util.Prng

type history = {
  app : W.t;
  eng : Engine.t;
  base : Catalog.t;  (* the populated catalog the history starts from *)
  invoke_us : float list;  (* one Runtime.invoke per transaction *)
}

let invoke rt calls =
  List.map
    (fun { W.txn; args } ->
      let _, ms = Measure.time (fun () -> R.invoke rt ~mode:R.Raw txn args) in
      ms *. 1000.0)
    calls

(* A history of at least [entries] log entries: transactions are drawn two
   at a time until the log is that long. Sized by transactions, TPC-C's
   six statements per transaction would give it six times Epinions'
   history, and its questions would dominate every tail. *)
let execute ~seed ~entries ~dep_rate (app : W.t) =
  let eng, rt = W.setup ~seed ~mode:R.Raw app in
  let base = Engine.snapshot eng in
  let prng = Prng.create (seed + 1) in
  let invoke_us = ref [] in
  while Log.length (Engine.log eng) < entries do
    invoke_us := invoke rt (app.W.generate prng ~scale:1 ~n:2 ~dep_rate) @ !invoke_us
  done;
  { app; eng; base; invoke_us = !invoke_us }

(* small segments, so a question streams sealed files the way a long
   history would, and a sync rewrites at most one short tail *)
let segment_cap = 256

let persist ~dir eng =
  let store = Log_store.open_ ~segment_cap (Measure.fresh_dir dir) in
  Log_store.append_log store (Engine.log eng);
  Log_store.close store

let writers log =
  Array.of_list
    (List.filter_map
       (fun e -> if Measure.is_writer e.Log.stmt then Some e.Log.index else None)
       (Log.entries log))

(* [k] question targets from the writers in the [from, to_) slice of
   [writers]: one drawn uniformly inside each of [k] equal strata, then
   shuffled. Stratifying keeps every seed's sequence spread over the
   whole slice, so its tail percentiles do not hinge on a lucky draw. *)
let taus ~seed writers ~from ~to_ ~k =
  let prng = Prng.create seed in
  let n = Array.length writers in
  let lo = min (n - 1) (int_of_float (from *. float_of_int n)) in
  let hi = max (lo + 1) (int_of_float (to_ *. float_of_int n)) in
  let width = float_of_int (hi - lo) /. float_of_int k in
  let t =
    Array.init k (fun i ->
        let a = lo + int_of_float (float_of_int i *. width) in
        let b = lo + int_of_float (float_of_int (i + 1) *. width) - 1 in
        writers.(Prng.int_range prng a (max a (min (hi - 1) b))))
  in
  Prng.shuffle prng t;
  t
