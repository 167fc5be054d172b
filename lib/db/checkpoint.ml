(* Checkpoint ladder: periodic catalog snapshots taken every [every]
   committed statements, written out as a recovery file (UCKPv1).

   Rungs are kept newest-first. The ladder is capped: when it would
   exceed [max_rungs], every other rung (the odd positions, counting
   from the newest) is dropped and the stride doubles, so the ladder
   covers an arbitrarily long history with bounded memory — a classic
   exponential-thinning schedule. Snapshots share row arrays with the
   live tables (rows are replaced, never mutated in place), so a rung
   costs one hashtable copy per table, not a deep copy of every row. *)

type rung = { at : int; cat : Catalog.t }

type t = {
  mutable every : int;
  mutable rungs : rung list; (* descending by [at] *)
  bounds : (int, unit) Hashtbl.t;
      (* segment boundaries a rung must land on, beyond the stride:
         aligning rungs with Log_store segment seals means a recovery
         re-reads at most one segment tail *)
}

let max_rungs = 64

let create ~every =
  if every <= 0 then invalid_arg "Checkpoint.create: every must be positive";
  { every; rungs = []; bounds = Hashtbl.create 16 }

let count t = List.length t.rungs

let set_boundaries t idxs =
  Hashtbl.reset t.bounds;
  List.iter (fun i -> if i > 0 then Hashtbl.replace t.bounds i ()) idxs

let due t n =
  n > 0
  && (n mod t.every = 0 || Hashtbl.mem t.bounds n)
  && (match t.rungs with r :: _ -> r.at < n | [] -> true)

let thin t =
  (* keep even positions (newest = position 0), double the stride *)
  let kept, _ =
    List.fold_left
      (fun (acc, pos) r -> ((if pos mod 2 = 0 then r :: acc else acc), pos + 1))
      ([], 0) t.rungs
  in
  t.rungs <- List.rev kept;
  t.every <- 2 * t.every

let record t cat n =
  t.rungs <- { at = n; cat = Catalog.snapshot cat } :: t.rungs;
  if List.length t.rungs > max_rungs then thin t

let invalidate_from t n = t.rungs <- List.filter (fun r -> r.at < n) t.rungs

let rungs t = List.map (fun r -> (r.at, r.cat)) t.rungs
