open Uv_sql
module Analyzer = Uv_retroactive.Analyzer
module Rwset = Uv_retroactive.Rwset
module Log = Uv_db.Log
module T = Template_extract
module M = Template_matrix

type assigned = {
  tid : int;
  binding : (string * Value.t) list;
  mutable gvals : (string * string) list;
      (* table -> canonical guard value; recomputed when the analyzer's
         RI merge generation moves *)
}

type t = {
  set : T.set;
  matrix : M.t;
  assign : assigned option array;
  by_tid : (int, int list) Hashtbl.t;  (* entry indexes, newest first *)
  mutable by_gval : (string, int list) Hashtbl.t;
      (* "tid|table|canonical value" -> entry indexes, newest first *)
  unmatched : int list;  (* ascending *)
  n : int;
  mutable generation : int;
}

let unmatched fp = fp.unmatched

let assignment fp i =
  if i < 1 || i > fp.n then None
  else
    Option.map (fun a -> (a.tid, a.binding)) fp.assign.(i - 1)

let matched_count fp = fp.n - List.length fp.unmatched

let guard_values fp i =
  if i < 1 || i > fp.n then []
  else match fp.assign.(i - 1) with None -> [] | Some a -> a.gvals

let gkey tid table cv = string_of_int tid ^ "|" ^ table ^ "|" ^ cv

let canonical_gval anl matrix ~tid ~table v =
  if M.guard_on_dim0 matrix ~id:tid ~table then
    Analyzer.canonical_row_value anl ~table v
  else Value.serialize v

let compute_gvals anl matrix ~tid binding =
  List.filter_map
    (fun (table, _) ->
      match M.guard_value matrix ~id:tid ~table binding with
      | None -> None
      | Some (_gcol, v) ->
          Some (table, canonical_gval anl matrix ~tid ~table v))
    (M.guards matrix tid)

let push tbl key i =
  let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  Hashtbl.replace tbl key (i :: prev)

let rebuild_gvals fp anl =
  let by_gval = Hashtbl.create 256 in
  Array.iteri
    (fun j a ->
      match a with
      | None -> ()
      | Some a ->
          a.gvals <- compute_gvals anl fp.matrix ~tid:a.tid a.binding;
          List.iter
            (fun (table, cv) -> push by_gval (gkey a.tid table cv) (j + 1))
            a.gvals)
    fp.assign;
  fp.by_gval <- by_gval;
  fp.generation <- Analyzer.row_merge_generation anl

let refresh fp anl =
  if Analyzer.row_merge_generation anl <> fp.generation then
    rebuild_gvals fp anl

let prepare ~set ~matrix anl =
  (* every entry is matched against the templates *)
  Analyzer.require anl ~from:1;
  let n = Analyzer.length anl in
  (* DDL anywhere in the history invalidates the statically computed
     template sets for entries after it; degrade the whole history to
     the dynamic path (sound, and workload histories carry no DDL) *)
  let has_ddl = ref false in
  for i = 1 to n do
    if Passes.contains_ddl (Analyzer.info anl i).Analyzer.stmt then
      has_ddl := true
  done;
  let assign = Array.make n None in
  let by_tid = Hashtbl.create 64 in
  let unmatched = ref [] in
  for i = 1 to n do
    let inf = Analyzer.info anl i in
    match
      if !has_ddl then None else T.match_entry set inf.Analyzer.stmt
    with
    | Some (tpl, binding) ->
        assign.(i - 1) <- Some { tid = tpl.T.id; binding; gvals = [] };
        push by_tid tpl.T.id i
    | None -> unmatched := i :: !unmatched
  done;
  let fp =
    {
      set;
      matrix;
      assign;
      by_tid;
      by_gval = Hashtbl.create 256;
      unmatched = List.rev !unmatched;
      n;
      generation = min_int;
    }
  in
  rebuild_gvals fp anl;
  fp

(* ------------------------------------------------------------------ *)
(* Column-closure candidate generator                                   *)
(* ------------------------------------------------------------------ *)

let overlap a b = not (Rwset.Colset.is_empty (Rwset.Colset.inter a b))

let dyn_conflict (a : Rwset.rw) (b : Rwset.rw) =
  overlap a.Rwset.w b.Rwset.r
  || overlap a.Rwset.r b.Rwset.w
  || overlap a.Rwset.w b.Rwset.w

(* The entries [>= tau] of a newest-first bucket, oldest first: what
   [List.rev] of the whole bucket would give once the entries below τ
   are dropped, in O(entries >= tau). *)
let since tau bucket =
  let rec go acc = function
    | i :: rest when i >= tau -> go (i :: acc) rest
    | _ -> acc
  in
  go [] bucket

(* Shared pruning cache for one closure run: each bucket is copied on
   first use and re-filtered on every scan, dropping entries that can
   never join again ([live] is monotone towards false). Offered
   candidates are the live entries past [min_idx]; live entries at or
   before [min_idx] are kept for members seeded with a lower bound. *)
let scan_pruned cache ~live ~min_idx ~offer key fetch =
  let entries =
    match Hashtbl.find_opt cache key with Some l -> l | None -> fetch ()
  in
  let kept =
    List.filter
      (fun i ->
        if live i then begin
          if i > min_idx then offer i;
          true
        end
        else false)
      entries
  in
  Hashtbl.replace cache key kept

(* The asking side of one candidate request: a matched template instance
   (seed or member), or nothing — then candidates come from a dynamic
   scan over the per-statement sets. *)
let make_col_joins fp anl ~refined ~(seed : assigned list option) ~tau ~live =
  let cache : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  let scan = scan_pruned cache ~live in
  let bucket tbl key =
    since tau (Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  let first = ref true in
  fun ~min_idx (rw : Rwset.rw) (_rows : Uv_retroactive.Rowset.entry_rows) ->
    let acc = ref [] in
    let offer i = acc := i :: !acc in
    let reads_live = not (Rwset.Colset.is_empty rw.Rwset.r) in
    let writes_live = not (Rwset.Colset.is_empty rw.Rwset.w) in
    let offer_matched (a : assigned) =
      List.iter
        (fun (bid, (p : M.pair)) ->
          let dir_ok =
            (writes_live && (p.M.ww <> [] || p.M.wr <> []))
            || (reads_live && p.M.rw <> [])
          in
          if dir_ok then
            if refined && p.M.prunable then
              List.iter
                (fun tbl ->
                  match List.assoc_opt tbl a.gvals with
                  | Some cv ->
                      scan ~min_idx ~offer (gkey bid tbl cv) (fun () ->
                          bucket fp.by_gval (gkey bid tbl cv))
                  | None ->
                      scan ~min_idx ~offer ("t|" ^ string_of_int bid)
                        (fun () -> bucket fp.by_tid bid))
                p.M.guard_tables
            else
              scan ~min_idx ~offer ("t|" ^ string_of_int bid) (fun () ->
                  bucket fp.by_tid bid))
        (M.pairs_for fp.matrix a.tid)
    in
    let offer_dynamic () =
      for j = max tau (min_idx + 1) to fp.n do
        if
          live j
          && dyn_conflict rw (Analyzer.info anl j).Analyzer.rw
        then offer j
      done
    in
    let offer_unmatched () =
      List.iter
        (fun j ->
          if
            live j && j > min_idx
            && dyn_conflict rw (Analyzer.info anl j).Analyzer.rw
          then offer j)
        fp.unmatched
    in
    let asking =
      if !first then begin
        first := false;
        match seed with Some s -> `Matched s | None -> `Dynamic
      end
      else
        match fp.assign.(min_idx - 1) with
        | Some a -> `Matched [ a ]
        | None -> `Dynamic
    in
    (match asking with
    | `Matched instances ->
        List.iter offer_matched instances;
        offer_unmatched ()
    | `Dynamic -> offer_dynamic ());
    !acc

(* Seed template instances for a target: [Remove]/[Change] use the
   stamped assignment of the entry at τ; [Add]/[Change] match the new
   statement on the fly. [None] — any unmatched component — degrades the
   whole seed to the dynamic scan. *)
let seed_spec fp anl (target : Analyzer.target) =
  let of_entry tau =
    if tau >= 1 && tau <= fp.n then fp.assign.(tau - 1) else None
  in
  let of_stmt stmt =
    match T.match_entry fp.set stmt with
    | None -> None
    | Some (tpl, binding) ->
        Some
          {
            tid = tpl.T.id;
            binding;
            gvals = compute_gvals anl fp.matrix ~tid:tpl.T.id binding;
          }
  in
  match target.Analyzer.op with
  | Analyzer.Remove ->
      Option.map (fun a -> [ a ]) (of_entry target.Analyzer.tau)
  | Analyzer.Add stmt -> Option.map (fun a -> [ a ]) (of_stmt stmt)
  | Analyzer.Change stmt -> (
      match (of_entry target.Analyzer.tau, of_stmt stmt) with
      | Some a, Some b -> Some [ a; b ]
      | _ -> None)

let replay_set ?obs ?(refined = true) ?mode fp anl target =
  refresh fp anl;
  (* the disjointness refinement reasons about rows: pruning a
     column-wise candidate is only covered by Theorem E.20's
     intersection when the row closure runs too *)
  let refined =
    refined && match mode with None | Some Analyzer.Cell -> true | Some _ -> false
  in
  let seed = seed_spec fp anl target in
  Analyzer.replay_set ?obs ?mode
    ~col_joins:(make_col_joins fp anl ~refined ~seed)
    anl target
