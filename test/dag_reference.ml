(* Two checks of [Analyzer.replay_dag], both reading the analyzer through
   its interface only and keying rows by canonical value strings, so they
   share no key space with the analyzer's int row keys.

   [check] holds the DAG to a string-keyed reference of its rule: each
   member's edges are recomputed from every earlier member's accesses
   (no incremental cell state), and the edge sets and waves must be
   equal. Then it runs [check_orders], which does not depend on the
   rule: every pair of members that needs ordering is joined by a DAG
   path, and every edge is such a pair. Row values are canonicalised
   under the analyzer's merge state, which only the history's own
   merges move; a question's merges stay in the question, and come as
   [merges], each class one token. *)

open Uv_retroactive

let table_of_col c =
  match String.index_opt c '.' with Some i -> String.sub c 0 i | None -> c

(* A token of [table] that a target merged ([merges], as
   [Analyzer.replay_set]'s [target_merges]) stands for its class: the
   class's root. *)
let one_token merges table tok =
  match List.find_opt (fun (tb, v, _) -> tb = table && v = tok) merges with
  | Some (_, _, root) -> root
  | None -> tok

(* [inf]'s row tokens of [table] on one side: canonical first-dimension
   values, one per class of [merges], or "*" for any row (an [Any] set,
   or a table without row sets). *)
let entry_row_tokens ~merges anl (inf : Analyzer.info) table ~write =
  match List.assoc_opt table inf.Analyzer.rows with
  | Some access when Array.length access > 0 -> (
      let rs = if write then access.(0).Rowset.dw else access.(0).Rowset.dr in
      match rs with
      | Rowset.Any -> [ "*" ]
      | Rowset.Vals s ->
          Rowset.Vset.fold
            (fun v acc ->
              one_token merges table
                (Analyzer.canonical_row_value anl ~table (Uv_sql.Value.deserialize v))
              :: acc)
            s [])
  | _ -> [ "*" ]

(* An access: a cell group (a column, or a table for the row rule), a
   row token and whether it writes. *)
type access = { group : string; tok : string; write : bool }

(* Member [i]'s accesses: each column it reads or writes, per token of
   that side; each column of its unkeyed uniqueness guards, read at any
   row (the engine checks them against every row); and each real table
   it writes, per written token. *)
let accesses ~merges anl i =
  let inf = Analyzer.info anl i in
  let guards =
    List.concat_map
      (List.map (fun c -> { group = c; tok = "*"; write = false }))
      (Analyzer.unkeyed_guards anl i)
  in
  let on_cols s ~write =
    Rwset.Colset.fold
      (fun c acc ->
        List.map
          (fun tok -> { group = c; tok; write })
          (entry_row_tokens ~merges anl inf (table_of_col c) ~write)
        @ acc)
      s []
  in
  on_cols inf.Analyzer.rw.Rwset.r ~write:false
  @ guards
  @ on_cols inf.Analyzer.rw.Rwset.w ~write:true
  @ List.concat_map
      (fun table ->
        List.map
          (fun tok -> { group = "table " ^ table; tok; write = true })
          (entry_row_tokens ~merges anl inf table ~write:true))
      (Analyzer.write_tables inf.Analyzer.rw)

(* ------------------------------------------------------------------ *)
(* The rule, recomputed from the earlier members' accesses             *)
(* ------------------------------------------------------------------ *)

(* The members access [a] orders after, given the earlier accesses [h]
   to its group, oldest first. [last p] is the position in [h] of the
   latest access satisfying [p], or -1; the cell of token [x] was last
   written at [lw x], by a write of [x] or a wildcard one. *)
let rule_preds (h : (int * access) array) (a : access) =
  let last p =
    let rec go k = if k < 0 || p (snd h.(k)) then k else go (k - 1) in
    go (Array.length h - 1)
  in
  let member k = if k >= 0 then [ fst h.(k) ] else [] in
  let lw x = last (fun b -> b.write && (b.tok = x || b.tok = "*")) in
  let reads_after k p =
    List.filter_map Fun.id
      (List.mapi
         (fun j (m, b) -> if j > k && (not b.write) && p b then Some m else None)
         (Array.to_list h))
  in
  let toks =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, b) -> if b.tok = "*" then None else Some b.tok)
         (Array.to_list h))
  in
  let w0 = last (fun b -> b.write && b.tok = "*") in
  match (a.tok, a.write) with
  | "*", false ->
      (* the wildcard writer, and each key's last writer since *)
      member w0
      @ List.concat_map
          (fun x ->
            let k = last (fun b -> b.write && b.tok = x) in
            if k > w0 then member k else [])
          toks
  | "*", true ->
      member w0
      @ reads_after w0 (fun b -> b.tok = "*")
      @ List.concat_map
          (fun x ->
            let k = last (fun b -> b.write && b.tok = x) in
            (if k > w0 then member k else [])
            @ reads_after (lw x) (fun b -> b.tok = x))
          toks
  | x, false -> member (lw x)
  | x, true ->
      let k = lw x in
      member k @ reads_after k (fun b -> b.tok = x || b.tok = "*")

let edges ~merges anl ~members =
  let history : (string, (int * access) list) Hashtbl.t = Hashtbl.create 64 in
  let earlier g =
    Array.of_list (List.rev (Option.value (Hashtbl.find_opt history g) ~default:[]))
  in
  List.concat_map
    (fun i ->
      let own = accesses ~merges anl i in
      let preds =
        List.concat_map (fun a -> rule_preds (earlier a.group) a) own
      in
      List.iter
        (fun a ->
          Hashtbl.replace history a.group
            ((i, a) :: Option.value (Hashtbl.find_opt history a.group) ~default:[]))
        own;
      List.filter_map (fun j -> if j <> i then Some (i, j) else None) preds)
    members
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Ordering, whatever the rule                                          *)
(* ------------------------------------------------------------------ *)

(* [i] and [j] must keep commit order: they share a (column, row) cell
   that one of them writes, or both write one (table, row), or one
   writes a column of the other's unkeyed uniqueness guard. Rows meet on
   an equal token or a wildcard. *)
let needs_order ai aj =
  List.exists
    (fun a ->
      List.exists
        (fun b ->
          a.group = b.group
          && (a.write || b.write)
          && (a.tok = b.tok || a.tok = "*" || b.tok = "*"))
        aj)
    ai

(* Every pair of [members] that needs ordering is joined by a DAG path,
   and every edge joins such a pair. *)
let check_orders ?(merges = []) ~label anl members =
  let dag = Analyzer.replay_dag ~merges anl ~members in
  let nodes = Array.of_list members in
  let n = Array.length nodes in
  let pos = Hashtbl.create n in
  Array.iteri (fun p i -> Hashtbl.replace pos i p) nodes;
  let acc = Array.map (accesses ~merges anl) nodes in
  let needs i j = needs_order acc.(Hashtbl.find pos i) acc.(Hashtbl.find pos j) in
  List.iter
    (fun (l, e) ->
      if not (needs l e) then
        Alcotest.failf "%s: edge #%d -> #%d joins members that need no order"
          label l e)
    (Conflict_dag.edges dag);
  (* [reach.(p).(q)]: a path leads from [p] back to [q] *)
  let reach = Array.init n (fun _ -> Array.make n false) in
  List.iter
    (fun (l, e) ->
      reach.(Hashtbl.find pos l).(Hashtbl.find pos e) <- true)
    (Conflict_dag.edges dag);
  for p = 0 to n - 1 do
    for q = p - 1 downto 0 do
      if reach.(p).(q) then
        Array.iteri (fun r b -> if b then reach.(p).(r) <- true) reach.(q)
    done
  done;
  for p = 0 to n - 1 do
    for q = 0 to p - 1 do
      if (not reach.(p).(q)) && needs_order acc.(p) acc.(q) then
        Alcotest.failf "%s: #%d and #%d need ordering but no path joins them"
          label nodes.(p) nodes.(q)
    done
  done

(* [Analyzer.replay_dag]'s edges and waves over [members] equal the
   reference's, and [check_orders] holds. *)
let check ?(merges = []) ~label anl members =
  let want = edges ~merges anl ~members in
  let dag = Analyzer.replay_dag ~merges anl ~members in
  Alcotest.check Alcotest.(list (pair int int)) (label ^ ": edges") want (Conflict_dag.edges dag);
  Alcotest.check
    Alcotest.(list (list int))
    (label ^ ": waves")
    (Conflict_dag.waves (Conflict_dag.build ~nodes:members ~edges:want))
    (Conflict_dag.waves dag);
  check_orders ~merges ~label anl members
