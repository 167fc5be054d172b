(* Replay-set closure against a pairwise reference, and the cost of a warm
   what-if against the history length.

   The reference closure below shares nothing with the analyzer's shape
   and row-key postings: every later live entry is offered as a candidate
   and kept when the pair-conflict predicate holds, column-wise or
   row-wise. The analyzer must agree with it on members, counts, touched
   tables and parents in every mode, grouped and not, at τ spread over
   the whole history, for removals, additions and changes. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module Colset = Rwset.Colset

let check = Alcotest.check

let build (w : W.t) ~mode ~n =
  let eng, rt = W.setup ~mode w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate:0.3 in
  ignore (W.run_history rt ~mode calls);
  (eng, base)

let writes (inf : Analyzer.info) = not (Colset.is_empty inf.Analyzer.rw.Rwset.w)

(* τ at every k-th writer, the first and the last included; each τ is
   asked as a removal, as an addition of another writer's statement and
   as a change to that statement *)
let targets anl =
  let writers =
    List.filter
      (fun i -> writes (Analyzer.info anl i))
      (List.init (Analyzer.length anl) (fun i -> i + 1))
    |> Array.of_list
  in
  let m = Array.length writers in
  let k = max 1 (m / 8) in
  let picks =
    List.sort_uniq compare
      ((m - 1) :: List.filter (fun p -> p mod k = 0) (List.init m Fun.id))
  in
  List.concat_map
    (fun p ->
      let tau = writers.(p) in
      let other =
        Analyzer.stmt (Analyzer.info anl writers.((p + (m / 2) + 1) mod m))
      in
      [
        { Analyzer.tau; op = Analyzer.Remove };
        { Analyzer.tau; op = Analyzer.Add other };
        { Analyzer.tau; op = Analyzer.Change other };
      ])
    picks

let target_name (t : Analyzer.target) =
  Printf.sprintf "%s@%d"
    (match t.Analyzer.op with
    | Analyzer.Remove -> "remove"
    | Analyzer.Add _ -> "add"
    | Analyzer.Change _ -> "change")
    t.Analyzer.tau

(* ------------------------------------------------------------------ *)
(* The pairwise reference                                               *)
(* ------------------------------------------------------------------ *)

let meets a b = not (Colset.is_empty (Colset.inter a b))

let col_conflict (a : Rwset.rw) (b : Rwset.rw) =
  meets a.Rwset.w b.Rwset.r || meets a.Rwset.w b.Rwset.w
  || meets a.Rwset.r b.Rwset.w

let is_schema_key k = String.length k > 3 && String.sub k 0 3 = "_S."

type kind = Col | Row

let conflict anl kind ((rw : Rwset.rw), rows) j =
  let inf = Analyzer.info anl j in
  match kind with
  | Col -> col_conflict rw inf.Analyzer.rw
  | Row -> Analyzer.row_conflict anl rw rows inf

(* entries sharing each application transaction tag, ascending *)
let groups anl =
  let g = Hashtbl.create 64 in
  for i = Analyzer.length anl downto 1 do
    match (Analyzer.info anl i).Analyzer.app_txn with
    | Some tag ->
        Hashtbl.replace g tag
          (i :: Option.value (Hashtbl.find_opt g tag) ~default:[])
    | None -> ()
  done;
  fun i ->
    match (Analyzer.info anl i).Analyzer.app_txn with
    | Some tag -> Hashtbl.find g tag
    | None -> []

(* The closure's inputs: the target's sets (unioned over its transaction
   at group granularity, a removed statement's reads dropped) and the
   entries kept out of the replay set. *)
let seed_of anl ~grouped ~group_of (target : Analyzer.target) =
  let n = Analyzer.length anl in
  let tau = target.Analyzer.tau in
  let group =
    if grouped && tau >= 1 && tau <= n && group_of tau <> [] then group_of tau
    else [ tau ]
  in
  let rw, rows, _ = Analyzer.target_rw anl target in
  let rw, rows =
    if not grouped then (rw, rows)
    else
      List.fold_left
        (fun (rw, rows) i ->
          let inf = Analyzer.info anl i in
          ( Rwset.union rw inf.Analyzer.rw,
            Rowset.merge_rows rows inf.Analyzer.rows ))
        (rw, rows) group
  in
  match target.Analyzer.op with
  | Analyzer.Remove ->
      let rows =
        List.map
          (fun (table, access) ->
            ( table,
              Array.map
                (fun (d : Rowset.dim_access) ->
                  { d with Rowset.dr = Rowset.Vals Rowset.Vset.empty })
                access ))
          rows
      in
      (({ rw with Rwset.r = Colset.empty }, rows), group)
  | Analyzer.Change _ -> ((rw, rows), group)
  | Analyzer.Add _ -> ((rw, rows), [])

(* Every live entry after the asking one is a candidate; the pair
   predicate decides. Returns the members, ascending. *)
let reference_closure anl ~kind ~grouped ~group_of (target : Analyzer.target)
    =
  let n = Analyzer.length anl in
  let seed, exclude = seed_of anl ~grouped ~group_of target in
  let mem = Array.make (n + 1) false in
  let live j =
    j >= target.Analyzer.tau && j <= n
    && (writes (Analyzer.info anl j) || (grouped && group_of j <> []))
    && (not mem.(j))
    && not (List.mem j exclude)
  in
  let queue = Queue.create () in
  let add j =
    if live j then begin
      mem.(j) <- true;
      Queue.push j queue
    end
  in
  let join j =
    if live j then begin
      add j;
      if grouped then List.iter add (group_of j)
    end
  in
  let offer_after min_idx sets =
    for j = min_idx + 1 to n do
      if live j && conflict anl kind sets j then join j
    done
  in
  offer_after (target.Analyzer.tau - 1) seed;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let inf = Analyzer.info anl i in
    offer_after i (inf.Analyzer.rw, inf.Analyzer.rows)
  done;
  List.filter (fun i -> mem.(i)) (List.init n (fun i -> i + 1))

let tables_of s =
  Colset.fold
    (fun key acc ->
      if is_schema_key key then String.sub key 3 (String.length key - 3) :: acc
      else
        match String.index_opt key '.' with
        | Some i -> String.sub key 0 i :: acc
        | None -> acc)
    s []

(* One question's reference closures, each computed at most once. *)
let reference_closures anl ~grouped ~group_of target =
  let memo = Hashtbl.create 3 in
  fun kind ->
    match Hashtbl.find_opt memo kind with
    | Some c -> c
    | None ->
        let c = reference_closure anl ~kind ~grouped ~group_of target in
        Hashtbl.replace memo kind c;
        c

let reference anl ~mode ~grouped ~group_of ~closure target =
  let members, col_count, row_count =
    match mode with
    | Analyzer.Col_only ->
        let c = closure Col in
        (c, List.length c, -1)
    | Analyzer.Row_only ->
        let r = closure Row in
        (r, -1, List.length r)
    | Analyzer.Cell ->
        let c = closure Col and r = closure Row in
        (List.filter (fun i -> List.mem i c) r, List.length c, List.length r)
  in
  let (seed_rw : Rwset.rw), _ = fst (seed_of anl ~grouped ~group_of target) in
  let rws =
    seed_rw :: List.map (fun i -> (Analyzer.info anl i).Analyzer.rw) members
  in
  let mutated =
    List.sort_uniq compare (List.concat_map (fun rw -> tables_of rw.Rwset.w) rws)
  in
  let consulted =
    List.sort_uniq compare (List.concat_map (fun rw -> tables_of rw.Rwset.r) rws)
    |> List.filter (fun t -> not (List.mem t mutated))
  in
  (members, col_count, row_count, mutated, consulted)

let check_against_reference ~label anl ~mode ~grouped ~group_of ~closure target
    (rs : Analyzer.replay_set) =
  let members, col_count, row_count, mutated, consulted =
    reference anl ~mode ~grouped ~group_of ~closure target
  in
  let ints = Alcotest.(list int) and strs = Alcotest.(list string) in
  check ints (label ^ " members") members rs.Analyzer.member_indexes;
  check Alcotest.int (label ^ " member_count") (List.length members)
    rs.Analyzer.member_count;
  check Alcotest.int (label ^ " one provenance per member")
    (List.length members)
    (List.length rs.Analyzer.provenance);
  check Alcotest.int (label ^ " col_only_count") col_count
    rs.Analyzer.col_only_count;
  check Alcotest.int (label ^ " row_only_count") row_count
    rs.Analyzer.row_only_count;
  check strs (label ^ " mutated") mutated rs.Analyzer.mutated;
  check strs (label ^ " consulted") consulted rs.Analyzer.consulted

(* Column-wise and row-wise parents are exact: the smallest valid
   conflict parent (0 = the target, then members of the same closure in
   index order); a group mate's parent only when the member conflicts
   with neither the target nor an earlier member. A mode without a
   closure records no parent for it. *)
let check_provenance ~label anl ~mode ~grouped ~group_of ~closure target
    (rs : Analyzer.replay_set) =
  let seed = fst (seed_of anl ~grouped ~group_of target) in
  let valid kind i = function
    | None -> false
    | Some 0 -> conflict anl kind seed i
    | Some v when v < 0 ->
        grouped && List.mem (-v) (closure kind) && List.mem i (group_of (-v))
    | Some v ->
        v < i
        && List.mem v (closure kind)
        && conflict anl kind
             (let inf = Analyzer.info anl v in
              (inf.Analyzer.rw, inf.Analyzer.rows))
             i
  in
  let via = function None -> "none" | Some v -> string_of_int v in
  (* the parent [got] of member [i] in the [kind] closure, named [what] *)
  let exact kind what i got =
    match List.find_opt (fun v -> valid kind i (Some v)) (0 :: closure kind) with
    | Some v when got <> Some v ->
        Alcotest.failf "%s: #%d has %s parent %s, expected %d" label i what
          (via got) v
    | Some _ -> ()
    | None ->
        if not (valid kind i got) then
          Alcotest.failf "%s: #%d has no %s parent" label i what
  in
  let has_col = mode = Analyzer.Col_only || mode = Analyzer.Cell in
  List.iter2
    (fun i (p : Analyzer.provenance) ->
      (if not has_col then begin
         if p.Analyzer.p_col_via <> None then
           Alcotest.failf "%s: #%d has a column-wise parent" label i
       end
       else exact Col "column-wise" i p.Analyzer.p_col_via);
      match mode with
      | Analyzer.Col_only ->
          if p.Analyzer.p_row_via <> None then
            Alcotest.failf "%s: #%d has a row-wise parent" label i
      | Analyzer.Row_only | Analyzer.Cell ->
          exact Row "row-wise" i p.Analyzer.p_row_via)
    rs.Analyzer.member_indexes rs.Analyzer.provenance

let modes =
  [
    (Analyzer.Col_only, "col-only");
    (Analyzer.Row_only, "row-only");
    (Analyzer.Cell, "cell");
  ]

(* One question in every mode, grouped and not: members, counts, touched
   tables and parents equal the reference's. *)
let check_question ~label anl ~group_of target =
  List.iter
    (fun grouped ->
      let label = label ^ if grouped then " grouped" else "" in
      let closure = reference_closures anl ~grouped ~group_of target in
      List.iter
        (fun (mode, mode_name) ->
          let label = label ^ " " ^ mode_name in
          let rs = Analyzer.replay_set ~mode ~grouped anl target in
          check_against_reference ~label anl ~mode ~grouped ~group_of ~closure
            target rs;
          check_provenance ~label anl ~mode ~grouped ~group_of ~closure target
            rs)
        modes)
    [ false; true ]

(* Two analysed histories per workload, shared by the tests below: raw
   statements (several entries per application transaction, so grouping
   matters) and transpiled calls (one entry each, larger replay sets). *)
let fixture_histories =
  lazy
    (List.concat_map
       (fun (w : W.t) ->
         List.map
           (fun (mode, mode_name) ->
             let eng, base = build w ~mode ~n:60 in
             (w.W.name ^ " " ^ mode_name, (w.W.ri_config, base, Engine.log eng)))
           [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ])
       (W.all ()))

let fixtures =
  lazy
    (List.map
       (fun (name, (config, base, log)) -> (name, Analyzer.analyze ~config ~base log))
       (Lazy.force fixture_histories))

let test_reference name () =
  let anl = List.assoc name (Lazy.force fixtures) in
  let group_of = groups anl in
  List.iter
    (fun target ->
      check_question
        ~label:(Printf.sprintf "%s %s" name (target_name target))
        anl ~group_of target)
    (targets anl)

(* Digest of every parent a Cell [replay_set] records on the fixtures.
   Row-wise parents, like column-wise ones, are exact: the earliest
   conflicting member (checked exactly above), so the digest moved once,
   when the row sweep replaced the row worklist, whose parents followed
   its candidate order. Neither may move unnoticed. *)
let expected_provenance_digest = "7b7627dd8782d658022219f86402a021"

let provenance_digest ?(asked = fun _ anl -> anl) () =
  let buf = Buffer.create 65536 in
  let via = function None -> "-" | Some v -> string_of_int v in
  List.iter
    (fun (name, fixture) ->
      let anl = asked name fixture in
      List.iter
        (fun target ->
          List.iter
            (fun grouped ->
              let rs = Analyzer.replay_set ~grouped anl target in
              Buffer.add_string buf
                (Printf.sprintf "%s %s %b:" name (target_name target) grouped);
              List.iter2
                (fun i (p : Analyzer.provenance) ->
                  Buffer.add_string buf
                    (Printf.sprintf " %d<%s,%s" i (via p.Analyzer.p_col_via)
                       (via p.Analyzer.p_row_via)))
                rs.Analyzer.member_indexes rs.Analyzer.provenance;
              Buffer.add_char buf '\n')
            [ false; true ])
        (targets fixture))
    (Lazy.force fixtures);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_provenance_digest () =
  check Alcotest.string "provenance unchanged" expected_provenance_digest
    (provenance_digest ())

let run ?app_txn e sql = ignore (Engine.exec_sql ?app_txn e sql)

(* One question's answer in one mode: members, parents, the row
   postings popped, and the replay DAG's edges and waves. *)
let answer anl ~mode ~grouped target =
  let obs = Uv_obs.Trace.create () in
  let rs = Analyzer.replay_set ~obs ~mode ~grouped anl target in
  let via = function None -> "-" | Some v -> string_of_int v in
  let parents =
    List.map
      (fun (p : Analyzer.provenance) ->
        via p.Analyzer.p_col_via ^ "," ^ via p.Analyzer.p_row_via)
      rs.Analyzer.provenance
  in
  let dag = Analyzer.replay_dag anl ~members:rs.Analyzer.member_indexes in
  ( rs.Analyzer.member_indexes,
    parents,
    Uv_obs.Trace.counter_value obs "analyze.closure_row_visits",
    Conflict_dag.edges dag,
    Conflict_dag.waves dag )

let edges = Alcotest.(list (pair int int))

(* [anl] answers [target] in every mode, grouped and not, as [want]
   does. *)
let check_same_answers ~want anl target =
  List.iter
    (fun ((mode, mode_name), grouped) ->
      let label =
        Printf.sprintf "%s %s%s" (target_name target) mode_name
          (if grouped then " grouped" else "")
      in
      let m1, p1, v1, e1, w1 = answer want ~mode ~grouped target in
      let m2, p2, v2, e2, w2 = answer anl ~mode ~grouped target in
      check Alcotest.(list int) (label ^ ": members") m1 m2;
      check Alcotest.(list string) (label ^ ": parents") p1 p2;
      check Alcotest.int (label ^ ": row visits") v1 v2;
      check edges (label ^ ": DAG edges") e1 e2;
      check Alcotest.(list (list int)) (label ^ ": DAG waves") w1 w2)
    (List.concat_map (fun m -> [ (m, false); (m, true) ]) modes)

(* [extend] across an RI merge: the first [split] entries merge nothing;
   after them, UPDATEs rewrite [t]'s RI values (1 ~ 7 ~ 4, then 2 ~ 8 ~
   5 ~ 6) and later entries reach the old rows under the new values.
   Rows 7 and 8 do not exist, but the prefix already accessed them, so
   the merges move values the prefix was keyed under. An analyzer built
   on the prefix — and asked a question there — and then extended must
   answer every question like a fresh one (members, parents, row
   postings popped, and the replay DAG's edges and waves) and like the
   pairwise reference. *)
let test_extend_across_merge () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
  for i = 1 to 3 do
    run e (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" i)
  done;
  run e "INSERT INTO u VALUES (1, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  let prefix =
    [
      (None, "UPDATE t SET v = 1 WHERE id = 1");
      (Some "A", "UPDATE t SET v = v + 1 WHERE id = 2");
      (None, "UPDATE t SET v = 2 WHERE id = 7");
      (None, "UPDATE u SET w = 1 WHERE id = 1");
      (Some "A", "UPDATE t SET v = v + 1 WHERE id = 8");
      (None, "UPDATE t SET v = v * 3 WHERE id IN (7, 8)");
      (None, "UPDATE t SET v = 5 WHERE id = 3");
    ]
  in
  let suffix =
    [
      (None, "UPDATE t SET id = 7 WHERE id = 1");
      (Some "B", "UPDATE t SET id = 8 WHERE id = 2");
      (None, "UPDATE t SET id = 4 WHERE id = 7");
      (None, "UPDATE t SET v = v + 1 WHERE id = 4");
      (Some "B", "UPDATE t SET id = 5 WHERE id = 8");
      (Some "B", "SELECT v FROM t WHERE id = 5");
      (None, "UPDATE t SET v = v * 2 WHERE id = 1");
      (None, "UPDATE t SET id = 6 WHERE id = 5");
      (None, "UPDATE t SET v = 0 WHERE id = 2");
      (None, "UPDATE u SET w = 3 WHERE id = 1");
      (None, "UPDATE t SET v = 7 WHERE id = 6");
      (None, "UPDATE t SET v = 1 WHERE v > 3");
      (None, "UPDATE t SET v = v + 1 WHERE id IN (3, 4)");
    ]
  in
  List.iter (fun (app_txn, sql) -> run ?app_txn e sql) (prefix @ suffix);
  let log = Engine.log e in
  let split = List.length prefix and full = Log.length log in
  (* merges are canonicalised under configured RI columns only *)
  let config =
    { Rowset.default_config with Rowset.ri_columns = [ ("t", [ "id" ]) ] }
  in
  let len = ref split in
  let grown =
    Analyzer.of_source ~config ~base
      (Analyzer.source_of_fun ~length:(fun () -> !len) (Log.entry log))
  in
  check Alcotest.int "the prefix merges nothing" 0
    (Analyzer.row_merge_generation grown);
  ignore
    (Analyzer.replay_set grown { Analyzer.tau = 1; op = Analyzer.Remove });
  len := full;
  ignore (Analyzer.extend grown : int);
  let fresh = Analyzer.analyze ~config ~base log in
  if Analyzer.row_merge_generation grown < 4 then
    Alcotest.fail "the suffix merged no RI values";
  check Alcotest.int "merge generations" (Analyzer.row_merge_generation fresh)
    (Analyzer.row_merge_generation grown);
  let stmt = Uv_sql.Parser.parse_stmt in
  let row4 = stmt "UPDATE t SET v = 9 WHERE id = 4" in
  let targets =
    List.init full (fun i -> { Analyzer.tau = i + 1; op = Analyzer.Remove })
    @ List.concat_map
        (fun tau ->
          [
            { Analyzer.tau; op = Analyzer.Add row4 };
            { Analyzer.tau; op = Analyzer.Change row4 };
          ])
        [ 1; split + 1; split + 3; full ]
  in
  let group_of = groups grown in
  List.iter
    (fun target ->
      check_question ~label:("merged " ^ target_name target) grown ~group_of
        target;
      check_same_answers ~want:fresh grown target)
    targets;
  let all = List.init full (fun i -> i + 1) in
  let dag anl = Analyzer.replay_dag anl ~members:all in
  check edges "every entry's DAG edges"
    (Conflict_dag.edges (dag fresh))
    (Conflict_dag.edges (dag grown))

(* A target that rewrites an RI value merges at question time: Add or
   Change [UPDATE t SET id = 2 WHERE id = 3] makes rows 2 and 3 one row
   for the target, though the history itself merges nothing. The merge
   stays in the question: the added statement reads row 3 and writes
   rows 2 and 3, the analyzer merged nothing, and the replay set
   carries the merge. Every mode's answers equal the pairwise
   reference, with exact parents, and the DAG of each mode's members
   the string-keyed reference under the question's merges. In
   [Ri_history.alias_engine]'s history, [UPDATE o SET id = 3 WHERE id =
   1] makes #3 and #4, on [c1], and #2 and #5, on id 3, address one
   row: the DAG orders #3 after #2, though their row keys differ. *)
let test_question_time_merge () =
  let question_merges ~config ~base ~log ~targets ~rows ~merged ~order =
    let anl = Analyzer.analyze ~config ~base log in
    let n = Analyzer.length anl in
    check Alcotest.int "the history merges nothing" 0
      (Analyzer.row_merge_generation anl);
    let group_of = groups anl in
    List.iter
      (fun target ->
        let label = target_name target in
        (match target.Analyzer.op with
        | Analyzer.Add _ ->
            let table, want_rows = rows in
            let _, got, _ = Analyzer.target_rw anl target in
            check Alcotest.string (label ^ ": the added statement's rows") want_rows
              (Format.asprintf "%a" Rowset.pp_access (List.assoc table got))
        | Analyzer.Change _ | Analyzer.Remove -> ());
        check Alcotest.int (label ^ ": the analyzer merged nothing") 0
          (Analyzer.row_merge_generation anl);
        check_question ~label anl ~group_of target;
        List.iter
          (fun grouped ->
            List.iter
              (fun (mode, mode_name) ->
                let rs = Analyzer.replay_set ~mode ~grouped anl target in
                let label =
                  Printf.sprintf "%s%s %s" label (if grouped then " grouped" else "") mode_name
                in
                let merges = rs.Analyzer.target_merges and members = rs.Analyzer.member_indexes in
                check
                  Alcotest.(list (triple string string string))
                  (label ^ ": merges") merged merges;
                Dag_reference.check ~merges ~label:(label ^ " DAG") anl members;
                let later, earlier = order in
                if List.mem later members && List.mem earlier members then
                  check Alcotest.bool
                    (Printf.sprintf "%s: #%d orders after #%d" label later earlier)
                    true
                    (List.mem (later, earlier)
                       (Conflict_dag.edges (Analyzer.replay_dag ~merges anl ~members))))
              modes)
          [ false; true ])
      targets;
    Dag_reference.check ~label:"every entry's DAG" anl (List.init n (fun i -> i + 1))
  in
  let config, base, log = Ri_history.merge_history () in
  question_merges ~config ~base ~log ~targets:Ri_history.merge_targets
    ~rows:("t", "r={I3} w={I2,I3}")
    ~merged:[ ("t", "I2", "I3") ]
    ~order:(5, 2);
  let config, base, e = Ri_history.alias_engine () in
  question_merges ~config ~base ~log:(Engine.log e) ~targets:Ri_history.alias_targets
    ~rows:("o", "r={I1} w={I1,I3}")
    ~merged:[ ("o", "I3", "I1") ]
    ~order:(3, 2)

(* ------------------------------------------------------------------ *)
(* Hand-built cases the fixtures may miss                               *)
(* ------------------------------------------------------------------ *)

(* Tables [t] and [u]; no entry touches [u] or the column [t.c]:
   - #2 and #5 form transaction T. At group granularity #5 joins (it
     writes [t.a] like the target #1) and pulls in #2, which sits before
     it; #4 already opened the [t.b] postings, so #2 reopens them from
     its own index and reaches #3, which nothing else reaches. #6's
     earliest column-wise parent is then #2, not #4.
   - #7 writes the schema key [_S.t] that every later statement on [t]
     reads.
   Row shapes for the row sweep, on tables of their own:
   - [z] is configured with no RI column, so its accesses carry one
     wildcard dimension against a configured count of zero (#11, #12);
   - #13 calls [mv], which reads [p] row 2 and writes [p.a] of row 1:
     its row sets are r={1,2}, w={1}, so it conflicts with #15, which
     writes [p.a] of row 2, through its read of row 2 alone;
   - #16 and #17 form transaction U; #16 only reads. *)
let hand_built () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c INT)";
  run e "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
  run e "CREATE TABLE z (k INT, v INT)";
  run e "CREATE TABLE p (id INT PRIMARY KEY, a INT, b INT)";
  run e
    "CREATE PROCEDURE mv() BEGIN DECLARE x INT; SELECT b INTO x FROM p WHERE \
     id = 2; UPDATE p SET a = x WHERE id = 1; END";
  run e "INSERT INTO t VALUES (1, 0, 0, 0)";
  run e "INSERT INTO t VALUES (2, 0, 0, 0)";
  run e "INSERT INTO u VALUES (1, 0)";
  run e "INSERT INTO z VALUES (1, 0)";
  run e "INSERT INTO p VALUES (1, 0, 0)";
  run e "INSERT INTO p VALUES (2, 0, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter
    (fun (app_txn, sql) -> run ?app_txn e sql)
    [
      (None, "UPDATE t SET a = 1 WHERE id = 1");
      (Some "T", "UPDATE t SET b = 5 WHERE id = 1");
      (None, "UPDATE t SET b = b + 1 WHERE id = 1");
      (None, "UPDATE t SET b = a WHERE id = 1");
      (Some "T", "UPDATE t SET a = a + 1 WHERE id = 1");
      (None, "UPDATE t SET b = 0 WHERE id = 1");
      (None, "ALTER TABLE t ADD COLUMN d INT");
      (None, "UPDATE t SET d = 1 WHERE id = 2");
      (None, "SELECT a, d FROM t WHERE id = 1");
      (None, "UPDATE t SET a = a + 1 WHERE id = 2");
      (None, "UPDATE z SET v = 1 WHERE k = 1");
      (None, "UPDATE z SET v = v + 1 WHERE k = 2");
      (None, "CALL mv()");
      (None, "UPDATE p SET b = 5 WHERE id = 2");
      (None, "UPDATE p SET a = 7 WHERE id = 2");
      (Some "U", "SELECT b FROM p WHERE id = 1");
      (Some "U", "UPDATE z SET v = 0 WHERE k = 3");
    ];
  let config =
    { Rowset.default_config with Rowset.ri_columns = [ ("z", []) ] }
  in
  Analyzer.analyze ~config ~base (Engine.log e)

let test_hand_built () =
  let anl = hand_built () in
  let group_of = groups anl in
  let stmt = Uv_sql.Parser.parse_stmt in
  let fresh_col = stmt "UPDATE t SET c = 9 WHERE id = 1" in
  let fresh_table = stmt "UPDATE u SET w = 1 WHERE id = 1" in
  let p_row1 = stmt "UPDATE p SET b = 9 WHERE id = 1" in
  let targets =
    List.init (Analyzer.length anl) (fun i ->
        { Analyzer.tau = i + 1; op = Analyzer.Remove })
    @ List.concat_map
        (fun tau ->
          [
            { Analyzer.tau; op = Analyzer.Add fresh_table };
            { Analyzer.tau; op = Analyzer.Add fresh_col };
            { Analyzer.tau; op = Analyzer.Change fresh_col };
          ])
        [ 1; 5; 9 ]
    @ List.concat_map
        (fun tau ->
          [
            { Analyzer.tau; op = Analyzer.Add p_row1 };
            { Analyzer.tau; op = Analyzer.Change p_row1 };
          ])
        [ 1; 11; 13; 16 ]
  in
  List.iter
    (fun target ->
      check_question ~label:("hand-built " ^ target_name target) anl ~group_of
        target)
    targets;
  (* the cases above really arise *)
  let col_via i =
    let rs =
      Analyzer.replay_set ~mode:Analyzer.Col_only ~grouped:true anl
        { Analyzer.tau = 1; op = Analyzer.Remove }
    in
    Option.bind
      (List.assoc_opt i
         (List.combine rs.Analyzer.member_indexes rs.Analyzer.provenance))
      (fun p -> p.Analyzer.p_col_via)
  in
  check Alcotest.(option int) "#2 joins as #5's mate" (Some (-5)) (col_via 2);
  check Alcotest.(option int) "#3 through the reopened cursor" (Some 2)
    (col_via 3);
  check Alcotest.(option int) "#6's earliest parent" (Some 2) (col_via 6);
  let add_fresh =
    Analyzer.replay_set anl { Analyzer.tau = 1; op = Analyzer.Add fresh_table }
  in
  check Alcotest.int "a column no entry has reaches nothing" 0
    add_fresh.Analyzer.member_count;
  let schema =
    Analyzer.replay_set ~mode:Analyzer.Cell anl
      { Analyzer.tau = 7; op = Analyzer.Remove }
  in
  check
    Alcotest.(list int)
    "the schema change's readers replay" [ 8; 10 ] schema.Analyzer.member_indexes;
  (* each case in Row_only and Cell: the analyzer's members, the pairwise
     reference's, and the set they must both be *)
  let row_case label ?(grouped = false) tau op expected =
    let target = { Analyzer.tau; op } in
    let closure = reference_closures anl ~grouped ~group_of target in
    List.iter
      (fun mode ->
        let label = label ^ " " ^ List.assoc mode modes in
        let members, _, _, _, _ =
          reference anl ~mode ~grouped ~group_of ~closure target
        in
        check Alcotest.(list int) (label ^ ", reference") expected members;
        check Alcotest.(list int) label expected
          (Analyzer.replay_set ~mode ~grouped anl target)
            .Analyzer.member_indexes)
      [ Analyzer.Row_only; Analyzer.Cell ]
  in
  (* #15 meets #13 only through #13's read of row 2 *)
  row_case "a row read meets another's row write" 13 (Analyzer.Add p_row1)
    [ 13; 14; 15 ];
  row_case "a read-only group member joins with its mate" ~grouped:true 13
    (Analyzer.Add p_row1) [ 13; 14; 15; 16; 17 ];
  row_case "wildcard-dimension rows meet" 11 Analyzer.Remove [ 12; 17 ]

(* A row-closure bridge into Cell: τ writes [t.x] of row 1; #2 reads
   row 1's [y], which τ does not write, and writes [s] row 1; #3 reads
   [t.x] of row 2 and writes [s] row 1 too. #3 meets τ by column only,
   and by row only through #2, which the column closure never reaches:
   Cell keeps #3, so a pass that derived row sets only for the column
   closure's writers would lose it. *)
let test_cell_row_bridge () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT)";
  run e "CREATE TABLE s (id INT PRIMARY KEY, u INT, w INT)";
  run e "INSERT INTO t VALUES (1, 0, 5)";
  run e "INSERT INTO t VALUES (2, 7, 0)";
  run e "INSERT INTO s VALUES (1, 0, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter (run e)
    [
      "UPDATE t SET x = 1 WHERE id = 1";
      "UPDATE s SET w = (SELECT y FROM t WHERE id = 1) WHERE id = 1";
      "UPDATE s SET u = (SELECT x FROM t WHERE id = 2) WHERE id = 1";
    ];
  let anl = Analyzer.analyze ~base (Engine.log e) in
  let group_of = groups anl in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  check_question ~label:"row bridge" anl ~group_of target;
  List.iter
    (fun (mode, mode_name) ->
      check
        Alcotest.(list int)
        ("row bridge " ^ mode_name)
        (match mode with
        | Analyzer.Col_only -> [ 3 ]
        | Analyzer.Row_only -> [ 2; 3 ]
        | Analyzer.Cell -> [ 3 ])
        (Analyzer.replay_set ~mode anl target).Analyzer.member_indexes)
    modes

(* ------------------------------------------------------------------ *)
(* A warm question's cost does not follow the history length            *)
(* ------------------------------------------------------------------ *)

(* τ and its dependents write table [a]; the padding writes only [b], so
   both histories have the same replay set *)
let padded_history ~pad =
  let e = Engine.create () in
  run e "CREATE TABLE a (id INT PRIMARY KEY, v INT)";
  run e "CREATE TABLE b (id INT PRIMARY KEY, v INT)";
  for i = 1 to 4 do
    run e (Printf.sprintf "INSERT INTO a VALUES (%d, 0)" i)
  done;
  run e "INSERT INTO b VALUES (1, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  for i = 1 to 8 do
    run e
      (Printf.sprintf "UPDATE a SET v = v + %d WHERE id = %d" i (1 + (i mod 2)))
  done;
  for i = 1 to pad do
    run e (Printf.sprintf "UPDATE b SET v = %d WHERE id = 1" i)
  done;
  (e, base)

(* A service over [padded_history ~pad] that has answered τ = 1 once:
   the warm-up's outcome and a function asking it again. *)
let warm_service ?obs ?(workers = 1) ?hash_jumper ~pad () =
  let e, base = padded_history ~pad in
  let svc =
    Whatif.Service.create
      ~config:(Whatif.Config.make ~workers ?hash_jumper ?obs ())
      ~base e
  in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let ask () =
    match Whatif.Service.run svc target with
    | Ok r -> r.Whatif.Service.outcome
    | Error err -> Alcotest.fail (Whatif.Error.to_string err)
  in
  (ask (), ask)

(* Ask a warm question of a padded history: (members, minor words,
   direct major words). *)
let question_words ~pad = function
  | `Service ->
      let warm, ask = warm_service ~pad () in
      let members, minor, major =
        Alloc.words_of (fun () -> (ask ()).Whatif.replay.Analyzer.member_indexes)
      in
      check Alcotest.(list int) "same replay set as the warm-up"
        warm.Whatif.replay.Analyzer.member_indexes members;
      (members, minor, major)
  | `Direct (mode, grouped) ->
      let e, base = padded_history ~pad in
      let anl = Analyzer.analyze ~base (Engine.log e) in
      let ask () =
        (Analyzer.replay_set ~mode ~grouped anl
           { Analyzer.tau = 1; op = Analyzer.Remove })
          .Analyzer.member_indexes
      in
      let warm = ask () in
      let members, minor, major = Alloc.words_of ask in
      check Alcotest.(list int) "same replay set as the warm-up" warm members;
      (members, minor, major)

(* heap pops of the column-wise closure for one warm question *)
let col_visits_of_question ~pad =
  let obs = Uv_obs.Trace.create () in
  let _, ask = warm_service ~obs ~pad () in
  let before = Uv_obs.Trace.counter_value obs "analyze.closure_col_visits" in
  ignore (ask ());
  Uv_obs.Trace.counter_value obs "analyze.closure_col_visits" - before

(* replay-DAG edges one warm question builds, and whether the trace of
   both questions holds the DAG build's [cluster] span *)
let edges_of_question ?hash_jumper ~workers ~pad () =
  let obs = Uv_obs.Trace.create () in
  let _, ask = warm_service ~obs ~workers ?hash_jumper ~pad () in
  let before = Uv_obs.Trace.counter_value obs "replay.edges" in
  ignore (ask ());
  let trace = Uv_obs.Trace.chrome_string obs in
  let cluster = {|"cluster"|} in
  let rec has i =
    i + String.length cluster <= String.length trace
    && (String.sub trace i (String.length cluster) = cluster || has (i + 1))
  in
  (Uv_obs.Trace.counter_value obs "replay.edges" - before, has 0)

(* The waves build the DAG. A Hash-jumper question replays in commit
   order, and at one lane its cost model takes the commit-order sum, so
   nothing builds one. *)
let test_edges_flat_in_history () =
  let small, clustered = edges_of_question ~workers:2 ~pad:1000 () in
  let large, _ = edges_of_question ~workers:2 ~pad:4000 () in
  if small = 0 then Alcotest.fail "the replay DAG had no edge";
  check Alcotest.bool "the waves record a cluster span" true clustered;
  check Alcotest.int "replay-DAG edges, 1 008 vs 4 008 entries" small large;
  let one, clustered =
    edges_of_question ~hash_jumper:true ~workers:1 ~pad:1000 ()
  in
  check Alcotest.int "replay-DAG edges, commit order at one lane" 0 one;
  check Alcotest.bool "no cluster span, commit order at one lane" false
    clustered

let test_col_visits_flat_in_history () =
  let small = col_visits_of_question ~pad:1000 in
  let large = col_visits_of_question ~pad:4000 in
  if small = 0 then Alcotest.fail "the column-wise closure popped nothing";
  check Alcotest.int "column-wise closure pops, 1 008 vs 4 008 entries" small
    large

(* The column-wise closure opens each statement shape it reaches once
   per ungrouped question, and a shape is reached iff it has a member:
   one question's visits (heap pops) are exactly the distinct shapes of
   its column closure's members, as the pairwise reference finds them,
   so at most its members plus the target group it keeps out ([τ] for a
   removal or a change, nothing for an addition). Asked in Col_only and
   Cell on the padded history and on the fixtures, at every reference
   τ. *)
let test_col_visits_join () =
  let visits_bounded label anl =
    let group_of = groups anl in
    List.iter
      (fun target ->
        let closure =
          reference_closure anl ~kind:Col ~grouped:false ~group_of target
        in
        let shapes = Uv_sql.Shape.Tbl.create 16 in
        List.iter
          (fun i ->
            Uv_sql.Shape.Tbl.replace shapes
              (Analyzer.info anl i).Analyzer.shape ())
          closure;
        List.iter
          (fun (mode, mode_name) ->
            let obs = Uv_obs.Trace.create () in
            let rs = Analyzer.replay_set ~obs ~mode anl target in
            let visits =
              Uv_obs.Trace.counter_value obs "analyze.closure_col_visits"
            in
            let excluded =
              match target.Analyzer.op with Analyzer.Add _ -> 0 | _ -> 1
            in
            let label =
              Printf.sprintf "%s %s %s" label (target_name target) mode_name
            in
            check Alcotest.int (label ^ ": column visits == member shapes")
              (Uv_sql.Shape.Tbl.length shapes) visits;
            if visits > rs.Analyzer.col_only_count + excluded then
              Alcotest.failf
                "%s: %d column visits for %d members and %d excluded"
                label visits rs.Analyzer.col_only_count excluded)
          [ (Analyzer.Col_only, "col-only"); (Analyzer.Cell, "cell") ])
      (targets anl)
  in
  let e, base = padded_history ~pad:1000 in
  visits_bounded "padded" (Analyzer.analyze ~base (Engine.log e));
  List.iter (fun (name, anl) -> visits_bounded name anl) (Lazy.force fixtures)

(* Row visits of one warm question: postings the row sweep pops. *)
let row_visits_of_question ~pad =
  let obs = Uv_obs.Trace.create () in
  let e, base = padded_history ~pad in
  let anl = Analyzer.analyze ~base (Engine.log e) in
  let ask () =
    ignore
      (Analyzer.replay_set ~obs anl { Analyzer.tau = 1; op = Analyzer.Remove })
  in
  ask ();
  let before = Uv_obs.Trace.counter_value obs "analyze.closure_row_visits" in
  ask ();
  Uv_obs.Trace.counter_value obs "analyze.closure_row_visits" - before

let test_row_visits_flat_in_history () =
  let small = row_visits_of_question ~pad:1000 in
  let large = row_visits_of_question ~pad:4000 in
  if small = 0 then Alcotest.fail "the row sweep popped nothing";
  check Alcotest.int "row visits, 1 008 vs 4 008 entries" small large

(* One Cell removal on a workload history of [n] calls at [dep_rate]
   (Raw mode, PRNG seed 92), at the first writer up to 80 whose removal
   has 1–32 members (else the first with any, else entry 1): a replay
   set that stays small while the history grows. Returns (history
   length, τ, the replay set, row visits, column visits). *)
let workload_question (w : W.t) ~n ~dep_rate =
  let eng, rt = W.setup ~mode:R.Raw w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 92 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate in
  ignore (W.run_history rt ~mode:R.Raw calls);
  let log = Engine.log eng in
  let anl = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let len = Log.length log in
  let removal tau = { Analyzer.tau; op = Analyzer.Remove } in
  let rec pick i fallback =
    if i > len || i > 80 then Option.value fallback ~default:1
    else if not (writes (Analyzer.info anl i)) then pick (i + 1) fallback
    else
      let m = (Analyzer.replay_set anl (removal i)).Analyzer.member_count in
      if m > 0 && m <= 32 then i
      else pick (i + 1) (if fallback = None && m > 0 then Some i else fallback)
  in
  let tau = pick 1 None in
  let obs = Uv_obs.Trace.create () in
  let rs = Analyzer.replay_set ~obs ~mode:Analyzer.Cell anl (removal tau) in
  let visits name = Uv_obs.Trace.counter_value obs name in
  ( len,
    tau,
    rs,
    visits "analyze.closure_row_visits",
    visits "analyze.closure_col_visits" )

(* The replay set's cost tracks the replay set, not the history, on the
   five workloads' own histories: n and 10n calls with the dependency
   rate scaled by 1/10, so the hot set stays put. Row visits per
   row-closure member grow < 1.25x, and so do the column-wise closure's
   pops. Those count shapes, not members, so they are gated whole: per
   Cell member they would read a smaller answer at 10n (TATP keeps 7
   members of 10) as growth. *)
let test_row_visits_flat_on_workloads () =
  List.iter
    (fun (w : W.t) ->
      let measure n dep_rate =
        let len, tau, rs, rows, cols = workload_question w ~n ~dep_rate in
        let members = rs.Analyzer.row_only_count in
        if members <= 0 then
          Alcotest.failf "%s n=%d: the row closure at τ=%d is empty" w.W.name
            n tau;
        Printf.printf
          "%s n=%d (%d entries) tau=%d: row visits %d / row members %d, \
           column visits %d / Cell members %d\n"
          w.W.name n len tau rows members cols rs.Analyzer.member_count;
        (float_of_int rows /. float_of_int members, float_of_int cols)
      in
      let small_rows, small_cols = measure 250 0.2 in
      let big_rows, big_cols = measure 2500 0.02 in
      List.iter
        (fun (what, small, big) ->
          let growth = big /. small in
          Printf.printf "%s %s growth %.2fx\n" w.W.name what growth;
          if growth >= 1.25 then
            Alcotest.failf "%s: %s grew %.2fx (%.2f -> %.2f) from n to 10n"
              w.W.name what growth small big)
        [
          ("row visits per row member", small_rows, big_rows);
          ("column visits", small_cols, big_cols);
        ])
    (W.all ())

(* A Cell question's column visits on a hot row, and its members: the
   target and a chain write [a.v] of row 1, and [pad] entries between
   each two of them write only [a.w] of the same row. *)
let hot_row_visits ~pad =
  let e = Engine.create () in
  run e "CREATE TABLE a (id INT PRIMARY KEY, v INT, w INT)";
  run e "INSERT INTO a VALUES (1, 0, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  for i = 1 to 8 do
    run e (Printf.sprintf "UPDATE a SET v = v + %d WHERE id = 1" i);
    for j = 1 to pad do
      run e (Printf.sprintf "UPDATE a SET w = %d WHERE id = 1" j)
    done
  done;
  let anl = Analyzer.analyze ~base (Engine.log e) in
  let obs = Uv_obs.Trace.create () in
  let rs =
    Analyzer.replay_set ~obs ~mode:Analyzer.Cell anl
      { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  ( Uv_obs.Trace.counter_value obs "analyze.closure_col_visits",
    rs.Analyzer.member_count )

(* Every padding entry meets the chain's row, but shares no column with
   it: the column closure keeps the padding out of Cell. It reaches one
   shape, the chain's (the seed opens it past the excluded target), so
   it pops once, however long the padding. *)
let test_cell_visits_hot_row () =
  List.iter
    (fun pad ->
      let visits, members = hot_row_visits ~pad in
      check Alcotest.int (Printf.sprintf "Cell members, padded %d" pad) 7
        members;
      check Alcotest.int
        (Printf.sprintf "Cell column visits, padded %d" pad)
        1 visits)
    [ 10; 100 ]

(* The replay DAG of one hot read-only key: [readers] entries read row 1
   of [h], one writes it, and [pad] writes to [b] stand before them.
   Asked twice over those members; the second call's cell visits, minor
   words and direct major words. *)
let hot_key_dag ~readers ~pad =
  let e = Engine.create () in
  run e "CREATE TABLE h (id INT PRIMARY KEY, v INT)";
  run e "CREATE TABLE b (id INT PRIMARY KEY, v INT)";
  run e "INSERT INTO h VALUES (1, 0)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  for i = 1 to pad do
    run e (Printf.sprintf "INSERT INTO b VALUES (%d, 0)" i)
  done;
  for _ = 1 to readers do
    run e "SELECT v FROM h WHERE id = 1"
  done;
  run e "UPDATE h SET v = 1 WHERE id = 1";
  let anl = Analyzer.analyze ~base (Engine.log e) in
  let members = List.init (readers + 1) (fun k -> pad + 1 + k) in
  ignore (Analyzer.replay_dag anl ~members);
  let obs = Uv_obs.Trace.create () in
  let dag, minor, major =
    Alloc.words_of (fun () -> Analyzer.replay_dag ~obs anl ~members)
  in
  check Alcotest.int
    (Printf.sprintf "the write after %d readers" readers)
    readers (Conflict_dag.edge_count dag);
  (Uv_obs.Trace.counter_value obs "replay.cell_visits", minor, major)

(* A read costs one cell visit, and the write one per reader since:
   visits and minor words grow with the accesses, not 64 steps a read,
   and stay where they are behind ten times the history. *)
let test_dag_visits_hot_key () =
  let visits10, minor10, _ = hot_key_dag ~readers:10 ~pad:100 in
  let visits1k, minor1k, major1k = hot_key_dag ~readers:1000 ~pad:100 in
  if visits10 = 0 then Alcotest.fail "the replay DAG recorded no cell visit";
  let per_member v n = float_of_int v /. float_of_int (n + 1) in
  if per_member visits1k 1000 > per_member visits10 10 then
    Alcotest.failf "cell visits: %d over 11 members, %d over 1 001" visits10
      visits1k;
  if visits1k > 4 * 1001 then
    Alcotest.failf "cell visits: %d over 1 001 members" visits1k;
  if minor1k /. 1001. > minor10 /. 11. then
    Alcotest.failf "minor words: %.0f over 11 members, %.0f over 1 001"
      minor10 minor1k;
  let visits_padded, minor_padded, major_padded =
    hot_key_dag ~readers:1000 ~pad:1000
  in
  check Alcotest.int "cell visits behind 10x the history" visits1k
    visits_padded;
  if minor_padded > 1.25 *. minor1k then
    Alcotest.failf "minor words: %.0f behind 100 entries, %.0f behind 1 000"
      minor1k minor_padded;
  check (Alcotest.float 0.) "direct major words behind 10x the history"
    major1k major_padded

(* The exact stop's test costs one [clean] verdict per member while
   the dirty set does not grow. τ leaves row 1 of [t] dirty; the members
   update the other rows of its RI group, and each would be redone over
   clean rows, except #(n + 2), whose count of [t] reads the dirty cell
   at every row: it executes, and writes what history wrote. The stop
   test passes the members before it once, the replay decides them from
   the verdicts the test found, and stops right after it. *)
let test_stop_verdicts_per_member () =
  let n = 40 in
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT)";
  run e "CREATE TABLE s (id INT PRIMARY KEY, c INT)";
  for i = 1 to (2 * n) + 1 do
    run e (Printf.sprintf "INSERT INTO t VALUES (%d, 1, 0)" i)
  done;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "UPDATE t SET x = 5 WHERE id = 1";
  for i = 2 to n + 1 do
    run e (Printf.sprintf "UPDATE t SET x = x + 1 WHERE id = %d" i)
  done;
  run e "INSERT INTO s VALUES (1, (SELECT COUNT(*) FROM t WHERE x > 100))";
  for i = n + 2 to (2 * n) + 1 do
    run e (Printf.sprintf "UPDATE t SET x = x + 1 WHERE id = %d" i)
  done;
  let config = { Rowset.default_config with Rowset.ri_columns = [ ("t", [ "grp" ]) ] } in
  let anl = Analyzer.analyze ~config ~base (Engine.log e) in
  List.iter
    (fun workers ->
      let where = Printf.sprintf "workers=%d" workers in
      let obs = Uv_obs.Trace.create () in
      let out =
        Whatif.run_exn ~config:(Whatif.Config.make ~workers ~obs ()) ~analyzer:anl e
          { Analyzer.tau = 1; op = Analyzer.Remove }
      in
      let members = out.Whatif.replay.Analyzer.member_count in
      check Alcotest.int (where ^ ": members") ((2 * n) + 1) members;
      check
        Alcotest.(option (pair int int))
        (where ^ ": stopped after the executed member")
        (Some (n + 1, n))
        out.Whatif.stop_at;
      check Alcotest.int (where ^ ": one verdict per member") members
        (Uv_obs.Trace.counter_value obs "replay.verdicts"))
    [ 1; 2 ]

(* Minor words may vary a little between runs (the Service's phases
   allocate timestamps, the trace its records); direct major words come
   only from large blocks and must not move at all. *)
let test_cost_flat_in_history () =
  let n = 1000 in
  List.iter
    (fun (question, name) ->
      let small_members, small_minor, small_major =
        question_words ~pad:n question
      in
      let large_members, large_minor, large_major =
        question_words ~pad:(4 * n) question
      in
      check Alcotest.(list int)
        (name ^ ": padding leaves the replay set alone")
        small_members large_members;
      if large_minor > 1.25 *. small_minor then
        Alcotest.failf
          "%s: a warm question allocated %.0f minor words over a %d-entry \
           history but %.0f over a %d-entry one"
          name small_minor (n + 8) large_minor ((4 * n) + 8);
      if large_major > small_major then
        Alcotest.failf
          "%s: a warm question allocated %.0f words straight into the major \
           heap over a %d-entry history but %.0f over a %d-entry one"
          name small_major (n + 8) large_major ((4 * n) + 8))
    [
      (`Service, "Cell through the service");
      (`Direct (Analyzer.Cell, true), "grouped Cell");
    ]

(* ------------------------------------------------------------------ *)
(* Column sets derived once per statement shape                         *)
(* ------------------------------------------------------------------ *)

(* The reference shape: the statement with every literal replaced by
   NULL, compared structurally. DDL is kept whole: every DDL statement
   that changes the schema starts a new generation anyway. *)
let rec erase_expr (e : Uv_sql.Ast.expr) : Uv_sql.Ast.expr =
  let open Uv_sql.Ast in
  match e with
  | Lit _ -> Lit Uv_sql.Value.Null
  | Col _ | Var _ -> e
  | Binop (o, a, b) -> Binop (o, erase_expr a, erase_expr b)
  | Unop (o, a) -> Unop (o, erase_expr a)
  | Fun_call (f, xs) -> Fun_call (f, List.map erase_expr xs)
  | Subselect s -> Subselect (erase_select s)
  | Exists s -> Exists (erase_select s)
  | In_list (a, xs) -> In_list (erase_expr a, List.map erase_expr xs)
  | Between (a, b, c) -> Between (erase_expr a, erase_expr b, erase_expr c)
  | Is_null (a, n) -> Is_null (erase_expr a, n)

and erase_select (s : Uv_sql.Ast.select) =
  let open Uv_sql.Ast in
  let opt = Option.map erase_expr in
  {
    s with
    sel_items =
      List.map
        (function Star -> Star | Item (e, a) -> Item (erase_expr e, a))
        s.sel_items;
    sel_joins =
      List.map (fun j -> { j with join_on = erase_expr j.join_on }) s.sel_joins;
    sel_where = opt s.sel_where;
    sel_group_by = List.map erase_expr s.sel_group_by;
    sel_having = opt s.sel_having;
    sel_order_by = List.map (fun (e, d) -> (erase_expr e, d)) s.sel_order_by;
  }

let rec erase (st : Uv_sql.Ast.stmt) : Uv_sql.Ast.stmt =
  let open Uv_sql.Ast in
  match st with
  | Select s -> Select (erase_select s)
  | Insert i -> Insert { i with values = List.map (List.map erase_expr) i.values }
  | Insert_select i -> Insert_select { i with query = erase_select i.query }
  | Update u ->
      Update
        {
          u with
          assigns = List.map (fun (c, e) -> (c, erase_expr e)) u.assigns;
          where = Option.map erase_expr u.where;
        }
  | Delete d -> Delete { d with where = Option.map erase_expr d.where }
  | Call (n, args) -> Call (n, List.map erase_expr args)
  | Transaction ss -> Transaction (List.map erase ss)
  | ddl -> ddl

let entry_of_stmt ?app_txn ?(nondet = []) index stmt =
  {
    Log.index;
    stmt;
    sql = Uv_sql.Printer.stmt_compact stmt;
    nondet;
    rows_written = 0;
    written_hashes = [];
    undo = [];
    app_txn;
  }

let riset_equal (a : Rowset.riset) (b : Rowset.riset) =
  match (a, b) with
  | Rowset.Any, Rowset.Any -> true
  | Rowset.Vals x, Rowset.Vals y -> Rowset.Vset.equal x y
  | _ -> false

(* Equal row sets: the same tables in the same list order, per dimension
   equal read and write sets. *)
let rows_equal (a : Rowset.entry_rows) (b : Rowset.entry_rows) =
  List.equal
    (fun (ta, xa) (tb, xb) ->
      String.equal ta tb
      && Array.length xa = Array.length xb
      && Array.for_all2
           (fun (da : Rowset.dim_access) (db : Rowset.dim_access) ->
             riset_equal da.Rowset.dr db.Rowset.dr
             && riset_equal da.Rowset.dw db.Rowset.dw)
           xa xb)
    a b

let pp_rows rows =
  String.concat " | "
    (List.map
       (fun (table, access) ->
         Format.asprintf "%s: %a" table Rowset.pp_access access)
       rows)

let pp_links links =
  String.concat "; "
    (List.map (fun ((table, col, v), p) -> Printf.sprintf "%s.%s %s -> %s" table col v p) links)

(* The interpreter of [Rowset_reference], run beside an analyzer in
   commit order on a schema view and row state of the test's own. Each
   call checks the entries analysed since the last one: their row sets,
   then the alias map, the merge parents and the merge generation. It
   returns the first difference. *)
let rows_checker ~label ?(config = Rowset.default_config) ?base entries =
  let sv =
    match base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let st = Rowset_reference.create config in
  Option.iter (Rowset_reference.seed_aliases st) base;
  let next = ref 1 in
  fun anl ->
    let rec entries_from i =
      if i > Analyzer.length anl then None
      else begin
        let inf = Analyzer.info anl i in
        let stmt = Analyzer.stmt inf in
        let expected =
          Rowset_reference.of_entry st sv stmt entries.(i - 1).Log.nondet
        in
        Schema_view.apply sv stmt;
        if rows_equal expected inf.Analyzer.rows then entries_from (i + 1)
        else
          Some
            (Printf.sprintf "%s: #%d %s: planned rows %s, reference %s" label i
               (Uv_sql.Printer.stmt_compact stmt)
               (pp_rows inf.Analyzer.rows) (pp_rows expected))
      end
    in
    let first = entries_from !next in
    next := Analyzer.length anl + 1;
    let state = Analyzer.row_state anl in
    let at = Printf.sprintf "%s, after #%d" label (Analyzer.length anl) in
    let differ what mine theirs =
      if mine = theirs then None
      else Some (Printf.sprintf "%s: %s %s, reference %s" at what mine theirs)
    in
    List.find_map Fun.id
      [
        first;
        differ "alias map"
          (pp_links (Rowset.aliases state))
          (pp_links (Rowset_reference.aliases st));
        differ "merge parents"
          (pp_links (Rowset.merge_parents state))
          (pp_links (Rowset_reference.merge_parents st));
        differ "merge generation"
          (string_of_int (Rowset.merge_generation state))
          (string_of_int (Rowset_reference.merge_generation st));
      ]

(* Analyse [entries] in [batches] [extend] calls, checking row sets
   against the reference after every batch ([on_mismatch] gets the first
   difference); returns the analyzer and the derivations made. *)
let memo_analyze ?(label = "memo") ?config ?base ?(batches = 1)
    ?(obs = Uv_obs.Trace.create ()) ?(on_mismatch = fun msg -> Alcotest.fail msg)
    entries =
  let n = Array.length entries in
  let check_rows = rows_checker ~label ?config ?base entries in
  let check_rows anl = Option.iter on_mismatch (check_rows anl) in
  let len = ref (n / batches) in
  let anl =
    Analyzer.of_source ?config ?base ~obs
      (Analyzer.source_of_fun ~length:(fun () -> !len) (fun i -> entries.(i - 1)))
  in
  check_rows anl;
  for b = 2 to batches do
    len := if b = batches then n else b * n / batches;
    ignore (Analyzer.extend ~obs anl : int);
    check_rows anl
  done;
  (anl, Uv_obs.Trace.counter_value obs "analyze.rw_derivations")

(* Walk the analysed history with a schema view of the test's own: every
   entry's sets equal a direct derivation. Returns the distinct
   (schema generation, reference shape) pairs. *)
let check_direct ~label ?base anl =
  let sv =
    match base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let pairs = Hashtbl.create 64 in
  for i = 1 to Analyzer.length anl do
    let inf = Analyzer.info anl i in
    let stmt = Analyzer.stmt inf in
    let direct = Rwset.of_stmt sv stmt in
    if
      not
        (Colset.equal direct.Rwset.r inf.Analyzer.rw.Rwset.r
        && Colset.equal direct.Rwset.w inf.Analyzer.rw.Rwset.w)
    then
      Alcotest.failf "%s: #%d %s: memoised %s, derived %s" label i
        (Uv_sql.Printer.stmt_compact stmt)
        (Format.asprintf "%a" Rwset.pp inf.Analyzer.rw)
        (Format.asprintf "%a" Rwset.pp direct);
    Hashtbl.replace pairs (Schema_view.generation sv, erase stmt) ();
    Schema_view.apply sv stmt
  done;
  Hashtbl.length pairs

(* The five workloads, raw and transpiled, as whole histories: the
   schema script, the transpiled procedures and the seeded calls' log.
   Built in one batch, in three and in seven, the memo agrees with
   direct derivation and derives once per (generation, shape), and the
   row sets, the transpiled CALLs' included, equal the reference's. *)
let workload_entries (w : W.t) mode =
  let eng, rt = W.setup ~mode w in
  let procedures =
    match mode with
    | R.Raw -> []
    | R.Transpiled ->
        List.map
          (fun (tr : Uv_transpiler.Transpile.t) ->
            tr.Uv_transpiler.Transpile.procedure)
          (R.transpile_install rt)
  in
  let prng = Uv_util.Prng.create 4242 in
  ignore
    (W.run_history rt ~mode (w.W.generate prng ~scale:1 ~n:40 ~dep_rate:0.3));
  let ddl = Uv_sql.Parser.parse_script w.W.schema_sql @ procedures in
  let logged = Log.entries (Engine.log eng) in
  Array.of_list
    (List.mapi (fun i st -> entry_of_stmt (i + 1) st) ddl
    @ List.mapi
        (fun i (e : Log.entry) ->
          entry_of_stmt ?app_txn:e.Log.app_txn ~nondet:e.Log.nondet
            (List.length ddl + i + 1)
            e.Log.stmt)
        logged)

let test_memo_workloads () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (mode, mode_name) ->
          let label = w.W.name ^ " " ^ mode_name in
          let entries = workload_entries w mode in
          List.iter
            (fun batches ->
              let label = Printf.sprintf "%s, %d batch(es)" label batches in
              let anl, derived =
                memo_analyze ~label ~config:w.W.ri_config ~batches entries
              in
              let pairs = check_direct ~label anl in
              check Alcotest.int (label ^ ": derivations") pairs derived;
              if derived >= Array.length entries then
                Alcotest.failf "%s: %d derivations for %d entries" label
                  derived (Array.length entries))
            [ 1; 3; 7 ])
        [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ])
    (W.all ())

(* One shape of each kind used again right after a schema change that
   moves its sets, with nothing else in between: a new column (DELETE
   and SELECT * over the table), a trigger on the table (UPDATE, twice
   after it), a replaced view (a SELECT through it), and a procedure
   dropped and then re-created (CALL). Then the same for row-set plans,
   under [ddl_config]'s alias column [u.w] for [u.id]: a primary key
   that moves to another column (#19, #22), columns dropped and added
   under an INSERT without a column list (#24, #26, #28), an INSERT
   trigger on a table an INSERT shape writes (#29, #31), a view replaced
   under a DELETE through it (#38, #40), and alias-teaching INSERTs and
   UPDATEs, an RI-merging UPDATE and literals on the left of [=] in
   between. #36 looks up another alias value through #32's shape; #41
   updates through the view and fires [t]'s trigger. #42 to #55 use
   each of the parts a plan leaves to the interpreter twice: subqueries
   in VALUES, WHERE and the projection, a join, an INSERT … SELECT and a
   transaction. #56 is a transaction whose UPDATE through the view fires
   [t]'s trigger, as it would at top level. The statements are analysed,
   not executed, so the CALL of the dropped procedure stays in. *)
let ddl_config = Ri_history.ddl_config

let ddl_history () =
  let e = Engine.create () in
  List.iter (run e) Ri_history.ddl_setup;
  ( Array.of_list
      (List.mapi
         (fun i sql -> entry_of_stmt (i + 1) (Uv_sql.Parser.parse_stmt sql))
         Ri_history.ddl_statements),
    Engine.snapshot e )

(* Statements with two literal slots, each slot filled in turn with
   values of every kind, NULL included: the first statement, then its
   single-literal mutations. *)
let literal_variants =
  let fills = [ "NULL"; "7"; "2.5"; "'txt'"; "TRUE" ] in
  List.map
    (fun tmpl ->
      let render a b = Uv_sql.Parser.parse_stmt (tmpl a b) in
      ( render "1" "2",
        List.concat_map (fun f -> [ render f "2"; render "1" f ]) fills ))
    [
      Printf.sprintf "UPDATE t SET v = %s WHERE id = %s";
      Printf.sprintf "INSERT INTO t VALUES (%s, %s)";
      Printf.sprintf "DELETE FROM t WHERE id = %s OR v > %s";
      Printf.sprintf "SELECT v FROM t WHERE id IN (%s, %s) ORDER BY v LIMIT 3";
      Printf.sprintf "UPDATE u SET w = w + %s WHERE id BETWEEN %s AND 9";
    ]

let test_memo_ddl () =
  let entries, base = ddl_history () in
  let extended =
    List.map
      (fun batches ->
        let label = Printf.sprintf "DDL history, %d batches," batches in
        ( label,
          fst (memo_analyze ~label ~config:ddl_config ~base ~batches entries) ))
      [ 3; 7 ]
  in
  let anl, derived =
    memo_analyze ~label:"DDL history" ~config:ddl_config ~base entries
  in
  let pairs = check_direct ~label:"DDL history" ~base anl in
  check Alcotest.int "derivations" pairs derived;
  let rw i = (Analyzer.info anl i).Analyzer.rw in
  List.iter
    (fun (before, after, what) ->
      let a = rw before and b = rw after in
      if Colset.equal a.Rwset.r b.Rwset.r && Colset.equal a.Rwset.w b.Rwset.w
      then Alcotest.failf "#%d and #%d: same sets across %s" before after what)
    [
      (1, 4, "ADD COLUMN (DELETE)");
      (2, 5, "ADD COLUMN (SELECT *)");
      (6, 8, "CREATE TRIGGER");
      (10, 12, "CREATE OR REPLACE VIEW");
      (13, 15, "DROP PROCEDURE");
      (15, 17, "CREATE PROCEDURE");
      (29, 31, "CREATE TRIGGER (INSERT)");
      (38, 40, "CREATE OR REPLACE VIEW (DELETE)");
    ];
  (* the row sets move across the same kinds of change *)
  let rows i = (Analyzer.info anl i).Analyzer.rows in
  List.iter
    (fun (before, after, what) ->
      if rows_equal (rows before) (rows after) then
        Alcotest.failf "#%d and #%d: same rows across %s: %s" before after what
          (pp_rows (rows after)))
    [
      (19, 22, "a primary-key change");
      (24, 26, "DROP COLUMN");
      (26, 28, "ADD COLUMN");
      (29, 31, "CREATE TRIGGER");
      (38, 40, "CREATE OR REPLACE VIEW");
    ];
  check Alcotest.bool "#9 shares #8's sets" true (rw 8 == rw 9);
  let stmt = Uv_sql.Parser.parse_stmt in
  let targets =
    List.init (Analyzer.length anl) (fun i ->
        { Analyzer.tau = i + 1; op = Analyzer.Remove })
    @ List.concat_map
        (fun tau ->
          [
            { Analyzer.tau; op = Analyzer.Add (stmt "UPDATE t SET v = 5 WHERE id = 2") };
            { Analyzer.tau; op = Analyzer.Change (stmt "UPDATE u SET w = 5 WHERE id = 1") };
          ])
        [ 1; 6; 11; 17 ]
  in
  (* the analyzers [extend] grew across schema generations, whose shapes
     were registered again after each bump, too *)
  List.iter
    (fun (label, anl) ->
      let group_of = groups anl in
      List.iter
        (fun target ->
          check_question ~label:(label ^ " " ^ target_name target) anl
            ~group_of target)
        targets)
    (("DDL history", anl) :: extended)

(* DDL nested in a transaction moves the schema generation like DDL on
   its own; a transaction of DML does not. *)
let test_memo_transaction () =
  let stmt = Uv_sql.Parser.parse_stmt in
  let history =
    [
      stmt "BEGIN; CREATE TABLE x (id INT PRIMARY KEY, a INT); INSERT INTO x VALUES (1, 1); COMMIT";
      stmt "INSERT INTO x VALUES (2, 2)";
      stmt "BEGIN; UPDATE x SET a = 3 WHERE id = 1; INSERT INTO x VALUES (4, 4); COMMIT";
      stmt "INSERT INTO x VALUES (5, 5)";
      stmt "BEGIN; ALTER TABLE x ADD COLUMN b INT; UPDATE x SET a = 0 WHERE id = 2; COMMIT";
      stmt "INSERT INTO x VALUES (6, 6, 6)";
      stmt "INSERT INTO x VALUES (7, 7)";
    ]
  in
  let entries = Array.of_list (List.mapi (fun i st -> entry_of_stmt (i + 1) st) history) in
  let anl, derived = memo_analyze entries in
  let pairs = check_direct ~label:"transactions" anl in
  check Alcotest.int "derivations" pairs derived;
  let rw i = (Analyzer.info anl i).Analyzer.rw in
  check Alcotest.bool "a DML transaction keeps the shape's sets" true
    (rw 2 == rw 4);
  if Colset.equal (rw 4).Rwset.w (rw 7).Rwset.w then
    Alcotest.fail "ADD COLUMN inside a transaction left the INSERT's sets"

let test_memo_literals () =
  let stmt = Uv_sql.Parser.parse_stmt in
  (* no literal-free difference is ignored *)
  List.iter
    (fun (a, b) ->
      if Uv_sql.Shape.equal (stmt a) (stmt b) then
        Alcotest.failf "%S and %S have one shape" a b)
    [
      ("SELECT v FROM t LIMIT 3", "SELECT v FROM t LIMIT 4");
      ("SELECT v FROM t LIMIT 3 OFFSET 1", "SELECT v FROM t LIMIT 3 OFFSET 2");
      ("UPDATE t SET v = 1 WHERE id = 1", "UPDATE t SET v = 1 WHERE id > 1");
      ("UPDATE t SET v = 1 WHERE id = 1", "UPDATE u SET v = 1 WHERE id = 1");
      ("UPDATE t SET v = 1 WHERE id = 1", "UPDATE t SET w = 1 WHERE id = 1");
      ("UPDATE t SET v = 1 WHERE id = 1", "UPDATE t SET v = id WHERE id = 1");
      ("INSERT INTO t VALUES (1, 2)", "INSERT INTO t VALUES (1, 2), (3, 4)");
      ("SELECT v FROM t WHERE v IS NULL", "SELECT v FROM t WHERE v IS NOT NULL");
      ("SELECT a.v FROM t a", "SELECT b.v FROM t b");
      ("CALL p(1)", "CALL q(1)");
    ];
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  run e "CREATE TABLE u (id INT PRIMARY KEY, w INT)";
  let base = Engine.snapshot e in
  List.iter
    (fun (first, variants) ->
      List.iter
        (fun v ->
          if
            not
              (Uv_sql.Shape.equal first v
              && Uv_sql.Shape.hash first = Uv_sql.Shape.hash v)
          then
            Alcotest.failf "%s and %s differ in shape"
              (Uv_sql.Printer.stmt_compact first)
              (Uv_sql.Printer.stmt_compact v))
        variants)
    literal_variants;
  let history =
    List.concat_map (fun (first, variants) -> first :: variants) literal_variants
  in
  let entries =
    Array.of_list (List.mapi (fun i st -> entry_of_stmt (i + 1) st) history)
  in
  let anl, derived = memo_analyze ~base entries in
  let pairs = check_direct ~label:"literal variants" ~base anl in
  check Alcotest.int "one derivation per statement" (List.length literal_variants)
    pairs;
  check Alcotest.int "derivations" pairs derived;
  let group_of = groups anl in
  List.iter
    (fun target ->
      check_question ~label:("literal variants " ^ target_name target) anl
        ~group_of target)
    (List.init (Analyzer.length anl) (fun i ->
         { Analyzer.tau = i + 1; op = Analyzer.Remove }))

(* Generated statements against the reference, with shrinking. A case
   is a few statement skeletons, each drawn at least twice with different
   literals, so every later draw runs the memoised plan; the draws are
   shuffled, and a failing case shrinks by dropping entries. The
   skeletons are single-table DML over [acct] (an AUTO_INCREMENT key
   with the alias column [email]) and [pt] (two RI dimensions), and
   [extra_skeletons]: CALLs of [plan_schema]'s procedures, whose bodies
   DECLARE, SET, branch, loop and SELECT … INTO, a nested CALL and a
   CALL short of an argument among them; subqueries in WHERE, VALUES
   and the projection; two-table joins with qualified, aliased and
   unqualified columns; INSERT … SELECT; and a transaction. INSERTs into
   [acct] and UPDATEs of [pt] fire triggers, and [hist]'s INSERT trigger
   fires itself. *)
type piece = S of string | H (* a literal slot *)

let gen_literal =
  QCheck.Gen.(
    oneof
      [
        return "NULL";
        map string_of_int (int_range 0 4);
        map string_of_int (int_range (-3) (-1));
        oneofl [ "0.5"; "2.5"; "-1.5" ];
        oneofl [ "'e1'"; "'e2'"; "'3'" ];
        oneofl [ "TRUE"; "FALSE" ];
      ])

let extra_skeletons =
  [
    [ S "CALL pa("; H; S ", "; H; S ")" ];
    [ S "CALL pa("; H; S ")" ];
    [ S "CALL pb("; H; S ", "; H; S ")" ];
    [ S "CALL pc("; H; S ")" ];
    [ S "SELECT * FROM pt WHERE a = (SELECT bal FROM acct WHERE id = "; H;
      S ") AND b = "; H ];
    [ S "SELECT a, (SELECT n FROM hist WHERE id = "; H; S ") FROM pt WHERE b = ";
      H; S " AND EXISTS (SELECT id FROM acct WHERE email = "; H; S ")" ];
    [ S "UPDATE acct SET bal = "; H; S " WHERE id = "; H;
      S " AND bal > (SELECT v FROM pt WHERE a = "; H; S ")" ];
    [ S "INSERT INTO pt VALUES ("; H; S ", (SELECT id FROM acct WHERE email = ";
      H; S "), "; H; S ")" ];
    [ S "DELETE FROM pt WHERE a IN ("; H; S ", "; H;
      S ") OR v = (SELECT bal FROM acct WHERE email = "; H; S ")" ];
    [ S "SELECT * FROM acct JOIN pt ON acct.id = pt.a WHERE id = "; H;
      S " AND b = "; H ];
    [ S "SELECT x.v FROM pt x JOIN acct y ON x.a = y.id WHERE x.a = "; H;
      S " AND y.email = "; H ];
    [ S "SELECT * FROM pt JOIN acct ON pt.a = acct.id WHERE (a = "; H;
      S " OR id = "; H; S ") AND pt.b = "; H ];
    [ S "SELECT * FROM pt JOIN hist ON pt.a = hist.id WHERE id = "; H;
      S " AND a = "; H; S " AND hist.n = "; H ];
    [ S "INSERT INTO pt SELECT id, bal, "; H; S " FROM acct WHERE email = "; H ];
    [ S "INSERT INTO acct (email, bal) SELECT 'e9', v FROM pt JOIN hist ON \
         pt.a = hist.id WHERE id = "; H; S " AND a = "; H ];
    [ S "BEGIN; UPDATE pt SET v = "; H; S " WHERE a = "; H; S " AND b = "; H;
      S "; CALL pb("; H; S ", 2); COMMIT" ];
    (* subqueries outside WHERE: SET values, a nested subquery, a CALL
       argument, a DECLARE (pd), a SET (pe), IF and ELSEIF conditions
       (pf), a WHILE condition (pg) and a SELECT … INTO's WHERE (ph) *)
    [ S "UPDATE pt SET v = (SELECT bal FROM acct WHERE id = "; H;
      S ") WHERE a = "; H; S " AND b = "; H ];
    [ S "UPDATE acct SET bal = (SELECT n FROM hist WHERE id = (SELECT a FROM pt \
         WHERE b = "; H; S ")) WHERE email = "; H ];
    [ S "CALL pa((SELECT id FROM acct WHERE email = "; H; S "), "; H; S ")" ];
    [ S "CALL pd("; H; S ")" ];
    [ S "CALL pe("; H; S ")" ];
    [ S "CALL pf("; H; S ")" ];
    [ S "CALL pg("; H; S ")" ];
    [ S "CALL ph("; H; S ")" ];
    (* procedures that call themselves: [pr] directly, [pm] through [pn] *)
    [ S "CALL pr("; H; S ")" ];
    [ S "CALL pm("; H; S ")" ];
  ]

let gen_skeleton =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (4, return [ H ]);
        (1, return [ S "-("; H; S ")" ]);
        (1, oneofl [ [ S "("; H; S " + "; H; S ")" ]; [ S "("; H; S " * "; H; S ")" ] ]);
      ]
  in
  let atom cols =
    oneofl cols >>= fun c ->
    oneof
      [
        map (fun v -> [ S c; S " = " ] @ v) value;
        map (fun v -> v @ [ S " = "; S c ]) value;
        return [ S c; S " IN ("; H; S ", "; H; S ")" ];
        return [ S c; S " BETWEEN "; H; S " AND "; H ];
        return [ S c; S " > "; H ];
      ]
  in
  let rec where cols depth =
    if depth = 0 then atom cols
    else
      frequency
        [
          (2, atom cols);
          ( 1,
            map3
              (fun a op b -> [ S "(" ] @ a @ [ S op ] @ b @ [ S ")" ])
              (where cols (depth - 1))
              (oneofl [ " AND "; " OR " ])
              (where cols (depth - 1)) );
        ]
  in
  let opt_where cols =
    frequency [ (1, return []); (4, map (fun w -> S " WHERE " :: w) (where cols 2)) ]
  in
  let row n = S "(" :: List.concat (List.init n (fun i -> if i = 0 then [ H ] else [ S ", "; H ])) @ [ S ")" ] in
  let values n rows =
    S " VALUES "
    :: List.concat (List.init rows (fun i -> if i = 0 then row n else S ", " :: row n))
  in
  let single_table =
    oneofl [ ("acct", [ "id"; "email"; "bal" ]); ("pt", [ "a"; "b"; "v" ]) ]
    >>= fun (table, cols) ->
    oneof
      [
        map (fun w -> [ S ("SELECT * FROM " ^ table) ] @ w) (opt_where cols);
        map (fun w -> [ S ("DELETE FROM " ^ table) ] @ w) (opt_where cols);
        ( shuffle_l cols >>= fun cs ->
          int_range 1 2 >>= fun k ->
          list_repeat k value >>= fun vs ->
          let assigns =
            List.concat
              (List.mapi
                 (fun i (c, v) -> (if i = 0 then [] else [ S ", " ]) @ (S (c ^ " = ") :: v))
                 (List.combine (List.filteri (fun i _ -> i < k) cs) vs))
          in
          map (fun w -> [ S ("UPDATE " ^ table ^ " SET ") ] @ assigns @ w) (opt_where cols) );
        ( oneofl [ None; Some (List.tl cols); Some cols; Some (List.rev cols) ]
        >>= fun list ->
          int_range 1 3 >>= fun rows ->
          let n = match list with Some cs -> List.length cs | None -> List.length cols in
          let head =
            match list with
            | Some cs -> Printf.sprintf "INSERT INTO %s (%s)" table (String.concat ", " cs)
            | None -> "INSERT INTO " ^ table
          in
          return (S head :: values n rows) );
      ]
  in
  frequency [ (3, single_table); (2, oneofl extra_skeletons) ]

let render skeleton lits =
  let buf = Buffer.create 64 in
  let lits = ref lits in
  List.iter
    (function
      | S s -> Buffer.add_string buf s
      | H -> (
          match !lits with
          | l :: rest ->
              Buffer.add_string buf l;
              lits := rest
          | [] -> Buffer.add_string buf "NULL"))
    skeleton;
  Buffer.contents buf

(* A case: (SQL, recorded draws) per entry. *)
let gen_plan_case =
  let open QCheck.Gen in
  let holes sk = List.length (List.filter (( = ) H) sk) in
  let draws = map (List.map (fun i -> Uv_sql.Value.Int i)) (list_size (int_range 0 3) (int_range 1 5)) in
  (* a later draw equal to the first gets another first literal *)
  let distinct = function
    | [] -> []
    | (first, nondet) :: rest ->
        (first, nondet)
        :: List.map
             (fun (lits, nondet) ->
               match lits with
               | l :: more when lits = first ->
                   ((if l = "NULL" then "0" else "NULL") :: more, nondet)
               | _ -> (lits, nondet))
             rest
  in
  list_size (int_range 1 5) gen_skeleton >>= fun skeletons ->
  flatten_l
    (List.map
       (fun sk ->
         int_range 2 3 >>= fun k ->
         list_repeat k (pair (list_repeat (holes sk) gen_literal) draws)
         >|= fun case ->
         List.map (fun (lits, nondet) -> (render sk lits, nondet)) (distinct case))
       skeletons)
  >>= fun draws -> shuffle_l (List.concat draws)

let plan_schema () =
  let e = Engine.create () in
  run e
    "CREATE TABLE acct (id INT PRIMARY KEY AUTO_INCREMENT, email VARCHAR(16), \
     bal INT)";
  run e "CREATE TABLE pt (a INT, b INT, v INT)";
  run e "CREATE TABLE hist (id INT PRIMARY KEY, n INT)";
  run e "INSERT INTO acct VALUES (1, 'e1', 0)";
  List.iter (run e)
    [
      "CREATE TRIGGER acct_ins AFTER INSERT ON acct FOR EACH ROW BEGIN INSERT \
       INTO hist VALUES (NEW.id, 0); UPDATE pt SET v = v + 1 WHERE a = 1 AND b \
       = 2; END";
      "CREATE TRIGGER hist_ins AFTER INSERT ON hist FOR EACH ROW BEGIN IF NEW.n \
       < 1 THEN INSERT INTO hist VALUES (NEW.id + 1, NEW.n + 1); END IF; END";
      "CREATE TRIGGER pt_upd AFTER UPDATE ON pt FOR EACH ROW BEGIN DECLARE k \
       INT DEFAULT 2; IF NEW.v > 0 THEN SET k = 3; END IF; UPDATE hist SET n = \
       n + 1 WHERE id = k; DELETE FROM acct WHERE email = 'e2'; END";
      "CREATE PROCEDURE pa(x INT, y INT) BEGIN DECLARE k INT DEFAULT x; \
       DECLARE m INT; IF y > 2 THEN SET m = x + 1; ELSEIF y < 0 THEN SET m = \
       x; ELSE SET m = x + 1; END IF; UPDATE pt SET v = y WHERE a = k AND b = \
       m; SELECT bal INTO k FROM acct WHERE id = x; DELETE FROM pt WHERE a = \
       k OR b = y; END";
      "CREATE PROCEDURE pb(e VARCHAR(16), n INT) BEGIN DECLARE i INT DEFAULT \
       0; WHILE i < n DO INSERT INTO pt VALUES (i, n, 0); SET i = i + 1; END \
       WHILE; UPDATE acct SET bal = n WHERE email = e; INSERT INTO acct \
       (email, bal) VALUES (e, n); IF n > 1 THEN SET i = 7; ELSE SET i = 7; \
       END IF; SELECT * FROM pt WHERE a = i AND b = n; END";
      "CREATE PROCEDURE pc(x INT) BEGIN CALL pa(x, 3); SELECT v INTO x FROM \
       pt JOIN acct ON pt.a = acct.id WHERE id = x; UPDATE hist SET n = x \
       WHERE id = 1; END";
      "CREATE PROCEDURE pd(x INT) BEGIN DECLARE k INT DEFAULT (SELECT bal \
       FROM acct WHERE id = x); UPDATE hist SET n = k WHERE id = 1; END";
      "CREATE PROCEDURE pe(x INT) BEGIN DECLARE m INT; SET m = (SELECT n \
       FROM hist WHERE id = x); UPDATE pt SET v = m WHERE a = 1 AND b = 1; \
       END";
      "CREATE PROCEDURE pf(x INT) BEGIN IF (SELECT v FROM pt WHERE a = x AND \
       b = 2) > 0 THEN UPDATE hist SET n = 0 WHERE id = 2; ELSEIF (SELECT \
       COUNT(*) FROM pt JOIN hist ON pt.a = hist.id WHERE id = x) > 1 THEN \
       UPDATE hist SET n = 1 WHERE id = 3; END IF; END";
      "CREATE PROCEDURE pg(x INT) BEGIN DECLARE i INT DEFAULT 0; WHILE \
       (SELECT bal FROM acct WHERE id = x) > i DO SET i = i + 1; UPDATE hist \
       SET n = i WHERE id = 4; END WHILE; END";
      "CREATE PROCEDURE ph(x INT) BEGIN DECLARE k INT; SELECT n INTO k FROM \
       hist WHERE id = (SELECT id FROM acct WHERE email = x); UPDATE pt SET \
       v = k WHERE a = 2 AND b = 2; END";
      "CREATE PROCEDURE pr(x INT) BEGIN IF x > 0 THEN INSERT INTO hist \
       VALUES (x, x); CALL pr(x - 1); END IF; UPDATE pt SET v = x WHERE a = \
       x AND b = 1; END";
      "CREATE PROCEDURE pm(x INT) BEGIN INSERT INTO pt VALUES (x, x, 0); \
       CALL pn(x); END";
      "CREATE PROCEDURE pn(y INT) BEGIN UPDATE acct SET bal = y WHERE id = \
       y; CALL pm(y - 1); END";
    ];
  Engine.snapshot e

let plan_config =
  {
    Rowset.ri_columns = [ ("pt", [ "a"; "b" ]) ];
    ri_aliases = [ ("acct", "email", "id") ];
  }

let prop_plan_equals_reference =
  let print case =
    String.concat "\n"
      (List.mapi
         (fun i (sql, nondet) ->
           Printf.sprintf "#%d %s  draws [%s]" (i + 1) sql
             (String.concat "; " (List.map Uv_sql.Value.to_string nondet)))
         case)
  in
  QCheck.Test.make ~name:"plan == reference (generated DML)" ~count:300
    (QCheck.make ~print ~shrink:QCheck.Shrink.list gen_plan_case)
    (fun case ->
      let base = plan_schema () in
      let entries =
        Array.of_list
          (List.mapi
             (fun i (sql, nondet) ->
               entry_of_stmt ~nondet (i + 1) (Uv_sql.Parser.parse_stmt sql))
             case)
      in
      List.iter
        (fun batches ->
          ignore
            (memo_analyze ~config:plan_config ~base ~batches
               ~on_mismatch:(fun msg -> QCheck.Test.fail_report msg)
               entries))
        [ 1; 2 ];
      true)

(* ------------------------------------------------------------------ *)
(* A generated closure property                                         *)
(* ------------------------------------------------------------------ *)

(* Small histories over a one-dimension table [o] (RI [id], alias column
   [code]) and a two-dimension table [m] (RI [a], [b]), from few values
   so that members meet on one first-dimension key with different second
   keys: keyed, alias-keyed and wildcard reads and writes, UPDATEs that
   rewrite RI values, a cross-table read, a schema change, and entries
   grouped into application transactions. *)
let closure_config =
  {
    Rowset.ri_columns = [ ("o", [ "id" ]); ("m", [ "a"; "b" ]) ];
    ri_aliases = [ ("o", "code", "id") ];
  }

let closure_base () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE o (id INT PRIMARY KEY, code VARCHAR(8), v INT)";
      "CREATE TABLE m (a INT, b INT, v INT)";
      "INSERT INTO o VALUES (1, 'c1', 0)";
      "INSERT INTO o VALUES (2, 'c2', 0)";
      "INSERT INTO m VALUES (1, 1, 0)";
      "INSERT INTO m VALUES (1, 2, 0)";
    ];
  Engine.snapshot e

(* History statements; [ddl] adds a schema change, which a question
   never adds. A question's UPDATE that rewrites an RI value merges in
   its own question only, after [extend] keyed the history. *)
let gen_closure_stmt ~ddl =
  let open QCheck.Gen in
  let k = int_range 1 3 in
  let plain =
    [
      map (Printf.sprintf "UPDATE o SET v = v + 1 WHERE id = %d") k;
      map (Printf.sprintf "UPDATE o SET v = 1 WHERE code = 'c%d'") k;
      map2 (Printf.sprintf "INSERT INTO o VALUES (%d, 'c%d', 0)") (int_range 3 5) k;
      map (Printf.sprintf "SELECT v FROM o WHERE id = %d") k;
      return "UPDATE o SET v = 2 WHERE v > 1";
      map2 (Printf.sprintf "UPDATE m SET v = v + 1 WHERE a = %d AND b = %d") k k;
      map (Printf.sprintf "UPDATE m SET v = 1 WHERE a = %d") k;
      map (Printf.sprintf "UPDATE m SET v = 2 WHERE b = %d") k;
      map2 (Printf.sprintf "INSERT INTO m VALUES (%d, %d, 0)") k k;
      map2 (Printf.sprintf "DELETE FROM m WHERE a = %d AND b = %d") k k;
      map2 (Printf.sprintf "SELECT v FROM m WHERE a = %d AND b = %d") k k;
      map3
        (Printf.sprintf
           "UPDATE m SET v = (SELECT v FROM o WHERE id = %d) WHERE a = %d AND b = %d")
        k k k;
      return "UPDATE m SET v = 0";
    ]
  in
  let rekeys =
    [
      map2 (Printf.sprintf "UPDATE o SET id = %d WHERE id = %d") k k;
      map3 (Printf.sprintf "UPDATE m SET a = %d WHERE a = %d AND b = %d") k k k;
    ]
  in
  oneof
    (plain @ rekeys
    @ if ddl then [ return "ALTER TABLE m ADD COLUMN z INT" ] else [])

(* A case: the history's (SQL, transaction tag) entries, and a statement
   a question adds or changes to. *)
let gen_closure_case =
  let open QCheck.Gen in
  let entry =
    pair (gen_closure_stmt ~ddl:true)
      (frequency [ (3, return None); (1, oneofl [ Some "A"; Some "B" ]) ])
  in
  pair (list_size (int_range 2 12) entry) (gen_closure_stmt ~ddl:false)

(* A case's analyzer over [closure_base], and its targets: every τ
   removed and every third also added or changed to [extra]. *)
let closure_case (history, extra) =
  let base = closure_base () in
  let entries =
    Array.of_list
      (List.mapi
         (fun i (sql, app_txn) ->
           entry_of_stmt ?app_txn (i + 1) (Uv_sql.Parser.parse_stmt sql))
         history)
  in
  let anl =
    Analyzer.of_source ~config:closure_config ~base
      (Analyzer.source_of_fun
         ~length:(fun () -> Array.length entries)
         (fun i -> entries.(i - 1)))
  in
  let extra = Uv_sql.Parser.parse_stmt extra in
  let targets =
    List.concat_map
      (fun tau ->
        { Analyzer.tau; op = Analyzer.Remove }
        ::
        (if tau mod 3 = 1 then
           [
             { Analyzer.tau; op = Analyzer.Add extra };
             { Analyzer.tau; op = Analyzer.Change extra };
           ]
         else []))
      (List.init (Analyzer.length anl) (fun i -> i + 1))
  in
  (anl, targets)

(* On a generated case, Row_only and Cell members, counts,
   touched tables and exact parents equal the pairwise reference,
   grouped and not, at every target. *)
let row_closure_holds case =
  let anl, targets = closure_case case in
  let group_of = groups anl in
  List.iter
    (fun target ->
      List.iter
        (fun (grouped, mode) ->
          let label =
            Printf.sprintf "%s%s %s" (target_name target)
              (if grouped then " grouped" else "")
              (List.assoc mode modes)
          in
          let closure = reference_closures anl ~grouped ~group_of target in
          let rs = Analyzer.replay_set ~mode ~grouped anl target in
          try
            check_against_reference ~label anl ~mode ~grouped ~group_of
              ~closure target rs;
            check_provenance ~label anl ~mode ~grouped ~group_of ~closure
              target rs
          with e ->
            let members l = String.concat "; " (List.map string_of_int l) in
            let via = function None -> "-" | Some v -> string_of_int v in
            QCheck.Test.fail_reportf
              "%s: members [%s] (reference closure [%s]), row parents \
               [%s]: %s"
              label
              (members rs.Analyzer.member_indexes)
              (members (closure Row))
              (String.concat "; "
                 (List.map
                    (fun (p : Analyzer.provenance) -> via p.Analyzer.p_row_via)
                    rs.Analyzer.provenance))
              (Printexc.to_string e))
        (List.concat_map
           (fun grouped ->
             List.map
               (fun mode -> (grouped, mode))
               [ Analyzer.Row_only; Analyzer.Cell ])
           [ false; true ]))
    targets;
  true

(* On a generated case, the replay DAG over every entry and over each
   target's grouped Cell replay set equals [Dag_reference]'s rule and
   orders every pair that needs ordering and nothing else; a target
   that rewrites an RI value asks it after its question merged. *)
let dag_orders_hold case =
  let anl, targets = closure_case case in
  Dag_reference.check ~label:"every entry" anl
    (List.init (Analyzer.length anl) (fun i -> i + 1));
  List.iter
    (fun target ->
      Dag_reference.check ~label:(target_name target) anl
        (Analyzer.replay_set ~grouped:true anl target).Analyzer.member_indexes)
    targets;
  true

let print_closure_case (history, extra) =
  String.concat "\n"
    (List.mapi
       (fun i (sql, tag) ->
         Printf.sprintf "#%d %s%s" (i + 1) sql
           (match tag with Some t -> "  [" ^ t ^ "]" | None -> ""))
       history)
  ^ "\nadded or changed to: " ^ extra

let shrink_closure_case (history, extra) =
  QCheck.Iter.map (fun h -> (h, extra)) (QCheck.Shrink.list history)

let closure_case_arb =
  QCheck.make ~print:print_closure_case ~shrink:shrink_closure_case
    gen_closure_case

let prop_dag_orders =
  QCheck.Test.make ~name:"replay DAG orders exactly the conflicting pairs"
    ~count:200 closure_case_arb dag_orders_hold

let prop_closure_equals_reference =
  QCheck.Test.make ~name:"row closure == pairwise reference" ~count:200
    closure_case_arb row_closure_holds

(* A group mate joining behind the row sweep reaches a candidate the
   sweep decided before it. Removing #1, grouped: #5 joins (it writes
   #1's row), brings in its group mate #2, whose row #3 also writes;
   #3 writes #4's row (1, 2), and #4 failed against #1 on the same
   first-dimension key when the sweep passed it. *)
let test_group_mate_behind_sweep () =
  try
    ignore
      (row_closure_holds
         ( [
             ("UPDATE m SET v = 1 WHERE a = 1 AND b = 1", None);
             ("UPDATE m SET v = 1 WHERE a = 2 AND b = 2", Some "A");
             ("UPDATE m SET v = 2 WHERE a IN (1, 2) AND b = 2", None);
             ("UPDATE m SET v = 3 WHERE a = 1 AND b = 2", None);
             ("UPDATE m SET v = 4 WHERE a = 1 AND b = 1", Some "A");
           ],
           "SELECT v FROM o WHERE id = 1" ))
  with e -> Alcotest.fail (Printexc.to_string e)

(* Padding a history with one more shape costs no derivation. *)
let test_memo_flat_in_history () =
  let derivations ~pad =
    let e, base = padded_history ~pad in
    let entries = Log.to_array (Engine.log e) in
    let anl, derived = memo_analyze ~base entries in
    check Alcotest.int "derivations" (check_direct ~label:"padded" ~base anl)
      derived;
    derived
  in
  check Alcotest.int "derivations, 1 008 vs 4 008 entries" (derivations ~pad:1000)
    (derivations ~pad:4000)

(* ------------------------------------------------------------------ *)
(* Derived from τ                                                       *)
(* ------------------------------------------------------------------ *)

(* [log] persisted as a segmented store, for analyzers that derive
   lazily from it: each question opens one afresh, as a cold question
   does. *)
let with_store log f =
  let dir = Filename.temp_file "uv_from_tau" "" in
  Sys.remove dir;
  let store = Log_store.open_ ~segment_cap:64 dir in
  Log_store.append_log store log;
  Log_store.close store;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* The first entry a question about [target] derives: τ, or, grouped, the
   first mate of τ's transaction group; past the history, none. *)
let expected_bound full ~grouped (target : Analyzer.target) =
  let n = Analyzer.length full and tau = target.Analyzer.tau in
  if tau > n then n + 1
  else
    match (Analyzer.info full tau).Analyzer.app_txn with
    | Some _ as tag when grouped ->
        let rec first i =
          if (Analyzer.info full i).Analyzer.app_txn = tag then i else first (i + 1)
        in
        first 1
    | _ -> tau

let show_set (rs : Analyzer.replay_set) =
  let via = function None -> "-" | Some v -> string_of_int v in
  Printf.sprintf "members [%s] counts %d/%d/%d mutated {%s} consulted {%s} parents %s"
    (String.concat "; " (List.map string_of_int rs.Analyzer.member_indexes))
    rs.Analyzer.member_count rs.Analyzer.col_only_count rs.Analyzer.row_only_count
    (String.concat ", " rs.Analyzer.mutated)
    (String.concat ", " rs.Analyzer.consulted)
    (String.concat " "
       (List.map
          (fun (p : Analyzer.provenance) ->
            via p.Analyzer.p_col_via ^ "," ^ via p.Analyzer.p_row_via)
          rs.Analyzer.provenance))

(* One question of [lazy_anl] and of [full] (derived from 1): the same
   replay set, parents and counts, the same postings popped by both
   sweeps, and, on the lazy analyzer, a replay DAG equal to the
   reference's and to the full analyzer's. *)
let same_answer ~label ~mode ~grouped ~full lazy_anl target =
  let ask anl =
    let obs = Uv_obs.Trace.create () in
    let rs = Analyzer.replay_set ~obs ~mode ~grouped anl target in
    let visits name = Uv_obs.Trace.counter_value obs name in
    (rs, visits "analyze.closure_row_visits", visits "analyze.closure_col_visits")
  in
  let want, want_rows, want_cols = ask full in
  let got, got_rows, got_cols = ask lazy_anl in
  check Alcotest.string (label ^ ": replay set") (show_set want) (show_set got);
  check Alcotest.int (label ^ ": row visits") want_rows got_rows;
  check Alcotest.int (label ^ ": column visits") want_cols got_cols;
  let members = got.Analyzer.member_indexes in
  Dag_reference.check ~label:(label ^ " DAG") lazy_anl members;
  check
    Alcotest.(list (pair int int))
    (label ^ ": DAG == full's")
    (Conflict_dag.edges (Analyzer.replay_dag full ~members))
    (Conflict_dag.edges (Analyzer.replay_dag lazy_anl ~members))

(* Every question of [targets], grouped and not, asked of an analyzer
   opened afresh on the store: it derives from the question's bound
   only, and answers like one derived from 1 in every mode. Then the
   same analyzer answers a question with a lower τ (a Remove at
   [lower target]), deriving again from that bound, like a fresh full
   one. [full ()] opens an analyzer derived from 1. *)
let check_from_tau ~label ~open_lazy ~full ~lower targets =
  let lazily = ref 0 in
  List.iter
    (fun target ->
      List.iter
        (fun grouped ->
          let label =
            Printf.sprintf "%s %s%s" label (target_name target)
              (if grouped then " grouped" else "")
          in
          let full_of = full in
          let full = full () and anl = open_lazy () in
          List.iter
            (fun (mode, mode_name) ->
              same_answer ~label:(label ^ " " ^ mode_name) ~mode ~grouped ~full anl
                target)
            modes;
          let bound = expected_bound full ~grouped target in
          check Alcotest.int (label ^ ": derived from") bound (Analyzer.derived_from anl);
          if bound > 1 then incr lazily;
          match lower target with
          | Some tau2 ->
              let again = { Analyzer.tau = tau2; op = Analyzer.Remove } in
              (* a new pass starts from the base again, so a merge the
                 first question made is gone: then compare with a fresh
                 analyzer *)
              let bound2 = expected_bound full ~grouped again in
              same_answer ~label:(label ^ " then " ^ target_name again) ~mode:Analyzer.Cell
                ~grouped
                ~full:(if bound2 < bound then full_of () else full)
                anl again;
              check Alcotest.int (label ^ ": derived again from") (min bound bound2)
                (Analyzer.derived_from anl)
          | None -> ())
        [ false; true ])
    targets;
  if !lazily = 0 then Alcotest.failf "%s: no question derived from above 1" label

(* The fixtures' histories again (the same seeded calls), each asked at
   the seeded targets, and removed at every τ. *)
let test_from_tau_workloads () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (mode, mode_name) ->
          let label = w.W.name ^ " " ^ mode_name in
          let eng, base = build w ~mode ~n:60 in
          let log = Engine.log eng and config = w.W.ri_config in
          let full () =
            let anl = Analyzer.analyze ~config ~base log in
            Analyzer.require anl ~from:1;
            anl
          in
          with_store log @@ fun dir ->
          let open_lazy () =
            Analyzer.of_source ~config ~base
              (Analyzer.source_of_store (Log_store.open_ dir))
          in
          let whole = full () in
          let targets = targets whole in
          let lower (target : Analyzer.target) =
            let tau = target.Analyzer.tau / 2 in
            if tau >= 1 then Some tau else None
          in
          check_from_tau ~label ~open_lazy ~full ~lower targets;
          for tau = 1 to Analyzer.length whole do
            let target = { Analyzer.tau; op = Analyzer.Remove } in
            same_answer
              ~label:(Printf.sprintf "%s every τ: %s" label (target_name target))
              ~mode:Analyzer.Cell ~grouped:false ~full:whole (open_lazy ()) target
          done)
        [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ])
    (W.all ())

(* An alias and a merge taught, and a column added, below τ, and
   transaction groups that straddle τ: the entries from τ on derive the
   rows the alias and the merge give and the sets the added column
   gives. Questions add and change statements that read the alias and
   that merge at question time. *)
let test_from_tau_teaching () =
  let e = Engine.create () in
  List.iter (run e)
    [
      "CREATE TABLE o (id INT PRIMARY KEY, code VARCHAR(8), v INT)";
      "CREATE TABLE m (a INT, b INT, v INT)";
      "INSERT INTO o VALUES (1, 'c1', 0)";
      "INSERT INTO o VALUES (2, 'c2', 0)";
      "INSERT INTO m VALUES (1, 1, 0)";
    ];
  let base = Engine.snapshot e in
  Engine.reset_log e;
  List.iter
    (fun (app_txn, sql) -> run ?app_txn e sql)
    [
      (None, "INSERT INTO o VALUES (7, 'c7', 0)");
      (Some "A", "UPDATE o SET v = 1 WHERE id = 2");
      (None, "UPDATE o SET id = 9 WHERE id = 1");
      (Some "B", "ALTER TABLE o ADD COLUMN z INT");
      (None, "UPDATE o SET v = v + 1 WHERE code = 'c7'");
      (Some "A", "UPDATE o SET z = 1 WHERE id = 9");
      (None, "UPDATE m SET v = (SELECT v FROM o WHERE id = 7) WHERE a = 1 AND b = 1");
      (Some "B", "SELECT v FROM o WHERE id = 1");
      (None, "UPDATE o SET v = 3 WHERE id = 1");
      (Some "A", "UPDATE o SET v = v * 2 WHERE code = 'c7'");
      (None, "INSERT INTO o VALUES (8, 'c8', 0, 0)");
      (None, "UPDATE o SET z = 2 WHERE code = 'c8'");
    ];
  let log = Engine.log e and config = closure_config in
  let full () =
    let anl = Analyzer.analyze ~config ~base log in
    Analyzer.require anl ~from:1;
    anl
  in
  let whole = full () in
  let n = Analyzer.length whole in
  check Alcotest.bool "the history merges" true (Analyzer.row_merge_generation whole > 0);
  let extras =
    List.map Uv_sql.Parser.parse_stmt
      [ "UPDATE o SET v = 5 WHERE code = 'c7'"; "UPDATE o SET id = 7 WHERE id = 2" ]
  in
  let targets =
    List.concat_map
      (fun tau ->
        { Analyzer.tau; op = Analyzer.Remove }
        :: List.concat_map
             (fun s -> [ { Analyzer.tau; op = Analyzer.Add s }; { Analyzer.tau; op = Analyzer.Change s } ])
             extras)
      (List.init n (fun i -> i + 1))
  in
  with_store log @@ fun dir ->
  let open_lazy () =
    Analyzer.of_source ~config ~base (Analyzer.source_of_store (Log_store.open_ dir))
  in
  (* every entry from τ on derives what a full analyzer derives *)
  for tau = 1 to n do
    let anl = open_lazy () in
    Analyzer.require anl ~from:tau;
    for i = tau to n do
      let a = Analyzer.info whole i and b = Analyzer.info anl i in
      if not (rows_equal a.Analyzer.rows b.Analyzer.rows) then
        Alcotest.failf "from %d: #%d derives rows %s, want %s" tau i (pp_rows b.Analyzer.rows)
          (pp_rows a.Analyzer.rows);
      if not (Colset.equal a.Analyzer.rw.Rwset.r b.Analyzer.rw.Rwset.r
              && Colset.equal a.Analyzer.rw.Rwset.w b.Analyzer.rw.Rwset.w)
      then Alcotest.failf "from %d: #%d derives other column sets" tau i
    done
  done;
  check_from_tau ~label:"teaching" ~open_lazy ~full
    ~lower:(fun t -> if t.Analyzer.tau > 2 then Some 2 else None)
    targets

(* The question-time merge history, from τ. *)
let test_from_tau_merge () =
  let config, base, log = Ri_history.merge_history () in
  let full () =
    let anl = Analyzer.analyze ~config ~base log in
    Analyzer.require anl ~from:1;
    anl
  in
  with_store log @@ fun dir ->
  check_from_tau ~label:"question-time merge"
    ~open_lazy:(fun () ->
      Analyzer.of_source ~config ~base (Analyzer.source_of_store (Log_store.open_ dir)))
    ~full
    ~lower:(fun t -> if t.Analyzer.tau > 1 then Some 1 else None)
    Ri_history.merge_targets

(* A question never writes the analyzer. [merge_history] is asked the
   merge targets, and [ddl_history] under [ddl_config] an added INSERT
   that teaches an alias of [u] and an UPDATE that merges [u]'s ids: the
   RI state (merge links, aliases, merge generation) is as it was. Then
   three entries that merge nothing, and read what the questions
   taught, are appended and the analyzer extended: every [info],
   [row_conflict] and [conflict_tables], and every mode's answers, equal
   a fresh analyzer's. *)
let test_question_leaves_analyzer () =
  let config, base, log = Ri_history.merge_history () in
  let stmt = Uv_sql.Parser.parse_stmt in
  let grown entries ~config ~base ~tail questions =
    let split = Array.length entries in
    let entries =
      Array.append entries
        (Array.of_list
           (List.mapi
              (fun k sql -> entry_of_stmt (Array.length entries + k + 1) (stmt sql))
              tail))
    in
    let full = Array.length entries in
    let len = ref split in
    let source () =
      Analyzer.source_of_fun ~length:(fun () -> !len) (fun i -> entries.(i - 1))
    in
    let anl = Analyzer.of_source ~config ~base (source ()) in
    (* with the tier, so that no grouped question derives again *)
    Analyzer.require ~grouped:true anl ~from:1;
    let state () =
      let rs = Analyzer.row_state anl in
      ( pp_links (Rowset.merge_parents rs),
        pp_links (Rowset.aliases rs),
        Analyzer.row_merge_generation anl )
    in
    let before = state () in
    List.iter
      (fun target ->
        ignore (Analyzer.target_rw anl target);
        List.iter
          (fun ((mode, _), grouped) -> ignore (Analyzer.replay_set ~mode ~grouped anl target))
          (List.concat_map (fun m -> [ (m, false); (m, true) ]) modes);
        let links, aliases, gen = state () and links0, aliases0, gen0 = before in
        let label = target_name target in
        check Alcotest.string (label ^ ": merge links") links0 links;
        check Alcotest.string (label ^ ": aliases") aliases0 aliases;
        check Alcotest.int (label ^ ": merge generation") gen0 gen)
      questions;
    len := full;
    ignore (Analyzer.extend anl : int);
    let fresh = Analyzer.of_source ~config ~base (source ()) in
    for i = 1 to full do
      let a = Analyzer.info fresh i and b = Analyzer.info anl i in
      if not (rows_equal a.Analyzer.rows b.Analyzer.rows) then
        Alcotest.failf "#%d: extended rows %s, fresh %s" i (pp_rows b.Analyzer.rows)
          (pp_rows a.Analyzer.rows);
      if
        not
          (Colset.equal a.Analyzer.rw.Rwset.r b.Analyzer.rw.Rwset.r
          && Colset.equal a.Analyzer.rw.Rwset.w b.Analyzer.rw.Rwset.w
          && a.Analyzer.app_txn = b.Analyzer.app_txn)
      then Alcotest.failf "#%d: extended info differs from fresh" i;
      for j = i + 1 to full do
        let conflict anl =
          let inf = Analyzer.info anl i in
          Analyzer.row_conflict anl inf.Analyzer.rw inf.Analyzer.rows (Analyzer.info anl j)
        in
        check Alcotest.bool (Printf.sprintf "row_conflict %d -> %d" i j) (conflict fresh)
          (conflict anl);
        check
          Alcotest.(list (pair string (list string)))
          (Printf.sprintf "conflict_tables %d %d" i j)
          (Analyzer.conflict_tables fresh i j) (Analyzer.conflict_tables anl i j)
      done
    done;
    List.iter
      (check_same_answers ~want:fresh anl)
      (List.init full (fun i -> { Analyzer.tau = i + 1; op = Analyzer.Remove }) @ questions)
  in
  grown
    (Array.init (Log.length log) (fun i -> Log.entry log (i + 1)))
    ~config ~base
    ~tail:
      [
        "UPDATE t SET v = 3 WHERE id = 3";
        "SELECT v FROM t WHERE id = 2";
        "UPDATE u SET w = 2 WHERE id = 1";
      ]
    Ri_history.merge_targets;
  let entries, base = ddl_history () in
  grown entries ~config:ddl_config ~base
    ~tail:
      [
        "SELECT * FROM u WHERE w = 200";
        "UPDATE u SET w = 3 WHERE id = 7";
        "UPDATE u SET w = 2 WHERE id = 21";
      ]
    (List.concat_map
       (fun tau ->
         [
           { Analyzer.tau; op = Analyzer.Add (stmt "INSERT INTO u VALUES (20, 200)") };
           { Analyzer.tau; op = Analyzer.Add (stmt "UPDATE u SET id = 21 WHERE id = 7") };
         ])
       [ 1; 29; Array.length entries ])

(* A pass that raises part-way (a source that fails once, past τ) leaves
   the analyzer to derive again: the next question derives anew
   and answers like a full analyzer in every mode, grouped and not. *)
let test_from_tau_failed_pass () =
  let w = List.hd (W.all ()) in
  let eng, base = build w ~mode:R.Raw ~n:20 in
  let log = Engine.log eng and config = w.W.ri_config in
  let n = Log.length log in
  let fail_at = ref ((3 * n) / 4) in
  let fetch i =
    if i = !fail_at then begin
      fail_at := 0;
      failwith "source failed"
    end;
    Log.entry log i
  in
  let anl =
    Analyzer.of_source ~config ~base
      (Analyzer.source_of_fun ~length:(fun () -> n) fetch)
  in
  let full = Analyzer.analyze ~config ~base log in
  Analyzer.require full ~from:1;
  let target = { Analyzer.tau = n / 2; op = Analyzer.Remove } in
  (match Analyzer.replay_set anl target with
  | _ -> Alcotest.fail "the failing pass did not raise"
  | exception Failure _ -> ());
  check Alcotest.int "nothing counts as derived" max_int (Analyzer.derived_from anl);
  List.iter
    (fun grouped ->
      List.iter
        (fun (mode, mode_name) ->
          same_answer
            ~label:(Printf.sprintf "after a failed pass %s%s" mode_name
                      (if grouped then " grouped" else ""))
            ~mode ~grouped ~full anl target)
        modes)
    [ false; true ]

(* [extend] on an analyzer derived from τ: the new entries are derived
   in full, and questions from the bound on answer like a full analyzer
   of the grown history, on every fixture workload's raw history. *)
let test_from_tau_extend () =
  List.iter
    (fun (w : W.t) ->
      let eng, base = build w ~mode:R.Raw ~n:30 in
      let log = Engine.log eng and config = w.W.ri_config in
      let n = Log.length log in
      let len = ref (n / 2) in
      let anl =
        Analyzer.of_source ~config ~base
          (Analyzer.source_of_fun ~length:(fun () -> !len) (Log.entry log))
      in
      let bound = n / 4 in
      ignore (Analyzer.replay_set anl { Analyzer.tau = bound; op = Analyzer.Remove });
      len := n;
      check Alcotest.int (w.W.name ^ ": extended") (n - (n / 2)) (Analyzer.extend anl);
      check Alcotest.int (w.W.name ^ ": still derived from") bound (Analyzer.derived_from anl);
      let full = Analyzer.analyze ~config ~base log in
      Analyzer.require full ~from:1;
      for tau = bound to n do
        if tau mod 3 = 0 then
          same_answer
            ~label:(Printf.sprintf "%s extended: remove@%d" w.W.name tau)
            ~mode:Analyzer.Cell ~grouped:false ~full anl
            { Analyzer.tau; op = Analyzer.Remove }
      done)
    (W.all ())

(* ------------------------------------------------------------------ *)
(* Store entries: named and bound from their bytes                      *)
(* ------------------------------------------------------------------ *)

(* Statements a pass over a store of [log] builds, whatever its τ: one
   per entry whose scan declines (the source parses it) or whose shape
   changes the schema view (the pass parses it). Every other entry is
   named and its rows run from its scanned literals. *)
let statements_built log =
  let sc = Uv_sql.Lexer.scanner () in
  List.length
    (List.filter
       (fun (e : Log.entry) ->
         (not (Uv_sql.Lexer.scan sc e.Log.sql 0 (String.length e.Log.sql))) || Schema_view.affects e.Log.stmt)
       (Log.entries log))

(* Each entry from τ on, derived from a store of [log] ([info]'s shape
   named from the bytes, its rows run from the scanned literals),
   equals the same entry derived from [log] itself: rows, column sets,
   shape, index and tag; the statement [Analyzer.stmt] builds on demand
   is its text's (a logged statement may differ from its text's parse,
   as a DOUBLE 42 printed as 42). The pass builds no statement but
   [statements_built]'s. *)
let check_store_infos ~label ~config ?base log taus =
  let whole = Analyzer.analyze ~config ?base log in
  Analyzer.require whole ~from:1;
  let n = Analyzer.length whole in
  let built = statements_built log in
  with_store log @@ fun dir ->
  List.iter
    (fun tau ->
      let obs = Uv_obs.Trace.create () in
      let anl =
        Analyzer.of_source ~config ?base ~obs (Analyzer.source_of_store (Log_store.open_ dir))
      in
      Analyzer.require anl ~from:tau;
      check Alcotest.int
        (Printf.sprintf "%s from %d: statements built" label tau)
        built
        (Uv_obs.Trace.counter_value obs "analyze.stmts_built");
      for i = tau to n do
        let a = Analyzer.info whole i and b = Analyzer.info anl i in
        let fail what =
          Alcotest.failf "%s from %d: #%d %s: %s from the store" label tau i
            (Uv_sql.Printer.stmt_compact (Analyzer.stmt a))
            what
        in
        if not (rows_equal a.Analyzer.rows b.Analyzer.rows) then
          fail
            (Printf.sprintf "rows %s, %s from the log" (pp_rows b.Analyzer.rows)
               (pp_rows a.Analyzer.rows));
        if
          not
            (Colset.equal a.Analyzer.rw.Rwset.r b.Analyzer.rw.Rwset.r
            && Colset.equal a.Analyzer.rw.Rwset.w b.Analyzer.rw.Rwset.w)
        then fail "other column sets";
        if not (Uv_sql.Shape.equal a.Analyzer.shape b.Analyzer.shape) then fail "another shape";
        if compare (Uv_sql.Parser.parse_stmt (Log.entry log i).Log.sql) (Analyzer.stmt b) <> 0
        then fail "another statement than its text's";
        if a.Analyzer.index <> b.Analyzer.index || a.Analyzer.app_txn <> b.Analyzer.app_txn then
          fail "another index or tag"
      done)
    taus

(* The five workloads' histories, raw and transpiled, from τ at the
   first entry, a third, two thirds and the last. *)
let test_store_infos_workloads () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (mode, mode_name) ->
          let eng, base = build w ~mode ~n:60 in
          let log = Engine.log eng in
          let n = Log.length log in
          check_store_infos
            ~label:(w.W.name ^ " " ^ mode_name)
            ~config:w.W.ri_config ~base log
            (List.sort_uniq compare [ 1; max 1 (n / 3); max 1 (2 * n / 3); n ]))
        [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ])
    (W.all ())

(* Hand-written entries whose bytes exercise the binding: a comment
   (the scan declines), negated literals, TRUE and NULL (literals no
   hole feeds), LIMIT counts (literals that feed no [Lit]), two
   byte-different templates of one shape (a sign, a keyword's case, a
   space), an alias taught and a column added below τ, each logged with
   its own text. A store record holding an integer above [max_int]
   makes the pass raise what [Parser.parse_stmt] raises. *)
let test_store_infos_hand () =
  let e = Engine.create () in
  List.iter (run e)
    [ "CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(8), v INT, b BOOLEAN)" ];
  let base = Engine.snapshot e in
  Engine.reset_log e;
  let texts =
    [
      "INSERT INTO t VALUES (1, 'a', 10, TRUE)";
      "INSERT INTO t VALUES (-2, 'b', -20, NULL)";
      "insert into t values (3, 'c', 30, FALSE)";
      "UPDATE t SET v = v + 1 WHERE id = -2";
      "UPDATE t SET v = 5 WHERE id = 1";
      "UPDATE  t SET v = -5 WHERE id = 3";
      "UPDATE t SET b = TRUE WHERE s = 'a'";
      "UPDATE t SET b = NULL WHERE id = -2 OR id = 3";
      "SELECT v FROM t WHERE id = 1 LIMIT 2";
      "SELECT v FROM t WHERE id = -2 LIMIT 3";
      "DELETE FROM t WHERE id = 3 -- the third row";
      "ALTER TABLE t ADD COLUMN z INT";
      "UPDATE t SET z = 7 WHERE s = 'b'";
      "/* again */ UPDATE t SET v = 6 WHERE id = 1";
      "INSERT INTO t VALUES (4, 'd', -40, TRUE, -4)";
      "UPDATE t SET z = -1 WHERE id IN (1, -2, 4)";
    ]
  in
  List.iter (fun sql -> ignore (Engine.exec ~sql e (Uv_sql.Parser.parse_stmt sql))) texts;
  let log = Engine.log e in
  let config = { Rowset.ri_columns = [ ("t", [ "id" ]) ]; ri_aliases = [ ("t", "s", "id") ] } in
  check Alcotest.int "two statements decline the scan, one alters the schema" 3
    (statements_built log);
  check_store_infos ~label:"hand" ~config ~base log
    (List.init (Log.length log) (fun i -> i + 1));
  let huge = "UPDATE t SET v = 1 WHERE id = 99999999999999999999" in
  let want = match Uv_sql.Parser.parse_stmt huge with _ -> "parsed" | exception Failure m -> m in
  with_store log @@ fun dir ->
  let store = Log_store.open_ dir in
  Log_store.append store { Log_io.r_sql = huge; r_nondet = []; r_app_txn = None };
  Log_store.close store;
  let anl = Analyzer.of_source ~config ~base (Analyzer.source_of_store (Log_store.open_ dir)) in
  match Analyzer.require anl ~from:(Log.length log + 1) with
  | () -> Alcotest.fail "a record above max_int derived"
  | exception Failure m -> check Alcotest.string "the pass raises what parse_stmt raises" want m

(* ------------------------------------------------------------------ *)
(* The read-only tier                                                   *)
(* ------------------------------------------------------------------ *)

let counter obs name = Uv_obs.Trace.counter_value obs name

(* Two infos are the same record: index, shape, text, tag, column sets
   and rows. *)
let check_same_info ~label (a : Analyzer.info) (b : Analyzer.info) =
  if
    not
      (a.Analyzer.index = b.Analyzer.index
      && Uv_sql.Shape.equal a.Analyzer.shape b.Analyzer.shape
      && a.Analyzer.text = b.Analyzer.text
      && a.Analyzer.app_txn = b.Analyzer.app_txn
      && Colset.equal a.Analyzer.rw.Rwset.r b.Analyzer.rw.Rwset.r
      && Colset.equal a.Analyzer.rw.Rwset.w b.Analyzer.rw.Rwset.w
      && rows_equal a.Analyzer.rows b.Analyzer.rows)
  then
    Alcotest.failf "%s: #%d's info differs without the tier (rows %s, want %s; tag %s, want %s)"
      label a.Analyzer.index (pp_rows b.Analyzer.rows) (pp_rows a.Analyzer.rows)
      (Option.value b.Analyzer.app_txn ~default:"-")
      (Option.value a.Analyzer.app_txn ~default:"-")

(* A history's analyzers, opened afresh on one source ([open_ obs]),
   against [tiered], derived from 1 with the tier:
   - ungrouped questions at [targets] (writers' τ) on an analyzer derived
     from 1 without it, and on one derived cold from τ, answer alike in
     every mode, and leave the tier down;
   - grouped questions asked next of the first one raise the tier once
     and answer like an analyzer that had it from the start, asked the
     same questions;
   - read-only τs spread over [read_only], removed or changed, answer alike
     on an analyzer derived from 1 without the tier (the question raises
     it);
   - [info] of every writer, then of every entry, equals [tiered]'s, and
     only the read-only ones raise the tier. *)
let check_tiers ~label ~open_ ~tiered ~targets ~read_only ~other =
  let obs = Uv_obs.Trace.create () in
  let plain = open_ obs in
  Analyzer.require plain ~from:1;
  if read_only <> [] && counter obs "analyze.readonly_deferred" = 0 then
    Alcotest.failf "%s: a pass without the tier derived every read-only entry" label;
  let answer ?(grouped = false) ~mode anl target =
    show_set (Analyzer.replay_set ~mode ~grouped anl target)
  in
  List.iter
    (fun target ->
      List.iter
        (fun (mode, mode_name) ->
          let label = Printf.sprintf "%s %s %s" label (target_name target) mode_name in
          let want = answer ~mode tiered target in
          check Alcotest.string (label ^ ": from 1") want (answer ~mode plain target);
          check Alcotest.string (label ^ ": from τ") want
            (answer ~mode (open_ Uv_obs.Trace.disabled) target))
        modes)
    targets;
  check Alcotest.int (label ^ ": ungrouped questions leave the tier down") 0
    (counter obs "analyze.grouped_derivations");
  let grouped_ref = open_ Uv_obs.Trace.disabled in
  Analyzer.require ~grouped:true grouped_ref ~from:1;
  List.iter
    (fun target ->
      List.iter
        (fun (mode, mode_name) ->
          check Alcotest.string
            (Printf.sprintf "%s grouped %s %s after ungrouped" label (target_name target)
               mode_name)
            (answer ~grouped:true ~mode grouped_ref target)
            (answer ~grouped:true ~mode plain target))
        modes)
    targets;
  check Alcotest.int (label ^ ": the first grouped question raised the tier") 1
    (counter obs "analyze.grouped_derivations");
  let spread =
    match Array.of_list read_only with
    | [||] -> []
    | ro -> List.sort_uniq compare [ ro.(0); ro.(Array.length ro / 2); ro.(Array.length ro - 1) ]
  in
  List.iter
    (fun tau ->
      List.iter
        (fun op ->
          let target = { Analyzer.tau; op } in
          List.iter
            (fun (mode, mode_name) ->
              let fresh = open_ Uv_obs.Trace.disabled in
              Analyzer.require ~grouped:true fresh ~from:1;
              let anl = open_ Uv_obs.Trace.disabled in
              Analyzer.require anl ~from:1;
              check Alcotest.string
                (Printf.sprintf "%s read-only %s %s" label (target_name target) mode_name)
                (answer ~mode fresh target) (answer ~mode anl target))
            modes)
        [ Analyzer.Remove; Analyzer.Change other ])
    spread;
  let n = Analyzer.length tiered in
  List.iter
    (fun from ->
      let obs = Uv_obs.Trace.create () in
      let anl = open_ obs in
      Analyzer.require anl ~from;
      let label = Printf.sprintf "%s info from %d" label from in
      for i = from to n do
        if not (List.mem i read_only) then
          check_same_info ~label (Analyzer.info tiered i) (Analyzer.info anl i)
      done;
      check Alcotest.int (label ^ ": writers' infos leave the tier down") 0
        (counter obs "analyze.grouped_derivations");
      check Alcotest.int (label ^ ": still derived from") from (Analyzer.derived_from anl);
      for i = from to n do
        check_same_info ~label (Analyzer.info tiered i) (Analyzer.info anl i)
      done;
      check Alcotest.int (label ^ ": derived from, with the tier") from
        (Analyzer.derived_from anl))
    (List.sort_uniq compare [ 1; max 1 (n / 2) ])

(* The five workloads, raw and transpiled, on a log source and on a
   store: τ spread over each history, in every mode. *)
let test_tiers_workloads () =
  List.iter
    (fun (name, (config, base, log)) ->
      let tiered_of open_ =
        let anl = open_ Uv_obs.Trace.disabled in
        Analyzer.require ~grouped:true anl ~from:1;
        anl
      in
      let from_log obs = Analyzer.analyze ~config ~base ~obs log in
      let tiered = tiered_of from_log in
      let n = Analyzer.length tiered in
      let read_only =
        List.filter
          (fun i -> not (writes (Analyzer.info tiered i)))
          (List.init n (fun i -> i + 1))
      in
      let targets = targets tiered in
      let other =
        match
          List.find_map
            (fun t -> match t.Analyzer.op with Analyzer.Change s -> Some s | _ -> None)
            targets
        with
        | Some s -> s
        | None -> Alcotest.failf "%s: no change target" name
      in
      check_tiers ~label:(name ^ " log") ~open_:from_log ~tiered ~targets ~read_only ~other;
      with_store log @@ fun dir ->
      let from_store obs =
        Analyzer.of_source ~config ~base ~obs (Analyzer.source_of_store (Log_store.open_ dir))
      in
      check_tiers ~label:(name ^ " store") ~open_:from_store ~tiered:(tiered_of from_store)
        ~targets ~read_only ~other)
    (Lazy.force fixture_histories)

(* The fixtures' provenance digest, each fixture's questions asked of an
   analyzer of its history derived from 1 without the tier: its first
   grouped question raises it. *)
let test_tiers_digest () =
  let deferred = ref 0 in
  let asked name _ =
    let config, base, log = List.assoc name (Lazy.force fixture_histories) in
    let obs = Uv_obs.Trace.create () in
    let anl = Analyzer.analyze ~config ~base ~obs log in
    Analyzer.require anl ~from:1;
    deferred := !deferred + counter obs "analyze.readonly_deferred";
    anl
  in
  check Alcotest.string "provenance unchanged" expected_provenance_digest
    (provenance_digest ~asked ());
  if !deferred = 0 then Alcotest.fail "no read-only entry was deferred"

(* A pass without the tier reads no tag: one history stored twice, its
   application-transaction tags padded to 8 bytes and to 64 (the same
   groups either way), costs a cold ungrouped derivation the same minor
   words from the first entry and from the middle. A pass that copied
   each entry's tag would allocate more for the longer ones. Only whole
   segments are stored: each segment's text then goes straight to the
   major heap, whatever its tags' length. *)
let test_tiers_tag_bytes () =
  let w = List.hd (W.all ()) in
  let eng, base = build w ~mode:R.Raw ~n:60 in
  let config = w.W.ri_config and cap = 64 in
  let records = Log_io.records_of_log (Engine.log eng) in
  let n = List.length records / cap * cap in
  let records = List.filteri (fun k _ -> k < n) records in
  let tagged = List.filter (fun r -> r.Log_io.r_app_txn <> None) records in
  if List.length tagged < n / 2 then Alcotest.fail "too few tagged entries";
  let pad width tag =
    let t = tag ^ ":" in
    t ^ String.make (max 0 (width - String.length t)) 'x'
  in
  let derive width ~from =
    let dir = Filename.temp_file "uv_tier_tags" "" in
    Sys.remove dir;
    let store = Log_store.open_ ~segment_cap:cap dir in
    List.iter
      (fun r ->
        Log_store.append store
          { r with Log_io.r_app_txn = Option.map (pad width) r.Log_io.r_app_txn })
      records;
    Log_store.close store;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () ->
        let anl =
          Analyzer.of_source ~config ~base (Analyzer.source_of_store (Log_store.open_ dir))
        in
        let (), minor, _ = Alloc.words_of (fun () -> Analyzer.require anl ~from) in
        minor)
  in
  List.iter
    (fun from ->
      (* the first derivation warms what a process does once *)
      ignore (derive 8 ~from : float);
      let short = derive 8 ~from and long = derive 64 ~from in
      if short <> long then
        Alcotest.failf "from %d: a cold ungrouped derivation allocated %.0f minor words with \
                        8-byte tags, %.0f with 64-byte tags"
          from short long)
    [ 1; n / 2 ]

let () =
  Alcotest.run "closure"
    [
      ( "reference",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_reference name))
          (Lazy.force fixtures)
        @ [
            Alcotest.test_case "provenance digest" `Quick
              test_provenance_digest;
            Alcotest.test_case "hand-built history" `Quick test_hand_built;
            Alcotest.test_case "extend across an RI merge" `Quick
              test_extend_across_merge;
            Alcotest.test_case "question-time RI merge" `Quick
              test_question_time_merge;
            Alcotest.test_case "a question leaves the analyzer as it was" `Quick
              test_question_leaves_analyzer;
            Alcotest.test_case "group mate behind the row sweep" `Quick
              test_group_mate_behind_sweep;
            Alcotest.test_case "Cell keeps a row-closure bridge" `Quick
              test_cell_row_bridge;
          ] );
      ( "question cost",
        [
          Alcotest.test_case "flat in history length" `Quick
            test_cost_flat_in_history;
          Alcotest.test_case "column visits flat in history length" `Quick
            test_col_visits_flat_in_history;
          Alcotest.test_case "column visits: members plus excluded" `Quick
            test_col_visits_join;
          Alcotest.test_case "replay edges flat in history length" `Quick
            test_edges_flat_in_history;
          Alcotest.test_case "row visits flat in history length" `Quick
            test_row_visits_flat_in_history;
          Alcotest.test_case "row visits flat on workload histories" `Quick
            test_row_visits_flat_on_workloads;
          Alcotest.test_case "Cell column visits flat on a hot row" `Quick
            test_cell_visits_hot_row;
          Alcotest.test_case "replay DAG cell visits linear on a hot key"
            `Quick test_dag_visits_hot_key;
          Alcotest.test_case "exact stop: one verdict per member while the set holds"
            `Quick test_stop_verdicts_per_member;
        ] );
      ( "shape memo",
        [
          Alcotest.test_case "five workloads, raw and transpiled" `Quick
            test_memo_workloads;
          Alcotest.test_case "DDL between uses of a shape" `Quick test_memo_ddl;
          Alcotest.test_case "DDL inside a transaction" `Quick
            test_memo_transaction;
          Alcotest.test_case "single-literal mutations" `Quick
            test_memo_literals;
          Alcotest.test_case "derivations flat in history length" `Quick
            test_memo_flat_in_history;
          QCheck_alcotest.to_alcotest prop_plan_equals_reference;
        ] );
      ( "generated",
        [
          QCheck_alcotest.to_alcotest prop_closure_equals_reference;
          QCheck_alcotest.to_alcotest prop_dag_orders;
        ] );
      ( "from tau",
        [
          Alcotest.test_case "five workloads, raw and transpiled" `Quick
            test_from_tau_workloads;
          Alcotest.test_case "alias, merge and DDL below τ" `Quick
            test_from_tau_teaching;
          Alcotest.test_case "question-time RI merge" `Quick test_from_tau_merge;
          Alcotest.test_case "a failed pass derives again" `Quick
            test_from_tau_failed_pass;
          Alcotest.test_case "extend past a derived bound" `Quick
            test_from_tau_extend;
        ] );
      ( "store entries",
        [
          Alcotest.test_case "five workloads: store info == log info" `Quick
            test_store_infos_workloads;
          Alcotest.test_case "hand literals: store info == log info" `Quick
            test_store_infos_hand;
        ] );
      ( "read-only",
        [
          Alcotest.test_case "five workloads: answers and infos agree with and without the tier"
            `Quick test_tiers_workloads;
          Alcotest.test_case "provenance digest without the tier" `Quick test_tiers_digest;
        ] );
      ( "tag bytes",
        [
          Alcotest.test_case "tag bytes cost an ungrouped pass nothing" `Quick
            test_tiers_tag_bytes;
        ] );
    ]
