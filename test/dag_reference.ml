(* The string-keyed replay-DAG edge builders [Analyzer.replay_dag]
   replaced, kept as the reference it is checked against: the cell rule
   over (column, canonical value) buckets and the row-level write-write
   rule, reading the analyzer through its interface only. Their sorted
   union is the reference edge set. Row values are canonicalised under
   the merge state at the call, so a reference taken after a
   question-time RI merge sees the merged rows. *)

open Uv_retroactive

let is_schema_key k = String.length k > 3 && String.starts_with ~prefix:"_S." k

let entry_row_tokens anl (inf : Analyzer.info) table ~write =
  match List.assoc_opt table inf.Analyzer.rows with
  | Some access when Array.length access > 0 -> (
      let rs = if write then access.(0).Rowset.dw else access.(0).Rowset.dr in
      match rs with
      | Rowset.Any -> [ "*" ]
      | Rowset.Vals s ->
          Rowset.Vset.fold
            (fun v acc ->
              Analyzer.canonical_row_value anl ~table
                (Uv_sql.Value.deserialize v)
              :: acc)
            s [])
  | _ -> [ "*" ]

let dependency_edges anl ~members =
  let edges = ref [] in
  let buckets : (string * string, (int * bool) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  let tokens_of_col : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  let bucket key =
    match Hashtbl.find_opt buckets key with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.replace buckets key b;
        let c, v = key in
        let toks =
          match Hashtbl.find_opt tokens_of_col c with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace tokens_of_col c l;
              l
        in
        if not (List.mem v !toks) then toks := v :: !toks;
        b
  in
  let scan_limit = 64 in
  let table_of_col c =
    match String.index_opt c '.' with Some i -> String.sub c 0 i | None -> c
  in
  List.iter
    (fun i ->
      let inf = Analyzer.info anl i in
      let consider key ~i_writes =
        match Hashtbl.find_opt buckets key with
        | None -> ()
        | Some accs ->
            let rec scan k = function
              | [] -> ()
              | (j, _) :: rest when j = i -> scan k rest
              | (j, j_wrote) :: rest ->
                  if k >= scan_limit then edges := (i, j) :: !edges
                  else if i_writes then begin
                    edges := (i, j) :: !edges;
                    if not j_wrote then scan (k + 1) rest
                  end
                  else if j_wrote then edges := (i, j) :: !edges
                  else scan (k + 1) rest
            in
            scan 0 !accs
      in
      let touch c ~write =
        let toks = entry_row_tokens anl inf (table_of_col c) ~write in
        List.iter
          (fun v ->
            (if v = "*" then
               match Hashtbl.find_opt tokens_of_col c with
               | Some all -> List.iter (fun v' -> consider (c, v') ~i_writes:write) !all
               | None -> ()
             else begin
               consider (c, v) ~i_writes:write;
               consider (c, "*") ~i_writes:write
             end);
            let b = bucket (c, v) in
            b :=
              (i, write)
              :: (if List.length !b > 2 * scan_limit then
                    List.filteri (fun k _ -> k < scan_limit) !b
                  else !b))
          toks
      in
      Rwset.Colset.iter (fun c -> touch c ~write:false) inf.Analyzer.rw.Rwset.r;
      Rwset.Colset.iter (fun c -> touch c ~write:true) inf.Analyzer.rw.Rwset.w)
    members;
  List.sort_uniq compare !edges

let write_write_table_edges anl ~members =
  let edges = ref [] in
  let last_writer : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
  let toks_of_table : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
  let note_tok table v =
    let l =
      match Hashtbl.find_opt toks_of_table table with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace toks_of_table table l;
          l
    in
    if not (List.mem v !l) then l := v :: !l
  in
  let write_tables (rw : Rwset.rw) =
    Rwset.Colset.fold
      (fun key acc ->
        if is_schema_key key then acc
        else
          match String.index_opt key '.' with
          | Some i -> String.sub key 0 i :: acc
          | None -> acc)
      rw.Rwset.w []
    |> List.sort_uniq compare
  in
  List.iter
    (fun i ->
      let inf = Analyzer.info anl i in
      List.iter
        (fun table ->
          let toks = entry_row_tokens anl inf table ~write:true in
          let edge_to j = if j <> i then edges := (i, j) :: !edges in
          List.iter
            (fun v ->
              if v = "*" then (
                match Hashtbl.find_opt toks_of_table table with
                | Some all ->
                    List.iter
                      (fun v' ->
                        Option.iter edge_to (Hashtbl.find_opt last_writer (table, v')))
                      !all
                | None -> ())
              else begin
                Option.iter edge_to (Hashtbl.find_opt last_writer (table, v));
                Option.iter edge_to (Hashtbl.find_opt last_writer (table, "*"))
              end)
            toks;
          List.iter
            (fun v ->
              if v = "*" then begin
                (match Hashtbl.find_opt toks_of_table table with
                | Some all ->
                    List.iter (fun v' -> Hashtbl.replace last_writer (table, v') i) !all
                | None -> ());
                note_tok table "*";
                Hashtbl.replace last_writer (table, "*") i
              end
              else begin
                note_tok table v;
                Hashtbl.replace last_writer (table, v) i
              end)
            toks)
        (write_tables inf.Analyzer.rw))
    members;
  List.sort_uniq compare !edges

let edges anl ~members =
  List.sort_uniq compare
    (dependency_edges anl ~members @ write_write_table_edges anl ~members)

(* [Analyzer.replay_dag]'s edges and waves over [members] equal the
   reference's. *)
let check ~label anl members =
  let want = edges anl ~members in
  let dag = Analyzer.replay_dag anl ~members in
  Alcotest.check Alcotest.(list (pair int int)) (label ^ ": edges") want (Conflict_dag.edges dag);
  Alcotest.check
    Alcotest.(list (list int))
    (label ^ ": waves")
    (Conflict_dag.waves (Conflict_dag.build ~nodes:members ~edges:want))
    (Conflict_dag.waves dag)
