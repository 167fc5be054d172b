type plan = {
  waves : int list list;
  conflict_edges : int;
  statements : int;
}

(* cell-wise conflict: column-level overlap refined by row-level overlap;
   _S schema keys behave as wildcard rows (Table B) *)
let conflicts row_state (a_rw : Rwset.rw) a_rows (b_rw : Rwset.rw) b_rows =
  let inter x y = not (Rwset.Colset.is_empty (Rwset.Colset.inter x y)) in
  let sk s = Rwset.Colset.filter Analyzer.is_schema_key s in
  let col_conflict =
    inter a_rw.Rwset.w b_rw.Rwset.r
    || inter a_rw.Rwset.r b_rw.Rwset.w
    || inter a_rw.Rwset.w b_rw.Rwset.w
  in
  let schema_conflict =
    inter (sk a_rw.Rwset.w) (sk b_rw.Rwset.r)
    || inter (sk a_rw.Rwset.r) (sk b_rw.Rwset.w)
    || inter (sk a_rw.Rwset.w) (sk b_rw.Rwset.w)
  in
  let row_conflict =
    schema_conflict
    || List.exists
         (fun (table, acc_a) ->
           match List.assoc_opt table b_rows with
           | Some acc_b -> Rowset.overlaps row_state table acc_a `Any_conflict acc_b
           | None -> false)
         a_rows
  in
  col_conflict && row_conflict

let plan ?(config = Rowset.default_config) ~base stmts =
  let sv = Schema_view.of_catalog base in
  let row_state = Rowset.create config in
  Rowset.seed_aliases row_state base;
  let infos =
    List.map
      (fun s ->
        let rw = Rwset.of_stmt sv s in
        let rows = Rowset.of_entry row_state sv s [] in
        (* planned DDL evolves the schema for later statements *)
        Schema_view.apply sv s;
        (rw, rows))
      stmts
  in
  let arr = Array.of_list infos in
  let n = Array.length arr in
  let edges = ref [] in
  for i = 0 to n - 1 do
    let a_rw, a_rows = arr.(i) in
    for j = 0 to i - 1 do
      let b_rw, b_rows = arr.(j) in
      if conflicts row_state b_rw b_rows a_rw a_rows then
        edges := (i, j) :: !edges
    done
  done;
  let dag = Conflict_dag.build ~nodes:(List.init n Fun.id) ~edges:!edges in
  {
    waves = Conflict_dag.waves dag;
    conflict_edges = Conflict_dag.edge_count dag;
    statements = n;
  }

let wave_count p = List.length p.waves

let parallelism p =
  if p.waves = [] then 1.0
  else float_of_int p.statements /. float_of_int (List.length p.waves)

let execute eng stmts plan =
  let arr = Array.of_list stmts in
  List.concat_map
    (fun wave ->
      List.filter_map
        (fun i ->
          match Uv_db.Engine.exec eng arr.(i) with
          | r -> Some (i, r)
          | exception (Uv_db.Engine.Sql_error _ | Uv_db.Engine.Signal_raised _) ->
              None)
        wave)
    plan.waves
