
type t = {
  scn_name : string;
  eng : Uv_db.Engine.t;
  scn_parent : t option;
  mutable scn_children : t list;
  ri_config : Rowset.config;
  base : Uv_db.Catalog.t option;
}

let root ?(name = "root") ?base ?(ri_config = Rowset.default_config) eng =
  { scn_name = name; eng; scn_parent = None; scn_children = []; ri_config; base }

let name t = t.scn_name
let parent t = t.scn_parent
let children t = List.rev t.scn_children

let rec depth t = match t.scn_parent with None -> 0 | Some p -> 1 + depth p

let engine t = t.eng

let history_length t = Uv_db.Log.length (Uv_db.Engine.log t.eng)

let db_hash t = Uv_db.Engine.db_hash t.eng

let query t sel = Uv_db.Engine.query t.eng sel

let query_sql t sql = Uv_db.Engine.query_sql t.eng sql

let branch ?name ?config t (target : Analyzer.target) =
  let analyzer =
    Analyzer.analyze ~config:t.ri_config ?base:t.base (Uv_db.Engine.log t.eng)
  in
  let out = Whatif.run_exn ?config ~analyzer t.eng target in
  let child_cat = Uv_db.Catalog.snapshot (Uv_db.Engine.catalog t.eng) in
  Uv_db.Catalog.copy_tables_into out.Whatif.temp_catalog ~into:child_cat
    out.Whatif.replay.Analyzer.mutated;
  let child_eng =
    Uv_db.Engine.of_catalog ~log:(Whatif.new_log out) child_cat
  in
  let child_name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s/#%d" t.scn_name (List.length t.scn_children + 1)
  in
  let child =
    {
      scn_name = child_name;
      eng = child_eng;
      scn_parent = Some t;
      scn_children = [];
      ri_config = t.ri_config;
      base = t.base;
    }
  in
  t.scn_children <- child :: t.scn_children;
  (child, out)

let branch_seq ?name ?config t targets =
  let ordered =
    List.sort
      (fun (a : Analyzer.target) (b : Analyzer.target) ->
        compare b.Analyzer.tau a.Analyzer.tau)
      targets
  in
  let scenario = ref t and outcomes = ref [] in
  List.iter
    (fun target ->
      let child, out = branch ?config !scenario target in
      (* unregister the intermediate from its parent to keep the tree tidy *)
      (match child.scn_parent with
      | Some p -> p.scn_children <- List.filter (fun c -> c != child) p.scn_children
      | None -> ());
      scenario := child;
      outcomes := out :: !outcomes)
    ordered;
  let final = !scenario in
  let named =
    match name with
    | Some n -> { final with scn_name = n; scn_parent = Some t }
    | None -> { final with scn_parent = Some t }
  in
  t.scn_children <- named :: t.scn_children;
  (named, List.rev !outcomes)

let rec lineage t =
  match t.scn_parent with
  | None -> [ t.scn_name ]
  | Some p -> lineage p @ [ t.scn_name ]

let rec pp_tree fmt t =
  Format.fprintf fmt "%s%s (%d statements, hash %Lx)@."
    (String.make (2 * depth t) ' ')
    t.scn_name (history_length t) (db_hash t);
  List.iter (pp_tree fmt) (children t)
