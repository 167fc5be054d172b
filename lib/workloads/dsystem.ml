open Uv_db
open Uv_retroactive
module R = Uv_transpiler.Runtime

type outcome = {
  member_invocations : int;
  total_invocations : int;
  undone_entries : int;
  replayed_entries : int;
  analysis_ms : float;
  real_ms : float;
  serial_cost_ms : float;
  parallel_cost_ms : float;
  temp_catalog : Catalog.t;
}

let tag_of_invocation (inv : R.invocation) = inv.R.inv_tag

let run ?(workers = 8) ?(rtt_ms = 1.0) ~analyzer ~runtime eng ~target_tag =
  let t0 = Uv_util.Clock.now_ms () in
  let log = Engine.log eng in
  (* entries of the target transaction *)
  let target_entries = ref [] in
  Log.iter log (fun e ->
      if e.Log.app_txn = Some target_tag then target_entries := e.Log.index :: !target_entries);
  let target_entries = List.rev !target_entries in
  let tau = match target_entries with i :: _ -> i | [] -> 1 in
  (* transaction-granular replay set *)
  let rs =
    Analyzer.replay_set ~mode:Analyzer.Cell ~grouped:true analyzer
      { Analyzer.tau; op = Analyzer.Remove }
  in
  let analysis_ms = Uv_util.Clock.now_ms () -. t0 in
  (* the target's own entries must be rolled back and NOT replayed *)
  let target_set = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace target_set i ()) target_entries;
  let member_entries =
    List.filter
      (fun i -> not (Hashtbl.mem target_set i))
      rs.Analyzer.member_indexes
  in
  (* member transactions, by tag, in first-entry order *)
  let tag_set = Hashtbl.create 1024 in
  let member_tags = ref [] in
  List.iter
    (fun i ->
      match (Log.entry log i).Log.app_txn with
      | Some tag when (not (Hashtbl.mem tag_set tag)) && tag <> target_tag ->
          Hashtbl.replace tag_set tag ();
          member_tags := tag :: !member_tags
      | _ -> ())
    member_entries;
  let member_tags = List.rev !member_tags in
  (* temporary database over the affected tables *)
  let affected = List.sort_uniq compare (rs.Analyzer.mutated @ rs.Analyzer.consulted) in
  let temp_cat = Catalog.snapshot_tables (Engine.catalog eng) affected in
  (* rollback: target entries + member entries, newest first *)
  let undo_list =
    List.sort_uniq compare (target_entries @ member_entries) |> List.rev
  in
  ignore
    (Log.undo_entries temp_cat
       (List.map (fun i -> (Log.entry log i).Log.undo) undo_list)
      : Log.undo_stats);
  (* replay: re-invoke the member application functions against the
     temporary database with their recorded inputs and draws *)
  let temp_eng = Engine.of_catalog ~rtt_ms temp_cat in
  let temp_rt = R.create_from_program temp_eng (R.program runtime) in
  let invocations = R.invocations runtime in
  (* per-transaction queue of the original statements' recorded
     non-determinism: the replay reuses past RAND values and past
     AUTO_INCREMENT keys (§4.4); gathered for all tags in one log pass *)
  let nondet_by_tag = Hashtbl.create 1024 in
  Log.iter log (fun e ->
      match e.Log.app_txn with
      | Some tag when Hashtbl.mem tag_set tag ->
          let q =
            match Hashtbl.find_opt nondet_by_tag tag with
            | Some q -> q
            | None ->
                let q = ref [] in
                Hashtbl.replace nondet_by_tag tag q;
                q
          in
          q := e.Log.nondet :: !q
      | _ -> ());
  let nondet_of_tag tag =
    match Hashtbl.find_opt nondet_by_tag tag with
    | Some q -> List.rev !q
    | None -> []
  in
  List.iter
    (fun (inv : R.invocation) ->
      if Hashtbl.mem tag_set inv.R.inv_tag then
        ignore
          (R.replay_invocation
             ~stmt_nondet:(nondet_of_tag inv.R.inv_tag)
             temp_rt ~mode:R.Raw inv))
    invocations;
  let replayed_entries = Log.length (Engine.log temp_eng) in
  let real_ms = Uv_util.Clock.now_ms () -. t0 in
  let serial_cost_ms = real_ms +. (float_of_int replayed_entries *. rtt_ms) in
  (* parallel view: conflict DAG over the member entries, weighted by the
     average per-statement replay cost *)
  let per_stmt =
    (real_ms -. analysis_ms) /. float_of_int (max 1 replayed_entries)
  in
  let parallel_cost_ms =
    analysis_ms
    +. Conflict_dag.makespan
         (Analyzer.replay_dag analyzer ~members:member_entries)
         ~weight:(fun _ -> per_stmt +. rtt_ms)
         ~workers
  in
  {
    member_invocations = List.length member_tags;
    total_invocations = List.length invocations;
    undone_entries = List.length undo_list;
    replayed_entries;
    analysis_ms;
    real_ms;
    serial_cost_ms;
    parallel_cost_ms;
    temp_catalog = temp_cat;
  }

let query outcome sel =
  Engine.query (Engine.of_catalog outcome.temp_catalog) sel
