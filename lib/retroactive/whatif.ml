module Config = struct
  type t = {
    mode : Analyzer.mode;
    workers : int;
    hash_jumper : bool;
    obs : Uv_obs.Trace.t;
    deadline_ms : float option;
    fault : Uv_fault.Fault.t;
  }

  let make ?(mode = Analyzer.Cell) ?(workers = 8) ?(hash_jumper = false)
      ?(obs = Uv_obs.Trace.disabled) ?deadline_ms
      ?(fault = Uv_fault.Fault.disabled) ?plans:_ () =
    (* [?plans] is inert; see whatif.mli *)
    {
      mode;
      workers = max 1 workers;
      hash_jumper;
      obs;
      deadline_ms;
      fault;
    }

  let default = make ()
  let mode c = c.mode
  let workers c = c.workers
  let hash_jumper c = c.hash_jumper
  let obs c = c.obs
  let deadline_ms c = c.deadline_ms
  let fault c = c.fault
end

module Error = struct
  type code = Deadline | Fault | Internal

  type t = { code : code; phase : string; message : string }

  let code_name = function
    | Deadline -> "deadline"
    | Fault -> "fault"
    | Internal -> "internal"

  let to_string e =
    Printf.sprintf "what-if aborted [%s] during %s: %s" (code_name e.code)
      e.phase e.message
end

exception Abort of Error.t

type config = Config.t

let default_config = Config.default

(* What the merged history is built from, captured at question time in
   O(replay set). The history prefix shares the log's backing array and
   the rest is immutable, so an outcome stays safe to read from any
   domain. *)
type merge = {
  history : Uv_db.Log.prefix;
  tau : int;
  op : Analyzer.op;
  op_entry : Uv_db.Log.entry option;  (* the retroactive op's own entry *)
  members : (int * Uv_db.Log.entry option) list;
      (* ascending, each with its re-executed entry; [None] when the
         replay produced none *)
  hash_jumped : bool;
  stopped : Wave_exec.stop option;
      (* the replay stopped where it rejoined history: the entries come
         from [Wave_exec.complete] instead *)
}

type outcome = {
  replay : Analyzer.replay_set;
  replayed : int;
  undone : int;
  failed_replays : int;
  hash_jump_at : int option;
  stop_at : (int * int) option;
  real_ms : float;
  serial_cost_ms : float;
  simulated_parallel_ms : float;
  measured_parallel_ms : float option;
  workers : int;
  exec_waves : int;
  analysis_ms : float;
  phases : (string * float) list;
  final_db_hash : int64;
  changed : bool;
  degraded : bool;
  retries : int;
  temp_catalog : Uv_db.Catalog.t;
  merge : merge;
  rollback_strategy : string;
  plans_used : int; (* always 0; see whatif.mli *)
  redone : int;
}

let fault_message (inj : Uv_fault.Fault.injection) =
  Printf.sprintf "injected %s at %s (key %d, hit %d)"
    (Uv_fault.Fault.kind_name inj.Uv_fault.Fault.kind)
    inj.Uv_fault.Fault.site inj.Uv_fault.Fault.key inj.Uv_fault.Fault.hit

(* No DDL among the members and the added or changed statement: the
   schema holds still through the replay. *)
let dml_only ~analyzer target members =
  (match target.Analyzer.op with
  | Analyzer.Add s | Analyzer.Change s -> not (Uv_sql.Ast.is_ddl s)
  | Analyzer.Remove -> true)
  && not (List.exists (Analyzer.changes_schema analyzer) members)

let run_inner ~(config : Config.t) ~cur_phase ~analyzer eng
    (target : Analyzer.target) =
  let obs = config.Config.obs in
  let fault = config.Config.fault in
  let log = Uv_db.Engine.log eng in
  let rtt = Uv_util.Clock.rtt_ms (Uv_db.Engine.clock eng) in
  let op_kind =
    match target.Analyzer.op with
    | Analyzer.Add _ -> "add"
    | Analyzer.Remove -> "remove"
    | Analyzer.Change _ -> "change"
  in
  Uv_obs.Trace.with_span obs ~cat:"whatif"
    ~args:
      [ ("op", Uv_obs.Json.Str op_kind);
        ("tau", Uv_obs.Json.Int target.Analyzer.tau) ]
    "whatif"
  @@ fun () ->
  let t0 = Uv_util.Clock.now_ms () in
  (* the wall-clock budget: checked at every phase boundary, before every
     statement replayed in commit order and at every wave boundary — an
     abort leaves the original engine untouched (only the temporary
     universe is mid-flight, and it is discarded with the exception) *)
  let check_deadline () =
    match config.Config.deadline_ms with
    | Some d when Uv_util.Clock.now_ms () > t0 +. d ->
        raise
          (Abort
             {
               Error.code = Error.Deadline;
               phase = !cur_phase;
               message = Printf.sprintf "deadline of %g ms exceeded" d;
             })
    | _ -> ()
  in
  (* phase breakdown is measured on the plain clock even with observability
     off — it is a handful of timestamps per run and feeds the outcome *)
  let phases = ref [] in
  let phase ?args ?end_args name f =
    cur_phase := name;
    check_deadline ();
    let s = Uv_util.Clock.now_ms () in
    let r =
      match end_args with
      | Some end_args when Uv_obs.Trace.enabled obs ->
          (* args known only once the phase is done join the span *)
          let sp = Uv_obs.Trace.start obs ~cat:"phase" ?args name in
          let fin = ref [] in
          Fun.protect
            ~finally:(fun () -> Uv_obs.Trace.finish obs ~args:!fin sp)
            (fun () ->
              let r = f () in
              fin := end_args r;
              r)
      | _ -> Uv_obs.Trace.with_span obs ~cat:"phase" ?args name f
    in
    phases := (name, Uv_util.Clock.now_ms () -. s) :: !phases;
    r
  in
  (* 1. replay-set computation, on entries derived from τ *)
  let rs =
    phase "analyze" (fun () ->
        Analyzer.replay_set ~obs ~mode:config.Config.mode analyzer target)
  in
  let analysis_ms = List.assoc "analyze" !phases in
  let members = rs.Analyzer.member_indexes in
  (* 2. temporary database: mutated + consulted tables *)
  let affected = List.sort_uniq compare (rs.Analyzer.mutated @ rs.Analyzer.consulted) in
  let temp_cat =
    phase "snapshot" (fun () ->
        Uv_db.Catalog.snapshot_tables (Uv_db.Engine.catalog eng) affected)
  in
  (* the hash-jump phase is always recorded — with the jumper off it is an
     empty marker, so traces show the phase was considered and skipped *)
  let jumper =
    phase "hash-jump"
      ~args:[ ("enabled", Uv_obs.Json.Bool config.Config.hash_jumper) ]
      (fun () ->
        if config.Config.hash_jumper then begin
          let j =
            Hash_jumper.of_log ~initial:(Analyzer.base_hashes analyzer) log
          in
          let final =
            List.filter_map
              (fun table ->
                Option.map
                  (fun tbl -> (table, Uv_db.Storage.hash tbl))
                  (Uv_db.Catalog.table (Uv_db.Engine.catalog eng) table))
              rs.Analyzer.mutated
          in
          Some
            (Hash_jumper.expectations j ~final ~mutated:rs.Analyzer.mutated
               ~members)
        end
        else None)
  in
  (* 3. rollback: undo members (and the removed/changed target) newest
     first, folded into one restore per row ([Log.undo_entries]). How
     members replay is decided here too, as a removal known to stop
     before its first member defers its row undo:
     members are redone from their journals when the schema holds still;
     the removed or changed target must be DML too, as its journal seeds
     the dirty set *)
  let dml, fixed_objects, redo, repeating, deferred, undo_journals, tau_journal, undo_count,
      undo_stats =
    phase "rollback"
      ~end_args:(fun (_, _, _, _, _, _, _, _, st) ->
        [ ("records", Uv_obs.Json.Int st.Uv_db.Log.undo_records);
          ("rows", Uv_obs.Json.Int st.Uv_db.Log.rows_restored) ])
      (fun () ->
        let tau_entry =
          match target.Analyzer.op with
          | (Analyzer.Remove | Analyzer.Change _)
            when target.Analyzer.tau >= 1
                 && target.Analyzer.tau <= Uv_db.Log.length log ->
              Some (Uv_db.Log.entry log target.Analyzer.tau)
          | _ -> None
        in
        let dml = dml_only ~analyzer target members in
        let tau_dml =
          Option.fold ~none:true
            ~some:(fun e -> not (Uv_sql.Ast.is_ddl e.Uv_db.Log.stmt))
            tau_entry
        in
        let redo_fits = members <> [] && dml && tau_dml in
        (* newest first: τ put into the ascending members *)
        let undo_list =
          match tau_entry with
          | None -> List.rev members
          | Some _ ->
              let tau = target.Analyzer.tau in
              let below, above = List.partition (fun i -> i < tau) members in
              List.rev_append above (tau :: List.rev below)
        in
        let undo_journals =
          List.map (fun i -> (Uv_db.Log.entry log i).Uv_db.Log.undo) undo_list
        in
        let tau_journal =
          match tau_entry with Some e -> e.Uv_db.Log.undo | None -> []
        in
        let redo =
          if not redo_fits then None
          else begin
            let r = Redo.create analyzer temp_cat in
            if target.Analyzer.op = Analyzer.Remove then Redo.seed r tau_journal;
            Some r
          end
        in
        (* A removal whose members all repeat history over the rows τ
           left dirty ([Redo.repeats]: each would be redone over rows
           outside the set, and leave the set as it is) stops before its
           first member (the wave schedule's exact stop): no statement of
           the question reads a rolled-back row, so only the counters are
           set, and the row undo waits for the merged history
           ([Wave_exec.complete]). The test runs before the rollback, so
           the set's rows are read on history's side, which only undoing
           τ moves while no member names one of them. The prefix of
           members that repeat is found here, once: the replay's stop
           cursor starts where it ends. *)
        let repeating =
          match redo with
          | Some r
            when target.Analyzer.op = Analyzer.Remove
                 && (not config.Config.hash_jumper)
                 && (Redo.is_empty r
                    || not
                         (List.exists
                            (fun i -> Redo.names_dirty r (Uv_db.Log.entry log i).Uv_db.Log.undo)
                            members)) ->
              let rec lead n = function
                | i :: rest
                  when let e = Uv_db.Log.entry log i in
                       Redo.repeats r i e.Uv_db.Log.stmt e.Uv_db.Log.undo ->
                    lead (n + 1) rest
                | _ -> n
              in
              Some (lead 0 members)
          | _ -> None
        in
        let deferred = repeating = Some (List.length members) in
        let stats =
          if deferred then begin
            Uv_db.Log.undo_counters temp_cat undo_journals;
            { Uv_db.Log.undo_records = 0; rows_restored = 0 }
          end
          else begin
            let st = Uv_db.Log.undo_entries temp_cat undo_journals in
            Option.iter Redo.rolled_back redo;
            st
          end
        in
        (* no view, procedure, trigger or index changes unless a
           statement the question runs or undoes is DDL or writes a
           schema key *)
        ( dml,
          dml
          && not
               (Option.is_some tau_entry
               && Analyzer.changes_schema analyzer target.Analyzer.tau),
          redo,
          repeating,
          deferred,
          undo_journals,
          tau_journal,
          List.length undo_list,
          stats ))
  in
  (* 4. replay forward, in commit order or over the replay DAG's waves *)
  let hash_jump_at = ref None in
  let dag, res, universe, stop_rows =
    phase "replay" @@ fun () ->
    let stride = 1 lsl 20 in
    let head_stmt =
      match target.Analyzer.op with
      | Analyzer.Add s | Analyzer.Change s -> Some s
      | Analyzer.Remove -> None
    in
    let r0 =
      (* a private rowid range per statement for the inserts history
         gives no rowid, above everything live; nothing to run, no
         range *)
      if members = [] && head_stmt = None then 0
      else
        let mx =
          List.fold_left
            (fun acc (_, st) -> max acc (Uv_db.Storage.next_rowid st))
            0
            (Uv_db.Catalog.tables temp_cat)
        in
        ((mx / stride) + 1) * stride
    in
    (* the tables a trigger fires on, of the catalog's epoch *)
    let structural_tables =
      if members = [] then []
      else Analyzer.trigger_tables (Analyzer.catalog_facts analyzer temp_cat)
    in
    let items =
      Uv_obs.Trace.with_span obs ~cat:"replay" "replay.items" @@ fun () ->
      List.map
        (fun i ->
          let entry = Uv_db.Log.entry log i in
          {
            Wave_exec.idx = i;
            stmt = entry.Uv_db.Log.stmt;
            sql = entry.Uv_db.Log.sql;
            nondet = entry.Uv_db.Log.nondet;
            app_txn = entry.Uv_db.Log.app_txn;
            sim_time = 1_700_000_000 + i;
            rowid_base = r0 + (i * stride);
            structural =
              structural_tables <> []
              && List.exists
                   (fun t -> List.mem t structural_tables)
                   (Analyzer.written_tables analyzer i);
            journal = entry.Uv_db.Log.undo;
          })
        members
    in
    (* a changed τ's statement takes τ's rowids *)
    let head =
      match head_stmt with
      | Some s ->
          Some
            {
              Wave_exec.idx = 0;
              stmt = s;
              sql = Uv_sql.Printer.stmt_compact s;
              nondet = [];
              app_txn = None;
              sim_time = 1_700_000_000 + target.Analyzer.tau;
              rowid_base = r0;
              structural = true;
              journal = tau_journal;
            }
      | None -> None
    in
    (* the Hash-jumper's prefix check after every replayed member *)
    let stop_after =
      match jumper with
      | None -> fun _ _ -> false
      | Some exp ->
          fun pos (it : Wave_exec.item) ->
            Uv_obs.Trace.incr obs "hash_jumper.checks";
            let hit = Hash_jumper.converged exp temp_cat ~member_pos:pos in
            if hit then begin
              Uv_obs.Trace.incr obs "hash_jumper.hits";
              Uv_obs.Trace.instant obs "hash_jumper.hit"
                ~args:[ ("index", Uv_obs.Json.Int it.Wave_exec.idx) ];
              hash_jump_at := Some it.Wave_exec.idx
            end
            else Uv_obs.Trace.incr obs "hash_jumper.misses";
            hit
    in
    let dag, schedule =
      (* The replay DAG's waves run DML only: DDL members (or a DDL
         target) mutate the schema mid-replay, and the Hash-jumper's
         prefix check needs commit order. Those questions replay in
         commit order (see DESIGN.md §parallel replay executor). The
         DAG is built once the head has run, unless the replay stops
         before its first member. *)
      if dml && not config.Config.hash_jumper then
        let merges = rs.Analyzer.target_merges in
        let dag = lazy (Analyzer.replay_dag ~obs ~merges analyzer ~members) in
        (Some dag, Wave_exec.Waves { dag; workers = config.Config.workers })
      else (None, Wave_exec.Commit_order { stop_after })
    in
    let res =
      (* a statement fault that survives its one retry ends the run *)
      try
        Wave_exec.execute ~obs ~fault ~check:check_deadline ?redo ?repeating
          ?undo:(if deferred then Some undo_journals else None)
          ~schedule ~rtt_ms:rtt ~catalog:temp_cat ~head ~items ()
      with Uv_fault.Fault.Injected inj ->
        raise
          (Abort
             {
               Error.code = Error.Fault;
               phase = !cur_phase;
               message = fault_message inj ^ " persisted after retry";
             })
    in
    let universe, stop_rows =
      if Option.is_some !hash_jump_at || Option.is_some res.Wave_exec.stop then begin
        (* on a hash-hit or a stop the original tables are retained
           (§4.5): the outcome's universe takes the original's affected
           tables, the original timeline retained wholesale, schema
           objects included. At a stop, the rows still dirty take the
           replay's image at their rowids: no member left touches them,
           and every other row ends as history left it. A stop leaves
           the replay catalog as it was, for [new_log]. The counters and
           rowid floors are the full replay's: the replay's (rollback
           resets an inserting τ's counter), raised by each skipped
           member's inserts as redoing it would. A hit that skipped DDL
           keeps the original's. *)
        let u =
          Uv_db.Catalog.snapshot_tables (Uv_db.Engine.catalog eng) affected
        in
        let stop_rows =
          match redo with
          | Some r when Option.is_some res.Wave_exec.stop ->
              List.fold_left
                (fun n (name, rows) ->
                  Option.iter
                    (fun st -> Uv_db.Storage.restore_many st rows)
                    (Uv_db.Catalog.table u name);
                  n + List.length rows)
                0 (Redo.replay_rows r)
          | _ -> 0
        in
        let skipped =
          List.filter_map
            (fun i ->
              if Hashtbl.mem res.Wave_exec.durations i then None
              else Some (Uv_db.Log.entry log i))
            members
        in
        if List.for_all (fun e -> not (Uv_sql.Ast.is_ddl e.Uv_db.Log.stmt)) skipped
        then begin
          List.iter
            (fun (name, st) ->
              Option.iter
                (fun replayed ->
                  Uv_db.Storage.set_auto_value st
                    (Uv_db.Storage.next_auto_value replayed);
                  Uv_db.Storage.set_rowid_floor st
                    (Uv_db.Storage.next_rowid replayed))
                (Uv_db.Catalog.table temp_cat name))
            (Uv_db.Catalog.tables u);
          List.iter (fun e -> Uv_db.Log.redo_counters u e.Uv_db.Log.undo) skipped
        end;
        (u, stop_rows)
      end
      else (temp_cat, 0)
    in
    (dag, res, universe, stop_rows)
  in
  let stop_at = Option.map Wave_exec.stop_point res.Wave_exec.stop in
  if Uv_obs.Trace.enabled obs then begin
    (* every question counts, so each counter is present, 0 included *)
    let count name by = Uv_obs.Trace.incr obs ~by name in
    count "rollback.undo_records" undo_stats.Uv_db.Log.undo_records;
    count "rollback.rows_restored" undo_stats.Uv_db.Log.rows_restored;
    count "replay.redone" res.Wave_exec.redone;
    count "replay.executed" res.Wave_exec.executed;
    let stat f = Option.fold ~none:0 ~some:(fun r -> f (Redo.stats r)) redo in
    count "replay.redo_fallbacks" (stat (fun s -> s.Redo.fallbacks));
    count "replay.dirty_cells" (stat (fun s -> s.Redo.dirty_cells));
    count "replay.verdicts" (stat (fun s -> s.Redo.verdicts));
    (* a replay that stopped over an empty set emptied it before the
       members it skipped *)
    count "replay.dirty_emptied"
      (stat (fun s ->
           Bool.to_int
             (s.Redo.dirty_emptied
             || stop_at <> None
                && s.Redo.dirty_cells > 0
                && Option.fold ~none:false ~some:Redo.is_empty redo)));
    count "replay.stops" (Bool.to_int (stop_at <> None));
    count "replay.stop_skipped" (Option.fold ~none:0 ~some:snd stop_at);
    count "replay.stop_rows" stop_rows;
    (* a replay that built no DAG ordered nothing *)
    count "replay.edges" 0;
    count "replay.cell_visits" 0
  end;
  let weights = res.Wave_exec.durations in
  (* successful replays by commit index; the retroactive op is 0 *)
  let entry_of = res.Wave_exec.entries in
  let replayed_members =
    match (!hash_jump_at, stop_at) with
    | None, None -> members
    | _ -> List.filter (Hashtbl.mem weights) members
  in
  (* the replayed statements' own execution time: the replay phase less
     this is its overhead (engine set-up, wave dispatch, restamping) *)
  if Uv_obs.Trace.enabled obs then
    Uv_obs.Trace.observe obs "replay.exec_ms"
      (Hashtbl.fold (fun _ d acc -> acc +. d) weights 0.0);
  (* 5. cost model *)
  let serial_cost_ms, simulated_parallel_ms, changed =
    phase "cost-model" (fun () ->
        (* a statement that did not run weighs nothing *)
        let weight i =
          match Hashtbl.find_opt weights i with Some d -> d +. rtt | None -> 0.0
        in
        let op_weight = weight 0 in
        let serial_cost_ms =
          op_weight
          +. List.fold_left (fun acc i -> acc +. weight i) 0.0 replayed_members
        in
        (* one lane runs the members back to back: the commit-order sum is
           bit for bit [Conflict_dag.makespan ~workers:1], without the DAG *)
        let simulated_parallel_ms =
          if config.Config.workers = 1 then serial_cost_ms
          else
            let dag =
              match dag with
              | Some dag when Lazy.is_val dag -> Lazy.force dag
              | _ -> Analyzer.replay_dag ~obs ~merges:rs.Analyzer.target_merges analyzer
                    ~members:replayed_members
            in
            op_weight
            +. Conflict_dag.makespan dag ~weight ~workers:config.Config.workers
        in
        (* a stop's universe holds the original's objects *)
        let changed =
          Option.is_none !hash_jump_at
          && ((not
                 (Int64.equal
                    (Uv_db.Catalog.db_hash universe)
                    (Uv_db.Catalog.tables_hash (Uv_db.Engine.catalog eng)
                       affected)))
             || (not fixed_objects)
                && not
                     (String.equal
                        (Uv_db.Catalog.objects_signature universe)
                        (Uv_db.Catalog.objects_signature
                           (Uv_db.Engine.catalog eng))))
        in
        (serial_cost_ms, simulated_parallel_ms, changed))
  in
  let real_ms = Uv_util.Clock.now_ms () -. t0 in
  (* the merged history is built on demand ([new_log]); here only what it
     is built from is captured *)
  let merge =
    phase "merge-log" @@ fun () ->
    {
      history = Uv_db.Log.prefix log;
      tau = target.Analyzer.tau;
      op = target.Analyzer.op;
      op_entry = Hashtbl.find_opt entry_of 0;
      members = List.map (fun i -> (i, Hashtbl.find_opt entry_of i)) members;
      hash_jumped = !hash_jump_at <> None;
      stopped = res.Wave_exec.stop;
    }
  in
  {
    replay = rs;
    replayed = List.length replayed_members;
    (* a deferred rollback counts only where the replay applied it *)
    undone = (if deferred then res.Wave_exec.undone else undo_count);
    failed_replays = res.Wave_exec.failed;
    hash_jump_at = !hash_jump_at;
    stop_at;
    real_ms;
    serial_cost_ms;
    simulated_parallel_ms;
    measured_parallel_ms =
      (if Option.is_some dag then Some res.Wave_exec.measured_ms else None);
    workers = config.Config.workers;
    exec_waves = res.Wave_exec.wave_count;
    analysis_ms;
    phases = List.rev !phases;
    final_db_hash = Uv_db.Catalog.db_hash universe;
    changed;
    degraded = res.Wave_exec.degraded;
    retries = res.Wave_exec.retries;
    temp_catalog = universe;
    merge;
    rollback_strategy = (if deferred then "deferred" else "undo");
    plans_used = 0;
    redone = res.Wave_exec.redone;
  }

(* The new universe's history: original entries for non-members, replayed
   entries for members, the retroactive operation at τ; reindexed. *)
let new_log outcome =
  let m = outcome.merge in
  let m =
    match m.stopped with
    | None -> m
    | Some stop ->
        let entries = Wave_exec.complete stop in
        {
          m with
          op_entry = Hashtbl.find_opt entries 0;
          members = List.map (fun (i, _) -> (i, Hashtbl.find_opt entries i)) m.members;
        }
  in
  let history_len = Uv_db.Log.prefix_length m.history in
  let original i = Uv_db.Log.prefix_entry m.history i in
  let merged = Uv_db.Log.create () in
  let push e =
    Uv_db.Log.append merged
      { e with Uv_db.Log.index = Uv_db.Log.length merged + 1 }
  in
  let members = ref m.members in
  for i = 1 to history_len do
    let replayed =
      match !members with
      | (j, e) :: rest when j = i ->
          members := rest;
          Some e
      | _ -> None
    in
    if i = m.tau then begin
      (match (m.op, m.op_entry) with
      | (Analyzer.Add _ | Analyzer.Change _), Some e -> push e
      | _ -> ());
      match m.op with
      | Analyzer.Add _ -> push (original i)
      | Analyzer.Remove | Analyzer.Change _ -> ()
    end
    else
      match replayed with
      | None -> push (original i)
      | Some (Some e) -> push e
      (* only successful replays produced an entry; an aborted
         transaction is correctly absent from the new history, and past
         a hash-hit the original entry re-derives itself *)
      | Some None -> if m.hash_jumped then push (original i)
  done;
  (* an addition past the end of the history *)
  if m.tau > history_len then (
    match (m.op, m.op_entry) with
    | Analyzer.Add _, Some e -> push e
    | _ -> ());
  merged

let guarded cur_phase f =
  try Ok (f ()) with
  | Abort e -> Error e
  | Uv_util.Domain_pool.Worker_exit e ->
      Error
        {
          Error.code = Error.Fault;
          phase = !cur_phase;
          message = "worker lane died: " ^ Printexc.to_string e;
        }
  | (Out_of_memory | Stack_overflow | Assert_failure _) as e -> raise e
  | e ->
      Error
        {
          Error.code = Error.Internal;
          phase = !cur_phase;
          message = Printexc.to_string e;
        }

(* ------------------------------------------------------------------ *)
(* Service: thread-safe what-if over one shared, growing history        *)
(* ------------------------------------------------------------------ *)

module Service = struct
  (* One immutable view of every analysis cache, published as a unit:
     readers obtain the whole set with a single atomic load and can
     never observe a half-swapped cache (analyzer from one history
     length, epoch from another). The atomic swap alone is not the full
     concurrency argument, though — [Analyzer.extend] mutates the
     analyzer value *inside* the current snapshot in place. The
     reader/writer lock is what makes that sound: ingest/publish runs
     on the write side, every what-if runs on the read side, so no run
     ever overlaps an extend. The snapshot swap's job is the rebuild
     case (new analyzer value) and tear-freedom of the switch. *)
  type snapshot = {
    analyzer : Analyzer.t option;
    analyzed_len : int;
    last : Uv_db.Log.entry option;
        (* the entry at [analyzed_len]: a log rewritten in place holds
           another there, however far it grew past it *)
    epoch : int;
  }

  let empty_snapshot = { analyzer = None; analyzed_len = 0; last = None; epoch = -1 }

  (* Does [log] still hold the prefix [snap] analysed? *)
  let intact snap log =
    Uv_db.Log.length log >= snap.analyzed_len
    && Option.fold snap.last ~none:true ~some:(fun e ->
           Uv_db.Log.entry log snap.analyzed_len == e)

  type reply = { outcome : outcome; history_len : int }

  type stats = {
    runs : int;
    analyzer_builds : int;
    analyzer_extends : int;
    analyzed_entries : int;
    plan_cache_hits : int; (* always 0; see whatif.mli *)
    ingested : int;
    publishes : int;
  }

  (* [t] is defined after [stats] on purpose: the two share field names
     and unannotated [t.runs]-style accesses must resolve here. *)
  type t = {
    eng : Uv_db.Engine.t;
    config : Config.t;
    rowset : Rowset.config option;
    base : Uv_db.Catalog.t option;
    lock : Uv_util.Rwlock.t;
    state : snapshot Atomic.t;
    runs : int Atomic.t;
    analyzer_builds : int Atomic.t;
    analyzer_extends : int Atomic.t;
    ingested : int Atomic.t;
    publishes : int Atomic.t;
  }

  let create ?(config = Config.default) ?rowset ?base eng =
    {
      eng;
      config;
      rowset;
      base;
      (* Writer priority: a waiting ingest blocks *new* runs from being
         admitted, so a saturating stream of what-ifs cannot starve the
         committed-history writer. Safe here because the service lock is
         never read-acquired re-entrantly (run_fresh holds the read side
         exactly once; the engine's own storage locks are separate,
         reader-preferring instances). *)
      lock = Uv_util.Rwlock.create ~writer_priority:true ();
      state = Atomic.make empty_snapshot;
      runs = Atomic.make 0;
      analyzer_builds = Atomic.make 0;
      analyzer_extends = Atomic.make 0;
      ingested = Atomic.make 0;
      publishes = Atomic.make 0;
    }

  let engine t = t.eng
  let config t = t.config

  let lock_pressure t =
    (Uv_util.Rwlock.waiting_writers t.lock, Uv_util.Rwlock.active_readers t.lock)

  let history_len t =
    Uv_util.Rwlock.read t.lock (fun () ->
        Uv_db.Log.length (Uv_db.Engine.log t.eng))

  let stale t snap =
    let log = Uv_db.Engine.log t.eng in
    Option.is_none snap.analyzer
    || snap.analyzed_len <> Uv_db.Log.length log
    || (not (intact snap log))
    || snap.epoch <> Uv_db.Catalog.epoch (Uv_db.Engine.catalog t.eng)

  (* Bring the published snapshot up to the engine's committed head.
     Caller must hold the write lock. New entries extend the analyzer in
     O(Δ), DDL among them too: each steps the schema view a generation. A
     log rewritten in place (shrunk, or another entry at the analysed
     length) rebuilds from scratch, and so does a catalog epoch that
     moved while no new entry is DDL (a restore). An extended analyzer
     keeps the read-only tier a question raised; a rebuilt one starts
     without it. *)
  let publish_locked t =
    let obs = Config.obs t.config in
    let log = Uv_db.Engine.log t.eng in
    let n = Uv_db.Log.length log in
    let ep = Uv_db.Catalog.epoch (Uv_db.Engine.catalog t.eng) in
    let snap = Atomic.get t.state in
    (* is an entry after [i] DDL? *)
    let rec new_ddl i =
      i < n
      && (Uv_sql.Ast.is_ddl (Uv_db.Log.entry log (i + 1)).Uv_db.Log.stmt || new_ddl (i + 1))
    in
    let a =
      match snap.analyzer with
      | Some a when intact snap log && (ep = snap.epoch || new_ddl snap.analyzed_len) ->
          if n > snap.analyzed_len then begin
            ignore (Analyzer.extend ~obs a : int);
            Atomic.incr t.analyzer_extends;
            Uv_obs.Trace.incr obs "whatif.service.analyzer_extends"
          end;
          a
      | _ ->
          Atomic.incr t.analyzer_builds;
          Uv_obs.Trace.incr obs "whatif.service.analyzer_builds";
          Analyzer.of_source ?config:t.rowset ?base:t.base ~obs (Analyzer.source_of_log log)
    in
    (* derived from 1 here, under the write lock, so the questions that
       share it never derive: a no-op after an extend *)
    Analyzer.require ~obs a ~from:1;
    Atomic.incr t.publishes;
    let last = if n = 0 then None else Some (Uv_db.Log.entry log n) in
    Atomic.set t.state { analyzer = Some a; analyzed_len = n; last; epoch = ep }

  let publish t = Uv_util.Rwlock.write t.lock (fun () -> publish_locked t)

  let invalidate t =
    Uv_util.Rwlock.write t.lock (fun () -> Atomic.set t.state empty_snapshot)

  let ingest t stmts =
    Uv_util.Rwlock.write t.lock (fun () ->
        let failed = ref 0 in
        List.iter
          (fun s ->
            match ignore (Uv_db.Engine.exec t.eng s) with
            | () -> ()
            | exception Uv_db.Engine.Sql_error _ -> incr failed)
          stmts;
        let applied = List.length stmts - !failed in
        ignore (Atomic.fetch_and_add t.ingested applied : int);
        publish_locked t;
        (applied, !failed))

  let ingest_sql t sql = ingest t (Uv_sql.Parser.parse_script sql)

  (* Run [f snap analyzer], a question about [target], over a snapshot
     that is current w.r.t. the engine's head, holding the read side of the lock
     for the whole evaluation so no ingest can extend the analyzer
     mid-run. The pull-refresh retry loop means a what-if issued after
     the log grew sees the grown history. The question must derive
     nothing under the read lock ([Analyzer.covers]; the analyzer is
     derived from 1): one whose τ is a read-only entry a pass left
     underived first raises the analyzer's read-only tier under the
     write lock, without a publish. *)
  let rec run_fresh t (target : Analyzer.target) f =
    let tau = target.Analyzer.tau in
    match
      Uv_util.Rwlock.read t.lock (fun () ->
          let snap = Atomic.get t.state in
          match snap.analyzer with
          | Some a when (not (stale t snap)) && Analyzer.covers a ~from:tau -> Some (f snap a)
          | _ -> None)
    with
    | Some v -> v
    | None ->
        Uv_util.Rwlock.write t.lock (fun () ->
            let snap = Atomic.get t.state in
            match snap.analyzer with
            | Some a when not (stale t snap) -> Analyzer.require a ~from:tau
            | _ -> publish_locked t);
        run_fresh t target f

  let run ?config t target =
    let config = Option.value config ~default:t.config in
    run_fresh t target (fun snap analyzer ->
        Atomic.incr t.runs;
        let cur_phase = ref "init" in
        guarded cur_phase (fun () ->
            let outcome = run_inner ~config ~cur_phase ~analyzer t.eng target in
            { outcome; history_len = snap.analyzed_len }))

  let stats t =
    let snap = Atomic.get t.state in
    {
      runs = Atomic.get t.runs;
      analyzer_builds = Atomic.get t.analyzer_builds;
      analyzer_extends = Atomic.get t.analyzer_extends;
      analyzed_entries = snap.analyzed_len;
      plan_cache_hits = 0;
      ingested = Atomic.get t.ingested;
      publishes = Atomic.get t.publishes;
    }
end

let run_exn ?(config = Config.default) ~analyzer eng target =
  run_inner ~config ~cur_phase:(ref "init") ~analyzer eng target

let run ?(config = Config.default) ~analyzer eng target =
  let cur_phase = ref "init" in
  guarded cur_phase (fun () -> run_inner ~config ~cur_phase ~analyzer eng target)

let commit eng outcome =
  if outcome.changed then begin
    Uv_db.Catalog.copy_tables_into outcome.temp_catalog
      ~into:(Uv_db.Engine.catalog eng)
      outcome.replay.Analyzer.mutated;
    (* retroactive DDL on schema objects (views, procedures, triggers,
       indexes) lands in the live catalog too *)
    Uv_db.Catalog.copy_objects_into outcome.temp_catalog
      ~into:(Uv_db.Engine.catalog eng)
  end

let query_new_universe outcome sel =
  let eng = Uv_db.Engine.of_catalog outcome.temp_catalog in
  Uv_db.Engine.query eng sel

