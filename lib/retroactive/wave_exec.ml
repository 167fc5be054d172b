type item = {
  idx : int;
  stmt : Uv_sql.Ast.stmt;
  sql : string; (* the re-executed entry's logged text *)
  nondet : Uv_sql.Value.t list;
  app_txn : string option;
  sim_time : int;
  rowid_base : int;
  structural : bool;
  journal : Uv_db.Log.undo list;
      (* the statement's historical journal: where its inserts land, and
         what member redo reenacts and settles against *)
}

(* What the exact stop left undone: the skipped members, each with its
   reenactment, the replay state they would have run over, and what the
   restamp needs. [complete] finishes it on a copy, so the merged history
   pays for it and the question does not. *)
type stop = {
  ran : int;  (* members run *)
  skipped : (item * (Uv_db.Catalog.t -> (unit -> Uv_db.Log.redone) option)) list;
  at : Uv_db.Catalog.t;  (* the replay catalog at the stop, read-only *)
  undo : Uv_db.Log.undo list list option;
      (* the rollback [at] still lacks: journals, newest first *)
  rtt_ms : float;
  head : item option;
  items : item list;
  raw : (int, Uv_db.Log.entry) Hashtbl.t;  (* the run statements' entries *)
  raw_deltas : (int, (string * int64) list) Hashtbl.t;
  start : ((string * int64) list * (string * int * int) list) option;
      (* [start_state] before the first statement ran; [None]: none ran,
         so it is read from [at] (after [undo]) *)
}

type t = {
  durations : (int, float) Hashtbl.t;
  entries : (int, Uv_db.Log.entry) Hashtbl.t;
  failed : int;
  wave_count : int;
  measured_ms : float;
  retries : int;
  degraded : bool;
  redone : int;
  executed : int;
  stop : stop option;
  undone : int;
}

(* A table's AUTO_INCREMENT counter as the restamp walks the replayed
   entries in commit order, and the position of the column it fills. *)
type auto_counter = { mutable next : int; offset : int }

(* One statement's run: its time, its entry and hash deltas (none when
   it failed), and how it ran. *)
type ran = {
  ms : float;
  out : (Uv_db.Log.entry * (string * int64) list) option;
  redone : bool;
}

(* One replayed statement runs on its own lightweight engine sharing the
   temporary catalog by reference: per-statement state (journal, nondet
   cursor, PRNG, log) stays domain-local, while table data goes through
   the locked Storage layer. The seed depends only on the commit index,
   so any fresh draws past the recorded list are schedule-independent.

   An injected statement fault ([Uv_fault.Fault.Injected] out of the
   engine, which has already rolled the statement back and restored its
   PRNG/clock) is transient infrastructure failure: one retry on a
   pristine engine reenacts the statement exactly. A second injection
   escapes to the caller, which aborts the run — unlike an application-
   level [Sql_error], which counts as a failed replay. *)
let run_item ?(obs = Uv_obs.Trace.disabled)
    ?(fault = Uv_fault.Fault.disabled) ?(on_retry = fun () -> ()) ?reenact
    ~rtt_ms catalog it =
  let reenact =
    Option.bind reenact (fun prepare ->
        let p = prepare catalog in
        if Option.is_none p then
          Uv_obs.Trace.instant obs "replay.redo_fallback"
            ~args:[ ("index", Uv_obs.Json.Int it.idx) ];
        p)
  in
  (* the span is opened on the executing domain, so parallel replay
     renders as one trace lane per domain; with tracing off [start]
     ignores the name: build none *)
  let span () =
    if Uv_obs.Trace.enabled obs then
      Uv_obs.Trace.start obs ~cat:"replay"
        ~args:[ ("redo", Uv_obs.Json.Bool (reenact <> None)) ]
        (Printf.sprintf "Q%d" it.idx)
    else Uv_obs.Trace.start obs ""
  in
  let timed f =
    let sp = span () in
    Fun.protect ~finally:(fun () -> Uv_obs.Trace.finish obs sp) @@ fun () ->
    let t0 = Uv_util.Clock.now_ms () in
    let r = f () in
    { r with ms = Uv_util.Clock.now_ms () -. t0 }
  in
  match reenact with
  | Some reenact ->
      timed (fun () ->
          let r = reenact () in
          let hash n =
            match Uv_db.Catalog.table catalog n with
            | Some st -> Uv_db.Storage.hash st
            | None -> 0L
          in
          let entry =
            {
              Uv_db.Log.index = 1;
              stmt = it.stmt;
              sql = it.sql;
              nondet = it.nondet;
              rows_written = r.Uv_db.Log.redo_rows;
              written_hashes =
                List.map (fun (n, _) -> (n, hash n)) r.Uv_db.Log.redo_deltas;
              undo = r.Uv_db.Log.redo_undo;
              app_txn = it.app_txn;
            }
          in
          {
            ms = 0.0;
            out = Some (entry, r.Uv_db.Log.redo_deltas);
            redone = true;
          })
  | None -> (
      let attempt () =
        let eng =
          Uv_db.Engine.of_catalog ~seed:((1_000_003 * it.idx) + 7) ~rtt_ms ~obs
            ~fault catalog
        in
        Uv_db.Engine.set_sim_time eng it.sim_time;
        timed (fun () ->
            match
              Uv_db.Engine.exec ?app_txn:it.app_txn ~nondet:it.nondet
                ~rowid_base:it.rowid_base ~history:it.journal ~sql:it.sql eng
                it.stmt
            with
            | r ->
                let out =
                  if Uv_db.Log.length (Uv_db.Engine.log eng) >= 1 then
                    Some
                      ( Uv_db.Log.entry (Uv_db.Engine.log eng) 1,
                        r.Uv_db.Engine.hash_deltas )
                  else None
                in
                { ms = 0.0; out; redone = false }
            | exception (Uv_db.Engine.Sql_error _ | Uv_db.Engine.Signal_raised _)
              ->
                { ms = 0.0; out = None; redone = false })
      in
      try attempt ()
      with Uv_fault.Fault.Injected _ ->
        on_retry ();
        attempt ())

(* Restamp written_hashes in global commit order — the head, then the
   items, which ascend — so each entry logs the hash its table had right
   after it committed: bit-identical to the commit-order schedule, and
   therefore safe for the Hash-jumper to consume on branched universes.
   [base] holds the table hashes at replay start, [autos] each
   AUTO_INCREMENT counter then, with the position of the column it
   fills. AUTO_INCREMENT records are restamped the same way: a statement
   journals the counter the inserts before it left, which in a wave are
   whichever ran first. In commit order each record takes the running
   counter, and an insert of key v raises it to v + 1, as the engine's
   insert and [Log.apply_redo] do. *)
let restamp ~base ~autos ~head ~items entries deltas =
  let running = Hashtbl.create 16 in
  List.iter (fun (n, h) -> Hashtbl.replace running n h) base;
  let counters = Hashtbl.create 8 in
  List.iter
    (fun (n, next, offset) -> Hashtbl.replace counters n { next; offset })
    autos;
  (* oldest record first, as the recursion returns; the journal is
     shared where no counter record changes. An insert into a table with
     a counter journals a counter record in the same entry, so an entry
     without one raises no counter. *)
  let rec restamp_auto undo =
    match undo with
    | [] -> []
    | u :: older ->
        let older' = restamp_auto older in
        let u' =
          match u with
          | Uv_db.Log.U_auto_value (n, v) -> (
              match Hashtbl.find_opt counters n with
              | Some a when a.next <> v -> Uv_db.Log.U_auto_value (n, a.next)
              | _ -> u)
          | Uv_db.Log.U_row_insert (n, _, row) ->
              (match Hashtbl.find_opt counters n with
              | Some a
                when a.offset < Array.length row
                     && not (Uv_sql.Value.is_null row.(a.offset)) ->
                  let v = Uv_sql.Value.to_int row.(a.offset) in
                  if v >= a.next then a.next <- v + 1
              | _ -> ());
              u
          | _ -> u
        in
        if u' == u && older' == older then undo else u' :: older'
  in
  let restamp it =
    match Hashtbl.find_opt entries it.idx with
    | None -> ()
    | Some e ->
        (* the deltas name the entry's written tables, in its order *)
        let wh =
          List.map
            (fun (n, d) ->
              let cur = Option.value (Hashtbl.find_opt running n) ~default:0L in
              let v = Uv_util.Table_hash.add_mod cur d in
              Hashtbl.replace running n v;
              (n, v))
            (Hashtbl.find deltas it.idx)
        in
        Hashtbl.replace entries it.idx
          {
            e with
            Uv_db.Log.written_hashes = wh;
            undo =
              (if
                 List.exists
                   (function Uv_db.Log.U_auto_value _ -> true | _ -> false)
                   e.Uv_db.Log.undo
               then restamp_auto e.Uv_db.Log.undo
               else e.Uv_db.Log.undo);
          }
  in
  Option.iter restamp head;
  List.iter restamp items

(* The table hashes and AUTO_INCREMENT counters (with each counted
   column's position) at replay start: the base the commit-order restamp
   accumulates from. *)
let start_state catalog =
  let tables = Uv_db.Catalog.tables catalog in
  ( List.map (fun (name, st) -> (name, Uv_db.Storage.hash st)) tables,
    List.filter_map
      (fun (name, st) ->
        Option.map
          (fun offset -> (name, Uv_db.Storage.next_auto_value st, offset))
          (Option.bind
             (Uv_sql.Schema.auto_increment_column (Uv_db.Storage.schema st))
             (Uv_db.Storage.column_index st)))
      tables )

let stop_point s = (s.ran, List.length s.skipped)

let complete s =
  let catalog = Uv_db.Catalog.snapshot s.at in
  Option.iter
    (fun journals -> ignore (Uv_db.Log.undo_entries catalog journals : Uv_db.Log.undo_stats))
    s.undo;
  let base, autos =
    match s.start with Some st -> st | None -> start_state catalog
  in
  let entries = Hashtbl.copy s.raw and deltas = Hashtbl.copy s.raw_deltas in
  List.iter
    (fun (it, reenact) ->
      match (run_item ~reenact ~rtt_ms:s.rtt_ms catalog it).out with
      | Some (e, ds) ->
          Hashtbl.replace entries it.idx e;
          Hashtbl.replace deltas it.idx ds
      | None -> ())
    s.skipped;
  restamp ~base ~autos ~head:s.head ~items:s.items entries deltas;
  entries

type schedule =
  | Commit_order of { stop_after : int -> item -> bool }
  | Waves of { dag : Conflict_dag.t Lazy.t; workers : int }

exception Stop

let execute ?(obs = Uv_obs.Trace.disabled) ?(fault = Uv_fault.Fault.disabled)
    ?(check = fun () -> ()) ?redo ?undo ?repeating ~schedule ~rtt_ms ~catalog ~head
    ~items () =
  let t0 = Uv_util.Clock.now_ms () in
  (* on the caller lane, before a batch runs; the head, not a member,
     runs alone and always executes *)
  let decide batch =
    match redo with
    | Some r when Array.for_all (fun it -> it.idx > 0) batch ->
        Array.map
          (fun it ->
            if Redo.clean r it.idx it.stmt it.journal then
              Some (Redo.reenactment r it.stmt it.journal)
            else None)
          batch
    | _ -> Array.map (fun _ -> None) batch
  in
  (* on the caller lane, after the item's batch, in commit order *)
  let settle it ran =
    Option.iter
      (fun r ->
        Redo.settle r ~redone:ran.redone ~hist:it.journal
          ~fresh:
            (match ran.out with
            | Some (e, _) -> e.Uv_db.Log.undo
            | None -> []))
      redo
  in
  let redone = ref 0 and executed = ref 0 in
  (* small for a small replay; a large one grows its tables rather than
     start them in the major heap *)
  let size = min 64 (1 + List.length items) in
  let durations = Hashtbl.create size in
  (* idx -> re-executed entry: raw until the restamp below rewrites it *)
  let entries : (int, Uv_db.Log.entry) Hashtbl.t = Hashtbl.create size in
  (* idx -> the engine-reported per-table hash deltas of the statement *)
  let deltas : (int, (string * int64) list) Hashtbl.t = Hashtbl.create size in
  let failed = ref 0 in
  (* stmt-level retries happen on pool domains; batch-level retries on
     the caller — one atomic counter covers both *)
  let retries = Atomic.make 0 in
  let on_retry () = Atomic.incr retries in
  (* the deferred rollback, applied here: the entries it undid *)
  let undone = ref 0 in
  let roll_back journals =
    ignore (Uv_db.Log.undo_entries catalog journals : Uv_db.Log.undo_stats);
    undone := List.length journals
  in
  let finish_item it ran =
    Hashtbl.replace durations it.idx ran.ms;
    if it.idx > 0 then incr (if ran.redone then redone else executed);
    (match ran.out with
    | Some (e, ds) ->
        Hashtbl.replace entries it.idx e;
        Hashtbl.replace deltas it.idx ds
    | None -> incr failed);
    settle it ran
  in
  (* commit order on the caller lane: every item sees exactly the state
     its predecessors left, so its raw entry already logs its table
     hashes in commit order and needs no restamp *)
  let in_commit_order stop_after =
    Option.iter roll_back undo;
    let run it =
      check ();
      finish_item it
        (run_item ~obs ~fault ~on_retry ?reenact:(decide [| it |]).(0) ~rtt_ms
           catalog it)
    in
    Option.iter run head;
    let rec go pos = function
      | [] -> ()
      | it :: rest ->
          run it;
          if not (stop_after pos it) then go (pos + 1) rest
    in
    go 0 items;
    (0, false, None)
  in
  let in_waves dag workers =
    let traced = Uv_obs.Trace.enabled obs in
    let subwaves = ref 0 in
    let degraded = ref false in
    (* The exact stop (DESIGN.md §5, "Exact stop"). Before a batch of
       members, stop when no statement run so far inserted a row at a
       private rowid and every member left repeats history
       ({!Redo.repeats}): each would be redone to its historical images
       over rows outside the set, and leave the set as it is, so the rest
       can only repeat history. [stoppable] drops for good at the first
       private insert. Every member ahead of [pending] has run or
       repeats, which holds until the set grows; then the cursor starts
       again at the first member not run ([unrun]). So the cursor passes
       each member once between two growths. The caller's [repeating]
       verdict starts the cursor past the members it found to repeat. *)
    let stoppable = ref (redo <> None) in
    let unrun = ref items in
    let pending =
      ref
        (match repeating with
        | None -> items
        | Some n -> List.filteri (fun k _ -> k >= n) items)
    in
    let grown = ref (Option.fold ~none:0 ~some:Redo.grown redo) in
    let ran it = Hashtbl.mem durations it.idx in
    let rec all_repeat r =
      match !pending with
      | [] -> true
      | it :: rest ->
          (ran it || Redo.repeats r it.idx it.stmt it.journal)
          && begin
               pending := rest;
               all_repeat r
             end
    in
    let stop_here () =
      !stoppable
      &&
      match redo with
      | Some r ->
          if Redo.grown r <> !grown then begin
            grown := Redo.grown r;
            let rec past_run = function
              | it :: rest when ran it -> past_run rest
              | l -> l
            in
            unrun := past_run !unrun;
            pending := !unrun
          end;
          all_repeat r
      | None -> false
    in
    (* [undo] is applied before anything runs, unless the replay stops
       before its first member *)
    let undo =
      if head = None && items <> [] && stop_here () then undo
      else begin
        Option.iter
          (fun journals ->
            roll_back journals;
            Option.iter Redo.rolled_back redo)
          undo;
        None
      end
    in
    (* the restamp's base, taken before the first batch runs, unless
       one statement is all there is: it runs in order, and a stop comes
       before it. [in_order] holds while every batch is one statement,
       in ascending index order, as commit order runs them. *)
    let lone = match (head, items) with None, ([] | [ _ ]) -> true | _ -> false in
    let start = ref None and in_order = ref true and last = ref (-1) in
    let begin_batch batch =
      if !start = None && not lone then start := Some (start_state catalog);
      match batch with
      | [ it ] ->
          if it.idx <= !last then in_order := false;
          last := it.idx
      | _ -> in_order := false
    in
    let finish it ran =
      finish_item it ran;
      match ran.out with
      | Some (e, _)
        when !stoppable
             && List.exists
                  (function
                    | Uv_db.Log.U_row_insert (_, r, _) -> r >= it.rowid_base
                    | _ -> false)
                  e.Uv_db.Log.undo ->
          stoppable := false
      | _ -> ()
    in
    (* the per-item closure the pool runs; [allow_crash] is off on the
       caller lane (degraded finish), whose "domain" cannot die *)
    let item_fn ~allow_crash ?reenact it =
      if allow_crash then
        (match
           Uv_fault.Fault.check ~key:it.idx fault Uv_fault.Fault.Site.worker
             [ Uv_fault.Fault.Worker_crash; Uv_fault.Fault.Slow ]
         with
        | Some inj -> (
            match inj.Uv_fault.Fault.kind with
            | Uv_fault.Fault.Worker_crash ->
                raise
                  (Uv_util.Domain_pool.Worker_exit (Uv_fault.Fault.Injected inj))
            | Uv_fault.Fault.Slow ->
                Unix.sleepf (inj.Uv_fault.Fault.arg /. 1000.0)
            | _ -> ())
        | None -> ());
      run_item ~obs ~fault ~on_retry ?reenact ~rtt_ms catalog it
    in
    (* the pool starts at the first batch of several statements *)
    let pool = ref None in
    let the_pool () =
      match !pool with
      | Some p -> p
      | None ->
          let p = Uv_util.Domain_pool.create ~workers in
          pool := Some p;
          p
    in
    Fun.protect ~finally:(fun () -> Option.iter Uv_util.Domain_pool.shutdown !pool)
    @@ fun () ->
    let wave_span n_items =
      if traced then
        Uv_obs.Trace.start obs ~cat:"replay"
          ~args:[ ("items", Uv_obs.Json.Int n_items) ]
          (Printf.sprintf "wave.%d" !subwaves)
      else Uv_obs.Trace.start obs ""
    in
    (* wave boundary: honour the deadline and probe for a domain found
       dead between waves (degrades the rest of the replay to the caller
       lane — same results, one lane) *)
    let wave_boundary () =
      check ();
      match
        Uv_fault.Fault.check ~key:!subwaves fault Uv_fault.Fault.Site.wave
          [ Uv_fault.Fault.Worker_crash; Uv_fault.Fault.Slow ]
      with
      | Some inj -> (
          match inj.Uv_fault.Fault.kind with
          | Uv_fault.Fault.Worker_crash -> degraded := true
          | Uv_fault.Fault.Slow -> Unix.sleepf (inj.Uv_fault.Fault.arg /. 1000.0)
          | _ -> ())
      | None -> ()
    in
    let run_batch batch =
      match batch with
      | [] -> ()
      | [ it ] ->
          incr subwaves;
          wave_boundary ();
          begin_batch batch;
          let sp = wave_span 1 in
          finish it
            (item_fn ~allow_crash:false ?reenact:(decide [| it |]).(0) it);
          Uv_obs.Trace.finish obs sp
      | _ ->
          incr subwaves;
          wave_boundary ();
          begin_batch batch;
          let arr = Array.of_list batch in
          let reenacts = decide arr in
          let n = Array.length arr in
          let results = Array.make n None in
          let sp = wave_span n in
          let dispatch = if traced then Uv_util.Clock.now_ms () else 0.0 in
          (* Whole statement batches per pool slot: a lane claims a
             contiguous chunk of the wave at once instead of one statement
             per atomic pickup, so per-item dispatch (cursor contention,
             condvar wakeups) amortizes over the chunk. A crashed lane
             leaves its chunk's unfinished items as [None]; the redispatch
             below re-chunks only those. *)
          let run_pool () =
            let pool = the_pool () in
            let lanes = max 1 (Uv_util.Domain_pool.lanes pool) in
            let chunks = max 1 (min n (lanes * 4)) in
            let per = (n + chunks - 1) / chunks in
            Uv_util.Domain_pool.run pool ~count:chunks (fun c ->
                let lo = c * per and hi = min n ((c + 1) * per) - 1 in
                if lo < n && traced then
                  Uv_obs.Trace.observe obs "replay.queue_wait_ms"
                    (Uv_util.Clock.now_ms () -. dispatch);
                for i = lo to hi do
                  if results.(i) = None then
                    results.(i) <-
                      Some
                        (item_fn ~allow_crash:true ?reenact:reenacts.(i) arr.(i))
                done)
          in
          (* caller-lane finish of whatever the pool left undone: exact
             same computation, no crash probes — the degradation path *)
          let run_direct () =
            Array.iteri
              (fun i it ->
                if results.(i) = None then
                  results.(i) <-
                    Some (item_fn ~allow_crash:false ?reenact:reenacts.(i) it))
              arr
          in
          if !degraded then run_direct ()
          else begin
            try run_pool ()
            with Uv_util.Domain_pool.Worker_exit _ -> (
              (* a lane died mid-batch: its unfinished items are re-run.
                 One redispatch through the (shrunken) pool; a second death
                 degrades the rest of the run to the caller lane. *)
              on_retry ();
              try run_pool ()
              with Uv_util.Domain_pool.Worker_exit _ ->
                degraded := true;
                run_direct ())
          end;
          if traced then begin
            (* fraction of the pool's lane-time this batch kept busy *)
            let wall = Uv_util.Clock.now_ms () -. dispatch in
            let busy =
              Array.fold_left
                (fun a r -> match r with Some ran -> a +. ran.ms | None -> a)
                0.0 results
            in
            let lanes =
              float_of_int
                (Option.fold ~none:1 ~some:Uv_util.Domain_pool.lanes !pool)
            in
            if wall > 0.0 then
              Uv_obs.Trace.observe obs "replay.utilization"
                (busy /. (wall *. lanes))
          end;
          Array.iteri
            (fun i it ->
              match results.(i) with
              | Some r -> finish it r
              | None -> incr failed)
            arr;
          Uv_obs.Trace.finish obs sp
    in
    (* a batch of members runs only where the stop does not hold *)
    let run_members batch =
      if batch <> [] && stop_here () then raise_notrace Stop;
      run_batch batch
    in
    (match head with Some h -> run_batch [ h ] | None -> ());
    let stopped =
      try
        (* the first member has no member before it, so it may run
           first: a question of one member, or whose replay repeats
           history from its first member or rejoins it right after,
           builds no DAG *)
        (match items with
        | [ _ ] -> run_members items
        | first :: _ :: _ when !stoppable -> run_members [ first ]
        | _ -> ());
        if List.exists (fun it -> not (Hashtbl.mem durations it.idx)) items
        then begin
          if stop_here () then raise_notrace Stop;
          let by_idx = Hashtbl.create size in
          List.iter (fun it -> Hashtbl.replace by_idx it.idx it) items;
          List.iter
            (fun wave ->
              (* structural items break the wave into parallel batches and
                 run exclusively in between, preserving commit order within
                 the wave *)
              let batch = ref [] in
              let flush () =
                run_members (List.rev !batch);
                batch := []
              in
              List.iter
                (fun idx ->
                  let it = Hashtbl.find by_idx idx in
                  if Hashtbl.mem durations idx then () (* the first, run above *)
                  else if it.structural then begin
                    flush ();
                    run_members [ it ]
                  end
                  else batch := it :: !batch)
                wave;
              flush ())
            (Conflict_dag.waves (Lazy.force dag))
        end;
        false
      with Stop -> true
    in
    let stop =
      match redo with
      | Some r when stopped ->
          let skipped =
            List.filter_map
              (fun it ->
                if Hashtbl.mem durations it.idx then None
                else Some (it, Redo.reenactment r it.stmt it.journal))
              items
          in
          Some
            {
              ran = List.length items - List.length skipped;
              skipped;
              at = catalog;
              undo;
              rtt_ms;
              head;
              items;
              raw = entries;
              raw_deltas = deltas;
              start = !start;
            }
      | _ ->
          (* statements run one at a time in commit order logged their
             hashes and counters in commit order already *)
          (match !start with
          | Some (base, autos) when not !in_order ->
              Uv_obs.Trace.with_span obs ~cat:"replay" "replay.restamp" (fun () ->
                  restamp ~base ~autos ~head ~items entries deltas)
          | _ -> ());
          None
    in
    (!subwaves, !degraded, stop)
  in
  let wave_count, degraded, stop =
    match schedule with
    | Commit_order { stop_after } -> in_commit_order stop_after
    | Waves { dag; workers } -> in_waves dag workers
  in
  {
    durations;
    entries;
    failed = !failed;
    wave_count;
    measured_ms = Uv_util.Clock.now_ms () -. t0;
    retries = Atomic.get retries;
    degraded;
    redone = !redone;
    executed = !executed;
    stop;
    undone = !undone;
  }
