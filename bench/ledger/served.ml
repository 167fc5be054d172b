(* serve-ingest: [ultraverse serve] runs as a child process; this process
   is its only load, over two connections — a closed loop of what-ifs and
   an open loop of ingest batches at a fixed rate. A daemon in its own process
   keeps the load generator's GC pauses out of the server's numbers.
   Flush policy: --sync-every 1 --sync-ms 0, one fsync pair per ingest
   batch, acknowledged only once durable. *)

open Uv_db
open Uv_retroactive
module M = Measure
module J = Uv_obs.Json
module Trace = Uv_obs.Trace
module C = Serve.Client

type input = {
  script : string;  (* HISTORY.SQL: schema, population and the seed history *)
  script_len : int;  (* history entries the daemon starts with *)
  batches : string array;  (* the ingest stream *)
  writers : int array;
      (* the writers of seed and stream, ascending, as the history indexes
         the daemon gives them *)
  invoke_us : float list;
}

(* One TPC-C history: its first [entries] become the daemon's seed
   script (after a dump of the populated database), the next [batches]
   × 5 the ingest stream. *)
let make_input ~(s : Spec.sizes) ~batches =
  let cut = s.Spec.entries in
  let h =
    Apps.execute ~seed:Spec.dataset_seed ~entries:(cut + (batches * Spec.batch_stmts))
      ~dep_rate:s.Spec.dep_rate
      (Uv_workloads.Workload.by_name "TPC-C")
  in
  let entries = Array.of_list (Log.entries (Engine.log h.Apps.eng)) in
  let dump = Dump.to_sql h.Apps.base in
  let dump_len = List.length (Uv_sql.Parser.parse_script dump) in
  let sql e = e.Log.sql ^ ";\n" in
  let script =
    dump ^ String.concat "" (List.map sql (Array.to_list (Array.sub entries 0 cut)))
  in
  let writers =
    Array.of_list
      (List.filter_map
         (fun i -> if M.is_writer entries.(i).Log.stmt then Some (dump_len + i + 1) else None)
         (List.init (Array.length entries) Fun.id))
  in
  let tail = Array.sub entries cut (Array.length entries - cut) in
  let batches =
    Array.init (Array.length tail / Spec.batch_stmts) (fun b ->
        String.concat ""
          (List.init Spec.batch_stmts (fun j -> sql tail.((b * Spec.batch_stmts) + j))))
  in
  { script; script_len = dump_len + cut; batches; writers; invoke_us = h.Apps.invoke_us }

(* Question [q] falls due [q * period_ms] into the window. Its target is
   [(b, τ)]: τ is a writer among the last [recent] entries of the history
   made of the seed and the first [b] batches, those due [recent_lag_ms]
   before the question. The question waits until batch [b] is
   acknowledged, so τ is in the daemon's history when it is asked. A
   period of 0 gives the seed's own recent past, for the warm-up. *)
let targets ~seed ~recent ~(input : input) ~period_ms n =
  let prng = Uv_util.Prng.create seed in
  let batches = Array.length input.batches in
  (* the index of the first writer above [x] *)
  let above x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if input.writers.(mid) > x then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length input.writers)
  in
  Array.init n (fun q ->
      let t = (float_of_int q *. period_ms) -. Spec.recent_lag_ms in
      let b =
        if t < 0.0 then 0
        else min batches (int_of_float (t *. Spec.ingest_per_s /. 1000.0) + 1)
      in
      let len = input.script_len + (b * Spec.batch_stmts) in
      let lo = above (len - recent) and hi = above len in
      (b, input.writers.(Uv_util.Prng.int_range prng lo (hi - 1))))

(* ---------- the daemon's lifecycle ---------- *)

type daemon = {
  pid : int;
  dir : string;
  addr : Serve.addr;
  store : string;
  mutable reaped : bool;
}

let spawn ~ultraverse ~dir ~script =
  let history = Filename.concat dir "history.sql" in
  Out_channel.with_open_bin history (fun oc -> Out_channel.output_string oc script);
  let sock = Filename.concat dir "uv.sock" and store = Filename.concat dir "store" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close log)
      (fun () ->
        Unix.create_process ultraverse
          [| ultraverse; "serve"; history; "--socket"; sock; "--store"; store;
             "--sync-every"; "1"; "--sync-ms"; "0"; "--workers"; "1";
             "--replay-workers"; "1" |]
          null log log)
  in
  { pid; dir; addr = Serve.Unix_sock sock; store; reaped = false }

let failed_daemon d fmt =
  Printf.ksprintf
    (fun msg ->
      let log = Filename.concat d.dir "serve.log" in
      let tail =
        try In_channel.with_open_bin log In_channel.input_all with Sys_error _ -> ""
      in
      failwith (Printf.sprintf "%s\n--- serve.log ---\n%s" msg tail))
    fmt

let exited d =
  (not d.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.reaped <- true;
      true

let int_field name j =
  match Option.bind (J.member name j) J.to_float with
  | Some f -> int_of_float f
  | None -> failwith (Printf.sprintf "reply without %S" name)

(* poll until the daemon answers a ping; returns its history length *)
let wait_ready d =
  let deadline = M.now () +. 120_000.0 in
  let rec poll () =
    if exited d then failed_daemon d "ultraverse serve exited during start-up";
    if M.now () > deadline then failed_daemon d "ultraverse serve did not start listening";
    match C.connect d.addr with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.01;
        poll ()
    | c -> (
        let reply = C.ping c in
        C.close c;
        match reply with
        | Ok (C.Result r) -> int_field "history_len" r
        | _ ->
            Unix.sleepf 0.01;
            poll ())
  in
  poll ()

let call ?max_frame d f =
  let c = C.connect ?max_frame d.addr in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      match f c with
      | Ok (C.Result r) -> r
      | Ok (C.Refused { code; message; _ }) -> failwith (code ^ ": " ^ message)
      | Error e -> failwith e)

(* the shutdown verb, then the exit code *)
let shutdown d =
  ignore (call d C.shutdown);
  let deadline = M.now () +. 60_000.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when M.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> failed_daemon d "ultraverse serve ignored the shutdown verb"
    | _, status -> (
        d.reaped <- true;
        match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED n -> failed_daemon d "ultraverse serve exited with code %d" n
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            failed_daemon d "ultraverse serve died on signal %d" n)
  in
  wait ()

(* every path out: a daemon still running is killed and reaped, and its
   directory removed *)
let dispose d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.reaped <- true
  end;
  M.rm_rf d.dir

(* ---------- the run ---------- *)

type served = { answer : Window.answer; tau : int; hash : string }

let answer_of ~traced ~lat_ms r =
  let i name = int_field name r in
  {
    Window.traced;
    lat_ms;
    cal_ms = nan;
    build_ms = 0.0;
    entries = i "history_len";
    real_ms = Option.value (Option.bind (J.member "real_ms" r) J.to_float) ~default:nan;
    phases = [];
    members = i "replay_set";
    replayed = i "replayed";
    undone = i "undone";
    waves = i "waves";
    parallel = i "waves" > 0;
    plans_used = i "plans_used";
  }

(* phase span totals from the daemon's uv.metrics/1 payload *)
let phase_totals payload =
  List.map
    (fun (phase, _) ->
      let span = Option.bind (J.member "spans" payload) (J.member phase) in
      let num k = Option.value (Option.bind (Option.bind span (J.member k)) J.to_float) ~default:0.0 in
      (phase, (num "total_ms", num "count")))
    Window.phase_names

let sub_field outer name j =
  Option.bind (J.member outer j) (fun o -> Option.bind (J.member name o) J.to_float)

let run ~ultraverse ~seed ~seconds ~trace ~smoke ~workdir : Window.result =
  if not (Sys.file_exists ultraverse) then
    failwith ("no ultraverse binary at " ^ ultraverse ^ " (pass --ultraverse PATH)");
  let traced = trace <> None in
  let name = Spec.serve_ingest in
  let s = Spec.sizes ~smoke ~seconds name in
  let recent =
    match s.Spec.taus with
    | Spec.Recent n -> n
    | Spec.Slice _ -> invalid_arg "Served: τ drawn from a fixed slice"
  in
  let batches = max 1 (int_of_float (seconds *. Spec.ingest_per_s)) in
  let whatif c ~id tau = C.whatif ~id ~tau ~op:"remove" c () in
  (* set-up, several times: history, script, daemon start-up until it
     answers, and the warm-up; all but the last daemon are shut down
     again. Each is timed in steps scaled by the probes around them
     (Calib). *)
  let setups = Calib.Setups.create () in
  let live = ref None and input = ref None in
  let fresh k =
    M.fresh_dir (Filename.concat workdir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k))
  in
  Fun.protect ~finally:(fun () -> Option.iter dispose !live) @@ fun () ->
  for k = 1 to s.Spec.setups do
    Option.iter (fun d -> shutdown d; dispose d) !live;
    live := None;
    input := None;
    Calib.Setups.next setups;
    let step f = Calib.Setups.step setups f in
    let i = step (fun () -> make_input ~s ~batches) in
    let d =
      step (fun () ->
          let d = spawn ~ultraverse ~dir:(fresh k) ~script:i.script in
          live := Some d;
          let len = wait_ready d in
          if len <> i.script_len then
            failed_daemon d "the daemon loaded %d entries, the script has %d" len
              i.script_len;
          d)
    in
    let c = C.connect d.addr in
    Fun.protect ~finally:(fun () -> C.close c) (fun () ->
        let warm = s.Spec.questions / 10 in
        let taus = targets ~seed:(seed + 9) ~recent ~input:i ~period_ms:0.0 warm in
        for chunk = 0 to (warm - 1) / 8 do
          step (fun () ->
              for q = chunk * 8 to min warm ((chunk + 1) * 8) - 1 do
                match whatif c ~id:q (snd taus.(q)) with
                | Ok (C.Result _) -> ()
                | _ -> failed_daemon d "warm-up what-if failed"
              done)
        done);
    input := Some i
  done;
  let setup_ms = Calib.Setups.totals setups in
  let input = Option.get !input and d = Option.get !live in
  let questions = s.Spec.questions in
  let metrics_payload () = call ~max_frame:(1 lsl 28) d C.metrics in
  let m0 = metrics_payload () and s0 = call d C.stats and h0 = call d C.health in
  let disk0 = M.dir_bytes d.store in
  let tr = if traced then Trace.create () else Trace.disabled in
  (* The window: an open ingest loop beside a paced question loop, both
     spread over --seconds. Batch [i] falls due [i / ingest_per_s]
     seconds into the window, whatever the questions are doing. A second
     domain sends each batch once due and times it from its due time, so
     a batch stuck behind the lock also delays the ones behind it.
     Question [q] falls due [q / questions] of the way through the window
     and is sent when due, or as soon as the previous answer arrives when
     that comes later; its latency runs from the send. Both counts follow
     from --seconds alone, so every run hands the daemon the same history
     and the same questions, and the history a question sees depends on
     its due time, not on how fast earlier questions went. *)
  let stop = Atomic.make false and acked = Atomic.make 0 in
  let period = seconds *. 1000.0 /. float_of_int questions in
  let taus = targets ~seed:(seed + 8) ~recent ~input ~period_ms:period questions in
  let t0 = M.now () in
  let ingester =
    Domain.spawn (fun () ->
        try
          let c = C.connect d.addr in
          Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
          let lat = ref [] and late = ref 0.0 and failed = ref 0 in
          (try
             for i = 0 to batches - 1 do
               let due = t0 +. (float_of_int i *. 1000.0 /. Spec.ingest_per_s) in
               (* a question loop that died ends the window early *)
               let rec wait () =
                 if Atomic.get stop then raise Exit;
                 let ahead = due -. M.now () in
                 if ahead > 0.0 then begin
                   Unix.sleepf (Float.min ahead 50.0 /. 1000.0);
                   wait ()
                 end
               in
               wait ();
               late := Float.max !late (M.now () -. due);
               M.Span.run tr ~q:i "client.ingest" (fun () ->
                   match
                     C.ingest ~id:i ~idem_key:(Printf.sprintf "b%d" i) c input.batches.(i)
                   with
                   | Ok (C.Result r)
                     when int_field "applied" r = Spec.batch_stmts
                          && int_field "failed" r = 0
                          && J.member "durable" r = Some (J.Bool true) ->
                       ()
                   | _ -> incr failed);
               lat := (M.now () -. due) :: !lat;
               Atomic.set acked (i + 1)
             done
           with Exit -> ());
          (List.rev !lat, !late, !failed)
        with e ->
          Atomic.set stop true;
          raise e)
  in
  let col = Window.collector () and served = ref [] and failed = ref 0 in
  let ask_all () =
    let c = C.connect d.addr in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    let q = ref 0 in
    while !q < questions && not (Atomic.get stop) do
      let due = t0 +. (float_of_int !q *. period) in
      let ahead = due -. M.now () in
      if ahead > 0.0 then Unix.sleepf (ahead /. 1000.0);
      let b, tau = taus.(!q) in
      while Atomic.get acked < b && not (Atomic.get stop) do
        Unix.sleepf 0.001
      done;
      let traced = traced && Window.traced_question !q in
      let tr = if traced then tr else Trace.disabled in
      let sent = M.now () in
      (match M.Span.run tr ~q:!q "client.whatif" (fun () -> whatif c ~id:!q tau) with
      | Ok (C.Result r) ->
          let answer = answer_of ~traced ~lat_ms:(M.now () -. sent) r in
          let hash = match J.member "final_db_hash" r with Some (J.Str h) -> h | _ -> "" in
          served := { answer; tau; hash } :: !served;
          Window.add col answer
      | Ok (C.Refused _) | Error _ -> incr failed);
      incr q
    done;
    !q
  in
  let asked =
    try ask_all ()
    with e ->
      Atomic.set stop true;
      (try ignore (Domain.join ingester) with _ -> ());
      raise e
  in
  let ingest, late_ms, ingest_failed = Domain.join ingester in
  let elapsed_s = (M.now () -. t0) /. 1000.0 in
  let w = Window.finish col ~asked ~failed:!failed ~elapsed_s in
  let count = List.length ingest in
  let m1 = metrics_payload () and s1 = call d C.stats and h1 = call d C.health in
  let peak_rss = M.peak_rss_mb (Some d.pid) in
  let disk1 = M.dir_bytes d.store in
  shutdown d;
  let answers = List.rev !served in
  (* the daemon's store, read back after a clean shutdown *)
  let scans = List.init 3 (fun _ -> Inproc.scan [ d.store ]) in
  let store_len = Log_store.length (Log_store.open_ d.store) in
  if store_len <> input.script_len + (count * Spec.batch_stmts) - (ingest_failed * Spec.batch_stmts)
  then
    Gate.diverged "serve-ingest: the store holds %d records after %d acked batches" store_len
      (count - ingest_failed);
  (* the gate: the first answer, the largest replay set and the last
     answer, each against a one-shot run over the same prefix and the
     full-replay oracle *)
  let samples = Gate.exec_samples () and builds = ref [] in
  (match answers with
  | [] -> ()
  | first :: _ ->
      let largest =
        List.fold_left
          (fun b a -> if a.answer.Window.members > b.answer.Window.members then a else b)
          first answers
      in
      let last = List.nth answers (List.length answers - 1) in
      let picks =
        List.sort_uniq
          (fun a b -> compare (a.answer.Window.entries, a.tau) (b.answer.Window.entries, b.tau))
          [ first; largest; last ]
      in
      let eng = Engine.create () in
      let exec_script sql =
        List.iter
          (fun st ->
            try ignore (Engine.exec eng st) with Engine.Sql_error _ -> ())
          (Uv_sql.Parser.parse_script sql)
      in
      exec_script input.script;
      let next = ref 0 in
      List.iter
        (fun p ->
          while Log.length (Engine.log eng) < p.answer.Window.entries && !next < count do
            exec_script input.batches.(!next);
            incr next
          done;
          let label = Printf.sprintf "serve-ingest (history %d)" p.answer.Window.entries in
          if Log.length (Engine.log eng) <> p.answer.Window.entries then
            Gate.diverged "%s: the replayed prefix has %d entries" label
              (Log.length (Engine.log eng));
          let target = { Analyzer.tau = p.tau; op = Analyzer.Remove } in
          let want, build_ms = Gate.oneshot ~label eng target in
          builds := (build_ms, p.answer.Window.entries) :: !builds;
          Gate.check_same ~label ~tau:p.tau ~got:p.hash
            ~want:(Printf.sprintf "%Lx" want.Whatif.final_db_hash);
          Gate.check_oracle ~obs:tr ~samples ~base:None ~label eng target want)
        picks);
  let plain, _ = Window.split w in
  let layer_answers = Window.layer_answers w in
  (* per-question phase means over the window, from the daemon's span
     totals: a served reply carries no breakdown of its own *)
  let phases =
    List.map2
      (fun (p, (t1, n1)) (_, (t0, n0)) -> (p, if n1 > n0 then (t1 -. t0) /. (n1 -. n0) else 0.0))
      (phase_totals m1) (phase_totals m0)
  in
  (* a reply's real_ms stops before the merge-log phase, so the outside
     time carries that phase too *)
  let outside = List.map (fun a -> a.Window.lat_ms -. a.Window.real_ms) plain in
  let merge_log = List.assoc "merge-log" phases in
  let flushes j = Option.value (sub_field "durable" "flushes" j) ~default:0.0 in
  let stat name j = Option.value (Option.bind (J.member name j) J.to_float) ~default:0.0 in
  let stats_delta name = stat name s1 -. stat name s0 in
  let sql_bytes =
    Array.fold_left (fun acc b -> acc + String.length b) 0 (Array.sub input.batches 0 count)
  in
  let attempted = asked + count and failed_ops = !failed + ingest_failed in
  let layers =
    List.map
      (fun (name, v) ->
        match List.find_opt (fun (_, n) -> n = name) Window.phase_names with
        | Some (p, _) -> (name, List.assoc p phases)
        | None when name = "whatif.unaccounted_ms" ->
            ( name,
              Sample.mean (List.map (fun a -> a.Window.real_ms) w.Window.answers)
              +. merge_log
              -. List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 phases )
        | None -> (name, v))
      (Window.layers layer_answers)
  in
  let metrics =
    Window.end_to_end w
    @ [
        (* every answered question, traced or not *)
        ("whatif_per_s", float_of_int (List.length answers) /. elapsed_s);
        ("ingest_p50_ms", Sample.percentile ingest 0.50);
        ("ingest_p99_ms", Sample.percentile ingest 0.99);
        ("gen.ingest_late_ms_max", late_ms);
      ]
    @ [
        ("setup_s", Sample.percentile (List.map snd setup_ms) 0.5 /. 1000.0);
        ("peak_rss_mb", peak_rss);
        ("failed_ops_ratio", float_of_int failed_ops /. float_of_int attempted);
      ]
    @ layers
    @ [
        ("analyzer.build_ms", Sample.percentile (List.map fst !builds) 0.5);
        ( "analyzer.build_us_per_entry",
          Sample.percentile
            (List.map (fun (ms, len) -> ms *. 1000.0 /. float_of_int len) !builds)
            0.5 );
        ("log_store.scan_ms", Sample.percentile (List.map fst scans) 0.5);
        ( "log_store.resident_peak_bytes",
          float_of_int (List.fold_left (fun acc (_, b) -> max acc b) 0 scans) );
        ("log_store.bytes_per_entry", float_of_int disk1 /. float_of_int store_len);
      ]
    @ Window.exec_us samples
    @ [
        ("runtime.invoke_us", Sample.percentile input.invoke_us 0.5);
        ( "service.plan_cache_hits",
          Option.value (sub_field "service" "plan_cache_hits" s1) ~default:0.0
          -. Option.value (sub_field "service" "plan_cache_hits" s0) ~default:0.0 );
        ( "serve.server_ms_p50",
          Sample.percentile (List.map (fun a -> a.Window.real_ms) plain) 0.5 );
        ("serve.outside_ms_p50", Sample.percentile outside 0.5);
        ("serve.outside_ms_p99", Sample.percentile outside 0.99);
        ("serve.rejected", stats_delta "rejected_saturated" +. stats_delta "shed_admission");
        ("durable.flushes_per_batch", (flushes h1 -. flushes h0) /. float_of_int count);
        ( "durable.disk_bytes_per_sql_byte",
          float_of_int (disk1 - disk0) /. float_of_int sql_bytes );
      ]
    @ if traced then [ Window.trace_overhead w ] else []
  in
  Option.iter (fun dir -> M.write_chrome ~dir ~name ~seed tr) trace;
  {
    Window.metrics;
    attempted;
    failed_ops;
    calibration =
      Window.wall w
      @ [ ("wall_setup_s", J.Float (Sample.percentile (List.map fst setup_ms) 0.5 /. 1000.0)) ];
    sizes =
      [
        ("dataset_seed", J.Int Spec.dataset_seed);
        ("txns", J.Int (List.length input.invoke_us));
        ("dep_rate", J.Float s.Spec.dep_rate);
        ("seed_entries", J.Int input.script_len);
        ("tau_recent_entries", J.Int recent);
        ("tau_lag_ms", J.Float Spec.recent_lag_ms);
        ("questions", J.Int asked);
        ("questions_per_s", J.Float (float_of_int questions /. seconds));
        ("window_s", J.Float elapsed_s);
        ("ingest_batches", J.Int count);
        ("batch_stmts", J.Int Spec.batch_stmts);
        ("ingest_per_s", J.Float Spec.ingest_per_s);
        ("setups", J.Int s.Spec.setups);
        ("daemon_workers", J.Int 1);
        ("replay_workers", J.Int 1);
        ("sync_every", J.Int 1);
        ("sync_ms", J.Float 0.0);
      ];
  }
