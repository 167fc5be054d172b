(* The in-process workloads — oneshot, session-narrow and session-wide.
   One process builds the five app histories, asks the questions and runs
   the gate; no load generator shares its runtime. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module M = Measure
module J = Uv_obs.Json
module Trace = Uv_obs.Trace

type app = {
  h : Apps.history;
  store_dir : string;  (* the persisted history *)
  svc : Whatif.Service.t option;  (* the warm service, on session-* *)
  taus : int array;  (* this app's share of the question sequence *)
}

(* One replay lane: on a 2-core host a second lane made every question
   slower and the run-to-run spread three times wider. No checkpoint
   ladder: rollback jumps to a rung only when the entries after it that
   must be redone carry fewer undo records than the replay set, which no
   question on these histories did, so the ladder only cost memory. *)
let workers = 1

let session_config ?obs () = Whatif.Config.make ~workers ?obs ()

(* [step] times each app's part of the set-up *)
let slice (s : Spec.sizes) =
  match s.Spec.taus with
  | Spec.Slice (from, to_) -> (from, to_)
  | Spec.Recent _ -> invalid_arg "Inproc: τ drawn from a live history"

let setup ~step ~session ~(s : Spec.sizes) ~seed ~dir =
  let apps = W.all () in
  let from, to_ = slice s in
  let per_app = (s.Spec.questions + List.length apps - 1) / List.length apps in
  Array.of_list
  @@ List.mapi
       (fun i (app : W.t) ->
         step @@ fun () ->
         let h =
           Apps.execute ~seed:((Spec.dataset_seed * 16) + i) ~entries:s.Spec.entries
             ~dep_rate:s.Spec.dep_rate app
         in
         let store_dir = Filename.concat dir app.W.name in
         Apps.persist ~dir:store_dir h.Apps.eng;
         let svc =
           if not session then None
           else begin
             let svc =
               Whatif.Service.create ~config:(session_config ())
                 ~rowset:app.W.ri_config ~base:h.Apps.base h.Apps.eng
             in
             Whatif.Service.publish svc;
             Some svc
           end
         in
         let taus =
           Apps.taus ~seed:((seed * 16) + 8 + i)
             (Apps.writers (Engine.log h.Apps.eng))
             ~from ~to_ ~k:per_app
         in
         { h; store_dir; svc; taus })
       apps

(* Question [q] of the sequence: apps in rotation, each walking its own
   τ list. A oneshot question opens the persisted history afresh, builds
   an analyzer over it and runs the what-if with every cache off; a
   session question goes to the app's warm service. *)
let ask ~traced ~tr apps q =
  let n = Array.length apps in
  let a = apps.(q mod n) in
  let target =
    { Analyzer.tau = a.taus.(q / n mod Array.length a.taus); op = Analyzer.Remove }
  in
  let entries = Log.length (Engine.log a.h.Apps.eng) in
  M.Span.run tr ~q "question" @@ fun () ->
  let t0 = M.now () in
  let result, build_ms =
    match a.svc with
    | Some svc ->
        let config = if traced then Some (session_config ~obs:tr ()) else None in
        ( Result.map
            (fun r -> r.Whatif.Service.outcome)
            (M.Span.run tr ~q "service.run" (fun () ->
                 Whatif.Service.run ?config svc target)),
          0.0 )
    | None ->
        let analyzer, build_ms =
          M.time (fun () ->
              M.Span.run tr ~q "analyzer.of_source" (fun () ->
                  Analyzer.of_source ~config:a.h.Apps.app.W.ri_config
                    ~base:a.h.Apps.base ~obs:tr
                    (Analyzer.source_of_store (Log_store.open_ a.store_dir))))
        in
        ( M.Span.run tr ~q "whatif.run" (fun () ->
              Whatif.run
                ~config:(Whatif.Config.make ~workers ~plans:false ~obs:tr ())
                ~analyzer a.h.Apps.eng target),
          build_ms )
  in
  match result with
  | Ok o ->
      let lat_ms = M.now () -. t0 in
      Some (q mod n, target, o, Window.of_outcome ~traced ~lat_ms ~build_ms ~entries o)
  | Error e ->
      prerr_endline ("ledger: what-if failed: " ^ Whatif.Error.to_string e);
      None

let hex h = Printf.sprintf "%Lx" h

(* one decode-only pass over every store, each through a fresh handle so
   the segments come off the files *)
let scan dirs =
  let stores = List.map Log_store.open_ dirs in
  let (), ms =
    M.time (fun () ->
        List.iter
          (fun st -> Log_store.iter_range st ~lo:1 ~hi:(Log_store.length st) (fun _ _ -> ()))
          stores)
  in
  (ms, List.fold_left (fun acc st -> max acc (Log_store.resident_peak_bytes st)) 0 stores)

let run ~name ~seed ~seconds ~trace ~smoke ~workdir : Window.result =
  let traced = trace <> None in
  let s = Spec.sizes ~smoke ~seconds name in
  let session = name <> Spec.oneshot in
  let dir = M.fresh_dir (Filename.concat workdir (Printf.sprintf "%s-%d" name (Unix.getpid ()))) in
  Fun.protect ~finally:(fun () -> M.rm_rf dir) @@ fun () ->
  (* several set-ups, each with its warm-up, keeping only the last alive;
     setup_s is their median. Each is timed in steps (an app, a few
     warm-up questions) scaled by the probes around them. *)
  let setups = Calib.Setups.create () in
  let apps = ref [||] and last = ref "" in
  for k = 1 to s.Spec.setups do
    apps := [||];
    Gc.full_major ();
    last := M.fresh_dir (Filename.concat dir (string_of_int k));
    Calib.Setups.next setups;
    let step f = Calib.Setups.step setups f in
    let a = setup ~step ~session ~s ~seed ~dir:!last in
    let warm = s.Spec.questions / 10 in
    for chunk = 0 to (warm - 1) / 8 do
      step (fun () ->
          for q = chunk * 8 to min warm ((chunk + 1) * 8) - 1 do
            ignore (ask ~traced:false ~tr:Trace.disabled a q)
          done)
    done;
    apps := a
  done;
  let setup_ms = Calib.Setups.totals setups in
  let apps = !apps in
  let n = Array.length apps in
  (* the gate's samples: per app, its first answer and its largest
     replay set *)
  let kept = Array.make n [] in
  let keep app target (o : Whatif.outcome) =
    let size (_, (x : Whatif.outcome)) = x.Whatif.replay.Analyzer.member_count in
    kept.(app) <-
      (match kept.(app) with
      | [] -> [ (target, o) ]
      | [ first ] when size (target, o) > size first -> [ first; (target, o) ]
      | [ first; big ] when size (target, o) > size big -> [ first; (target, o) ]
      | l -> l)
  in
  let tr = if traced then Trace.create () else Trace.disabled in
  let gc0 = Gc.quick_stat () in
  let w =
    Window.run ~questions:s.Spec.questions (fun q ->
        let traced = traced && Window.traced_question q in
        Option.map
          (fun (app, target, o, answer) ->
            keep app target o;
            answer)
          (ask ~traced ~tr:(if traced then tr else Trace.disabled) apps q))
  in
  let gc1 = Gc.quick_stat () in
  let peak_rss = M.peak_rss_mb None in
  (* the gate *)
  let samples = Gate.exec_samples () in
  let builds = ref [] in
  Array.iteri
    (fun i a ->
      let label = name ^ " " ^ a.h.Apps.app.W.name in
      let eng = a.h.Apps.eng in
      List.iter
        (fun (target, (o : Whatif.outcome)) ->
          M.Span.run tr "gate.oracle" (fun () ->
              Gate.check_oracle ~obs:tr ~samples ~base:(Some a.h.Apps.base) ~label eng
                target o);
          if session then begin
            let want, build_ms =
              M.Span.run tr "gate.oneshot" (fun () ->
                  Gate.oneshot ~rowset:a.h.Apps.app.W.ri_config ~base:a.h.Apps.base
                    ~label eng target)
            in
            builds := (build_ms, Log.length (Engine.log eng)) :: !builds;
            Gate.check_same ~label ~tau:target.Analyzer.tau
              ~got:(hex o.Whatif.final_db_hash) ~want:(hex want.Whatif.final_db_hash)
          end)
        (List.sort_uniq (fun (x, _) (y, _) -> compare x y) kept.(i)))
    apps;
  let dirs = Array.to_list (Array.map (fun a -> a.store_dir) apps) in
  let scans = List.init 3 (fun _ -> scan dirs) in
  let history_entries =
    Array.fold_left (fun acc a -> acc + Log.length (Engine.log a.h.Apps.eng)) 0 apps
  in
  let layer_answers = Window.layer_answers w in
  let band = Sample.median_band ~key:(fun a -> a.Window.lat_ms) layer_answers in
  let questions = float_of_int (List.length w.Window.answers) in
  let metrics =
    Window.end_to_end w
    @ [
        ("setup_s", Sample.percentile (List.map snd setup_ms) 0.5 /. 1000.0);
        ("peak_rss_mb", peak_rss);
        ("failed_ops_ratio", float_of_int w.Window.failed /. float_of_int w.Window.asked);
      ]
    @ Window.layers layer_answers
    @ (if session then
         [
           ("analyzer.build_ms", Sample.percentile (List.map fst !builds) 0.5);
           ( "analyzer.build_us_per_entry",
             Sample.percentile
               (List.map (fun (ms, len) -> ms *. 1000.0 /. float_of_int len) !builds)
               0.5 );
           ( "service.overhead_ms",
             (* real_ms stops before the merge-log phase *)
             Sample.mean
               (List.map
                  (fun a -> a.Window.lat_ms -. a.Window.real_ms -. Window.phase a "merge-log")
                  band) );
           ( "service.plan_cache_hits",
             float_of_int
               (Array.fold_left
                  (fun acc a ->
                    acc
                    + Option.fold ~none:0
                        ~some:(fun svc -> (Whatif.Service.stats svc).Whatif.Service.plan_cache_hits)
                        a.svc)
                  0 apps) );
         ]
       else Window.analyzer_build layer_answers)
    @ [
        ("log_store.scan_ms", Sample.percentile (List.map fst scans) 0.5);
        ( "log_store.resident_peak_bytes",
          float_of_int (List.fold_left (fun acc (_, b) -> max acc b) 0 scans) );
        ( "log_store.bytes_per_entry",
          float_of_int (M.dir_bytes !last) /. float_of_int history_entries );
      ]
    @ Window.exec_us samples
    @ [
        ( "runtime.invoke_us",
          Sample.percentile
            (List.concat_map (fun a -> a.h.Apps.invoke_us) (Array.to_list apps))
            0.5 );
        ( "gc.minor_mwords_per_q",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. questions /. 1e6 );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ]
    @
    if not traced then []
    else
      let payload = Trace.metrics_payload tr in
      Window.trace_overhead w
      :: List.filter_map
           (fun (name, hist) ->
             Option.map (fun v -> (name, v)) (M.hist_p50 payload hist))
           [
             ("wave_exec.queue_wait_ms_p50", "replay.queue_wait_ms");
             ("wave_exec.utilization_p50", "replay.utilization");
           ]
  in
  Option.iter (fun dir -> M.write_chrome ~dir ~name ~seed tr) trace;
  {
    Window.metrics;
    attempted = w.Window.asked;
    failed_ops = w.Window.failed;
    calibration =
      Window.wall w
      @ [ ("wall_setup_s", J.Float (Sample.percentile (List.map fst setup_ms) 0.5 /. 1000.0)) ];
    sizes =
      [
        ("dataset_seed", J.Int Spec.dataset_seed);
        ("apps", J.Int n);
        ("entries_per_app", J.Int s.Spec.entries);
        ( "txns",
          J.Int (Array.fold_left (fun acc a -> acc + List.length a.h.Apps.invoke_us) 0 apps) );
        ("dep_rate", J.Float s.Spec.dep_rate);
        ("tau_from", J.Float (fst (slice s)));
        ("tau_to", J.Float (snd (slice s)));
        ("history_entries", J.Int history_entries);
        ("segment_cap", J.Int Apps.segment_cap);
        ("questions", J.Int (int_of_float questions));
        ("window_s", J.Float w.Window.elapsed_s);
        ("setups", J.Int s.Spec.setups);
        ("workers", J.Int workers);
        ("plans", J.Bool session);
      ];
  }
