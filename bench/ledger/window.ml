(* One timed window of what-if questions, and what it reports. *)

type answer = {
  traced : bool;  (* asked with tracing on *)
  lat_ms : float;  (* what the caller waited, by the wall clock *)
  cal_ms : float;  (* [lat_ms] at the reference host speed (Calib) *)
  build_ms : float;  (* analyzer build inside the question (oneshot) *)
  entries : int;  (* history length the question was asked over *)
  real_ms : float;  (* the what-if's own [outcome.real_ms] *)
  phases : (string * float) list;  (* [outcome.phases]; [] when served *)
  members : int;
  replayed : int;
  undone : int;
  waves : int;
  parallel : bool;  (* replayed on the wave executor *)
  plans_used : int;
}

let of_outcome ~traced ~lat_ms ~build_ms ~entries (o : Uv_retroactive.Whatif.outcome) =
  let module W = Uv_retroactive.Whatif in
  {
    traced;
    lat_ms;
    cal_ms = nan;
    build_ms;
    entries;
    real_ms = o.W.real_ms;
    phases = o.W.phases;
    members = o.W.replay.Uv_retroactive.Analyzer.member_count;
    replayed = o.W.replayed;
    undone = o.W.undone;
    waves = o.W.exec_waves;
    parallel = o.W.measured_parallel_ms <> None;
    plans_used = o.W.plans_used;
  }

type t = {
  answers : answer list;
  asked : int;
  failed : int;
  elapsed_s : float;
  speed : float;  (* the host's speed over the window (Calib.speed) *)
}

(* Answers are collected with the calibration probe each was asked
   under (Calib); once the last probe is in, each latency is scaled by
   the probes around it. *)
type collector = {
  cal : Calib.t;
  mutable tagged : (int * answer) list;  (* newest first *)
}

let collector () = { cal = Calib.start (); tagged = [] }

let add c a =
  c.tagged <- (Calib.mark c.cal, a) :: c.tagged;
  if Calib.due c.cal then Calib.tick c.cal

let finish c ~asked ~failed ~elapsed_s =
  Calib.tick c.cal;
  let scale = Calib.scale c.cal in
  {
    answers = List.rev_map (fun (i, a) -> { a with cal_ms = a.lat_ms *. scale i }) c.tagged;
    asked;
    failed;
    elapsed_s;
    speed = Calib.speed c.cal;
  }

(* Asks questions [0 .. questions - 1] in order; [ask i] returns [None]
   for a failed question. *)
let run ~questions ask =
  let c = collector () in
  let t0 = Measure.now () in
  let failed = ref 0 in
  for i = 0 to questions - 1 do
    match ask i with Some a -> add c a | None -> incr failed
  done;
  finish c ~asked:questions ~failed:!failed ~elapsed_s:((Measure.now () -. t0) /. 1000.0)

(* A traced run traces about half its questions, picked by a hash of the
   question's index: traced and untraced questions then share one
   window, so drift across it cannot pose as tracing cost, and the
   choice does not beat against a period of the workload (the app
   rotation, serve-ingest's ingest cadence). *)
let traced_question q = Hashtbl.hash q land 1 = 1

(* untraced answers, then traced ones *)
let split w = List.partition (fun a -> not a.traced) w.answers
let latencies answers = List.map (fun a -> a.cal_ms) answers

let end_to_end w =
  let lat = latencies (fst (split w)) in
  [
    ("whatif_p50_ms", Sample.percentile lat 0.50);
    ("whatif_p99_ms", Sample.percentile lat 0.99);
  ]

(* the window's own wall-clock latencies and the host speed they were
   scaled by, for the envelope *)
let wall w =
  let lat = List.map (fun a -> a.lat_ms) (fst (split w)) in
  [
    ("speed", Uv_obs.Json.Float w.speed);
    ("wall_p50_ms", Uv_obs.Json.Float (Sample.percentile lat 0.50));
    ("wall_p99_ms", Uv_obs.Json.Float (Sample.percentile lat 0.99));
  ]

(* the traced questions' p50 over the untraced ones', as a percentage *)
let trace_overhead w =
  let plain, traced = split w in
  let p50 xs = Sample.percentile (latencies xs) 0.5 in
  ("trace.overhead_pct", 100.0 *. ((p50 traced /. p50 plain) -. 1.0))

(* the answers the per-layer view is taken from: the traced ones in a
   traced run *)
let layer_answers w =
  match split w with plain, [] -> plain | _, traced -> traced

let phase_names =
  [
    ("analyze", "whatif.closure_ms");
    ("snapshot", "whatif.snapshot_ms");
    ("rollback", "whatif.rollback_ms");
    ("replay", "whatif.replay_ms");
    ("cost-model", "whatif.cost_model_ms");
    ("merge-log", "whatif.merge_log_ms");
  ]

let phase a name = Option.value (List.assoc_opt name a.phases) ~default:0.0
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let share p xs = sum (fun a -> if p a then 1.0 else 0.0) xs /. float_of_int (List.length xs)

(* Per-layer view of the window. Phase times are averaged over the
   median band of questions, so together with [whatif.unaccounted_ms]
   they add up to a median question; counts and shares cover every
   question. *)
let layers all =
  let band = Sample.median_band ~key:(fun a -> a.lat_ms) all in
  let band_mean f = Sample.mean (List.map f band) in
  let all_mean f = Sample.mean (List.map (fun a -> float_of_int (f a)) all) in
  let replayed = sum (fun a -> float_of_int a.replayed) all in
  List.map (fun (p, name) -> (name, band_mean (fun a -> phase a p))) phase_names
  @ [
      ( "whatif.unaccounted_ms",
        band_mean (fun a ->
            a.lat_ms -. a.build_ms -. sum (fun (_, ms) -> ms) a.phases) );
      ("whatif.members", all_mean (fun a -> a.members));
      ("whatif.replayed", all_mean (fun a -> a.replayed));
      ("whatif.undone", all_mean (fun a -> a.undone));
      ("whatif.exec_waves", all_mean (fun a -> a.waves));
      ("whatif.parallel_share", share (fun a -> a.parallel) all);
      ( "whatif.plans_used_share",
        if replayed = 0.0 then 0.0
        else sum (fun a -> float_of_int a.plans_used) all /. replayed );
    ]

(* the band's analyzer build, per question and per history entry *)
let analyzer_build answers =
  let band = Sample.median_band ~key:(fun a -> a.lat_ms) answers in
  [
    ("analyzer.build_ms", Sample.mean (List.map (fun a -> a.build_ms) band));
    ( "analyzer.build_us_per_entry",
      Sample.mean
        (List.map (fun a -> a.build_ms *. 1000.0 /. float_of_int a.entries) band) );
  ]

let exec_us (samples : Gate.exec_samples) =
  List.filter_map
    (fun k ->
      Option.map
        (fun xs -> ("engine.exec_us." ^ k, Sample.percentile xs 0.5))
        (Hashtbl.find_opt samples k))
    [ "insert"; "update"; "delete"; "select" ]

(* the run's result, handed to the envelope *)
type result = {
  metrics : (string * float) list;
  attempted : int;
  failed_ops : int;
  sizes : (string * Uv_obs.Json.t) list;
  calibration : (string * Uv_obs.Json.t) list;
      (* host speed and the unscaled wall-clock times *)
}
