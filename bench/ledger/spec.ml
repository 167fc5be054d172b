(* The ledger's dictionary: every metric it reports and every workload it
   runs, with the sizes each workload uses. BENCHMARK.json at the repo
   root repeats the workload names and the metrics it lists;
   [ledger.exe --check-spec BENCHMARK.json] fails when the two drift. *)

type better = Lower | Higher
type kind = End_to_end | Per_layer

type metric = {
  name : string;
  unit_ : string;
  better : better;
  kind : kind;
  bound : float option;
      (* share of the base median by which an end-to-end metric may worsen
         before the comparator calls it a regression *)
  on : string list;  (* the workloads that measure it *)
  traced_only : bool;  (* measured only by a traced run *)
}

let oneshot = "oneshot"
let session_narrow = "session-narrow"
let session_wide = "session-wide"
let serve_ingest = "serve-ingest"
let workload_names = [ oneshot; session_narrow; session_wide; serve_ingest ]
let in_process = [ oneshot; session_narrow; session_wide ]
let sessions = [ session_narrow; session_wide ]

(* The workloads BENCHMARK.json names. serve-ingest is left out: its
   latencies follow the host's disk and scheduler, which no probe of this
   process sees, and over eight to ten runs of one commit its
   whatif_p50_ms spread 5% in a quiet hour and 48% in a busy one. It
   stays in the ledger, the comparator and the smoke. *)
let benchmarked = in_process

(* The share of the base median by which an end-to-end metric may worsen
   before a change counts as a regression. On the shared host the ledger
   was tuned on, ten runs of one commit spread (IQR over median) up to 7%
   on a median latency, 11% on a p99 and 4% on peak RSS, after
   calibration: a bound should be three times its metric's spread, and
   the tools that read BENCHMARK.json take none wider than a quarter. See
   the README. *)
let e2e ?(bound = 0.10) ?(better = Lower) name unit_ =
  {
    name;
    unit_;
    better;
    kind = End_to_end;
    bound = Some bound;
    on = workload_names;
    traced_only = false;
  }

let layer ?(on = workload_names) ?(traced_only = false) ?(better = Lower) name unit_ =
  { name; unit_; better; kind = Per_layer; bound = None; on; traced_only }

let metrics =
  [
    e2e ~bound:0.25 "whatif_p50_ms" "ms";
    e2e ~bound:0.25 "whatif_p99_ms" "ms";
    (* a closed loop's throughput is 1 / its mean latency, so only the
       served workload, whose questions share the daemon with an open
       ingest stream, reports it *)
    { (e2e ~better:Higher "whatif_per_s" "1/s") with on = [ serve_ingest ] };
    { (e2e ~bound:0.25 "ingest_p50_ms" "ms") with on = [ serve_ingest ] };
    { (e2e ~bound:0.25 "ingest_p99_ms" "ms") with on = [ serve_ingest ] };
    e2e ~bound:0.25 "setup_s" "s";
    e2e ~bound:0.15 "peak_rss_mb" "MB";
    (* 0 on a healthy run, so it has no relative bound: the comparator
       flags any run of the change that fails more than the base did *)
    { (e2e "failed_ops_ratio" "ratio") with bound = None };
    layer "analyzer.build_ms" "ms";
    layer "analyzer.build_us_per_entry" "us";
    layer "log_store.scan_ms" "ms";
    layer "log_store.resident_peak_bytes" "bytes";
    layer "log_store.bytes_per_entry" "bytes";
    layer "whatif.closure_ms" "ms";
    layer "whatif.snapshot_ms" "ms";
    layer "whatif.rollback_ms" "ms";
    layer "whatif.replay_ms" "ms";
    layer "whatif.cost_model_ms" "ms";
    layer "whatif.merge_log_ms" "ms";
    layer "whatif.unaccounted_ms" "ms";
    layer "whatif.members" "count";
    layer "whatif.replayed" "count";
    layer "whatif.undone" "count";
    layer "whatif.exec_waves" "count";
    layer ~better:Higher "whatif.parallel_share" "share";
    layer ~better:Higher "whatif.plans_used_share" "share";
    layer "engine.exec_us.insert" "us";
    layer "engine.exec_us.update" "us";
    (* serve-ingest's TPC-C history issues no DELETE *)
    layer ~on:in_process "engine.exec_us.delete" "us";
    layer "engine.exec_us.select" "us";
    layer "runtime.invoke_us" "us";
    (* only multi-statement waves record these, and only the session
       workloads' replay sets produce them *)
    layer ~on:sessions ~traced_only:true "wave_exec.queue_wait_ms_p50" "ms";
    layer ~on:sessions ~traced_only:true ~better:Higher "wave_exec.utilization_p50"
      "share";
    layer ~on:[ serve_ingest ] "gen.ingest_late_ms_max" "ms";
    layer ~traced_only:true "trace.overhead_pct" "%";
    layer ~on:sessions "service.overhead_ms" "ms";
    layer ~on:(serve_ingest :: sessions) ~better:Higher
      "service.plan_cache_hits" "count";
    layer ~on:[ serve_ingest ] "serve.server_ms_p50" "ms";
    layer ~on:[ serve_ingest ] "serve.outside_ms_p50" "ms";
    layer ~on:[ serve_ingest ] "serve.outside_ms_p99" "ms";
    layer ~on:[ serve_ingest ] "serve.rejected" "count";
    layer ~on:[ serve_ingest ] "durable.flushes_per_batch" "count";
    layer ~on:[ serve_ingest ] "durable.disk_bytes_per_sql_byte" "ratio";
    layer ~on:in_process "gc.minor_mwords_per_q" "count";
    layer ~on:in_process "gc.major_collections" "count";
  ]

(* BENCHMARK.json has no per-workload scope: every run of its command
   must report each end-to-end metric it lists (each per-layer one, when
   traced). So it lists a metric only when every workload it names
   measures it. The rest stay in the ledger envelope, where the
   comparator reads them. *)
let listed m =
  List.for_all (fun w -> List.mem w m.on) benchmarked
  && (m.kind = Per_layer || m.bound <> None)

(* the metrics a run of [workload] must report *)
let expected ~traced workload =
  List.filter (fun m -> List.mem workload m.on && (traced || not m.traced_only)) metrics

let better_name = function Lower -> "lower" | Higher -> "higher"
let kind_name = function End_to_end -> "end_to_end" | Per_layer -> "per_layer"

(* ---------- workloads ---------- *)

(* where a question's τ comes from, among the writers (entries with a
   non-empty write set) *)
type tau_draw =
  | Slice of float * float
      (* this slice of each history's writers, as shares of their count *)
  | Recent of int
      (* the last this many entries of the daemon's history as it stood
         [recent_lag_ms] before the question fell due *)

type sizes = {
  entries : int;  (* log entries per history (serve-ingest: its seed) *)
  dep_rate : float;  (* share of calls on the hot entity *)
  taus : tau_draw;
  questions : int;  (* the τ sequence's length; every run asks it once *)
  setups : int;  (* set-ups per run; setup_s is their median *)
}

(* serve-ingest's open loop: 5-statement batches due at a fixed rate *)
let batch_stmts = 5
let ingest_per_s = 25.0

(* A served question asks about the recent past, which the ingest stream
   keeps moving: τ among the entries a batch acknowledged this long
   before the question fell due. With τ in the seed instead, each
   question's replay set took in every later batch that depended on it,
   so a question cost five times more at the end of the window than at
   its start, and the p99 read the cost of the window's last second. *)
let recent_lag_ms = 400.0

(* The histories are one fixed dataset: every run replays the same app
   histories, and --seed draws the question sequence (and nothing else)
   over them. Seeding the histories too let a seed's luck in hot-chain
   lengths move whatif_p99_ms by 20% between runs of the same commit. *)
let dataset_seed = 1

(* Every run asks a fixed number of questions, so both commits of a
   comparison answer the same τ sequence and do the same work: with a
   timed window, a faster commit would answer more questions, and its
   peak RSS would grow with them. The count is --seconds times [per_s].
   serve-ingest paces its questions over a window of --seconds. On the
   2-core host the ledger was tuned on, a whole in-process run (set-ups,
   window and gate) took 0.5 to 1.1 times --seconds, the longest in the
   spells when its neighbours slowed it most: the total time of a set of
   runs must hold in those spells too. *)
let sizes ~smoke ~seconds name =
  let make ~entries ~dep_rate ~taus ~per_s =
    let questions = max 100 (int_of_float (Float.round (per_s *. seconds))) in
    { entries; dep_rate; taus; questions; setups = 3 }
  in
  let s =
    match name with
    | "oneshot" -> make ~entries:300 ~dep_rate:0.1 ~taus:(Slice (0.0, 1.0)) ~per_s:48.0
    | "session-narrow" ->
        make ~entries:5000 ~dep_rate:0.02 ~taus:(Slice (0.9, 1.0)) ~per_s:192.0
    | "session-wide" ->
        make ~entries:3000 ~dep_rate:0.3 ~taus:(Slice (0.0, 0.2)) ~per_s:64.0
    | "serve-ingest" ->
        (* one TPC-C history: the seed entries go to the daemon, the rest
           is the ingest stream *)
        make ~entries:3000 ~dep_rate:0.02 ~taus:(Recent 300) ~per_s:40.0
    | _ -> invalid_arg name
  in
  if smoke then { s with entries = max 60 (s.entries / 50); questions = 10; setups = 1 }
  else s
