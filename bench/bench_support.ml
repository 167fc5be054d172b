(* Shared machinery for the benchmark harness: building histories in each
   execution mode, the four system variants (B, T, D, T+D) of §5, and the
   Mahif baseline hookup.

   Cost reporting follows DESIGN.md's two-clock policy: [real] is measured
   wall time of the in-process work; [rtt] adds the simulated
   client-server round trips (1 ms each by default, the paper's LAN
   setup); for the dependency-analysed systems the parallel makespan over
   the replay conflict DAG stands in for the paper's 8-vCPU parallel
   replay. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let rtt_ms = 1.0

type built = {
  workload : W.t;
  eng : Engine.t;
  rt : R.t;
  base : Catalog.t;
  calls : W.txn_call list;
  mode : R.mode;
}

(* Build a history of [n] transaction calls (the hot-entity target call
   first) at the given dependency rate, executed in [mode]. *)
let build ?(seed = 91) ?(scale = 1) ~mode ~n ~dep_rate (w : W.t) =
  let eng, rt = W.setup ~seed ~scale ~mode w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create (seed + 1) in
  let calls = w.W.target_call :: w.W.generate prng ~scale ~n ~dep_rate in
  ignore (W.run_history rt ~mode calls);
  { workload = w; eng; rt; base; calls; mode }

type cost = {
  real : float;  (** measured milliseconds *)
  with_rtt : float;  (** plus simulated round trips *)
  replayed : int;
  extra : string;  (** free-form note (hash-jump point, ...) *)
}

let time f =
  let t0 = Uv_util.Clock.now_ms () in
  let r = f () in
  (r, Uv_util.Clock.now_ms () -. t0)

(* ------------------------------------------------------------------ *)
(* System B: serial full replay of the application-level transactions
   through the interpreter (every query its own round trip).            *)
(* ------------------------------------------------------------------ *)

let run_b (b : built) : cost =
  let invocations = R.invocations b.rt in
  let replay_eng = Engine.of_catalog ~rtt_ms (Catalog.snapshot b.base) in
  let rt2 = R.create replay_eng ~source:b.workload.W.app_source in
  let (), real =
    time (fun () ->
        List.iter
          (fun inv -> ignore (R.replay_invocation rt2 ~mode:R.Raw inv))
          invocations)
  in
  let rtts = Log.length (Engine.log replay_eng) in
  {
    real;
    with_rtt = real +. (float_of_int rtts *. rtt_ms);
    replayed = rtts;
    extra = "";
  }

(* ------------------------------------------------------------------ *)
(* System T: serial full replay of the transpiled procedures (one round
   trip per transaction).                                                *)
(* ------------------------------------------------------------------ *)

let run_t (b : built) : cost =
  let invocations = R.invocations b.rt in
  let replay_eng = Engine.of_catalog ~rtt_ms (Catalog.snapshot b.base) in
  let rt2 = R.create replay_eng ~source:b.workload.W.app_source in
  (* reuse the already-computed transpilations by installing them fresh *)
  let (), transpile_unused = time (fun () -> ignore (R.transpile_install rt2)) in
  ignore transpile_unused;
  let (), real =
    time (fun () ->
        List.iter
          (fun inv -> ignore (R.replay_invocation rt2 ~mode:R.Transpiled inv))
          invocations)
  in
  let rtts = List.length invocations in
  {
    real;
    with_rtt = real +. (float_of_int rtts *. rtt_ms);
    replayed = rtts;
    extra = "";
  }

(* ------------------------------------------------------------------ *)
(* Systems D and T+D: dependency-analysed replay via the what-if driver. *)
(* ------------------------------------------------------------------ *)

let run_dep ?(hash_jumper = false) ?(workers = 8) (b : built) : cost =
  let analyzer =
    Analyzer.analyze ~config:b.workload.W.ri_config ~base:b.base (Engine.log b.eng)
  in
  let config = Whatif.Config.make ~hash_jumper ~workers () in
  let out =
    Whatif.run_exn ~config ~analyzer b.eng { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  {
    real = out.Whatif.real_ms;
    (* the parallel makespan already includes one round trip per replayed
       statement *)
    with_rtt = out.Whatif.analysis_ms +. out.Whatif.simulated_parallel_ms;
    replayed = out.Whatif.replayed;
    extra =
      (match out.Whatif.hash_jump_at with
      | Some i -> Printf.sprintf "hash-hit@%d" i
      | None -> "");
  }

(* System D: transaction-granular analysis + app-function replay over a
   raw-mode history *)
let run_d (b : built) : cost =
  let analyzer =
    Analyzer.analyze ~config:b.workload.W.ri_config ~base:b.base (Engine.log b.eng)
  in
  let target_tag =
    match R.invocations b.rt with
    | inv :: _ -> Uv_workloads.Dsystem.tag_of_invocation inv
    | [] -> "none"
  in
  let out =
    Uv_workloads.Dsystem.run ~rtt_ms ~analyzer ~runtime:b.rt b.eng ~target_tag
  in
  {
    real = out.Uv_workloads.Dsystem.real_ms;
    with_rtt = out.Uv_workloads.Dsystem.parallel_cost_ms;
    replayed = out.Uv_workloads.Dsystem.replayed_entries;
    extra =
      Printf.sprintf "%d/%d txns" out.Uv_workloads.Dsystem.member_invocations
        out.Uv_workloads.Dsystem.total_invocations;
  }

let run_whatif ?config (b : built) tau op =
  let analyzer =
    Analyzer.analyze ~config:b.workload.W.ri_config ~base:b.base (Engine.log b.eng)
  in
  Whatif.run_exn ?config ~analyzer b.eng { Analyzer.tau = tau; op }

(* ------------------------------------------------------------------ *)
(* Mahif baseline on the numeric projection                              *)
(* ------------------------------------------------------------------ *)

type mahif_result = { m_ms : float; m_bytes : int }

let run_mahif (w : W.t) ~n ~dep_rate : mahif_result option =
  match w.W.numeric_history with
  | None -> None
  | Some gen -> (
      let prng = Uv_util.Prng.create 7 in
      let stmts, tau = gen prng ~n ~dep_rate in
      let eng = Engine.create () in
      List.iter
        (fun sql -> try ignore (Engine.exec_sql eng sql) with Engine.Sql_error _ -> ())
        stmts;
      try
        let m = Uv_mahif.Mahif.create () in
        let (), load_ms = time (fun () -> Uv_mahif.Mahif.load_history m (Engine.log eng)) in
        let tau = min tau (Log.length (Engine.log eng)) in
        let _, answer_ms = time (fun () -> Uv_mahif.Mahif.whatif_remove m tau) in
        Some { m_ms = load_ms +. answer_ms; m_bytes = Uv_mahif.Mahif.memory_bytes m }
      with Uv_mahif.Mahif.Unsupported _ -> None)

(* Ultraverse + full-replay baseline over the same numeric history. *)
let run_numeric_pair (w : W.t) ~n ~dep_rate =
  match w.W.numeric_history with
  | None -> None
  | Some gen ->
      let prng = Uv_util.Prng.create 7 in
      let stmts, tau = gen prng ~n ~dep_rate in
      let eng = Engine.create ~rtt_ms () in
      List.iter
        (fun sql -> try ignore (Engine.exec_sql eng sql) with Engine.Sql_error _ -> ())
        stmts;
      let tau = min tau (Log.length (Engine.log eng)) in
      (* T+D: dependency-analysed what-if *)
      let analyzer = Analyzer.analyze (Engine.log eng) in
      let out = Whatif.run_exn ~analyzer eng { Analyzer.tau; op = Analyzer.Remove } in
      let td = out.Whatif.analysis_ms +. out.Whatif.simulated_parallel_ms in
      (* B: replay everything from tau on a snapshot *)
      let snap = Engine.snapshot eng in
      let replay_eng = Engine.of_catalog ~rtt_ms (Catalog.snapshot snap) in
      let (), b_real =
        time (fun () ->
            (* full-replay semantics: undo everything back to tau, then
               re-execute the tail *)
            let log = Engine.log eng in
            ignore
              (Log.undo_entries (Engine.catalog replay_eng)
                 (List.init
                    (Log.length log - tau + 1)
                    (fun k -> (Log.entry log (Log.length log - k)).Log.undo))
                : Log.undo_stats);
            for i = tau + 1 to Log.length log do
              let e = Log.entry log i in
              try ignore (Engine.exec ~nondet:e.Log.nondet replay_eng e.Log.stmt)
              with Engine.Sql_error _ | Engine.Signal_raised _ -> ()
            done)
      in
      let b_tail = max 0 (Log.length (Engine.log eng) - tau) in
      Some (td, b_real +. (float_of_int b_tail *. rtt_ms))

(* live-heap measurement around a thunk *)
let live_delta f =
  Gc.compact ();
  let before = Uv_util.Stats.live_bytes () in
  let r = f () in
  Gc.full_major ();
  let after = Uv_util.Stats.live_bytes () in
  (r, max 0 (after - before))
