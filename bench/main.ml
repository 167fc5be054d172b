(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), scaled per DESIGN.md §3, plus the ablation
   benches DESIGN.md calls out and a Bechamel micro-benchmark section for
   the core primitives.

   Run everything:     dune exec bench/main.exe
   One experiment:     dune exec bench/main.exe -- --only t4a
   List experiments:   dune exec bench/main.exe -- --list
   Smaller/faster:     dune exec bench/main.exe -- --quick
   Micro-benchmarks:   dune exec bench/main.exe -- --only micro *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module S = Bench_support
module G = Uv_util.Textgrid

let quick = ref false

let sz full q = if !quick then q else full

let fmt = G.fmt_ms

let workloads () = W.all ()

(* ------------------------------------------------------------------ *)
(* Table 4(a) + 4(b): Ultraverse (T+D) vs full replay (B) vs Mahif      *)
(* ------------------------------------------------------------------ *)

let bench_t4 () =
  let sizes = if !quick then [ 100; 250 ] else [ 250; 500; 1000; 2000 ] in
  let speed =
    G.create ~title:"Table 4(a): what-if time, T+D vs B vs Mahif (dep 50%)"
      ~header:
        ("Bench"
        :: List.concat_map
             (fun n -> [ Printf.sprintf "%dq T+D" n; "B"; "Mahif" ])
             sizes)
  in
  let ram =
    G.create ~title:"Table 4(b): memory overhead for the what-if"
      ~header:
        ("Bench"
        :: List.concat_map (fun n -> [ Printf.sprintf "%dq T+D" n; "Mahif" ]) sizes)
  in
  List.iter
    (fun (w : W.t) ->
      let srow = ref [ w.W.name ] and rrow = ref [ w.W.name ] in
      List.iter
        (fun n ->
          match S.run_numeric_pair w ~n ~dep_rate:0.5 with
          | Some (td, b) ->
              let mahif = S.run_mahif w ~n ~dep_rate:0.5 in
              let td_bytes =
                (* analyzer + temp tables held during the what-if *)
                let prng = Uv_util.Prng.create 7 in
                let stmts, tau =
                  (Option.get w.W.numeric_history) prng ~n ~dep_rate:0.5
                in
                let eng = Engine.create () in
                List.iter
                  (fun sql ->
                    try ignore (Engine.exec_sql eng sql) with Engine.Sql_error _ -> ())
                  stmts;
                let _, bytes =
                  S.live_delta (fun () ->
                      let analyzer = Analyzer.analyze (Engine.log eng) in
                      let out =
                        Whatif.run_exn ~analyzer eng
                          { Analyzer.tau = tau; op = Analyzer.Remove }
                      in
                      (* both the analyzer's indexes and the temporary
                         universe are resident during the operation *)
                      (analyzer, out))
                in
                bytes
              in
              srow := !srow @ [ fmt td; fmt b;
                                (match mahif with
                                | Some m -> fmt m.S.m_ms
                                | None -> "x") ];
              rrow :=
                !rrow
                @ [ G.fmt_bytes td_bytes;
                    (match mahif with
                    | Some m -> G.fmt_bytes m.S.m_bytes
                    | None -> "x") ]
          | None ->
              (* SEATS: strings everywhere; run its app history for ours *)
              let b = S.build ~mode:R.Transpiled ~n:(n / 4) ~dep_rate:0.5 w in
              let td = S.run_dep ~grouped:false b in
              let bb = S.run_b b in
              srow := !srow @ [ fmt td.S.with_rtt; fmt bb.S.with_rtt; "x" ];
              rrow := !rrow @ [ "-"; "x" ])
        sizes;
      G.add_row speed !srow;
      G.add_row ram !rrow)
    (workloads ());
  G.print speed;
  G.print ram

(* ------------------------------------------------------------------ *)
(* Table 5: what-if time across database sizes                          *)
(* ------------------------------------------------------------------ *)

let bench_t5 () =
  let scales = if !quick then [ 1; 2 ] else [ 1; 4; 16 ] in
  let t =
    G.create ~title:"Table 5: what-if time across DB sizes (fixed history)"
      ~header:
        ("Bench"
        :: List.concat_map
             (fun s -> [ Printf.sprintf "%dx rows" s; "T+D"; "B" ]) scales)
  in
  let n = sz 300 100 in
  List.iter
    (fun (w : W.t) ->
      let row = ref [ w.W.name ] in
      List.iter
        (fun scale ->
          let b = S.build ~scale ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
          let dbsize = Catalog.memory_bytes (Engine.catalog b.S.eng) in
          let td = S.run_dep ~grouped:false b in
          let bb = S.run_b b in
          row := !row @ [ G.fmt_bytes dbsize; fmt td.S.with_rtt; fmt bb.S.with_rtt ])
        scales;
      G.add_row t !row)
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Figure 8(a): B vs T vs D vs T+D on a long history                    *)
(* ------------------------------------------------------------------ *)

let bench_f8a () =
  let n = sz 2000 400 in
  let t =
    G.create
      ~title:
        (Printf.sprintf
           "Figure 8(a): what-if runtime, %d-transaction history (1%% targets)" n)
      ~header:[ "Bench"; "B"; "T"; "D"; "T+D"; "T+D replayed"; "of" ]
  in
  List.iter
    (fun (w : W.t) ->
      (* raw-mode history drives B and D *)
      let braw = S.build ~mode:R.Raw ~n ~dep_rate:0.3 w in
      let b = S.run_b braw in
      let d = S.run_d braw in
      (* transpiled-mode history drives T and T+D *)
      let btr = S.build ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
      let tt = S.run_t btr in
      let td = S.run_dep ~grouped:false btr in
      G.add_row t
        [
          w.W.name;
          fmt b.S.with_rtt;
          fmt tt.S.with_rtt;
          fmt d.S.with_rtt;
          fmt td.S.with_rtt;
          string_of_int td.S.replayed;
          string_of_int (Log.length (Engine.log btr.S.eng));
        ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 6(a): Hash-jumper runtime across hash-hit points               *)
(* ------------------------------------------------------------------ *)

(* hot-entity absolute-set statement per workload: initialised at the
   start, overwritten at X% of the history, target = change the init *)
let overwrite_stmt (w : W.t) v =
  match w.W.name with
  | "Epinions" -> Printf.sprintf "UPDATE review SET rating = %d WHERE a_id = 1" v
  | "TATP" -> Printf.sprintf "UPDATE subscriber SET vlr_location = %d WHERE s_id = 1" v
  | "SEATS" -> Printf.sprintf "UPDATE customer SET c_balance = %d WHERE c_id = 1" v
  | "TPC-C" -> Printf.sprintf "UPDATE warehouse SET w_ytd = %d WHERE w_id = 1" v
  | _ -> Printf.sprintf "UPDATE Products SET Price = %d WHERE ProductID = 1" v

let bench_t6a () =
  let n = sz 1000 200 in
  let points = [ 0.10; 0.25; 0.50; 1.00 ] in
  let t =
    G.create
      ~title:
        (Printf.sprintf
           "Table 6(a): Hash-jumper runtime vs hash-hit point (%d-txn history)" n)
      ~header:
        ("Bench"
        :: List.map (fun p -> Printf.sprintf "at %.0f%%" (100.0 *. p)) points)
  in
  List.iter
    (fun (w : W.t) ->
      let row = ref [ w.W.name ] in
      List.iter
        (fun point ->
          let eng, rt = W.setup ~mode:R.Transpiled w in
          let base = Engine.snapshot eng in
          ignore (Engine.exec_sql eng (overwrite_stmt w 100)); (* the init *)
          let prng = Uv_util.Prng.create 5 in
          let calls = w.W.generate prng ~scale:1 ~n ~dep_rate:0.0 in
          let cut = int_of_float (float_of_int n *. point) in
          List.iteri
            (fun i c ->
              if i = cut - 1 && point < 1.0 then
                (* the overwrite that re-joins the original timeline *)
                ignore (Engine.exec_sql eng (overwrite_stmt w 555));
              ignore (R.invoke rt ~mode:R.Transpiled c.W.txn c.W.args))
            calls;
          let analyzer =
            Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng)
          in
          let config = Whatif.Config.make ~hash_jumper:true () in
          let target =
            {
              Analyzer.tau = 1;
              op = Analyzer.Change (Uv_sql.Parser.parse_stmt (overwrite_stmt w 101));
            }
          in
          let out = Whatif.run_exn ~config ~analyzer eng target in
          let note =
            match out.Whatif.hash_jump_at with Some _ -> "" | None -> "*"
          in
          row :=
            !row
            @ [
                Printf.sprintf "%s%s"
                  (fmt (out.Whatif.analysis_ms +. out.Whatif.simulated_parallel_ms))
                  note;
              ])
        points;
      G.add_row t !row)
    (workloads ());
  G.print t;
  print_endline "  (* = no hash-hit: the 100% column measures pure jumper overhead)"

(* ------------------------------------------------------------------ *)
(* Table 6(b): regular transaction speed, B vs T                        *)
(* ------------------------------------------------------------------ *)

let bench_t6b () =
  let n = sz 300 100 in
  let t =
    G.create ~title:"Table 6(b): regular application-transaction latency"
      ~header:[ "Bench"; "B (raw)"; "T (transpiled)"; "speedup" ]
  in
  List.iter
    (fun (w : W.t) ->
      let per_txn mode =
        let eng, rt = W.setup ~mode w in
        let prng = Uv_util.Prng.create 3 in
        let calls = w.W.generate prng ~scale:1 ~n ~dep_rate:0.2 in
        let (), real = S.time (fun () -> ignore (W.run_history rt ~mode calls)) in
        let rtts = Log.length (Engine.log eng) in
        (real +. (float_of_int rtts *. S.rtt_ms)) /. float_of_int n
      in
      let b = per_txn R.Raw and tr = per_txn R.Transpiled in
      G.add_row t [ w.W.name; fmt b; fmt tr; G.fmt_speedup (b /. tr) ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 7(a): transpilation time                                       *)
(* ------------------------------------------------------------------ *)

let bench_t7a () =
  let t =
    G.create ~title:"Table 7(a): SQL transpiler analysis time (offline, once)"
      ~header:[ "Bench"; "txns"; "paths"; "DSE runs"; "time" ]
  in
  List.iter
    (fun (w : W.t) ->
      let eng, rt = W.setup ~mode:R.Raw w in
      ignore eng;
      let trs, ms = S.time (fun () -> R.transpile_install rt) in
      let paths =
        List.fold_left (fun a (x : Uv_transpiler.Transpile.t) -> a + x.Uv_transpiler.Transpile.paths) 0 trs
      in
      let runs =
        List.fold_left (fun a (x : Uv_transpiler.Transpile.t) -> a + x.Uv_transpiler.Transpile.runs) 0 trs
      in
      G.add_row t
        [
          w.W.name;
          string_of_int (List.length trs);
          string_of_int paths;
          string_of_int runs;
          fmt ms;
        ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 7(b): log size per query                                       *)
(* ------------------------------------------------------------------ *)

let bench_t7b () =
  let n = sz 400 150 in
  let t =
    G.create ~title:"Table 7(b): average log bytes per query"
      ~header:[ "Bench"; "engine binlog"; "Ultraverse extra"; "overhead" ]
  in
  List.iter
    (fun (w : W.t) ->
      let b = S.build ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
      let total_bin = ref 0 and total_uv = ref 0 and count = ref 0 in
      Log.iter (Engine.log b.S.eng) (fun e ->
          incr count;
          total_bin := !total_bin + Log.binlog_bytes e;
          total_uv := !total_uv + Log.uv_log_bytes e);
      let avg x = !x / max 1 !count in
      G.add_row t
        [
          w.W.name;
          Printf.sprintf "%db" (avg total_bin);
          Printf.sprintf "%db" (avg total_uv);
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int (avg total_uv) /. float_of_int (avg total_bin));
        ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 7(c): dependency-logger overhead during regular operation      *)
(* ------------------------------------------------------------------ *)

let bench_t7c () =
  let n = sz 500 150 in
  let t =
    G.create
      ~title:
        "Table 7(c): asynchronous R/W-set + hash logging overhead (vs \
         execution time)"
      ~header:[ "Bench"; "T+D"; "T+D+H" ]
  in
  List.iter
    (fun (w : W.t) ->
      let eng, rt = W.setup ~mode:R.Transpiled w in
      let base = Engine.snapshot eng in
      let prng = Uv_util.Prng.create 3 in
      let calls = w.W.generate prng ~scale:1 ~n ~dep_rate:0.3 in
      let (), exec_ms = S.time (fun () -> ignore (W.run_history rt ~mode:R.Transpiled calls)) in
      let _, analyze_ms =
        S.time (fun () ->
            Analyzer.require ~from:1
              (Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng)))
      in
      let _, jumper_ms = S.time (fun () -> Hash_jumper.of_log (Engine.log eng)) in
      let pct x = Printf.sprintf "%.1f%%" (100.0 *. x /. exec_ms) in
      G.add_row t [ w.W.name; pct analyze_ms; pct (analyze_ms +. jumper_ms) ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 7(d): what-if running concurrently with regular operations     *)
(* ------------------------------------------------------------------ *)

let bench_t7d () =
  let n = sz 300 100 in
  let t =
    G.create
      ~title:
        "Table 7(d): regular-operation slowdown while a what-if replays on \
         the same machine"
      ~header:[ "Bench"; "1-core interleaved"; "amortised over 8 vCPUs" ]
  in
  List.iter
    (fun (w : W.t) ->
      (* baseline: regular txns alone *)
      let eng1, rt1 = W.setup ~mode:R.Transpiled w in
      ignore eng1;
      let prng = Uv_util.Prng.create 3 in
      let calls = w.W.generate prng ~scale:1 ~n ~dep_rate:0.3 in
      (* warm-up pass, then the measured run *)
      ignore (W.run_history rt1 ~mode:R.Transpiled calls);
      let eng1b, rt1b = W.setup ~mode:R.Transpiled w in
      ignore eng1b;
      let (), alone = S.time (fun () -> ignore (W.run_history rt1b ~mode:R.Transpiled calls)) in
      (* interleaved: the what-if's actual replay set (members only)
         spread across the regular stream on the same core *)
      let b = S.build ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
      let analyzer =
        Analyzer.analyze ~config:w.W.ri_config ~base:b.S.base (Engine.log b.S.eng)
      in
      let rs =
        Analyzer.replay_set analyzer { Analyzer.tau = 1; op = Analyzer.Remove }
      in
      let temp = Engine.of_catalog (Catalog.snapshot b.S.base) in
      let replay_entries =
        Log.to_array (Engine.log b.S.eng)
        |> Array.to_list
        |> List.filter (fun e -> List.mem e.Log.index rs.Analyzer.member_indexes)
        |> Array.of_list
      in
      let idx = ref 0 in
      let eng2, rt2 = W.setup ~mode:R.Transpiled w in
      ignore eng2;
      let prng2 = Uv_util.Prng.create 3 in
      let calls2 = w.W.generate prng2 ~scale:1 ~n ~dep_rate:0.3 in
      let stride = max 1 (n / max 1 (Array.length replay_entries)) in
      let k = ref 0 in
      let (), mixed =
        S.time (fun () ->
            List.iter
              (fun c ->
                ignore (R.invoke rt2 ~mode:R.Transpiled c.W.txn c.W.args);
                incr k;
                if !k mod stride = 0 && !idx < Array.length replay_entries
                then begin
                  let e = replay_entries.(!idx) in
                  incr idx;
                  try ignore (Engine.exec ~nondet:e.Log.nondet temp e.Log.stmt)
                  with Engine.Sql_error _ | Engine.Signal_raised _ -> ()
                end)
              calls2)
      in
      let raw = Float.max 0.0 (100.0 *. ((mixed /. alone) -. 1.0)) in
      G.add_row t
        [
          w.W.name;
          Printf.sprintf "%.1f%%" raw;
          (* the paper's testbed runs the replay on spare vCPUs; the
             regular stream then only pays ~1/8 of the contention *)
          Printf.sprintf "%.1f%%" (raw /. 8.0);
        ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 8(a): scalability over history size                            *)
(* ------------------------------------------------------------------ *)

let bench_t8a () =
  let sizes = if !quick then [ 200; 600 ] else [ 500; 1500; 4500 ] in
  let t =
    G.create ~title:"Table 8(a): what-if time across history sizes"
      ~header:
        ("Bench"
        :: List.concat_map
             (fun n -> [ Printf.sprintf "%dtx B" n; "T"; "D"; "T+D" ])
             sizes)
  in
  List.iter
    (fun (w : W.t) ->
      let row = ref [ w.W.name ] in
      List.iter
        (fun n ->
          let braw = S.build ~mode:R.Raw ~n ~dep_rate:0.3 w in
          let b = S.run_b braw in
          let d = S.run_d braw in
          let btr = S.build ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
          let tt = S.run_t btr in
          let td = S.run_dep ~grouped:false btr in
          row :=
            !row
            @ [ fmt b.S.with_rtt; fmt tt.S.with_rtt; fmt d.S.with_rtt; fmt td.S.with_rtt ])
        sizes;
      G.add_row t !row)
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 8(b): speedup vs B across DB sizes                             *)
(* ------------------------------------------------------------------ *)

let bench_t8b () =
  let scales = if !quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let n = sz 400 150 in
  let t =
    G.create ~title:"Table 8(b): speedup against B across DB sizes"
      ~header:
        ("Bench"
        :: List.concat_map
             (fun s -> [ Printf.sprintf "%dx T" s; "D"; "T+D" ])
             scales)
  in
  List.iter
    (fun (w : W.t) ->
      let row = ref [ w.W.name ] in
      List.iter
        (fun scale ->
          let braw = S.build ~scale ~mode:R.Raw ~n ~dep_rate:0.3 w in
          let b = S.run_b braw in
          let d = S.run_d braw in
          let btr = S.build ~scale ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
          let tt = S.run_t btr in
          let td = S.run_dep ~grouped:false btr in
          let sp (c : S.cost) = G.fmt_speedup (b.S.with_rtt /. c.S.with_rtt) in
          row := !row @ [ sp tt; sp d; sp td ])
        scales;
      G.add_row t !row)
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Table 8(c): speedup vs dependency rate                               *)
(* ------------------------------------------------------------------ *)

let bench_t8c () =
  let rates = [ 0.01; 0.10; 0.50; 1.00 ] in
  let n = sz 600 200 in
  let t =
    G.create ~title:"Table 8(c): speedup against B across dependency rates"
      ~header:
        ("Bench"
        :: List.concat_map
             (fun r -> [ Printf.sprintf "%.0f%% T" (100.0 *. r); "D"; "T+D" ])
             rates)
  in
  List.iter
    (fun (w : W.t) ->
      let row = ref [ w.W.name ] in
      List.iter
        (fun rate ->
          let braw = S.build ~mode:R.Raw ~n ~dep_rate:rate w in
          let b = S.run_b braw in
          let d = S.run_d braw in
          let btr = S.build ~mode:R.Transpiled ~n ~dep_rate:rate w in
          let tt = S.run_t btr in
          let td = S.run_dep ~grouped:false btr in
          let sp (c : S.cost) = G.fmt_speedup (b.S.with_rtt /. c.S.with_rtt) in
          row := !row @ [ sp tt; sp d; sp td ])
        rates;
      G.add_row t !row)
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let bench_abl_colrow () =
  let n = sz 600 200 in
  let t =
    G.create
      ~title:"Ablation: replay-set size by analysis granularity (remove target)"
      ~header:[ "Bench"; "history"; "column-only"; "row-only"; "cell-wise" ]
  in
  List.iter
    (fun (w : W.t) ->
      let b = S.build ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
      let analyzer =
        Analyzer.analyze ~config:w.W.ri_config ~base:b.S.base (Engine.log b.S.eng)
      in
      let rs = Analyzer.replay_set analyzer { Analyzer.tau = 1; op = Analyzer.Remove } in
      G.add_row t
        [
          w.W.name;
          string_of_int (Log.length (Engine.log b.S.eng));
          string_of_int rs.Analyzer.col_only_count;
          string_of_int rs.Analyzer.row_only_count;
          string_of_int rs.Analyzer.member_count;
        ])
    (workloads ());
  G.print t

let bench_abl_parallel () =
  let n = sz 600 200 in
  let t =
    G.create ~title:"Ablation: parallel replay makespan vs worker count"
      ~header:[ "Bench"; "serial"; "2 workers"; "4"; "8"; "16" ]
  in
  List.iter
    (fun (w : W.t) ->
      let b = S.build ~mode:R.Transpiled ~n ~dep_rate:0.3 w in
      let cost workers =
        (S.run_dep ~workers ~grouped:false b).S.with_rtt
      in
      let serial = (S.run_dep ~workers:1 ~grouped:false b).S.with_rtt in
      G.add_row t
        [
          w.W.name;
          fmt serial;
          fmt (cost 2);
          fmt (cost 4);
          fmt (cost 8);
          fmt (cost 16);
        ])
    (workloads ());
  G.print t

(* per-experiment real worker counts for the uv.bench/1 report: a bare
   wall_ms is unreadable across hosts without the parallelism that
   produced it *)
let experiment_workers : (string * int list) list ref = ref []

let note_workers id ws =
  if not (List.mem_assoc id !experiment_workers) then
    experiment_workers := (id, ws) :: !experiment_workers

(* --profile: per-wave queue-wait and lane-utilization histograms from
   the wave executor's uv_obs counters, one row per (bench, workers) *)
let profile = ref false

let exec_profile_results : Uv_obs.Json.t list ref = ref []

let profile_row bench workers obs =
  let module J = Uv_obs.Json in
  let hists =
    match Uv_obs.Trace.metrics_payload obs with
    | J.Obj fields -> (
        match List.assoc_opt "histograms" fields with
        | Some (J.Obj hs) -> hs
        | _ -> [])
    | _ -> []
  in
  let hist name =
    match List.assoc_opt name hists with Some h -> h | None -> J.Null
  in
  J.Obj
    [
      ("bench", J.Str bench);
      ("workers", J.Int workers);
      ("queue_wait_ms", hist "replay.queue_wait_ms");
      ("utilization", hist "replay.utilization");
    ]

let bench_exec_parallel () =
  (* the wave executor on real domains, not the simulated makespan: the
     same what-if runs at each worker count; wall times must shrink while
     the final universe hash stays bitwise identical. Measured speedup is
     bounded by min(host cores, DAG parallelism) — on a single-core host
     extra domains only add minor-GC barrier latency, so the speedup
     column is expected to collapse there while hashes must still agree. *)
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "host parallelism: %d core%s — speedup@4 meaningful only when >= 4\n"
    cores
    (if cores = 1 then "" else "s");
  let n = sz 1500 300 in
  let scale = sz 8 4 in
  let dep_rate = if !quick then 0.05 else 0.02 in
  let t =
    G.create
      ~title:"Measured parallel replay: wave executor wall time vs workers"
      ~header:
        [ "Bench"; "members"; "1 worker"; "2"; "4"; "8"; "speedup@4"; "hash" ]
  in
  List.iter
    (fun (w : W.t) ->
      note_workers "exec-parallel" [ 1; 2; 4; 8 ];
      (* join parked replay pools: an idle domain taxes every minor
         collection of the serial build below *)
      Uv_util.Domain_pool.drain ();
      let b = S.build ~scale ~mode:R.Transpiled ~n ~dep_rate w in
      let analyzer =
        Analyzer.analyze ~config:w.W.ri_config ~base:b.S.base (Engine.log b.S.eng)
      in
      let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
      let run ~obs workers =
        Whatif.run_exn
          ~config:(Whatif.Config.make ~workers ~obs ())
          ~analyzer b.S.eng target
      in
      let best workers =
        (* wall times are noisy at this scale: best of three *)
        let obs =
          if !profile then Uv_obs.Trace.create () else Uv_obs.Trace.disabled
        in
        let outs = List.init 3 (fun _ -> run ~obs workers) in
        if !profile then
          exec_profile_results :=
            profile_row w.W.name workers obs :: !exec_profile_results;
        let ms =
          List.fold_left
            (fun acc o ->
              match o.Whatif.measured_parallel_ms with
              | Some m -> min acc m
              | None -> acc)
            infinity outs
        in
        (List.hd outs, ms)
      in
      let o1, ms1 = best 1 in
      let _, ms2 = best 2 in
      let o4, ms4 = best 4 in
      let o8, ms8 = best 8 in
      let hash_ok =
        o4.Whatif.final_db_hash = o1.Whatif.final_db_hash
        && o8.Whatif.final_db_hash = o1.Whatif.final_db_hash
      in
      if not hash_ok then
        failwith (w.W.name ^ ": parallel replay hash diverged across workers");
      G.add_row t
        [
          w.W.name;
          string_of_int o1.Whatif.replay.Analyzer.member_count;
          fmt ms1;
          fmt ms2;
          fmt ms4;
          fmt ms8;
          G.fmt_speedup (ms1 /. max ms4 0.001);
          "ok";
        ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Repeated what-if amortization: session caches, cold vs warm          *)
(* ------------------------------------------------------------------ *)

(* per-workload rows for the uv.bench/1 report (--json) *)
let repeat_results : Uv_obs.Json.t list ref = ref []

let bench_whatif_repeat () =
  note_workers "whatif-repeat" [ 1; 4 ];
  let n = sz 600 150 in
  let warm_runs = 5 in
  let t =
    G.create
      ~title:
        "Repeated what-if: session caches (incremental analyzer + \
         checkpoint ladder) cold vs warm"
      ~header:
        [ "Bench"; "history"; "cold"; "warm"; "speedup"; "rollback"; "redone";
          "hash" ]
  in
  let two_x = ref 0 in
  List.iter
    (fun (w : W.t) ->
      (* two engines over the same seeded history: a bare one for the
         cold baseline and one whose checkpoint ladder was recorded
         during regular service for the warm session. Checkpointing is
         observation-only, so the two logs — and therefore the two
         universes every run below produces — are identical. *)
      (* raw mode: the log holds plain SQL statements (a transpiled
         history logs procedure calls) *)
      let build_hist cp =
        let eng, rt = W.setup ~mode:R.Raw w in
        let base = Engine.snapshot eng in
        if cp > 0 then Engine.enable_checkpoints eng ~every:cp;
        let prng = Uv_util.Prng.create 92 in
        let calls =
          w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate:0.3
        in
        ignore (W.run_history rt ~mode:R.Raw calls);
        (eng, base)
      in
      let eng_cold, base_cold = build_hist 0 in
      let eng_warm, base_warm = build_hist 32 in
      let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
      (* cold: what a sessionless client pays for every question — a full
         analyzer build over the whole history plus an uncached run *)
      let cold workers =
        S.time (fun () ->
            let analyzer =
              Analyzer.analyze ~config:w.W.ri_config ~base:base_cold
                (Engine.log eng_cold)
            in
            Whatif.run_exn
              ~config:(Whatif.Config.make ~workers ())
              ~analyzer eng_cold target)
      in
      let session workers =
        Whatif.Service.create
          ~config:(Whatif.Config.make ~workers ~checkpoint_every:32 ())
          ~rowset:w.W.ri_config ~base:base_warm eng_warm
      in
      let run_session s =
        match Whatif.Service.run s target with
        | Ok r -> r.Whatif.Service.outcome
        | Error e -> failwith (Whatif.Error.to_string e)
      in
      let s1 = session 1 in
      let primed = run_session s1 in
      (* the first session run pays the analyzer build *)
      let warm_out = ref primed and warm_ms = ref infinity in
      for _ = 1 to warm_runs do
        let o, ms = S.time (fun () -> run_session s1) in
        if ms < !warm_ms then begin warm_ms := ms; warm_out := o end
      done;
      let cold_out = ref None and cold_ms = ref infinity in
      for _ = 1 to 3 do
        let o, ms = cold 1 in
        if ms < !cold_ms then begin cold_ms := ms; cold_out := Some o end
      done;
      let cold1 = Option.get !cold_out in
      (* the amortization must never change the answer: final hashes with
         caches/checkpoints on vs off, at 1 and 4 workers *)
      let cold4, _ = cold 4 in
      let s4 = session 4 in
      let warm4a = run_session s4 in
      let warm4b = run_session s4 in
      let h = cold1.Whatif.final_db_hash in
      let hash_ok =
        List.for_all
          (fun (o : Whatif.outcome) -> o.Whatif.final_db_hash = h)
          [ primed; !warm_out; cold4; warm4a; warm4b ]
      in
      if not hash_ok then
        failwith (w.W.name ^ ": cached what-if hash diverged from cold run");
      let speedup = !cold_ms /. Float.max !warm_ms 0.001 in
      if speedup >= 2.0 then incr two_x;
      G.add_row t
        [
          w.W.name;
          string_of_int (Log.length (Engine.log eng_cold));
          fmt !cold_ms;
          fmt !warm_ms;
          G.fmt_speedup speedup;
          !warm_out.Whatif.rollback_strategy;
          string_of_int !warm_out.Whatif.redone;
          "ok";
        ];
      repeat_results :=
        !repeat_results
        @ [
            Uv_obs.Json.Obj
              [
                ("workload", Uv_obs.Json.Str w.W.name);
                ("history", Uv_obs.Json.Int (Log.length (Engine.log eng_cold)));
                ("cold_ms", Uv_obs.Json.Float !cold_ms);
                ("warm_ms", Uv_obs.Json.Float !warm_ms);
                ("speedup", Uv_obs.Json.Float speedup);
                ( "rollback_strategy",
                  Uv_obs.Json.Str !warm_out.Whatif.rollback_strategy );
                ("redone", Uv_obs.Json.Int !warm_out.Whatif.redone);
                ("hash_identical", Uv_obs.Json.Bool hash_ok);
              ];
          ])
    (workloads ());
  G.print t;
  Printf.printf "warm >= 2x cold on %d/%d workloads\n" !two_x
    (List.length (workloads ()))

(* A retroactive addition whose effect no later statement can erase: an
   accumulator shift or a persisting fresh row. Every replay diverges
   permanently, so the jumper never fires and its per-member comparisons
   are pure overhead. *)
let nohit_stmt (w : W.t) =
  match w.W.name with
  | "TPC-C" -> "UPDATE warehouse SET w_ytd = w_ytd + 7 WHERE w_id = 1"
  | "SEATS" -> "UPDATE customer SET c_balance = c_balance + 7 WHERE c_id = 1"
  | "AStore" -> "UPDATE Products SET Stock = Stock + 7 WHERE ProductID = 1"
  | "TATP" -> "INSERT INTO call_forwarding VALUES (1, 1, 99, 99, 'x')"
  | _ -> "INSERT INTO trust VALUES (1, 2, 1, 0)"

let bench_abl_hash () =
  let n = sz 600 200 in
  let t =
    G.create ~title:"Ablation: Hash-jumper overhead when no hash-hit occurs"
      ~header:[ "Bench"; "jumper off"; "jumper on"; "overhead"; "hit?" ]
  in
  List.iter
    (fun (w : W.t) ->
      let eng, rt = W.setup ~mode:R.Transpiled w in
      let base = Engine.snapshot eng in
      let prng = Uv_util.Prng.create 5 in
      let calls = w.W.generate prng ~scale:1 ~n ~dep_rate:0.3 in
      ignore (W.run_history rt ~mode:R.Transpiled calls);
      let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
      let target =
        {
          Analyzer.tau = 1;
          op = Analyzer.Add (Uv_sql.Parser.parse_stmt (nohit_stmt w));
        }
      in
      let run hj =
        let config = Whatif.Config.make ~hash_jumper:hj () in
        Gc.compact ();
        Whatif.run_exn ~config ~analyzer eng target
      in
      (* nine back-to-back (off, on) pairs after one warmup each: allocator
         noise drifts over the run, so the overhead is the median of the
         per-pair ratios (drift hits both arms of a pair alike), and the
         displayed times are the medians of each arm *)
      ignore (run false);
      ignore (run true);
      let pairs =
        List.init 9 (fun _ ->
            let off = run false in
            let on = run true in
            (off, on))
      in
      let median xs =
        let s = List.sort compare xs in
        List.nth s (List.length s / 2)
      in
      let off_ms = median (List.map (fun (o, _) -> o.Whatif.real_ms) pairs) in
      let on_ms = median (List.map (fun (_, o) -> o.Whatif.real_ms) pairs) in
      let ratio =
        median
          (List.map
             (fun (off, on) -> on.Whatif.real_ms /. max off.Whatif.real_ms 0.001)
             pairs)
      in
      let on = snd (List.hd pairs) in
      G.add_row t
        [
          w.W.name;
          fmt off_ms;
          fmt on_ms;
          Printf.sprintf "%.1f%%" (100.0 *. (ratio -. 1.0));
          (match on.Whatif.hash_jump_at with
          | Some i -> Printf.sprintf "hit@%d" i
          | None -> "no");
        ])
    (workloads ());
  G.print t

let bench_abl_index () =
  (* our engine design choice: hash indexes on PRIMARY KEY / CREATE INDEX
     columns turn point accesses from O(table) scans into O(1) probes.
     The same history runs against an indexed and an index-less schema. *)
  let rows = sz 20_000 4_000 and updates = sz 1_000 300 in
  let t =
    G.create
      ~title:
        "Ablation: hash indexes (point updates + what-if on the same history)"
      ~header:
        [ "rows"; "updates"; "indexed"; "full-scan"; "speedup"; "whatif idx";
          "whatif scan" ]
  in
  let build indexed =
    let e = Engine.create () in
    let key_decl = if indexed then "k INT PRIMARY KEY" else "k INT" in
    ignore
      (Engine.exec_sql e
         (Printf.sprintf "CREATE TABLE items (%s, v INT)" key_decl));
    let prng = Uv_util.Prng.create 11 in
    for i = 1 to rows do
      ignore
        (Engine.exec_sql e
           (Printf.sprintf "INSERT INTO items VALUES (%d, %d)" i
              (Uv_util.Prng.int prng 1000)))
    done;
    Engine.reset_log e;
    let base = Engine.snapshot e in
    let stmts =
      List.init updates (fun _ ->
          Printf.sprintf "UPDATE items SET v = v + 1 WHERE k = %d"
            (1 + Uv_util.Prng.int prng rows))
    in
    let (), run_ms =
      S.time (fun () -> List.iter (fun sql -> ignore (Engine.exec_sql e sql)) stmts)
    in
    (e, base, run_ms)
  in
  let e_idx, base_idx, idx_ms = build true in
  let e_scan, base_scan, scan_ms = build false in
  let whatif e base =
    let analyzer = Analyzer.analyze ~base (Engine.log e) in
    let out = Whatif.run_exn ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove } in
    out.Whatif.real_ms
  in
  let w_idx = whatif e_idx base_idx in
  let w_scan = whatif e_scan base_scan in
  G.add_row t
    [
      string_of_int rows;
      string_of_int updates;
      fmt idx_ms;
      fmt scan_ms;
      G.fmt_speedup (scan_ms /. max idx_ms 0.001);
      fmt w_idx;
      fmt w_scan;
    ];
  G.print t

let bench_abl_cc () =
  (* §6: prior R/W knowledge lets a deterministic scheduler pack a batch
     into conflict-free waves without optimistic restarts *)
  let n = sz 400 150 in
  let t =
    G.create
      ~title:"Ablation: deterministic concurrency-control scheduling (§6)"
      ~header:[ "Bench"; "batch"; "waves"; "parallelism"; "plan time" ]
  in
  List.iter
    (fun (w : W.t) ->
      let eng, _rt = W.setup ~mode:R.Raw w in
      let prng = Uv_util.Prng.create 17 in
      (* a batch of single-statement updates drawn from the workload's
         numeric projection when available, else from its app calls *)
      let stmts =
        match w.W.numeric_history with
        | Some gen ->
            let all, _ = gen prng ~n:(n * 2) ~dep_rate:0.2 in
            all
            |> List.filter_map (fun sql ->
                   match Uv_sql.Parser.parse_stmt sql with
                   | Uv_sql.Ast.Update _ as s -> Some s
                   | Uv_sql.Ast.Insert _ as s -> Some s
                   | _ -> None)
            |> List.filteri (fun i _ -> i < n)
        | None ->
            List.init n (fun i ->
                Uv_sql.Parser.parse_stmt
                  (Printf.sprintf
                     "UPDATE customer SET c_balance = %d WHERE c_id = %d" i
                     (1 + (i mod 80))))
      in
      let plan, ms =
        S.time (fun () -> Cc_schedule.plan ~base:(Engine.catalog eng) stmts)
      in
      G.add_row t
        [
          w.W.name;
          string_of_int plan.Cc_schedule.statements;
          string_of_int (Cc_schedule.wave_count plan);
          Printf.sprintf "%.1fx" (Cc_schedule.parallelism plan);
          fmt ms;
        ])
    (workloads ());
  G.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core primitives                     *)
(* ------------------------------------------------------------------ *)

let bench_micro () =
  let open Bechamel in
  (* shared fixtures *)
  let eng = Engine.create () in
  ignore
    (Engine.exec_sql eng "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)");
  for i = 1 to 100 do
    ignore (Engine.exec_sql eng (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 0)" i i))
  done;
  for i = 1 to 400 do
    ignore
      (Engine.exec_sql eng
         (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" i ((i mod 100) + 1)))
  done;
  let log = Engine.log eng in
  let sv = Schema_view.create () in
  Schema_view.apply sv (Uv_sql.Parser.parse_stmt "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)");
  let stmt = Uv_sql.Parser.parse_stmt "UPDATE t SET v = 7 WHERE id = 31" in
  let tests =
    [
      Test.make ~name:"parse-update" (Staged.stage (fun () ->
          ignore (Uv_sql.Parser.parse_stmt "UPDATE t SET v = 7 WHERE id = 31")));
      Test.make ~name:"colwise-rwset" (Staged.stage (fun () ->
          ignore (Rwset.of_stmt sv stmt)));
      Test.make ~name:"rowwise-rwset" (Staged.stage (fun () ->
          let rowstate = Rowset.create Rowset.default_config in
          ignore (Rowset.of_entry rowstate sv stmt [])));
      Test.make ~name:"table-hash-row" (Staged.stage (fun () ->
          let h = Uv_util.Table_hash.create () in
          Uv_util.Table_hash.add_row h "t|I1|I2|I3"));
      Test.make ~name:"analyze-500-entry-log" (Staged.stage (fun () ->
          Analyzer.require (Analyzer.analyze log) ~from:1));
      Test.make ~name:"engine-update" (Staged.stage (fun () ->
          ignore (Engine.query_sql eng "SELECT COUNT(*) FROM t WHERE v > 50")));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ instance ] test
  in
  let t =
    G.create ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
      ~header:[ "primitive"; "time/run" ]
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun _ inner ->
          Hashtbl.iter
            (fun name raw ->
                let analyzed =
                  Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                                 ~predictors:[| Measure.run |])
                    Toolkit.Instance.monotonic_clock
                    (Hashtbl.of_seq (Seq.return (name, raw)))
                in
                Hashtbl.iter
                  (fun name ols ->
                    match Analyze.OLS.estimates ols with
                    | Some [ est ] ->
                        G.add_row t [ name; Printf.sprintf "%.0fns" est ]
                    | _ -> G.add_row t [ name; "-" ])
                  analyzed)
            inner)
        (Hashtbl.of_seq (Seq.return ("g", results))))
    tests;
  G.print t

(* ------------------------------------------------------------------ *)
(* History scale: segmented store, 100x history, constant replay set    *)
(* ------------------------------------------------------------------ *)

(* per-run rows for the uv.bench/1 report (--json) *)
let history_scale_results : Uv_obs.Json.t list ref = ref []

(* The paper's headline claim, finally at scale: what-if analysis cost
   tracks the replay-set size, not the history length. An AStore history
   grows 100x (full: 100k+ transactions) with the dependency rate scaled
   down 100x so the hot set stays constant; the history is persisted
   through the segmented Log_store and analysed by streaming it one
   segment at a time. Hard gates (failwith):
   - the store-replayed engine's what-if hash equals the legacy
     single-file path's, at both sizes;
   - the replay-set closure's row-sweep pops per member grow < 1.25x
     across the 100x history (an exact count: the per-member wall time
     is printed beside it, but two best-of-5 timings of microsecond
     questions move more than that between runs on one host);
   - peak resident log memory in the streamed analysis is bounded by
     one segment + the manifest (and is a small fraction of the store);
   - with checkpoint alignment on, every recorded rung sits exactly on
     a sealed-segment boundary. *)
let bench_history_scale () =
  let w = W.by_name "astore" in
  let n_small = sz 1000 200 in
  let factor = 100 in
  let n_big = n_small * factor in
  let seg_cap = sz 4096 512 in
  let dep_small = 0.2 in
  let dep_big = dep_small /. float_of_int factor in
  let reps = 5 in
  let tmp = Filename.temp_file "uv_hist_scale" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm tmp)
  @@ fun () ->
  (* execute a history streaming through the chunked generator, the
     canonical hot-entity target call first so tau = 1 *)
  let build n dep_rate =
    let eng, rt = W.setup ~mode:R.Raw w in
    let base = Engine.snapshot eng in
    ignore (W.run_history rt ~mode:R.Raw [ w.W.target_call ]);
    let prng = Uv_util.Prng.create 92 in
    ignore
      (W.generate_scaled w prng ~scale:1 ~n ~dep_rate ~chunk:2000 (fun calls ->
           ignore (W.run_history rt ~mode:R.Raw calls))
        : int);
    (eng, base)
  in
  let best f =
    let ms = ref infinity and out = ref None in
    for _ = 1 to reps do
      let o, m = S.time f in
      if m < !ms then ms := m;
      out := Some o
    done;
    (Option.get !out, !ms)
  in
  (* one size; [deep] additionally replays the legacy single file into
     its own engine (a third full execution of the history, affordable
     at the small size — the big size proves the record streams are
     bit-identical instead and lets the shared replay machinery carry
     the equivalence) *)
  let measure label n dep_rate ~deep =
    let phase name f =
      let out, ms = S.time f in
      Printf.printf "  [%s] %s: %.0fms\n%!" label name ms;
      out
    in
    let eng, base = phase "execute" (fun () -> build n dep_rate) in
    let dir = Filename.concat tmp (label ^ ".store") in
    let file = Filename.concat tmp (label ^ ".ulog") in
    phase "persist" (fun () ->
        let store = Log_store.open_ ~segment_cap:seg_cap dir in
        Log_store.append_log store (Engine.log eng);
        Log_store.close store;
        Log_store.save_log_file (Engine.log eng) ~path:file);
    (* store path, ladder aligned to segment boundaries only (a huge
       stride isolates the boundary rungs for the alignment gate) *)
    let e_store = Engine.create () in
    Engine.restore e_store base;
    Engine.enable_checkpoints e_store ~every:1_000_000_000;
    let store_r = Log_store.open_ dir in
    phase "replay store" (fun () ->
        ignore (Log_store.replay store_r e_store : int list));
    if not (Int64.equal (Engine.db_hash e_store) (Engine.db_hash eng)) then
      failwith (label ^ ": store replay diverged from the original execution");
    (* the legacy single-file path holds byte-for-byte the same records
       (streamed against the store one segment at a time, so the
       resident bound below stays meaningful) *)
    let rem = ref (Log_store.load_log_file ~path:file) in
    Log_store.iter_range store_r ~lo:1 ~hi:(Log_store.length store_r)
      (fun _ r ->
        match !rem with
        | x :: tl when x = r -> rem := tl
        | _ -> failwith (label ^ ": store records diverge from the single file"));
    if !rem <> [] then
      failwith (label ^ ": single file holds records the store lacks");
    let e_file =
      if not deep then None
      else begin
        let e = Engine.create () in
        Engine.restore e base;
        phase "replay file" (fun () ->
            ignore
              (Log_io.replay e (Log_store.load_log_file ~path:file)
                : int list));
        if not (Int64.equal (Engine.db_hash e) (Engine.db_hash e_store)) then
          failwith (label ^ ": store replay diverged from the single-file path");
        Some e
      end
    in
    let bounds = Log_store.boundaries store_r in
    (match Engine.checkpoints e_store with
    | Some ladder ->
        let rungs = Checkpoint.rungs ladder in
        if bounds <> [] && rungs = [] then
          failwith (label ^ ": no checkpoint rung landed on a segment boundary");
        List.iter
          (fun (at, _) ->
            if not (List.mem at bounds) then
              failwith
                (Printf.sprintf "%s: rung at %d is not a segment boundary"
                   label at))
          rungs
    | None -> failwith "checkpoint ladder vanished");
    (* streamed analysis: one segment resident at a time *)
    let (anl, analysis_ms) =
      S.time (fun () ->
          let anl =
            Analyzer.of_source ~config:w.W.ri_config ~base
              (Analyzer.source_of_store store_r)
          in
          Analyzer.require anl ~from:1;
          anl)
    in
    (* the canonical question: the hot-entity target call runs first, so
       the scan settles on its earliest writing statement whose removal
       closure is non-degenerate — that closure covers the hot chain,
       whose size the dep-rate scaling holds roughly constant across
       history sizes (the experiment's control variable), and a
       multi-member closure keeps the per-member gate out of
       microsecond-level timing noise *)
    let target =
      let n = Log_store.length store_r in
      let closure_size i =
        (Analyzer.replay_set ~mode:Analyzer.Joint anl
           { Analyzer.tau = i; op = Analyzer.Remove })
          .Analyzer.member_count
      in
      let rec scan i fallback =
        if i > n || i > 80 then Option.value fallback ~default:1
        else if
          Uv_retroactive.Rwset.Colset.is_empty
            (Analyzer.info anl i).Analyzer.rw.Uv_retroactive.Rwset.w
        then scan (i + 1) fallback
        else
          let m = closure_size i in
          if m >= 2 then i
          else
            scan (i + 1)
              (if fallback = None && m > 0 then Some i else fallback)
      in
      { Analyzer.tau = scan 1 None; op = Analyzer.Remove }
    in
    (* the per-question cost the gate is about: the joint (cell-conflict)
       closure, a row sweep that on these one-dimension tables pops only
       the column-set splits of the row-key postings that share a row
       and a column with a member, from τ on, not the history; timed
       here, and its pops counted below for the gate *)
    let joint, closure_ms =
      best (fun () ->
          (Analyzer.replay_set ~mode:Analyzer.Joint anl target)
            .Analyzer.member_indexes)
    in
    let member_count = List.length joint in
    (* the same question's row-sweep pops, counted *)
    let pops =
      let obs = Uv_obs.Trace.create () in
      ignore (Analyzer.replay_set ~obs ~mode:Analyzer.Joint anl target);
      Uv_obs.Trace.counter_value obs "analyze.closure_row_visits"
    in
    Printf.printf
      "  [%s] n=%d tau=%d joint=%d/%.4fms pops=%d analysis=%.1fms\n%!" label
      (Log_store.length store_r) target.Analyzer.tau member_count closure_ms
      pops analysis_ms;
    (* soundness vs the default Cell closure: joint must be a subset *)
    let cell = Analyzer.replay_set anl target in
    List.iter
      (fun i ->
        if not (List.mem i cell.Analyzer.member_indexes) then
          failwith
            (Printf.sprintf "%s: joint member %d outside the Cell closure"
               label i))
      joint;
    (* the what-if itself, twice with the one analyzer: once on the
       joint replay set and once on the default Cell set (on the
       file-replayed engine when [deep], else on the store-replayed one
       — run_exn leaves the engine intact) — equal final hashes check
       the joint closure's sufficiency, and under [deep] the
       persistence paths too *)
    let out_store =
      phase "whatif store (joint)" (fun () ->
          Whatif.run_exn
            ~config:(Whatif.Config.make ~mode:Analyzer.Joint ())
            ~analyzer:anl e_store target)
    in
    let cell_engine, cell_label =
      match e_file with
      | Some e -> (e, "whatif file (cell)")
      | None -> (e_store, "whatif store (cell)")
    in
    let out_cell =
      phase cell_label (fun () ->
          Whatif.run_exn ~analyzer:anl cell_engine target)
    in
    if
      not
        (Int64.equal out_store.Whatif.final_db_hash
           out_cell.Whatif.final_db_hash)
    then
      failwith
        (label ^ ": joint and cell what-ifs disagree on the universe hash");
    let segs = Log_store.segments store_r in
    let max_seg =
      List.fold_left (fun a s -> max a s.Log_store.seg_bytes) 0 segs
    in
    let total = List.fold_left (fun a s -> a + s.Log_store.seg_bytes) 0 segs in
    let peak = Log_store.resident_peak_bytes store_r in
    let manifest = Log_store.manifest_bytes store_r in
    if peak > max_seg then
      failwith
        (Printf.sprintf
           "%s: analysis held %d bytes resident, more than one segment (%d)"
           label peak max_seg);
    let length = Log_store.length store_r in
    Log_store.close store_r;
    ( length,
      member_count,
      closure_ms,
      pops,
      analysis_ms,
      out_store.Whatif.final_db_hash,
      peak,
      manifest,
      max_seg,
      total,
      List.length segs )
  in
  let h1, m1, c1, p1, a1, _, _, _, _, _, _ =
    measure "small" n_small dep_small ~deep:true
  in
  let h2, m2, c2, p2, a2, _, peak, manifest, max_seg, total, nsegs =
    measure "big" n_big dep_big ~deep:false
  in
  (* the replay sets the tau-scan finds at the two sizes need not be
     equal, so the gate normalizes by replay-set size: pops per member
     must stay flat while the history grows 100x — exactly the "cost
     tracks the replay set, not the history" claim *)
  let per_member c m = c /. Float.max (float_of_int m) 1. in
  let growth = per_member c2 m2 /. Float.max (per_member c1 m1) 0.0001 in
  let pops1 = per_member (float_of_int p1) m1
  and pops2 = per_member (float_of_int p2) m2 in
  let pops_growth = pops2 /. Float.max pops1 0.0001 in
  if pops_growth >= 1.25 then
    failwith
      (Printf.sprintf
         "row-sweep pops per member grew %.2fx (%.2f -> %.2f) while the \
          history grew %dx (gate: < 1.25x)"
         pops_growth pops1 pops2 factor);
  if total >= 10 * max_seg && peak * 5 > total then
    failwith
      (Printf.sprintf
         "analysis was not streaming: peak %d bytes vs %d store bytes" peak
         total);
  (* the scaled generator covers all five workloads at 100k+ calls
     (generation only: the claim here is that histories of that size are
     producible and chunked, not that every engine executes them) *)
  let gen_n = sz 100_000 2_000 in
  let gen_counts =
    List.map
      (fun (wk : W.t) ->
        let prng = Uv_util.Prng.create 17 in
        let produced =
          W.generate_scaled wk prng ~scale:1 ~n:gen_n ~dep_rate:0.05
            ~chunk:5000 (fun _ -> ())
        in
        if produced < gen_n then
          failwith
            (Printf.sprintf "%s: scaled generator produced %d < %d calls"
               wk.W.name produced gen_n);
        (wk.W.name, produced))
      (workloads ())
  in
  let t =
    G.create
      ~title:
        (Printf.sprintf
           "History scale: %dx history through the segmented store (cap %d)"
           factor seg_cap)
      ~header:
        [ "history"; "members"; "closure"; "analysis"; "peak res"; "store" ]
  in
  G.add_row t
    [ string_of_int h1; string_of_int m1; fmt c1; fmt a1; "-"; "-" ];
  G.add_row t
    [
      string_of_int h2; string_of_int m2; fmt c2; fmt a2;
      G.fmt_bytes (peak + manifest); G.fmt_bytes total;
    ];
  G.print t;
  Printf.printf
    "row-sweep pops per member %.2f -> %.2f (%.2fx) and closure wall time \
     per member %.2fx across a %dx history; replay set %d -> %d; peak \
     resident %d bytes of a %d-byte store (%d segments)\n"
    pops1 pops2 pops_growth growth factor m1 m2 (peak + manifest) total nsegs;
  history_scale_results :=
    !history_scale_results
    @ [
        Uv_obs.Json.Obj
          [
            ("workload", Uv_obs.Json.Str w.W.name);
            ("history_small", Uv_obs.Json.Int h1);
            ("history_big", Uv_obs.Json.Int h2);
            ("members_small", Uv_obs.Json.Int m1);
            ("members_big", Uv_obs.Json.Int m2);
            ("closure_ms_small", Uv_obs.Json.Float c1);
            ("closure_ms_big", Uv_obs.Json.Float c2);
            ("closure_growth_per_member", Uv_obs.Json.Float growth);
            ("pops_small", Uv_obs.Json.Int p1);
            ("pops_big", Uv_obs.Json.Int p2);
            ("pops_growth_per_member", Uv_obs.Json.Float pops_growth);
            ("analysis_ms_small", Uv_obs.Json.Float a1);
            ("analysis_ms_big", Uv_obs.Json.Float a2);
            ("segment_cap", Uv_obs.Json.Int seg_cap);
            ("segments_big", Uv_obs.Json.Int nsegs);
            ("resident_peak_bytes", Uv_obs.Json.Int peak);
            ("manifest_bytes", Uv_obs.Json.Int manifest);
            ("max_segment_bytes", Uv_obs.Json.Int max_seg);
            ("store_bytes", Uv_obs.Json.Int total);
            ("whatif_hashes_equal", Uv_obs.Json.Bool true);
            ("memory_bounded", Uv_obs.Json.Bool true);
            ( "generator_calls",
              Uv_obs.Json.Obj
                (List.map
                   (fun (name, n) -> (name, Uv_obs.Json.Int n))
                   gen_counts) );
          ];
      ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t4a", "Table 4(a)+(b): vs Mahif (speed and memory)", bench_t4);
    ("t5", "Table 5: DB-size scaling", bench_t5);
    ("f8a", "Figure 8(a): B/T/D/T+D", bench_f8a);
    ("t6a", "Table 6(a): Hash-jumper hit points", bench_t6a);
    ("t6b", "Table 6(b): regular transaction speed", bench_t6b);
    ("t7a", "Table 7(a): transpilation time", bench_t7a);
    ("t7b", "Table 7(b): log sizes", bench_t7b);
    ("t7c", "Table 7(c): logging overhead", bench_t7c);
    ("t7d", "Table 7(d): concurrent what-if slowdown", bench_t7d);
    ("t8a", "Table 8(a): history-size scaling", bench_t8a);
    ("t8b", "Table 8(b): speedup vs DB size", bench_t8b);
    ("t8c", "Table 8(c): speedup vs dependency rate", bench_t8c);
    ("abl-colrow", "Ablation: analysis granularity", bench_abl_colrow);
    ("abl-parallel", "Ablation: replay parallelism", bench_abl_parallel);
    ("exec-parallel", "Measured parallel replay (wave executor)", bench_exec_parallel);
    ("whatif-repeat", "Repeated what-if: session caches cold vs warm", bench_whatif_repeat);
    ("history-scale", "Segmented store: 100x history, constant replay set", bench_history_scale);
    ("abl-hash", "Ablation: Hash-jumper overhead", bench_abl_hash);
    ("abl-index", "Ablation: hash indexes vs full scans", bench_abl_index);
    ("abl-cc", "Ablation: CC scheduling from prior R/W knowledge", bench_abl_cc);
    ("micro", "Bechamel micro-benchmarks", bench_micro);
  ]

let () =
  let only = ref None in
  let list_only = ref false in
  let smoke = ref false in
  let json = ref false in
  let args =
    [
      ("--only", Arg.String (fun s -> only := Some s), "run one experiment id");
      ("--quick", Arg.Set quick, "smaller sizes for a fast pass");
      ( "--smoke",
        Arg.Set smoke,
        "CI sanity pass: the measured-parallel and whatif-repeat \
         experiments at quick sizes (fails hard on any cross-worker or \
         cached-vs-cold hash divergence)" );
      ("--list", Arg.Set list_only, "list experiment ids");
      ( "--json",
        Arg.Set json,
        "after the tables, emit a uv.bench/1 report of per-experiment wall \
         times as the last line" );
      ( "--profile",
        Arg.Set profile,
        "collect per-wave queue-wait and lane-utilization histograms from \
         the wave executor's uv_obs counters during exec-parallel (adds \
         clock reads to the hot path; wall times get slightly noisier) — \
         reported under exec_parallel_profile in the --json payload" );
    ]
  in
  Arg.parse args (fun _ -> ()) "ultraverse benchmark harness";
  if !smoke then quick := true;
  if !list_only then
    List.iter (fun (id, desc, _) -> Printf.printf "%-14s %s\n" id desc) experiments
  else begin
    let chosen =
      match (!smoke, !only) with
      | true, _ ->
          List.filter
            (fun (i, _, _) -> i = "exec-parallel" || i = "whatif-repeat")
            experiments
      | false, None -> List.filter (fun (id, _, _) -> id <> "micro") experiments
      | false, Some id -> List.filter (fun (i, _, _) -> i = id) experiments
    in
    if chosen = [] then (
      prerr_endline "unknown experiment id; use --list";
      exit 1);
    let timings =
      List.map
        (fun (id, desc, f) ->
          Printf.printf "\n############ %s — %s ############\n%!" id desc;
          let (), ms = S.time f in
          Printf.printf "(%s in %s)\n%!" id (G.fmt_ms ms);
          (id, ms))
        chosen
    in
    if !json then
      let module J = Uv_obs.Json in
      print_endline
        (Uv_obs.Report.to_string ~schema:"uv.bench/1"
           (J.Obj
              ([
                 ("quick", J.Bool !quick);
                 ("host_domains", J.Int (Domain.recommended_domain_count ()));
                 ( "experiments",
                   J.List
                     (List.map
                        (fun (id, ms) ->
                          J.Obj
                            ([ ("id", J.Str id); ("wall_ms", J.Float ms) ]
                            @
                            match List.assoc_opt id !experiment_workers with
                            | Some ws ->
                                [
                                  ( "workers",
                                    J.List (List.map (fun w -> J.Int w) ws) );
                                ]
                            | None -> []))
                        timings) );
               ]
              @ (match !exec_profile_results with
                | [] -> []
                | rows ->
                    [ ("exec_parallel_profile", J.List (List.rev rows)) ])
              @ (match !repeat_results with
                | [] -> []
                | rows -> [ ("whatif_repeat", J.List rows) ])
              @
              match !history_scale_results with
              | [] -> []
              | rows -> [ ("history_scale", J.List rows) ])))
  end
