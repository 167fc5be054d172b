(* The benchmark harness: regenerates the tables and figures of the
   paper's evaluation (§5), scaled per DESIGN.md §3 — Tables 4(a)+(b)
   (t4a), 5 (t5), 6(a), 6(b) (t6a, t6b), 7(a)-(d) (t7a-t7d), 8(a)-(c)
   (t8a-t8c) and Figure 8(a) (f8a) — plus the ablation benches DESIGN.md
   calls out (abl-colrow, abl-parallel, abl-hash, abl-index, abl-cc) and a
   Bechamel micro-benchmark section for the core primitives (micro). The
   per-PR performance record is the ledger (bench/ledger/), not this
   harness.

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
              let td = S.run_dep b in
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
          let td = S.run_dep b in
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
      let td = S.run_dep btr in
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
          let td = S.run_dep btr in
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
          let td = S.run_dep btr in
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
          let td = S.run_dep btr in
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
        (S.run_dep ~workers b).S.with_rtt
      in
      let serial = (S.run_dep ~workers:1 b).S.with_rtt in
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
      (* the plan: the analyzer's replay DAG over the batch, as entries
         1 .. n of a history on the current catalog that never ran *)
      let batch = Array.of_list stmts in
      let n = Array.length batch in
      let dag, ms =
        S.time (fun () ->
            let entry i =
              { Log.index = i; stmt = batch.(i - 1); sql = ""; nondet = []; rows_written = 0;
                written_hashes = []; undo = []; app_txn = None }
            in
            let analyzer =
              Analyzer.of_source ~base:(Engine.catalog eng)
                (Analyzer.source_of_fun ~length:(fun () -> n) entry)
            in
            Analyzer.replay_dag analyzer ~members:(List.init n succ))
      in
      let waves = Conflict_dag.wave_count dag in
      G.add_row t
        [
          w.W.name;
          string_of_int n;
          string_of_int waves;
          Printf.sprintf "%.1fx" (if waves = 0 then 1.0 else float_of_int n /. float_of_int waves);
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
    ("abl-hash", "Ablation: Hash-jumper overhead", bench_abl_hash);
    ("abl-index", "Ablation: hash indexes vs full scans", bench_abl_index);
    ("abl-cc", "Ablation: CC scheduling from prior R/W knowledge", bench_abl_cc);
    ("micro", "Bechamel micro-benchmarks", bench_micro);
  ]

let () =
  let only = ref None in
  let list_only = ref false in
  let args =
    [
      ("--only", Arg.String (fun s -> only := Some s), "run one experiment id");
      ("--quick", Arg.Set quick, "smaller sizes for a fast pass");
      ("--list", Arg.Set list_only, "list experiment ids");
    ]
  in
  Arg.parse args (fun _ -> ()) "ultraverse benchmark harness";
  if !list_only then
    List.iter (fun (id, desc, _) -> Printf.printf "%-14s %s\n" id desc) experiments
  else begin
    let chosen =
      match !only with
      | None -> List.filter (fun (id, _, _) -> id <> "micro") experiments
      | Some id -> List.filter (fun (i, _, _) -> i = id) experiments
    in
    if chosen = [] then (
      prerr_endline "unknown experiment id; use --list";
      exit 1);
    List.iter
      (fun (id, desc, f) ->
        Printf.printf "\n############ %s — %s ############\n%!" id desc;
        let (), ms = S.time f in
        Printf.printf "(%s in %s)\n%!" id (G.fmt_ms ms))
      chosen
  end
