(* Tests for ultraverse.obs: the JSON tree, the versioned report envelope,
   the tracing/metrics collector (null sink, span nesting, multi-domain
   lanes, exporter validity), and an end-to-end traced what-if run. *)

open Uv_obs

let check = Alcotest.check

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("t", Json.Bool true);
      ("f", Json.Bool false);
      ("int", Json.Int (-42));
      ("float", Json.Float 1.5);
      ("str", Json.Str "a \"quoted\"\nline\twith \\ specials");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Str "v") ]; Json.Null ] );
    ]

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_roundtrip () =
  check json "compact round-trip" sample (parse_ok (Json.to_string sample));
  check json "pretty round-trip" sample (parse_ok (Json.pretty sample))

let test_json_escapes () =
  check json "\\u escape" (Json.Str "A") (parse_ok {|"A"|});
  check json "surrogate pair" (Json.Str "\xf0\x9f\x90\xab")
    (parse_ok {|"🐫"|});
  (* control characters must be escaped on output and re-parse *)
  let s = Json.Str "\x01\x02" in
  check json "control chars" s (parse_ok (Json.to_string s))

let test_json_numbers () =
  check json "int" (Json.Int 17) (parse_ok "17");
  check json "negative" (Json.Int (-3)) (parse_ok "-3");
  (match parse_ok "2.5" with
  | Json.Float f -> check (Alcotest.float 1e-12) "float" 2.5 f
  | j -> Alcotest.failf "expected float, got %s" (Json.to_string j));
  match parse_ok "1e3" with
  | Json.Float f -> check (Alcotest.float 1e-9) "exponent" 1000.0 f
  | j -> Alcotest.failf "expected float, got %s" (Json.to_string j)

(* network-grade parser hardening: byte/depth/string budgets with byte
   offsets in every diagnostic, and fuzz-style mutations that must never
   escape the (t, string) result type *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tiny ?(max_bytes = 1 lsl 20) ?(max_depth = 512) ?(max_string = 1 lsl 20) ()
    =
  { Json.max_bytes; max_depth; max_string }

let test_json_limit_bytes () =
  let doc = Json.to_string sample in
  (match Json.parse ~limits:(tiny ~max_bytes:8 ()) doc with
  | Ok _ -> Alcotest.fail "oversized input accepted"
  | Error e -> Alcotest.(check bool) ("mentions budget: " ^ e) true (contains e "exceeds"));
  match Json.parse ~limits:(tiny ~max_bytes:String.(length doc) ()) doc with
  | Ok j -> check json "at the byte budget parses" sample j
  | Error e -> Alcotest.failf "rejected at exact budget: %s" e

let test_json_limit_depth () =
  let nested n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Json.parse ~limits:(tiny ~max_depth:16 ()) (nested 40) with
  | Ok _ -> Alcotest.fail "40-deep accepted with depth budget 16"
  | Error e ->
      Alcotest.(check bool) ("mentions nesting: " ^ e) true (contains e "nesting"));
  (match Json.parse ~limits:(tiny ~max_depth:16 ()) (nested 10) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "10-deep rejected: %s" e);
  (* the default budget guards the stack too: a pathological document
     errors instead of overflowing *)
  match Json.parse (nested 100_000) with
  | Ok _ -> Alcotest.fail "100k-deep accepted"
  | Error _ -> ()

let test_json_limit_string () =
  let doc = {|{"k":"|} ^ String.make 100 'a' ^ {|"}|} in
  (match Json.parse ~limits:(tiny ~max_string:32 ()) doc with
  | Ok _ -> Alcotest.fail "long string accepted"
  | Error e ->
      Alcotest.(check bool) ("mentions string: " ^ e) true (contains e "string"));
  match Json.parse ~limits:(tiny ~max_string:100 ()) doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "string at budget rejected: %s" e

let test_json_error_offsets () =
  (* every diagnostic carries the byte offset of the failure *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok j -> Alcotest.failf "accepted %S as %s" s (Json.to_string j)
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error has offset: %s" s e)
            true (contains e "at byte"))
    [ "[1,x]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "[1, {\"k\": ]}" ]

let test_json_fuzz_negatives () =
  (* mutation fuzzing: truncations and byte flips of a valid document
     must always come back as Ok/Error — never an exception — and
     accepted mutants must re-serialize losslessly *)
  let base = Json.to_string sample in
  let prng = Uv_util.Prng.create 0xBEEF in
  let try_parse s =
    match Json.parse ~limits:(tiny ()) s with
    | Ok j -> check json "accepted mutant round-trips" j (parse_ok (Json.to_string j))
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on %S" (Printexc.to_string e) s
  in
  for len = 0 to String.length base - 1 do
    try_parse (String.sub base 0 len)
  done;
  for _ = 1 to 2_000 do
    let b = Bytes.of_string base in
    for _ = 0 to Uv_util.Prng.int prng 3 do
      Bytes.set b
        (Uv_util.Prng.int prng (Bytes.length b))
        (Char.chr (Uv_util.Prng.int prng 256))
    done;
    try_parse (Bytes.to_string b)
  done

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok j -> Alcotest.failf "accepted %S as %s" s (Json.to_string j)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "nul";
  bad "\"unterminated";
  bad "\"ctrl \x01 char\"";
  bad "{} trailing";
  bad "'single'"

let test_json_accessors () =
  check (Alcotest.option json) "member hit" (Some (Json.Int (-42)))
    (Json.member "int" sample);
  check (Alcotest.option json) "member miss" None (Json.member "nope" sample);
  check (Alcotest.option json) "member on non-obj" None
    (Json.member "x" (Json.Int 1));
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "to_float int" (Some 3.0)
    (Json.to_float (Json.Int 3));
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "to_float str" None
    (Json.to_float (Json.Str "3"))

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let test_report_roundtrip () =
  let payload = Json.Obj [ ("answer", Json.Int 42) ] in
  let s = Report.to_string ~schema:"uv.metrics/1" payload in
  (match Report.parse s with
  | Ok p -> check json "payload preserved" payload p
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Report.parse ~expect:"uv.metrics/1" s with
  | Ok p -> check json "expect match" payload p
  | Error e -> Alcotest.failf "expect parse failed: %s" e

let test_report_envelope_fields () =
  let j = Report.envelope ~schema:"uv.whatif/2" Json.Null in
  check (Alcotest.option json) "schema" (Some (Json.Str "uv.whatif/2"))
    (Json.member "schema" j);
  check (Alcotest.option json) "tool" (Some (Json.Str "ultraverse"))
    (Json.member "tool" j);
  check (Alcotest.option json) "version"
    (Some (Json.Str Report.version))
    (Json.member "version" j)

let test_report_rejects_unknown_schema () =
  (match Report.envelope ~schema:"uv.bogus/9" Json.Null with
  | _ -> Alcotest.fail "emitted an unregistered schema"
  | exception Invalid_argument _ -> ());
  (* a syntactically perfect envelope with an unregistered schema must not
     round-trip either *)
  let forged =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str "uv.bogus/9");
           ("tool", Json.Str "ultraverse");
           ("version", Json.Str Report.version);
           ("payload", Json.Obj []);
         ])
  in
  match Report.parse forged with
  | Ok _ -> Alcotest.fail "parsed an unregistered schema"
  | Error _ -> ()

let test_report_rejects_malformed () =
  let reject s =
    match Report.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  reject "not json at all";
  reject "{}";
  reject {|{"schema":"uv.lint/1","tool":"ultraverse","version":"0"}|};
  reject {|{"schema":"uv.lint/1","tool":"other","version":"0","payload":{}}|};
  reject {|{"schema":"uv.lint/1","version":"0","payload":{}}|};
  (* expect mismatch between two registered schemas *)
  let s = Report.to_string ~schema:"uv.lint/1" (Json.Obj []) in
  match Report.parse ~expect:"uv.whatif/2" s with
  | Ok _ -> Alcotest.fail "expect mismatch accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Trace: null sink                                                     *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_noop () =
  let t = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  let sp = Trace.start t "x" in
  Trace.finish t sp;
  Trace.incr t "c";
  Trace.incr t ~by:100 "c";
  Trace.observe t "h" 1.0;
  Trace.instant t "i";
  check Alcotest.int "counter stays 0" 0 (Trace.counter_value t "c");
  check Alcotest.int "with_span passes value" 7 (Trace.with_span t "s" (fun () -> 7));
  (match Json.member "traceEvents" (Trace.chrome_json t) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "disabled chrome export must have no events");
  let m = Trace.metrics_payload t in
  check (Alcotest.option json) "no counters" (Some (Json.Obj []))
    (Json.member "counters" m)

(* ------------------------------------------------------------------ *)
(* Trace: live collector                                                *)
(* ------------------------------------------------------------------ *)

(* decode the X events of a chrome export: (name, tid, ts, dur) *)
let x_events t =
  let doc = parse_ok (Trace.chrome_string t) in
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      List.filter_map
        (fun e ->
          match (Json.member "ph" e, Json.member "name" e) with
          | Some (Json.Str "X"), Some (Json.Str name) ->
              let num k = Option.get (Option.bind (Json.member k e) Json.to_float) in
              Some (name, int_of_float (num "tid"), num "ts", num "dur")
          | _ -> None)
        evs
  | _ -> Alcotest.fail "no traceEvents"

let test_trace_span_nesting () =
  let t = Trace.create () in
  let v =
    Trace.with_span t "outer" (fun () ->
        Trace.with_span t "inner" (fun () -> 99))
  in
  check Alcotest.int "value through nested spans" 99 v;
  let evs = x_events t in
  let find n = List.find (fun (name, _, _, _) -> name = n) evs in
  let _, otid, ots, odur = find "outer" in
  let _, itid, its, idur = find "inner" in
  check Alcotest.int "same lane" otid itid;
  Alcotest.(check bool) "inner starts after outer" true (its >= ots);
  Alcotest.(check bool) "inner ends before outer" true
    (its +. idur <= ots +. odur +. 1.0)

let test_trace_span_exception_safe () =
  let t = Trace.create () in
  (try Trace.with_span t "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  match x_events t with
  | [ ("boom", _, _, _) ] -> ()
  | evs -> Alcotest.failf "expected 1 span, got %d" (List.length evs)

let test_trace_counters_and_histograms () =
  let t = Trace.create () in
  Trace.incr t "c";
  Trace.incr t ~by:6 "c";
  check Alcotest.int "counter" 7 (Trace.counter_value t "c");
  List.iter (Trace.observe t "h") [ 4.0; 1.0; 3.0; 2.0 ];
  let m = Trace.metrics_payload t in
  let h =
    match Json.member "histograms" m with
    | Some hs -> Option.get (Json.member "h" hs)
    | None -> Alcotest.fail "no histograms"
  in
  let num k = Option.get (Option.bind (Json.member k h) Json.to_float) in
  check (Alcotest.float 1e-9) "count" 4.0 (num "count");
  check (Alcotest.float 1e-9) "sum" 10.0 (num "sum_ms");
  check (Alcotest.float 1e-9) "min" 1.0 (num "min_ms");
  check (Alcotest.float 1e-9) "max" 4.0 (num "max_ms");
  Alcotest.(check bool) "p50 within range" true
    (num "p50_ms" >= 1.0 && num "p50_ms" <= 4.0);
  match Json.member "counters" m with
  | Some cs ->
      check (Alcotest.option json) "counter exported" (Some (Json.Int 7))
        (Json.member "c" cs)
  | None -> Alcotest.fail "no counters"

let test_trace_multi_domain_lanes () =
  let t = Trace.create () in
  Trace.with_span t "main-span" (fun () -> ());
  let ds =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            Trace.with_span t (Printf.sprintf "worker-%d" i) (fun () ->
                Trace.incr t "worker.spans")))
  in
  List.iter Domain.join ds;
  check Alcotest.int "both workers recorded" 2 (Trace.counter_value t "worker.spans");
  let evs = x_events t in
  check Alcotest.int "three spans" 3 (List.length evs);
  let tids = List.sort_uniq compare (List.map (fun (_, tid, _, _) -> tid) evs) in
  Alcotest.(check bool) "spawned domains get their own lanes" true
    (List.length tids >= 2);
  (* every lane must carry a thread_name metadata record *)
  let doc = parse_ok (Trace.chrome_string t) in
  let meta_tids =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) ->
        List.filter_map
          (fun e ->
            match (Json.member "ph" e, Json.member "name" e) with
            | Some (Json.Str "M"), Some (Json.Str "thread_name") ->
                Option.map
                  (fun f -> int_of_float f)
                  (Option.bind (Json.member "tid" e) Json.to_float)
            | _ -> None)
          evs
    | _ -> []
  in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d named" tid)
        true (List.mem tid meta_tids))
    tids

let test_trace_instant_events () =
  let t = Trace.create () in
  Trace.instant t "marker" ~args:[ ("k", Json.Int 1) ];
  let doc = parse_ok (Trace.chrome_string t) in
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      let is_marker e =
        Json.member "ph" e = Some (Json.Str "i")
        && Json.member "name" e = Some (Json.Str "marker")
      in
      Alcotest.(check bool) "instant exported" true (List.exists is_marker evs)
  | _ -> Alcotest.fail "no traceEvents"

(* ------------------------------------------------------------------ *)
(* End-to-end: a traced what-if run                                     *)
(* ------------------------------------------------------------------ *)

let build_history () =
  let eng = Uv_db.Engine.create () in
  let run sql = ignore (Uv_db.Engine.exec_sql eng sql) in
  run "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)";
  for i = 1 to 4 do
    run (Printf.sprintf "INSERT INTO accounts VALUES (%d, 100)" i)
  done;
  (* independent single-row updates: conflict-free, so the wave executor
     gets real parallel batches *)
  for round = 1 to 3 do
    for i = 1 to 4 do
      run
        (Printf.sprintf
           "UPDATE accounts SET balance = balance + %d WHERE id = %d" round i)
    done
  done;
  eng

let whatif_outcome ~obs eng =
  let analyzer = Uv_retroactive.Analyzer.analyze ~obs (Uv_db.Engine.log eng) in
  let target = { Uv_retroactive.Analyzer.tau = 6; op = Uv_retroactive.Analyzer.Remove } in
  let config = Uv_retroactive.Whatif.Config.make ~workers:2 ~obs () in
  Uv_retroactive.Whatif.run_exn ~config ~analyzer eng target

let test_whatif_traced () =
  let obs = Trace.create () in
  let out = whatif_outcome ~obs (build_history ()) in
  let names = List.map (fun (n, _, _, _) -> n) (x_events obs) in
  let has n = List.mem n names in
  Alcotest.(check bool) "whatif root span" true (has "whatif");
  Alcotest.(check bool) "analyze phase" true (has "analyze");
  Alcotest.(check bool) "rwsets span" true (has "analyze.rwsets");
  Alcotest.(check bool) "closure.col span" true (has "closure.col");
  Alcotest.(check bool) "closure.row span" true (has "closure.row");
  Alcotest.(check bool) "hash-jump phase always present" true (has "hash-jump");
  Alcotest.(check bool) "cluster span" true (has "cluster");
  let waves =
    List.filter (fun n -> String.length n > 5 && String.sub n 0 5 = "wave.") names
  in
  check Alcotest.int "a span per executed wave" out.Uv_retroactive.Whatif.exec_waves
    (List.length waves);
  let is_q n =
    String.length n > 1
    && n.[0] = 'Q'
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub n 1 (String.length n - 1))
  in
  check Alcotest.int "a span per replayed statement"
    out.Uv_retroactive.Whatif.replayed
    (List.length (List.filter is_q names));
  Alcotest.(check bool) "closure iterations counted" true
    (Trace.counter_value obs "analyze.closure_iters" > 0);
  Alcotest.(check bool) "statement execs counted" true
    (Trace.counter_value obs "db.log_appends" > 0);
  (* the rollback phase span carries the counts its counters add up *)
  let rollback_args =
    match Json.member "traceEvents" (parse_ok (Trace.chrome_string obs)) with
    | Some (Json.List evs) ->
        List.filter_map
          (fun e ->
            match Json.member "name" e with
            | Some (Json.Str "rollback") -> Json.member "args" e
            | _ -> None)
          evs
    | _ -> []
  in
  let arg k =
    match rollback_args with
    | [ a ] -> Option.get (Option.bind (Json.member k a) Json.to_float)
    | _ -> Alcotest.fail "one rollback span with args"
  in
  check Alcotest.int "undo records: span == counter"
    (Trace.counter_value obs "rollback.undo_records")
    (int_of_float (arg "records"));
  check Alcotest.int "rows restored: span == counter"
    (Trace.counter_value obs "rollback.rows_restored")
    (int_of_float (arg "rows"));
  Alcotest.(check bool) "undo records counted" true
    (Trace.counter_value obs "rollback.undo_records" > 0);
  Alcotest.(check bool) "rows restored <= undo records" true
    (Trace.counter_value obs "rollback.rows_restored"
    <= Trace.counter_value obs "rollback.undo_records");
  (* the metrics report round-trips through the envelope *)
  let s = Report.to_string ~schema:"uv.metrics/1" (Trace.metrics_payload obs) in
  match Report.parse ~expect:"uv.metrics/1" s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics envelope: %s" e

let test_whatif_obs_invariant () =
  (* observability must not change the computed universe *)
  let quiet = whatif_outcome ~obs:Trace.disabled (build_history ()) in
  let traced = whatif_outcome ~obs:(Trace.create ()) (build_history ()) in
  check Alcotest.int64 "same final hash" quiet.Uv_retroactive.Whatif.final_db_hash
    traced.Uv_retroactive.Whatif.final_db_hash;
  check Alcotest.int "same replay count" quiet.Uv_retroactive.Whatif.replayed
    traced.Uv_retroactive.Whatif.replayed;
  (* the phase table is populated either way, with the documented order *)
  let phase_names o = List.map fst o.Uv_retroactive.Whatif.phases in
  check
    Alcotest.(list string)
    "phases present without obs"
    [ "analyze"; "snapshot"; "hash-jump"; "rollback"; "replay"; "cost-model";
      "merge-log" ]
    (phase_names quiet);
  check Alcotest.(list string) "same phases with obs" (phase_names quiet)
    (phase_names traced)

let () =
  Alcotest.run "uv_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "byte budget" `Quick test_json_limit_bytes;
          Alcotest.test_case "depth budget" `Quick test_json_limit_depth;
          Alcotest.test_case "string budget" `Quick test_json_limit_string;
          Alcotest.test_case "error offsets" `Quick test_json_error_offsets;
          Alcotest.test_case "mutation fuzz" `Quick test_json_fuzz_negatives;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "envelope fields" `Quick test_report_envelope_fields;
          Alcotest.test_case "unknown schema" `Quick test_report_rejects_unknown_schema;
          Alcotest.test_case "malformed" `Quick test_report_rejects_malformed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null sink" `Quick test_trace_disabled_noop;
          Alcotest.test_case "span nesting" `Quick test_trace_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_trace_span_exception_safe;
          Alcotest.test_case "counters/histograms" `Quick test_trace_counters_and_histograms;
          Alcotest.test_case "multi-domain lanes" `Quick test_trace_multi_domain_lanes;
          Alcotest.test_case "instant events" `Quick test_trace_instant_events;
        ] );
      ( "whatif",
        [
          Alcotest.test_case "traced run" `Quick test_whatif_traced;
          Alcotest.test_case "obs-off invariance" `Quick test_whatif_obs_invariant;
        ] );
    ]
