(* The what-if ledger: one benchmark, four workloads, fixed metric names.

     dune exec bench/ledger/ledger.exe -- --workload W --seed S
       [--seconds N] [--trace 0|1|DIR] [--smoke] [--summary]
       [--ultraverse PATH]

   W is oneshot, session-narrow, session-wide, serve-ingest, or all (each
   workload then runs in a process of its own). Every metric is printed
   by name and unit; the last line is a uv.bench/1 envelope whose payload
   has format "ledger/1". With --summary (bench/ledger/run.sh, the
   BENCHMARK.json command, passes it) one more line follows: the
   {correct, attempted, failed, metrics} result. A traced run (--trace 1,
   or a directory for the Chrome trace) traces about half the questions
   and reports the per-layer metrics. [--check-spec FILE] compares FILE
   (BENCHMARK.json) with the ledger's own dictionary. *)

module J = Uv_obs.Json

let usage =
  "ledger.exe --workload oneshot|session-narrow|session-wide|serve-ingest|all \
   --seed N [--seconds S] [--trace 0|1|DIR] [--smoke] [--summary] \
   [--ultraverse PATH] | --check-spec BENCHMARK.json"

let workdir = "_ledger"

(* SIGTERM and SIGINT unwind like any error, so every cleanup on the way
   out runs: temp directories go, and a serve-ingest daemon is killed
   and reaped *)
exception Stopped

let host () =
  J.Obj
    [
      ("domains", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("os", J.Str Sys.os_type);
    ]

let metric_json results (m : Spec.metric) =
  J.Obj
    [
      ("name", J.Str m.Spec.name);
      ( "value",
        match List.assoc_opt m.Spec.name results with Some v -> J.Float v | None -> J.Null );
      ("unit", J.Str m.Spec.unit_);
      ("better", J.Str (Spec.better_name m.Spec.better));
      ("kind", J.Str (Spec.kind_name m.Spec.kind));
      ("bound", match m.Spec.bound with Some b -> J.Float b | None -> J.Null);
    ]

let run_json ~workload ~seed ~seconds ~traced ~smoke (r : Window.result) =
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("traced", J.Bool traced);
      ("smoke", J.Bool smoke);
      ("correct", J.Bool true);
      ("attempted", J.Int r.Window.attempted);
      ("failed", J.Int r.Window.failed_ops);
      ("sizes", J.Obj r.Window.sizes);
      ("calibration", J.Obj r.Window.calibration);
      ("metrics", J.List (List.map (metric_json r.Window.metrics) Spec.metrics));
    ]

let envelope runs =
  Uv_obs.Report.to_string ~schema:"uv.bench/1"
    (J.Obj [ ("format", J.Str "ledger/1"); ("host", host ()); ("runs", J.List runs) ])

(* The summary line: the end-to-end metrics of an untraced run, or the
   per-layer metrics of a traced one — every one BENCHMARK.json lists
   that the workload measures, which is all of them on a workload it
   names. *)
let summary ~workload ~traced (r : Window.result) =
  let kind = if traced then Spec.Per_layer else Spec.End_to_end in
  let wanted =
    List.filter
      (fun m -> Spec.listed m && m.Spec.kind = kind && List.mem workload m.Spec.on)
      Spec.metrics
  in
  let value (m : Spec.metric) =
    ( m.Spec.name,
      J.Obj
        [
          ("value", J.Float (List.assoc m.Spec.name r.Window.metrics));
          ("unit", J.Str m.Spec.unit_);
        ] )
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool true);
         ("attempted", J.Int r.Window.attempted);
         ("failed", J.Int r.Window.failed_ops);
         ("metrics", J.Obj (List.map value wanted));
       ])

let print_metrics ~workload ~seed (r : Window.result) =
  Printf.printf "ledger %s seed %d: %d attempted, %d failed\n" workload seed
    r.Window.attempted r.Window.failed_ops;
  List.iter
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name r.Window.metrics with
      | Some v -> Printf.printf "  %-34s %16.6g %s\n" m.Spec.name v m.Spec.unit_
      | None -> ())
    Spec.metrics

let run_one ~workload ~seed ~seconds ~trace ~smoke ~summary:want_summary ~ultraverse =
  if not (Sys.file_exists workdir) then Unix.mkdir workdir 0o755;
  let r =
    if workload = Spec.serve_ingest then
      Served.run ~ultraverse ~seed ~seconds ~trace ~smoke ~workdir
    else Inproc.run ~name:workload ~seed ~seconds ~trace ~smoke ~workdir
  in
  let traced = trace <> None in
  (* the dictionary's claim of which workload measures what is what
     BENCHMARK.json is built on, so hold every run to it *)
  List.iter
    (fun (m : Spec.metric) ->
      let expected = List.memq m (Spec.expected ~traced workload) in
      match List.assoc_opt m.Spec.name r.Window.metrics with
      | Some v when expected && not (Float.is_finite v) ->
          failwith (Printf.sprintf "%s: %s measured nothing" workload m.Spec.name)
      | None when expected ->
          failwith (Printf.sprintf "%s: %s is missing" workload m.Spec.name)
      | Some _ when not expected ->
          failwith (Printf.sprintf "%s: %s is not in the dictionary's scope" workload m.Spec.name)
      | _ -> ())
    Spec.metrics;
  print_metrics ~workload ~seed r;
  print_endline
    (envelope [ run_json ~workload ~seed ~seconds ~traced ~smoke r ]);
  if want_summary then print_endline (summary ~workload ~traced r)

(* --workload all: each workload in a child process; their envelopes
   merge into one *)
let run_all ~args =
  let runs = ref [] and ok = ref true in
  List.iter
    (fun w ->
      let argv =
        Array.of_list (Sys.executable_name :: "--workload" :: w :: args)
      in
      let ic = Unix.open_process_args_in Sys.executable_name argv in
      let lines =
        try In_channel.input_lines ic
        with Stopped ->
          Unix.kill (Unix.process_in_pid ic) Sys.sigterm;
          ignore (Unix.close_process_in ic);
          raise Stopped
      in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ ->
          ok := false;
          Printf.eprintf "ledger: workload %s failed\n%!" w);
      List.iter
        (fun line ->
          match Uv_obs.Report.parse ~expect:"uv.bench/1" line with
          | Ok payload -> (
              match J.member "runs" payload with
              | Some (J.List rs) -> runs := !runs @ rs
              | _ -> ())
          | Error _ -> print_endline line)
        lines)
    Spec.workload_names;
  print_endline (envelope !runs);
  if not !ok then exit 1

(* ---------- --check-spec ---------- *)

let check_spec path =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let doc =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list key = match J.member key doc with Some (J.List l) -> l | _ -> [] in
  let str key j = match J.member key j with Some (J.Str s) -> s | _ -> "" in
  let names = List.map (str "name") (list "workloads") in
  if names <> Spec.benchmarked then
    err "workloads are [%s], the ledger benchmarks [%s]" (String.concat "; " names)
      (String.concat "; " Spec.benchmarked);
  let compare_kind key kind =
    let wanted = List.filter (fun m -> Spec.listed m && m.Spec.kind = kind) Spec.metrics in
    let listed = list key in
    if List.map (str "name") listed <> List.map (fun m -> m.Spec.name) wanted then
      err "%s names [%s], the ledger reports [%s]" key
        (String.concat "; " (List.map (str "name") listed))
        (String.concat "; " (List.map (fun m -> m.Spec.name) wanted))
    else
      List.iter2
        (fun j (m : Spec.metric) ->
          if str "unit" j <> m.Spec.unit_ then err "%s: unit %s, not %s" m.Spec.name (str "unit" j) m.Spec.unit_;
          if str "better" j <> Spec.better_name m.Spec.better then
            err "%s: better %s" m.Spec.name (str "better" j);
          let bound = Option.bind (J.member "bound" j) J.to_float in
          if bound <> m.Spec.bound then err "%s: bound differs" m.Spec.name)
        listed wanted
  in
  compare_kind "end_to_end" Spec.End_to_end;
  compare_kind "per_layer" Spec.Per_layer;
  match List.rev !errors with
  | [] -> Printf.printf "%s matches the ledger's dictionary\n" path
  | es ->
      List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) es;
      exit 1

let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Stopped)))
    [ Sys.sigterm; Sys.sigint ];
  (* a daemon that dies mid-request is a transport error, not a SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref nan in
  let trace = ref "0" and smoke = ref false and summary = ref false in
  let ultraverse = ref (Filename.concat "_build" "default/bin/ultraverse.exe") in
  let spec = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  a workload name, or all");
      ("--seed", Arg.Set_int seed, "N  seeds every generated input");
      ("--seconds", Arg.Set_float seconds, "S  sizes the window: S times a rate per workload gives its question count, and serve-ingest spreads its questions and ingest stream over S seconds (default 35)");
      ("--trace", Arg.Set_string trace, "0|1|DIR  traced run (1: Chrome trace under _ledger)");
      ("--smoke", Arg.Set smoke, " tiny sizes, correctness gates only");
      ("--summary", Arg.Set summary, " end with the one-line BENCHMARK.json result");
      ("--ultraverse", Arg.Set_string ultraverse, "PATH  the daemon binary for serve-ingest");
      ("--check-spec", Arg.Set_string spec, "FILE  compare BENCHMARK.json with the dictionary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !spec <> "" then check_spec !spec
  else begin
    let fail msg =
      prerr_endline ("ledger: " ^ msg);
      prerr_endline usage;
      exit 2
    in
    if !seed < 0 then fail "--seed N is required";
    let seconds = if Float.is_nan !seconds then if !smoke then 0.2 else 35.0 else !seconds in
    let trace_dir = match !trace with "0" -> None | "1" -> Some workdir | d -> Some d in
    if !workload <> "all" && not (List.mem !workload Spec.workload_names) then
      fail (Printf.sprintf "unknown workload %S" !workload);
    if !workload = "all" && !summary then fail "--summary needs a single workload";
    match
      if !workload = "all" then
        run_all
          ~args:
            ([ "--seed"; string_of_int !seed; "--seconds"; string_of_float seconds;
               "--trace"; !trace; "--ultraverse"; !ultraverse ]
            @ if !smoke then [ "--smoke" ] else [])
      else
        run_one ~workload:!workload ~seed:!seed ~seconds ~trace:trace_dir ~smoke:!smoke
          ~summary:!summary ~ultraverse:!ultraverse
    with
    | () -> ()
    | exception Gate.Diverged msg ->
        prerr_endline ("ledger: DIVERGED: " ^ msg);
        exit 1
    | exception Failure msg ->
        prerr_endline ("ledger: " ^ msg);
        exit 2
    | exception Stopped ->
        prerr_endline "ledger: interrupted";
        exit 130
  end
