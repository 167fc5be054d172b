(* The shared flag vocabulary of the ultraverse CLI.

   Before this module every subcommand re-declared its own --json,
   --workers, --deadline, --tau/--op/--stmt, --seed … with drifting doc
   strings and defaults. Each flag now has exactly one definition with
   one typed accessor; subcommands compose the terms they need. The
   serve/client subcommands were built on this module from day one. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------- positional arguments ---------- *)

let history_pos =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"HISTORY.SQL" ~doc:"committed history script")

let history_pos_opt = Arg.(value & pos 0 (some file) None & info [] ~docv:"HISTORY.SQL")

(* ---------- retroactive target ---------- *)

let tau =
  Arg.(
    required
    & opt (some int) None
    & info [ "tau" ] ~doc:"target commit index")

let tau_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "tau" ] ~doc:"target commit index (optional)")

let op =
  Arg.(value & opt string "remove" & info [ "op" ] ~doc:"remove | add | change")

let stmt_text =
  Arg.(
    value
    & opt (some string) None
    & info [ "stmt" ] ~doc:"statement for add/change")

let parse_op op stmt_text =
  let module Analyzer = Uv_retroactive.Analyzer in
  match (op, stmt_text) with
  | "remove", _ -> Analyzer.Remove
  | "add", Some sql -> Analyzer.Add (Uv_sql.Parser.parse_stmt sql)
  | "change", Some sql -> Analyzer.Change (Uv_sql.Parser.parse_stmt sql)
  | _ -> failwith "--op add/change requires --stmt"

(* ---------- output & execution knobs ---------- *)

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"emit the result as a JSON report")

let workers =
  (* default to the host's available parallelism: extra domains beyond
     the core count only add GC-barrier overhead *)
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "workers" ]
        ~doc:"parallel replay worker (domain) count (default: host parallelism)")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"MS"
        ~doc:
          "wall-clock budget per what-if run in milliseconds; an exceeded \
           budget aborts that run cleanly (the original database untouched)")

let seed =
  Arg.(
    value
    & opt int 7
    & info [ "seed" ] ~docv:"N"
        ~doc:"PRNG seed for generated workloads (determinism knob)")

let query =
  Arg.(
    value
    & opt (some string) None
    & info [ "query" ] ~doc:"SELECT to run against the resulting database")

let segment_cap =
  Arg.(
    value
    & opt (some int) None
    & info [ "segment-cap" ] ~docv:"K"
        ~doc:
          "persist as a segmented log store (a directory of capped ULOGv2 \
           chunk files under a manifest) with K records per segment")

let segment_scope =
  Arg.(
    value
    & opt (some int) None
    & info [ "segment" ] ~docv:"SEQ"
        ~doc:"scope the check to one chunk file of a segmented store")

(* ---------- serve endpoint ---------- *)

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let tcp_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (with $(b,--host))")

let tcp_host =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host for $(b,--port)")

let addr_of ~socket ~host ~port =
  match (socket, port) with
  | Some path, None -> Ok (Uv_retroactive.Serve.Unix_sock path)
  | None, Some p -> Ok (Uv_retroactive.Serve.Tcp (host, p))
  | None, None -> Error "an endpoint is required: --socket PATH or --port N"
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"

(* ---------- shared history loading ---------- *)

let exec_history eng path =
  let module Engine = Uv_db.Engine in
  let stmts = Uv_sql.Parser.parse_script (read_file path) in
  List.iter
    (fun s ->
      try ignore (Engine.exec eng s)
      with Engine.Sql_error msg ->
        Printf.eprintf "warning: statement failed (%s): %s\n" msg
          (Uv_sql.Printer.stmt_compact s))
    stmts

let load_history ?(checkpoint_every = 0) path =
  let module Engine = Uv_db.Engine in
  let eng = Engine.create () in
  if checkpoint_every > 0 then
    Engine.enable_checkpoints eng ~every:checkpoint_every;
  exec_history eng path;
  eng
