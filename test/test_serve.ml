(* Tests for the [ultraverse serve] daemon: protocol round-trips, typed
   admission-control and deadline errors that must never tear the
   connection down, protocol-damage handling, and clean shutdown.

   Each test starts a real daemon on a fresh Unix socket and talks to it
   through Serve.Client or raw Frame_io frames (the latter to pipeline
   requests the blocking client cannot). *)

open Uv_db
open Uv_retroactive
module J = Uv_obs.Json
module Report = Uv_obs.Report
module Frame_io = Uv_util.Frame_io

let check = Alcotest.check

(* one replay lane per request: these tests exercise concurrency across
   requests, not inside a replay *)
let svc_config = Whatif.Config.make ~workers:1 ()

let build_service ?obs n =
  let e = Engine.create () in
  ignore
    (Engine.exec_sql e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
  for i = 1 to 4 do
    ignore
      (Engine.exec_sql e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i))
  done;
  for i = 1 to n do
    ignore
      (Engine.exec_sql e
         (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" i
            (1 + (i mod 4))))
  done;
  let config =
    match obs with
    | Some obs -> Whatif.Config.make ~workers:1 ~obs ()
    | None -> svc_config
  in
  let svc = Whatif.Service.create ~config e in
  Whatif.Service.publish svc;
  svc

let fresh_sock () =
  let p = Filename.temp_file "uv-test-serve" ".sock" in
  Sys.remove p;
  p

(* [obs], when given, is shared by the service's what-if runs and the
   daemon, as [ultraverse serve] shares it *)
let with_server ?(config = Serve.default_config) ?(history = 40) ?obs f =
  let svc = build_service ?obs history in
  let addr = Serve.Unix_sock (fresh_sock ()) in
  let srv = Serve.start ~config ?obs svc addr in
  Fun.protect ~finally:(fun () -> Serve.stop srv) (fun () -> f srv addr svc)

let expect_result = function
  | Ok (Serve.Client.Result j) -> j
  | Ok (Serve.Client.Refused { code; message; _ }) ->
      Alcotest.failf "refused [%s]: %s" code message
  | Error e -> Alcotest.failf "transport: %s" e

let member_exn k j =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing %S in %s" k (J.to_string j)

(* ------------------------------------------------------------------ *)

let test_roundtrip_and_hash_identity () =
  with_server ~obs:(Uv_obs.Trace.create ()) (fun _srv addr svc ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let pong = expect_result (Serve.Client.ping c) in
          check Alcotest.bool "pong" true (member_exn "pong" pong = J.Bool true);
          let r = expect_result (Serve.Client.whatif ~tau:3 ~op:"remove" c ()) in
          let served =
            match member_exn "final_db_hash" r with
            | J.Str h -> h
            | j -> Alcotest.failf "hash not a string: %s" (J.to_string j)
          in
          (* the same question one-shot, straight through the service *)
          let oneshot =
            match
              Whatif.Service.run svc { Analyzer.tau = 3; op = Analyzer.Remove }
            with
            | Ok r -> Printf.sprintf "%Lx" r.outcome.Whatif.final_db_hash
            | Error e -> Alcotest.failf "one-shot: %s" (Whatif.Error.to_string e)
          in
          check Alcotest.string "served == one-shot universe" oneshot served;
          let stats = expect_result (Serve.Client.stats c) in
          check Alcotest.bool "stats counts the whatif" true
            (match member_exn "whatifs" stats with
            | J.Int n -> n >= 1
            | _ -> false);
          let metrics = expect_result (Serve.Client.metrics c) in
          check Alcotest.bool "metrics payload is an object" true
            (match metrics with J.Obj _ -> true | _ -> false);
          let counters = member_exn "counters" metrics in
          List.iter
            (fun name ->
              check Alcotest.bool (name ^ " counted") true
                (match member_exn name counters with J.Int _ -> true | _ -> false))
            [ "rollback.undo_records"; "rollback.rows_restored" ]))

(* raw pipelined connection: the blocking client can't over-run the
   admission queue, so speak frames directly *)
let raw_connect addr =
  match addr with
  | Serve.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Serve.Tcp _ -> Alcotest.fail "unix sockets only in tests"

let raw_send fd payload =
  Frame_io.write_frame fd (Report.to_string ~schema:"uv.serve/1" payload)

let raw_recv fd =
  match Frame_io.read_frame fd with
  | Ok s -> (
      match Report.parse ~expect:"uv.serve/1" s with
      | Ok j -> j
      | Error e -> Alcotest.failf "bad envelope: %s" e)
  | Error e -> Alcotest.failf "read: %s" (Frame_io.error_to_string e)

let test_saturation_typed_no_teardown () =
  let config =
    { Serve.default_config with workers = 1; queue_capacity = 1 }
  in
  with_server ~config ~history:120 (fun _srv addr _svc ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* 8 what-ifs back-to-back into a 1-worker, 1-slot queue: the
             overflow must come back [saturated], not close the socket *)
          let n = 8 in
          for i = 1 to n do
            raw_send fd
              (J.Obj
                 [
                   ("id", J.Int i);
                   ("type", J.Str "whatif");
                   ("tau", J.Int 5);
                   ("op", J.Str "remove");
                 ])
          done;
          let ok = ref 0 and saturated = ref 0 in
          for _ = 1 to n do
            let r = raw_recv fd in
            match (member_exn "ok" r, J.member "error" r) with
            | J.Bool true, _ -> incr ok
            | J.Bool false, Some err -> (
                match member_exn "code" err with
                | J.Str "saturated" ->
                    incr saturated;
                    check Alcotest.bool "carries retry_after_ms" true
                      (J.member "retry_after_ms" err <> None)
                | J.Str c -> Alcotest.failf "unexpected error code %s" c
                | _ -> Alcotest.fail "error code not a string")
            | _ -> Alcotest.fail "response without ok"
          done;
          check Alcotest.int "every request answered" n (!ok + !saturated);
          Alcotest.(check bool) "pool saturation observed" true (!saturated >= 1);
          Alcotest.(check bool) "some requests admitted" true (!ok >= 1);
          (* the connection survived every rejection *)
          raw_send fd (J.Obj [ ("id", J.Int 99); ("type", J.Str "ping") ]);
          let pong = raw_recv fd in
          check Alcotest.bool "ping after saturation" true
            (member_exn "ok" pong = J.Bool true)))

let test_deadline_typed_no_teardown () =
  with_server ~history:160 (fun _srv addr _svc ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* a 1 ms budget cannot cover a 160-statement replay on any
             machine this runs on; the failure must be a typed error *)
          (match Serve.Client.whatif ~deadline_ms:0.01 ~tau:3 ~op:"remove" c () with
          | Ok (Serve.Client.Refused { code = "deadline"; phase; _ }) ->
              Alcotest.(check bool) "deadline error names its phase" true
                (phase <> None)
          | Ok (Serve.Client.Refused { code; _ }) ->
              Alcotest.failf "wrong error code %s" code
          | Ok (Serve.Client.Result _) ->
              Alcotest.fail "a microsecond budget was enough?"
          | Error e -> Alcotest.failf "transport: %s" e);
          (* same connection, no deadline: the run now succeeds *)
          let r = expect_result (Serve.Client.whatif ~tau:3 ~op:"remove" c ()) in
          check Alcotest.bool "full run after deadline error" true
            (J.member "final_db_hash" r <> None)))

let test_bad_request_typed_then_served () =
  with_server (fun _srv addr _svc ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* unparsable JSON costs one typed error, not the connection *)
          Frame_io.write_frame fd "this is not an envelope";
          let r = raw_recv fd in
          (match J.member "error" r with
          | Some err ->
              check Alcotest.bool "bad_request code" true
                (member_exn "code" err = J.Str "bad_request")
          | None -> Alcotest.fail "damaged frame got an ok reply");
          (* a well-formed envelope with an unknown type: same deal *)
          raw_send fd (J.Obj [ ("type", J.Str "no_such_op") ]);
          let r = raw_recv fd in
          check Alcotest.bool "unknown type refused" true
            (member_exn "ok" r = J.Bool false);
          raw_send fd (J.Obj [ ("type", J.Str "ping") ]);
          check Alcotest.bool "still serving" true
            (member_exn "ok" (raw_recv fd) = J.Bool true)))

let test_oversized_frame_closes () =
  let config = { Serve.default_config with max_frame = 2048 } in
  with_server ~config (fun _srv addr _svc ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* protocol damage proper: the stream cannot be re-synchronised,
             so the server answers once and hangs up. It judges the frame
             by its 4-byte header alone, so only the header and a few
             payload bytes are sent: one short write that completes
             before the server can hang up on the rest. *)
          let frame = Bytes.make 12 'x' in
          Bytes.set_int32_be frame 0 100_000l;
          check Alcotest.int "header and payload prefix sent" 12
            (Unix.write fd frame 0 12);
          (match Frame_io.read_frame fd with
          | Ok s -> (
              match Report.parse ~expect:"uv.serve/1" s with
              | Ok j ->
                  check Alcotest.bool "typed farewell" true
                    (member_exn "ok" j = J.Bool false)
              | Error e -> Alcotest.failf "farewell not an envelope: %s" e)
          | Error `Closed -> () (* immediate close is acceptable too *)
          | Error (`Oversized n) -> Alcotest.failf "server sent %d bytes" n);
          match Frame_io.read_frame fd with
          | Error `Closed -> ()
          | Ok _ -> Alcotest.fail "connection survived protocol damage"
          | Error (`Oversized n) -> Alcotest.failf "server sent %d bytes" n))

let test_ingest_visible_to_later_whatifs () =
  with_server ~history:20 (fun _srv addr _svc ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let len_of r =
            match member_exn "history_len" r with
            | J.Int n -> n
            | _ -> Alcotest.fail "history_len not an int"
          in
          let before = expect_result (Serve.Client.whatif ~tau:3 ~op:"remove" c ()) in
          let r =
            expect_result
              (Serve.Client.ingest c
                 "UPDATE acct SET bal = bal + 7 WHERE id = 2; UPDATE acct SET \
                  bal = bal - 7 WHERE id = 3;")
          in
          check Alcotest.bool "both applied" true
            (member_exn "applied" r = J.Int 2);
          let after = expect_result (Serve.Client.whatif ~tau:3 ~op:"remove" c ()) in
          check Alcotest.int "the later run sees the longer history"
            (len_of before + 2) (len_of after)))

(* DDL ingested through the daemon extends the service's analyzer, and
   later answers equal a fresh service's on the grown history. *)
let test_ddl_ingest_extends () =
  with_server ~history:20 (fun _srv addr svc ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let r =
            expect_result
              (Serve.Client.ingest c
                 "CREATE TABLE audit (k INT PRIMARY KEY, v INT); INSERT INTO audit \
                  VALUES (1, 0); ALTER TABLE acct ADD COLUMN note INT; UPDATE acct \
                  SET note = 1, bal = bal + 1 WHERE id = 2;")
          in
          check Alcotest.bool "all applied" true (member_exn "applied" r = J.Int 4);
          let st = Whatif.Service.stats svc in
          check Alcotest.int "one full build" 1 st.Whatif.Service.analyzer_builds;
          check Alcotest.bool "the DDL was an extend" true
            (st.Whatif.Service.analyzer_extends >= 1);
          let fresh = Whatif.Service.create ~config:svc_config (Whatif.Service.engine svc) in
          let n = Whatif.Service.history_len svc in
          List.iter
            (fun tau ->
              let served =
                match
                  member_exn "final_db_hash"
                    (expect_result (Serve.Client.whatif ~tau ~op:"remove" c ()))
                with
                | J.Str h -> h
                | j -> Alcotest.failf "hash not a string: %s" (J.to_string j)
              in
              match Whatif.Service.run fresh { Analyzer.tau; op = Analyzer.Remove } with
              | Ok r ->
                  check Alcotest.string
                    (Printf.sprintf "remove@%d: served == a fresh service" tau)
                    (Printf.sprintf "%Lx" r.outcome.Whatif.final_db_hash)
                    served
              | Error e -> Alcotest.failf "fresh: %s" (Whatif.Error.to_string e))
            [ 3; n - 3; n - 1; n ]))

(* ------------------------------------------------------------------ *)
(* Durability: acked ingest on disk, restart recovery, health, retry    *)
(* ------------------------------------------------------------------ *)

let with_store_dir f =
  let dir = Filename.temp_file "uv-serve-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* no real fsyncs in unit tests: the crash windows themselves are the
   chaos harness's business; here we test the protocol contract *)
let dcfg = { Durable.default_config with Durable.fsync = false }

let seed_history ?(n = 20) e =
  ignore (Engine.exec_sql e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
  for i = 1 to 4 do
    ignore
      (Engine.exec_sql e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i))
  done;
  for i = 1 to n do
    ignore
      (Engine.exec_sql e
         (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" i
            (1 + (i mod 4))))
  done

(* the daemon's own bring-up sequence: attach, load the script history
   on first boot, seed, serve *)
let with_durable_server ~dir f =
  let e = Engine.create () in
  let dur, recov = Durable.attach ~config:dcfg ~dir e in
  if recov.Durable.rec_records = 0 then begin
    seed_history e;
    Durable.seed dur
  end;
  let svc = Whatif.Service.create ~config:svc_config e in
  Whatif.Service.publish svc;
  let addr = Serve.Unix_sock (fresh_sock ()) in
  let srv = Serve.start ~durable:dur svc addr in
  Fun.protect ~finally:(fun () -> Serve.stop srv) (fun () -> f srv addr svc dur)

let batch_sql =
  "UPDATE acct SET bal = bal + 7 WHERE id = 2; UPDATE acct SET bal = bal - 7 \
   WHERE id = 3;"

let test_durable_ack_means_on_disk () =
  with_store_dir @@ fun dir ->
  with_durable_server ~dir (fun _srv addr _svc dur ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let base = (Durable.stats dur).Durable.durable_len in
          let r =
            expect_result (Serve.Client.ingest ~idem_key:"batch-1" c batch_sql)
          in
          check Alcotest.bool "both applied" true
            (member_exn "applied" r = J.Int 2);
          check Alcotest.bool "ack is marked durable" true
            (member_exn "durable" r = J.Bool true);
          check Alcotest.bool "first send is no duplicate" true
            (member_exn "duplicate" r = J.Bool false);
          (* the ack in hand implies on-disk: an independent reader of
             the store directory already sees the batch *)
          let snap = Log_store.open_ dir in
          check Alcotest.int "batch durable at ack time" (base + 2)
            (Log_store.length snap);
          Log_store.close snap;
          (* lost-ack re-send under the same key: recorded ack returned,
             nothing re-executes *)
          let r2 =
            expect_result (Serve.Client.ingest ~idem_key:"batch-1" c batch_sql)
          in
          check Alcotest.bool "re-send flagged duplicate" true
            (member_exn "duplicate" r2 = J.Bool true);
          check Alcotest.bool "original ack echoed" true
            (member_exn "applied" r2 = J.Int 2);
          let snap = Log_store.open_ dir in
          check Alcotest.int "nothing re-executed" (base + 2)
            (Log_store.length snap);
          Log_store.close snap))

(* byte-copy a store directory: the disk state at this instant is what
   a [kill -9] would leave behind *)
let snapshot_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let ic = open_in_bin (Filename.concat src name) in
      let data =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin (Filename.concat dst name) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data))
    (Sys.readdir src)

let test_restart_recovers_acked_history () =
  with_store_dir @@ fun dir ->
  let crash_image = Filename.temp_file "uv-serve-crash" "" in
  Sys.remove crash_image;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists crash_image then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat crash_image name))
          (Sys.readdir crash_image);
        Sys.rmdir crash_image
      end)
  @@ fun () ->
  let served_hash =
    with_durable_server ~dir (fun _srv addr _svc _dur ->
        let c = Serve.Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            let r =
              expect_result
                (Serve.Client.ingest ~idem_key:"transfer-9" c batch_sql)
            in
            check Alcotest.bool "acked" true
              (member_exn "durable" r = J.Bool true);
            (* freeze the disk the instant the ack arrives — everything
               after this line is a crash as far as recovery is
               concerned *)
            snapshot_dir dir crash_image;
            match
              member_exn "final_db_hash"
                (expect_result (Serve.Client.whatif ~tau:3 ~op:"remove" c ()))
            with
            | J.Str h -> h
            | j -> Alcotest.failf "hash not a string: %s" (J.to_string j)))
  in
  (* second life, from the crash image *)
  let e2 = Engine.create () in
  let dur2, recov = Durable.attach ~config:dcfg ~dir:crash_image e2 in
  Fun.protect
    ~finally:(fun () -> Durable.close dur2)
    (fun () ->
      check Alcotest.int "acked batch survived the crash" 0
        recov.Durable.rec_truncated;
      check Alcotest.int "idempotency key survived the crash" 1
        recov.Durable.rec_keys;
      check Alcotest.int "no replay errors" 0 recov.Durable.rec_replay_skipped;
      let svc2 = Whatif.Service.create ~config:svc_config e2 in
      Whatif.Service.publish svc2;
      Durable.start ~ingest:(Whatif.Service.ingest svc2) dur2;
      (* the client's post-crash re-send is deduplicated, not re-run *)
      let stmts = Uv_sql.Parser.parse_script batch_sql in
      let ack = Durable.ingest ~key:"transfer-9" dur2 stmts in
      check Alcotest.bool "re-send after restart deduplicated" true
        ack.Durable.duplicate;
      (* and the recovered universe answers what-ifs identically *)
      let restarted_hash =
        match
          Whatif.Service.run svc2 { Analyzer.tau = 3; op = Analyzer.Remove }
        with
        | Ok r -> Printf.sprintf "%Lx" r.outcome.Whatif.final_db_hash
        | Error e -> Alcotest.failf "post-restart run: %s" (Whatif.Error.to_string e)
      in
      check Alcotest.string "what-if hash identical across restart"
        served_hash restarted_hash)

let test_health_endpoint () =
  (* without a store: healthy, no durable section *)
  with_server (fun _srv addr _svc ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let h = expect_result (Serve.Client.health c) in
          check Alcotest.bool "schema tagged" true
            (member_exn "schema" h = J.Str "uv.health/1");
          check Alcotest.bool "healthy" true (member_exn "ok" h = J.Bool true);
          check Alcotest.bool "not degraded" true
            (member_exn "degraded" h = J.Bool false);
          check Alcotest.bool "no durable section" true
            (member_exn "durable" h = J.Null)));
  (* with a store: watermarks present and consistent *)
  with_store_dir @@ fun dir ->
  with_durable_server ~dir (fun _srv addr _svc dur ->
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          ignore
            (expect_result (Serve.Client.ingest ~idem_key:"h1" c batch_sql));
          let h = expect_result (Serve.Client.health c) in
          check Alcotest.bool "healthy with store" true
            (member_exn "ok" h = J.Bool true);
          let d = member_exn "durable" h in
          check Alcotest.bool "durable watermark matches the handle" true
            (member_exn "durable_len" d
            = J.Int (Durable.stats dur).Durable.durable_len);
          check Alcotest.bool "keys counted" true
            (member_exn "idem_keys" d = J.Int 1);
          check Alcotest.bool "not poisoned" true
            (member_exn "poisoned" d = J.Bool false);
          check Alcotest.bool "queue depth reported" true
            (match member_exn "queue_pending" h with
            | J.Int n -> n >= 0
            | _ -> false)))

let test_client_retry_behaviour () =
  (* connection refused: Reset, retried with backoff, attempts counted *)
  let dead = Serve.Unix_sock (fresh_sock ()) in
  (match
     Serve.Client.call_retry ~retries:2 ~backoff_ms:1. dead
       (J.Obj [ ("type", J.Str "ping") ])
   with
  | (Error (Serve.Client.Reset _), attempts) ->
      check Alcotest.int "every retry attempted" 3 attempts
  | (Error (Serve.Client.Protocol e), _) ->
      Alcotest.failf "refused connect typed Protocol: %s" e
  | (Ok _, _) -> Alcotest.fail "call to a dead socket succeeded");
  with_server ~history:160 (fun _srv addr _svc ->
      (* a live server: first attempt lands *)
      (match
         Serve.Client.call_retry ~retries:3 addr (J.Obj [ ("type", J.Str "ping") ])
       with
      | (Ok (Serve.Client.Result _), attempts) ->
          check Alcotest.int "no spurious retries" 1 attempts
      | (Ok (Serve.Client.Refused { code; _ }), _) ->
          Alcotest.failf "ping refused: %s" code
      | (Error e, _) ->
          Alcotest.failf "transport: %s" (Serve.Client.error_to_string e));
      (* a deadline refusal is final: the budget is spent either way *)
      match
        Serve.Client.call_retry ~retries:3 addr
          (Serve.Client.whatif_payload ~deadline_ms:0.01 ~tau:3 ~op:"remove" ())
      with
      | (Ok (Serve.Client.Refused { code = "deadline"; _ }), attempts) ->
          check Alcotest.int "deadline not retried" 1 attempts
      | (Ok (Serve.Client.Refused { code; _ }), _) ->
          Alcotest.failf "wrong code %s" code
      | (Ok (Serve.Client.Result _), _) ->
          Alcotest.fail "a microsecond budget was enough?"
      | (Error e, _) ->
          Alcotest.failf "transport: %s" (Serve.Client.error_to_string e))

let test_client_shutdown_stops_server () =
  with_server (fun srv addr _svc ->
      let c = Serve.Client.connect addr in
      (match Serve.Client.shutdown c with
      | Ok (Serve.Client.Result _) -> ()
      | Ok (Serve.Client.Refused { code; _ }) -> Alcotest.failf "refused: %s" code
      | Error e -> Alcotest.failf "transport: %s" e);
      Serve.Client.close c;
      (* wait must return because the request flipped the server *)
      Serve.wait srv;
      (* double stop (with_server's finally will stop again) is fine *)
      Serve.stop srv)

let () =
  Alcotest.run "uv_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "round-trip & hash identity" `Quick
            test_roundtrip_and_hash_identity;
          Alcotest.test_case "ingest visible to later runs" `Quick
            test_ingest_visible_to_later_whatifs;
          Alcotest.test_case "DDL ingest extends" `Quick test_ddl_ingest_extends;
        ] );
      ( "typed errors",
        [
          Alcotest.test_case "saturation, no teardown" `Quick
            test_saturation_typed_no_teardown;
          Alcotest.test_case "deadline, no teardown" `Quick
            test_deadline_typed_no_teardown;
          Alcotest.test_case "bad request, no teardown" `Quick
            test_bad_request_typed_then_served;
          Alcotest.test_case "oversized frame closes" `Quick
            test_oversized_frame_closes;
        ] );
      ( "durability",
        [
          Alcotest.test_case "ack means on-disk; idem-key dedup" `Quick
            test_durable_ack_means_on_disk;
          Alcotest.test_case "restart recovers acked history" `Quick
            test_restart_recovers_acked_history;
          Alcotest.test_case "health endpoint" `Quick test_health_endpoint;
          Alcotest.test_case "client retry behaviour" `Quick
            test_client_retry_behaviour;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "client-requested shutdown" `Quick
            test_client_shutdown_stops_server;
        ] );
    ]
