(* The serve daemon. See serve.mli for the protocol contract.

   Domain layout: one accept domain, one reader domain per accepted
   connection, [config.workers] what-if workers behind a bounded
   Domain_pool.Queue. Cheap requests (ping / stats / metrics / ingest)
   are answered on the connection's own domain — ingest deliberately
   so, since it takes the service's writer side and must not occupy a
   what-if worker slot while waiting for readers to drain. *)

module J = Uv_obs.Json
module Report = Uv_obs.Report
module Frame_io = Uv_util.Frame_io
module Queue_pool = Uv_util.Domain_pool.Queue

let schema = "uv.serve/1"

type addr = Unix_sock of string | Tcp of string * int

type config = {
  workers : int;
  queue_capacity : int;
  max_clients : int;
  max_frame : int;
  default_deadline_ms : float option;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 32;
    max_clients = 32;
    max_frame = 1 lsl 20;
    default_deadline_ms = None;
  }

(* network-grade parser bounds: a hostile frame can neither recurse the
   parser off the stack nor balloon one string past the frame cap *)
let json_limits cfg =
  { J.max_bytes = cfg.max_frame; max_depth = 64; max_string = cfg.max_frame }

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t; (* one frame at a time, pipelined replies intact *)
  mutable alive : bool;
  in_flight : int Atomic.t;
      (* what-if jobs on the worker pool still holding this conn: the
         reader domain must not close the fd (and risk the number being
         reused) while a worker could still write a response to it *)
}

type t = {
  svc : Whatif.Service.t;
  cfg : config;
  obs : Uv_obs.Trace.t;
  durable : Durable.t option;
      (* when attached, acked ingest batches are fsynced (group commit)
         before the ack frame leaves the daemon *)
  listener : Unix.file_descr;
  sockaddr : Unix.sockaddr; (* for the self-connect shutdown poke *)
  sock_path : string option; (* unlinked on stop *)
  pool : Queue_pool.t;
  lock : Mutex.t;
  stop_cond : Condition.t;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable conns : conn list;
  mutable handlers : unit Domain.t list;
  mutable accept_d : unit Domain.t option;
  mutable avg_run_ms : float; (* EWMA of completed what-if wall time *)
  started_ms : float;
  requests : int Atomic.t;
  whatifs : int Atomic.t;
  ingests : int Atomic.t;
  rejected : int Atomic.t; (* admission-control refusals *)
  shed : int Atomic.t; (* deadline-aware admission rejections *)
  deadline_hits : int Atomic.t;
  bad_requests : int Atomic.t;
}

let service t = t.svc
let obs t = t.obs

let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, p) -> Some p
  | _ -> None

(* ---------- response shapes ---------- *)

let ok_payload ~id ~typ result =
  J.Obj [ ("id", id); ("ok", J.Bool true); ("type", J.Str typ); ("result", result) ]

let err_payload ~id ~typ ~code ?retry_after_ms ?phase message =
  let err =
    [ ("code", J.Str code); ("message", J.Str message) ]
    @ (match retry_after_ms with
      | Some ms -> [ ("retry_after_ms", J.Float ms) ]
      | None -> [])
    @ match phase with Some p -> [ ("phase", J.Str p) ] | None -> []
  in
  J.Obj
    [ ("id", id); ("ok", J.Bool false); ("type", J.Str typ); ("error", J.Obj err) ]

let send conn payload =
  let s = Report.to_string ~schema payload in
  Mutex.lock conn.wmutex;
  if conn.alive then (
    match Frame_io.write_frame conn.fd s with
    | () -> ()
    | exception _ -> conn.alive <- false);
  Mutex.unlock conn.wmutex

(* ---------- what-if execution ---------- *)

(* the per-request config: the service's knobs with the remaining
   deadline budget swapped in *)
let config_with_deadline base deadline_ms =
  let module C = Whatif.Config in
  C.make ~mode:(C.mode base) ~workers:(C.workers base)
    ~hash_jumper:(C.hash_jumper base)
    ~obs:(C.obs base) ?deadline_ms
    ~fault:(C.fault base) ()

let whatif_result (r : Whatif.Service.reply) =
  let o = r.Whatif.Service.outcome in
  J.Obj
    [
      ("history_len", J.Int r.Whatif.Service.history_len);
      ("replay_set", J.Int o.Whatif.replay.Analyzer.member_count);
      ("replayed", J.Int o.Whatif.replayed);
      ("undone", J.Int o.Whatif.undone);
      ("failed_replays", J.Int o.Whatif.failed_replays);
      ("real_ms", J.Float o.Whatif.real_ms);
      ("workers", J.Int o.Whatif.workers);
      ("waves", J.Int o.Whatif.exec_waves);
      ("changed", J.Bool o.Whatif.changed);
      ("rollback_strategy", J.Str o.Whatif.rollback_strategy);
      (* inert, always 0; removed by the next benchmark change (ROADMAP
         item 1) *)
      ("plans_used", J.Int o.Whatif.plans_used);
      ("redone", J.Int o.Whatif.redone);
      ( "stop_at",
        match o.Whatif.stop_at with
        | Some (ran, skipped) ->
            J.Obj [ ("ran", J.Int ran); ("skipped", J.Int skipped) ]
        | None -> J.Null );
      ("final_db_hash", J.Str (Printf.sprintf "%Lx" o.Whatif.final_db_hash));
    ]

let error_code (e : Whatif.Error.t) =
  match e.Whatif.Error.code with
  | Whatif.Error.Deadline -> "deadline"
  | Whatif.Error.Fault -> "fault"
  | Whatif.Error.Internal -> "internal"

(* crude but monotone under load: the fuller the queue, the longer the
   suggested back-off *)
let retry_after_ms t = 5.0 *. float_of_int (1 + Queue_pool.pending t.pool)

(* EWMA of completed what-if wall time, the admission controller's cost
   model; the first sample seeds it directly *)
let note_run_ms t ms =
  Mutex.lock t.lock;
  t.avg_run_ms <- (if t.avg_run_ms = 0. then ms else (0.8 *. t.avg_run_ms) +. (0.2 *. ms));
  Mutex.unlock t.lock

let run_whatif t conn ~id ~deadline_ms ~enqueued_ms target =
  let elapsed = Uv_util.Clock.now_ms () -. enqueued_ms in
  let deadline =
    match deadline_ms with Some _ -> deadline_ms | None -> t.cfg.default_deadline_ms
  in
  match deadline with
  | Some d when elapsed >= d ->
      Atomic.incr t.deadline_hits;
      Uv_obs.Trace.incr t.obs "serve.deadline_exceeded";
      send conn
        (err_payload ~id ~typ:"whatif" ~code:"deadline" ~phase:"queue"
           (Printf.sprintf "budget of %.1f ms spent waiting in queue" d))
  | _ -> (
      let remaining = Option.map (fun d -> d -. elapsed) deadline in
      let config = config_with_deadline (Whatif.Service.config t.svc) remaining in
      match Whatif.Service.run ~config t.svc target with
      | Ok reply ->
          note_run_ms t reply.Whatif.Service.outcome.Whatif.real_ms;
          send conn (ok_payload ~id ~typ:"whatif" (whatif_result reply))
      | Error e ->
          let code = error_code e in
          if code = "deadline" then begin
            Atomic.incr t.deadline_hits;
            Uv_obs.Trace.incr t.obs "serve.deadline_exceeded"
          end;
          send conn
            (err_payload ~id ~typ:"whatif" ~code ~phase:e.Whatif.Error.phase
               e.Whatif.Error.message))

(* ---------- request parsing & dispatch ---------- *)

let parse_target j =
  match (J.member "tau" j, J.member "op" j) with
  | Some (J.Int tau), Some (J.Str op) -> (
      let stmt () =
        match J.member "stmt" j with
        | Some (J.Str s) -> (
            match Uv_sql.Parser.parse_stmt s with
            | stmt -> Ok stmt
            | exception _ -> Error (Printf.sprintf "unparsable stmt %S" s))
        | _ -> Error (Printf.sprintf "op %S requires a \"stmt\" string" op)
      in
      match op with
      | "remove" -> Ok { Analyzer.tau; op = Analyzer.Remove }
      | "add" ->
          Result.map (fun s -> { Analyzer.tau; op = Analyzer.Add s }) (stmt ())
      | "change" ->
          Result.map (fun s -> { Analyzer.tau; op = Analyzer.Change s }) (stmt ())
      | _ -> Error (Printf.sprintf "unknown op %S (remove | add | change)" op))
  | _ -> Error "whatif needs integer \"tau\" and string \"op\""

let stats_json t =
  let s = Whatif.Service.stats t.svc in
  J.Obj
    [
      ("uptime_ms", J.Float (Uv_util.Clock.now_ms () -. t.started_ms));
      ("history_len", J.Int (Whatif.Service.history_len t.svc));
      ("clients", J.Int (Mutex.protect t.lock (fun () -> List.length t.conns)));
      ("requests", J.Int (Atomic.get t.requests));
      ("whatifs", J.Int (Atomic.get t.whatifs));
      ("ingests", J.Int (Atomic.get t.ingests));
      ("rejected_saturated", J.Int (Atomic.get t.rejected));
      ("shed_admission", J.Int (Atomic.get t.shed));
      ("avg_run_ms", J.Float (Mutex.protect t.lock (fun () -> t.avg_run_ms)));
      ("deadline_exceeded", J.Int (Atomic.get t.deadline_hits));
      ("bad_requests", J.Int (Atomic.get t.bad_requests));
      ("queue_pending", J.Int (Queue_pool.pending t.pool));
      ("queue_capacity", J.Int (Queue_pool.capacity t.pool));
      ("queue_completed", J.Int (Queue_pool.completed t.pool));
      ("workers", J.Int (Queue_pool.workers t.pool));
      ( "service",
        J.Obj
          [
            ("runs", J.Int s.Whatif.Service.runs);
            ("analyzer_builds", J.Int s.Whatif.Service.analyzer_builds);
            ("analyzer_extends", J.Int s.Whatif.Service.analyzer_extends);
            ("analyzed_entries", J.Int s.Whatif.Service.analyzed_entries);
            ("ingested", J.Int s.Whatif.Service.ingested);
            ("publishes", J.Int s.Whatif.Service.publishes);
          ] );
    ]

let handle_request t conn j =
  Atomic.incr t.requests;
  Uv_obs.Trace.incr t.obs "serve.requests";
  let id = Option.value (J.member "id" j) ~default:J.Null in
  let typ =
    match J.member "type" j with Some (J.Str s) -> s | _ -> "unknown"
  in
  let bad message =
    Atomic.incr t.bad_requests;
    Uv_obs.Trace.incr t.obs "serve.bad_requests";
    send conn (err_payload ~id ~typ ~code:"bad_request" message)
  in
  if t.stopping && typ <> "ping" then
    send conn
      (err_payload ~id ~typ ~code:"shutting_down" "server is shutting down")
  else
    match typ with
    | "ping" ->
        send conn
          (ok_payload ~id ~typ
             (J.Obj
                [
                  ("pong", J.Bool true);
                  ("history_len", J.Int (Whatif.Service.history_len t.svc));
                ]))
    | "stats" -> send conn (ok_payload ~id ~typ (stats_json t))
    | "metrics" ->
        (* the result is a uv.metrics/1 payload verbatim, so a scraper
           can re-envelope it without reshaping *)
        send conn (ok_payload ~id ~typ (Uv_obs.Trace.metrics_payload t.obs))
    | "ingest" -> (
        match J.member "sql" j with
        | Some (J.Str sql) -> (
            let idem_key =
              match J.member "idem_key" j with
              | Some (J.Str k) when k <> "" -> Some k
              | _ -> None
            in
            match Uv_sql.Parser.parse_script sql with
            | exception _ -> bad "unparsable sql"
            | stmts -> (
                let reply ~applied ~failed ~history_len ~durable ~duplicate =
                  Atomic.incr t.ingests;
                  Uv_obs.Trace.incr t.obs "serve.ingests";
                  send conn
                    (ok_payload ~id ~typ
                       (J.Obj
                          [
                            ("applied", J.Int applied);
                            ("failed", J.Int failed);
                            ("history_len", J.Int history_len);
                            ("durable", J.Bool durable);
                            ("duplicate", J.Bool duplicate);
                          ]))
                in
                match t.durable with
                | None ->
                    let applied, failed = Whatif.Service.ingest t.svc stmts in
                    reply ~applied ~failed
                      ~history_len:(Whatif.Service.history_len t.svc)
                      ~durable:false ~duplicate:false
                | Some dur -> (
                    match Durable.ingest ?key:idem_key dur stmts with
                    | ack ->
                        reply ~applied:ack.Durable.applied
                          ~failed:ack.Durable.failed
                          ~history_len:ack.Durable.history_len ~durable:true
                          ~duplicate:ack.Durable.duplicate
                    | exception Uv_fault.Fault.Injected _ ->
                        Uv_obs.Trace.incr t.obs "serve.ingest_faults";
                        send conn
                          (err_payload ~id ~typ ~code:"fault"
                             "injected crash in the durable-ingest path")
                    | exception exn ->
                        send conn
                          (err_payload ~id ~typ ~code:"internal"
                             (Printexc.to_string exn)))))
        | _ -> bad "ingest needs a \"sql\" string")
    | "health" ->
        let waiting_writers, active_readers =
          Whatif.Service.lock_pressure t.svc
        in
        let queue_pending = Queue_pool.pending t.pool in
        let queue_capacity = Queue_pool.capacity t.pool in
        let dstats = Option.map Durable.stats t.durable in
        let drec = Option.map Durable.last_recovery t.durable in
        let degraded =
          (match dstats with Some s -> s.Durable.poisoned | None -> false)
          || (match drec with Some r -> r.Durable.rec_salvaged | None -> false)
          || queue_pending >= queue_capacity
        in
        let durable_json =
          match (dstats, drec) with
          | Some s, Some r ->
              J.Obj
                [
                  ("durable_len", J.Int s.Durable.durable_len);
                  ("last_seal", J.Int s.Durable.last_seal);
                  ("pending_batches", J.Int s.Durable.pending_batches);
                  ("idem_keys", J.Int s.Durable.keys);
                  ("flushes", J.Int s.Durable.flushes);
                  ("poisoned", J.Bool s.Durable.poisoned);
                  ("recovered_records", J.Int r.Durable.rec_records);
                  ("recovery_truncated", J.Int r.Durable.rec_truncated);
                  ("recovery_salvaged", J.Bool r.Durable.rec_salvaged);
                ]
          | _ -> J.Null
        in
        send conn
          (ok_payload ~id ~typ
             (J.Obj
                [
                  ("schema", J.Str "uv.health/1");
                  ("ok", J.Bool (not degraded));
                  ("degraded", J.Bool degraded);
                  ("history_len", J.Int (Whatif.Service.history_len t.svc));
                  ("queue_pending", J.Int queue_pending);
                  ("queue_capacity", J.Int queue_capacity);
                  ("waiting_writers", J.Int waiting_writers);
                  ("active_readers", J.Int active_readers);
                  ( "avg_run_ms",
                    J.Float (Mutex.protect t.lock (fun () -> t.avg_run_ms)) );
                  ("shed_admission", J.Int (Atomic.get t.shed));
                  ("durable", durable_json);
                ]))
    | "whatif" -> (
        match parse_target j with
        | Error msg -> bad msg
        | Ok target -> (
            let deadline_ms =
              Option.bind (J.member "deadline_ms" j) J.to_float
            in
            let enqueued_ms = Uv_util.Clock.now_ms () in
            (* Deadline-aware shedding: when the queue backlog alone is
               expected to eat the whole budget, refuse now — a cheap
               typed error beats a doomed queue wait that would also
               delay everyone behind it. *)
            let predicted_wait_ms =
              let avg = Mutex.protect t.lock (fun () -> t.avg_run_ms) in
              avg
              *. float_of_int (Queue_pool.pending t.pool)
              /. float_of_int (max 1 (Queue_pool.workers t.pool))
            in
            let deadline =
              match deadline_ms with
              | Some _ -> deadline_ms
              | None -> t.cfg.default_deadline_ms
            in
            match deadline with
            | Some d when predicted_wait_ms > d ->
                Atomic.incr t.shed;
                Atomic.incr t.deadline_hits;
                Uv_obs.Trace.incr t.obs "serve.shed_admission";
                send conn
                  (err_payload ~id ~typ ~code:"deadline" ~phase:"admission"
                     ~retry_after_ms:(retry_after_ms t)
                     (Printf.sprintf
                        "predicted queue wait %.1f ms exceeds the %.1f ms budget"
                        predicted_wait_ms d))
            | _ -> (
            Atomic.incr t.whatifs;
            Uv_obs.Trace.incr t.obs "serve.whatifs";
            Atomic.incr conn.in_flight;
            match
              Queue_pool.submit t.pool (fun () ->
                  Fun.protect
                    ~finally:(fun () -> Atomic.decr conn.in_flight)
                    (fun () ->
                      run_whatif t conn ~id ~deadline_ms ~enqueued_ms target))
            with
            | `Accepted -> ()
            | `Saturated ->
                Atomic.decr conn.in_flight;
                Atomic.incr t.rejected;
                Uv_obs.Trace.incr t.obs "serve.rejected_saturated";
                send conn
                  (err_payload ~id ~typ ~code:"saturated"
                     ~retry_after_ms:(retry_after_ms t)
                     (Printf.sprintf "what-if queue is full (%d pending)"
                        (Queue_pool.pending t.pool)))
            | `Shutdown ->
                Atomic.decr conn.in_flight;
                send conn
                  (err_payload ~id ~typ ~code:"shutting_down"
                     "server is shutting down"))))
    | "shutdown" ->
        send conn (ok_payload ~id ~typ (J.Obj [ ("stopping", J.Bool true) ]))
        (* the caller runs [wait t; stop t]; the response frame is
           already in the socket buffer when teardown starts *)
    | _ -> bad (Printf.sprintf "unknown request type %S" typ)

(* returns true when the request asked the server to stop — handled
   outside [handle_request] so the response is sent first *)
let is_shutdown j =
  match J.member "type" j with Some (J.Str "shutdown") -> true | _ -> false

(* ---------- connection & accept loops ---------- *)

let forget_conn t conn =
  Mutex.lock t.lock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.lock;
  (* wait out workers still holding the conn, then retire the fd:
     closing early would let the kernel reuse the number and a late
     response frame could land on an unrelated connection *)
  while Atomic.get conn.in_flight > 0 do
    Domain.cpu_relax ()
  done;
  Mutex.lock conn.wmutex;
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wmutex

let request_stop t =
  Mutex.lock t.lock;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.stop_cond
  end;
  Mutex.unlock t.lock

let handler t conn =
  let limits = json_limits t.cfg in
  let rec loop () =
    match Frame_io.read_frame ~max_len:t.cfg.max_frame conn.fd with
    | Error `Closed -> ()
    | Error (`Oversized n) ->
        (* the payload bytes are still in the stream: protocol damage,
           the one case that does cost the connection *)
        Atomic.incr t.bad_requests;
        send conn
          (err_payload ~id:J.Null ~typ:"unknown" ~code:"bad_request"
             (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                t.cfg.max_frame))
    | Ok payload -> (
        match Report.parse ~limits ~expect:schema payload with
        | Error e ->
            (* the frame boundary held, so the stream is still sound:
               answer with a typed error and keep serving *)
            Atomic.incr t.bad_requests;
            Uv_obs.Trace.incr t.obs "serve.bad_requests";
            send conn (err_payload ~id:J.Null ~typ:"unknown" ~code:"bad_request" e);
            loop ()
        | Ok j ->
            handle_request t conn j;
            if is_shutdown j then request_stop t else loop ())
  in
  (try loop () with _ -> ());
  forget_conn t conn

(* a one-frame refusal on a connection we are not keeping *)
let refuse_fd t fd code message =
  let conn =
    { fd; wmutex = Mutex.create (); alive = true; in_flight = Atomic.make 0 }
  in
  send conn
    (err_payload ~id:J.Null ~typ:"connect" ~code
       ~retry_after_ms:(retry_after_ms t) message);
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listener with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
        if t.stopping then () else go ()
    | fd, _ ->
        let accepted =
          Mutex.protect t.lock (fun () ->
              if t.stopping then `Stop
              else if List.length t.conns >= t.cfg.max_clients then `Full
              else begin
                let conn =
                  { fd; wmutex = Mutex.create (); alive = true;
                    in_flight = Atomic.make 0 }
                in
                t.conns <- conn :: t.conns;
                let d = Domain.spawn (fun () -> handler t conn) in
                t.handlers <- d :: t.handlers;
                `Go
              end)
        in
        (match accepted with
        | `Stop -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | `Full ->
            Atomic.incr t.rejected;
            Uv_obs.Trace.incr t.obs "serve.rejected_saturated";
            refuse_fd t fd "saturated"
              (Printf.sprintf "client limit (%d) reached" t.cfg.max_clients)
        | `Go -> ());
        if t.stopping then () else go ()
  in
  try go () with _ -> ()

(* ---------- lifecycle ---------- *)

let resolve_addr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        match Unix.inet_addr_of_string host with
        | ip -> ip
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                invalid_arg ("serve: cannot resolve " ^ host)
            | h -> h.Unix.h_addr_list.(0)
            | exception Not_found ->
                invalid_arg ("serve: cannot resolve " ^ host))
      in
      Unix.ADDR_INET (ip, port)

let start ?(config = default_config) ?obs ?durable svc addr =
  let obs = match obs with Some o -> o | None -> Uv_obs.Trace.create () in
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* bind the durable layer's execution path to the service before any
     connection can reach the ingest handler *)
  Option.iter
    (fun dur -> Durable.start ~ingest:(Whatif.Service.ingest svc) dur)
    durable;
  let sockaddr = resolve_addr addr in
  let sock_path =
    match addr with
    | Unix_sock p ->
        (* a previous unclean shutdown leaves the inode behind *)
        (try Unix.unlink p with Unix.Unix_error _ -> ());
        Some p
    | Tcp _ -> None
  in
  let domain =
    match sockaddr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let listener = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener sockaddr;
     Unix.listen listener 64
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      svc;
      cfg = config;
      obs;
      durable;
      listener;
      sockaddr = Unix.getsockname listener (* Tcp (_, 0): the real port *);
      sock_path;
      pool =
        Queue_pool.create ~workers:(max 1 config.workers)
          ~capacity:(max 1 config.queue_capacity);
      lock = Mutex.create ();
      stop_cond = Condition.create ();
      stopping = false;
      stopped = false;
      conns = [];
      handlers = [];
      accept_d = None;
      avg_run_ms = 0.;
      started_ms = Uv_util.Clock.now_ms ();
      requests = Atomic.make 0;
      whatifs = Atomic.make 0;
      ingests = Atomic.make 0;
      rejected = Atomic.make 0;
      shed = Atomic.make 0;
      deadline_hits = Atomic.make 0;
      bad_requests = Atomic.make 0;
    }
  in
  t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let wait t =
  Mutex.lock t.lock;
  while not t.stopping do
    Condition.wait t.stop_cond t.lock
  done;
  Mutex.unlock t.lock

(* closing a listening socket does not wake a blocked [accept] on
   Linux; a throwaway self-connection does, deterministically *)
let poke_accept t =
  match
    let fd =
      Unix.socket ~cloexec:true
        (match t.sockaddr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
        Unix.SOCK_STREAM 0
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> Unix.connect fd t.sockaddr)
  with
  | () -> ()
  | exception _ -> ()

let stop t =
  request_stop t;
  let already =
    Mutex.protect t.lock (fun () ->
        let a = t.stopped in
        t.stopped <- true;
        a)
  in
  if not already then begin
    poke_accept t;
    (match Mutex.protect t.lock (fun () -> t.accept_d) with
    | Some d ->
        Domain.join d;
        Mutex.lock t.lock;
        t.accept_d <- None;
        Mutex.unlock t.lock
    | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* the accept loop is gone: no new conns/handlers past this point *)
    let conns, handlers =
      Mutex.protect t.lock (fun () -> (t.conns, t.handlers))
    in
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter Domain.join handlers;
    Mutex.lock t.lock;
    t.handlers <- [];
    Mutex.unlock t.lock;
    Queue_pool.shutdown t.pool;
    (* final group-commit flush: nothing acknowledged is left unsynced *)
    Option.iter Durable.close t.durable;
    Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.sock_path
  end

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = { fd : Unix.file_descr; max_frame : int }

  let connect ?(max_frame = default_config.max_frame) addr =
    let sockaddr = resolve_addr addr in
    let fd =
      Unix.socket ~cloexec:true
        (match sockaddr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
        Unix.SOCK_STREAM 0
    in
    (try Unix.connect fd sockaddr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; max_frame }

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  type response =
    | Result of J.t
    | Refused of {
        code : string;
        message : string;
        retry_after_ms : float option;
        phase : string option;
      }

  let decode payload =
    match J.member "ok" payload with
    | Some (J.Bool true) ->
        Ok (Result (Option.value (J.member "result" payload) ~default:J.Null))
    | Some (J.Bool false) -> (
        match J.member "error" payload with
        | Some err ->
            let str k =
              match J.member k err with Some (J.Str s) -> Some s | _ -> None
            in
            Ok
              (Refused
                 {
                   code = Option.value (str "code") ~default:"internal";
                   message = Option.value (str "message") ~default:"";
                   retry_after_ms =
                     Option.bind (J.member "retry_after_ms" err) J.to_float;
                   phase = str "phase";
                 })
        | None -> Error "error reply without error object")
    | _ -> Error "reply without ok field"

  type error =
    | Reset of string
        (* the transport died mid-request (peer reset, closed socket,
           refused connect): retryable once the request is idempotent *)
    | Protocol of string
        (* the reply violated the protocol: retrying cannot help *)

  let error_to_string = function
    | Reset m -> "connection reset: " ^ m
    | Protocol m -> m

  (* Every transport failure becomes a typed [error]; no [Unix_error]
     or [Frame_io.Closed] escapes to the caller. *)
  let call_typed c payload =
    let limits =
      { J.max_bytes = c.max_frame; max_depth = 64; max_string = c.max_frame }
    in
    match
      Frame_io.write_frame c.fd (Report.to_string ~schema payload);
      Frame_io.read_frame ~max_len:c.max_frame c.fd
    with
    | exception Frame_io.Closed -> Error (Reset "connection closed mid-request")
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Reset (fn ^ ": " ^ Unix.error_message e))
    | Error `Closed -> Error (Reset "connection closed before the reply")
    | Error (`Oversized _ as e) -> Error (Protocol (Frame_io.error_to_string e))
    | Ok reply -> (
        match Report.parse ~limits ~expect:schema reply with
        | Error e -> Error (Protocol e)
        | Ok j -> Result.map_error (fun e -> Protocol e) (decode j))

  let call c payload = Result.map_error error_to_string (call_typed c payload)

  (* Bounded retry with exponential backoff and deterministic jitter.
     Retryable: a transport reset (reconnect — the old socket is dead)
     and a [saturated] refusal (back off, honouring the server's
     [retry_after_ms] hint). Final: success, [deadline] (the budget is
     spent either way), every other refusal, and protocol damage. *)
  let call_retry ?(retries = 4) ?(backoff_ms = 25.) ?(max_backoff_ms = 1000.)
      ?(seed = 0) ?max_frame addr payload =
    let prng = Uv_util.Prng.create (seed lxor 0x7e7a11) in
    let backoff = ref (Float.max 1. backoff_ms) in
    let attempt = ref 0 in
    let result = ref (Error (Reset "not attempted")) in
    let final = ref false in
    while (not !final) && !attempt <= retries do
      incr attempt;
      if !attempt > 1 then begin
        let ms = !backoff +. Uv_util.Prng.float prng (!backoff *. 0.5) in
        Unix.sleepf (ms /. 1000.);
        backoff := Float.min max_backoff_ms (!backoff *. 2.)
      end;
      (match connect ?max_frame addr with
      | exception Unix.Unix_error (e, fn, _) ->
          result := Error (Reset (fn ^ ": " ^ Unix.error_message e))
      | c ->
          result :=
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () -> call_typed c payload));
      match !result with
      | Ok (Refused { code = "saturated"; retry_after_ms; _ }) ->
          Option.iter
            (fun ms -> backoff := Float.min max_backoff_ms (Float.max !backoff ms))
            retry_after_ms
      | Error (Reset _) -> ()
      | _ -> final := true
    done;
    (!result, !attempt)

  let simple c typ = call c (J.Obj [ ("type", J.Str typ) ])
  let ping c = simple c "ping"
  let stats c = simple c "stats"
  let metrics c = simple c "metrics"
  let health c = simple c "health"
  let shutdown c = simple c "shutdown"

  let whatif_payload ?deadline_ms ?id ~tau ~op ?stmt () =
    J.Obj
      ([ ("type", J.Str "whatif"); ("tau", J.Int tau); ("op", J.Str op) ]
      @ (match id with Some i -> [ ("id", J.Int i) ] | None -> [])
      @ (match stmt with Some s -> [ ("stmt", J.Str s) ] | None -> [])
      @
      match deadline_ms with
      | Some d -> [ ("deadline_ms", J.Float d) ]
      | None -> [])

  let whatif ?deadline_ms ?id ~tau ~op ?stmt c () =
    call c (whatif_payload ?deadline_ms ?id ~tau ~op ?stmt ())

  let ingest_payload ?id ?idem_key sql =
    J.Obj
      ([ ("type", J.Str "ingest"); ("sql", J.Str sql) ]
      @ (match id with Some i -> [ ("id", J.Int i) ] | None -> [])
      @
      match idem_key with
      | Some k -> [ ("idem_key", J.Str k) ]
      | None -> [])

  let ingest ?id ?idem_key c sql = call c (ingest_payload ?id ?idem_key sql)
end
