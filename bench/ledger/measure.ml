(* Clocks, process facts and the bench-side tracing the workloads share. *)

module J = Uv_obs.Json

let now = Uv_util.Clock.now_ms

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The kernel's peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

let stmt_kind : Uv_sql.Ast.stmt -> string option = function
  | Uv_sql.Ast.Insert _ | Uv_sql.Ast.Insert_select _ -> Some "insert"
  | Uv_sql.Ast.Update _ -> Some "update"
  | Uv_sql.Ast.Delete _ -> Some "delete"
  | Uv_sql.Ast.Select _ -> Some "select"
  | Uv_sql.Ast.Call _ -> Some "call"
  | _ -> None

(* DML: the entries whose write set is non-empty, and so the only ones a
   Remove question can usefully target *)
let is_writer stmt =
  match stmt_kind stmt with Some "select" | None -> false | Some _ -> true

(* Bench-side spans for a traced run, recorded into the same collector
   the library layers write to, so one Chrome file shows both. Each span
   names its parent and, inside a question, the question's id. *)
module Span = struct
  let parents : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

  let run tr ?q name f =
    if not (Uv_obs.Trace.enabled tr) then f ()
    else
      let stack = Domain.DLS.get parents in
      let args =
        ("parent", J.Str (match stack with p :: _ -> p | [] -> "run"))
        :: (match q with Some q -> [ ("q", J.Int q) ] | None -> [])
      in
      Domain.DLS.set parents (name :: stack);
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set parents stack)
        (fun () -> Uv_obs.Trace.with_span tr ~cat:"bench" ~args name f)
end

(* p50 of a histogram in a uv.metrics/1 payload *)
let hist_p50 payload name =
  match Option.bind (J.member "histograms" payload) (J.member name) with
  | Some h -> Option.bind (J.member "p50_ms" h) J.to_float
  | None -> None

(* the traced run's spans, library and bench alike, as a Chrome trace *)
let write_chrome ~dir ~name ~seed tr =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" name seed) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Uv_obs.Trace.chrome_string tr));
  Printf.printf "chrome trace: %s\n" path
