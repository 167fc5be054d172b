(* The correctness gate, run after each timed window: sampled answers
   against the full-replay oracle (Definition E.1) and, for session and
   served answers, against a one-shot [Whatif.run] on the same history. *)

open Uv_db
open Uv_retroactive

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

(* Engine.exec microseconds by statement kind, from the oracle replays *)
type exec_samples = (string, float list) Hashtbl.t

let exec_samples () : exec_samples = Hashtbl.create 8

let oracle ?obs ~(samples : exec_samples) ~base log ~len ~skip =
  let e =
    match base with
    | Some cat -> Engine.of_catalog ?obs (Catalog.snapshot cat)
    | None -> Engine.create ?obs ()
  in
  for i = 1 to len do
    if i <> skip then begin
      let entry = Log.entry log i in
      let (), ms =
        Measure.time (fun () ->
            try
              ignore
                (Engine.exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn e
                   entry.Log.stmt)
            with Engine.Sql_error _ | Engine.Signal_raised _ -> ())
      in
      Option.iter
        (fun k ->
          Hashtbl.replace samples k
            ((ms *. 1000.0) :: Option.value (Hashtbl.find_opt samples k) ~default:[]))
        (Measure.stmt_kind entry.Log.stmt)
    end
  done;
  e

let hashes tables =
  List.sort compare (List.map (fun (name, t) -> (name, Storage.hash t)) tables)

(* The universe an outcome describes — the live tables with the
   outcome's mutated tables swapped in, as [Whatif.commit] would leave
   them — without touching the live engine. *)
let universe live (o : Whatif.outcome) =
  hashes
    (List.map
       (fun (name, t) ->
         if List.mem name o.Whatif.replay.Analyzer.mutated then
           (name, Option.value (Catalog.table o.Whatif.temp_catalog name) ~default:t)
         else (name, t))
       (Catalog.tables (Engine.catalog live)))

let check_oracle ?obs ~samples ~base ~label live (target : Analyzer.target) o =
  let log = Engine.log live in
  let truth =
    oracle ?obs ~samples ~base log ~len:(Log.length log) ~skip:target.Analyzer.tau
  in
  if hashes (Catalog.tables (Engine.catalog truth)) <> universe live o then
    diverged "%s: the what-if at tau=%d differs from the full-replay oracle" label
      target.Analyzer.tau

(* A one-shot answer over the engine's current history: a fresh analyzer
   and a sessionless run with every cache off. Returns the outcome and
   the analyzer build time. *)
let oneshot ?rowset ?base ~label eng target =
  let analyzer, build_ms =
    Measure.time (fun () ->
        Analyzer.of_source ?config:rowset ?base
          (Analyzer.source_of_log (Engine.log eng)))
  in
  match
    Whatif.run ~config:(Whatif.Config.make ~workers:2 ~plans:false ()) ~analyzer
      eng target
  with
  | Ok o -> (o, build_ms)
  | Error e -> diverged "%s: one-shot run failed: %s" label (Whatif.Error.to_string e)

let check_same ~label ~tau ~got ~want =
  if got <> want then
    diverged "%s: answer at tau=%d has universe hash %s, the one-shot run %s" label
      tau got want
