open Uv_sql

type txn_call = Wtypes.txn_call = { txn : string; args : Value.t list }

type t = Wtypes.t = {
  name : string;
  schema_sql : string;
  app_source : string;
  ri_config : Uv_retroactive.Rowset.config;
  populate : Uv_db.Engine.t -> scale:int -> Uv_util.Prng.t -> unit;
  generate :
    Uv_util.Prng.t -> scale:int -> n:int -> dep_rate:float -> txn_call list;
  target_call : txn_call;
  mahif_capable : bool;
  numeric_history :
    (Uv_util.Prng.t -> n:int -> dep_rate:float -> string list * int) option;
}

let all () =
  [ Tpcc.workload; Tatp.workload; Epinions.workload; Seats.workload; Astore.workload ]

let by_name name =
  let lname = String.lowercase_ascii name in
  match
    List.find_opt (fun w -> String.lowercase_ascii w.name = lname) (all ())
  with
  | Some w -> w
  | None -> raise Not_found

let setup ?(seed = 1234) ?(scale = 1) ?(mode = Uv_transpiler.Runtime.Raw) w =
  let eng = Uv_db.Engine.create ~seed () in
  ignore (Uv_db.Engine.exec_script eng w.schema_sql);
  let prng = Uv_util.Prng.create (seed * 7919) in
  w.populate eng ~scale prng;
  let rt = Uv_transpiler.Runtime.create eng ~source:w.app_source in
  (match mode with
  | Uv_transpiler.Runtime.Transpiled ->
      ignore (Uv_transpiler.Runtime.transpile_install rt)
  | Uv_transpiler.Runtime.Raw -> ());
  Uv_db.Engine.reset_log eng;
  (eng, rt)

let run_history rt ~mode calls =
  List.fold_left
    (fun failures { txn; args } ->
      match Uv_transpiler.Runtime.invoke rt ~mode txn args with
      | Ok _ -> failures
      | Error _ -> failures + 1)
    0 calls
