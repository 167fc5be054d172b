let tool = "ultraverse"
let version = "1.4.0"
let schemas =
  [ "uv.whatif/2"; "uv.lint/1"; "uv.metrics/1"; "uv.bench/1"; "uv.templates/1";
    "uv.serve/1" ]

let envelope ~schema payload =
  if not (List.mem schema schemas) then
    invalid_arg (Printf.sprintf "Uv_obs.Report.envelope: unregistered schema %S" schema);
  Json.Obj
    [ ("schema", Str schema); ("tool", Str tool); ("version", Str version);
      ("payload", payload) ]

let to_string ~schema payload = Json.to_string (envelope ~schema payload)

let parse ?limits ?expect s =
  match Json.parse ?limits s with
  | Error e -> Error e
  | Ok j -> (
      let str k =
        match Json.member k j with
        | Some (Str v) -> Ok v
        | Some _ -> Error (Printf.sprintf "report: field %S is not a string" k)
        | None -> Error (Printf.sprintf "report: missing field %S" k)
      in
      match (str "schema", str "tool", Json.member "payload" j) with
      | Error e, _, _ | _, Error e, _ -> Error e
      | _, _, None -> Error "report: missing field \"payload\""
      | Ok schema, Ok t, Some payload ->
          if not (List.mem schema schemas) then
            Error (Printf.sprintf "report: unregistered schema %S" schema)
          else if t <> tool then Error (Printf.sprintf "report: unexpected tool %S" t)
          else if Json.member "version" j = None then Error "report: missing field \"version\""
          else
            match expect with
            | Some want when want <> schema ->
                Error (Printf.sprintf "report: expected schema %S, got %S" want schema)
            | _ -> Ok payload)
