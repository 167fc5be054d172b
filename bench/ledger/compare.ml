(* Compare two sets of ledger runs.

     dune exec bench/ledger/compare.exe -- BASE_DIR CHANGE_DIR

   Every file in each directory is read line by line; each line that is a
   uv.bench/1 envelope with payload format "ledger/1" contributes its
   runs. For each (workload, metric) the comparator prints both sides'
   median and quartiles (Python's statistics.quantiles, n=4) and, for an
   end-to-end metric, a verdict against the bound the run recorded:

   - unresolved: either side's spread (q3 - q1 over the median) is wider
     than the bound, unless every change run beats every base run;
   - regressed: the change's median is worse than the base's by more
     than the bound;
   - ok otherwise.

   failed_ops_ratio is judged on the pooled counts instead: any rise is a
   regression. End-to-end metrics come from untraced runs, per-layer ones
   from traced runs when there are any. Exit status 1 when anything
   regressed. *)

module J = Uv_obs.Json

type metric = {
  name : string;
  unit_ : string;
  lower : bool;
  e2e : bool;
  bound : float option;
}

type run = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  values : (metric * float) list;
}

let runs_of_payload payload =
  let str k j = match J.member k j with Some (J.Str s) -> s | _ -> "" in
  let num k j = Option.bind (J.member k j) J.to_float in
  let int k j = Option.fold ~none:0 ~some:int_of_float (num k j) in
  match (J.member "format" payload, J.member "runs" payload) with
  | Some (J.Str "ledger/1"), Some (J.List runs) ->
      List.map
        (fun r ->
          let metrics = match J.member "metrics" r with Some (J.List l) -> l | _ -> [] in
          {
            workload = str "workload" r;
            traced = J.member "traced" r = Some (J.Bool true);
            attempted = int "attempted" r;
            failed = int "failed" r;
            values =
              List.filter_map
                (fun m ->
                  Option.map
                    (fun v ->
                      ( {
                          name = str "name" m;
                          unit_ = str "unit" m;
                          lower = str "better" m = "lower";
                          e2e = str "kind" m = "end_to_end";
                          bound = num "bound" m;
                        },
                        v ))
                    (num "value" m))
                metrics;
          })
        runs
  | _ -> []

let read_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then []
         else
           In_channel.with_open_bin path In_channel.input_lines
           |> List.concat_map (fun line ->
                  match Uv_obs.Report.parse ~expect:"uv.bench/1" line with
                  | Ok payload -> runs_of_payload payload
                  | Error _ -> []))

let values runs name =
  List.filter_map
    (fun r ->
      List.find_map (fun (m, v) -> if m.name = name then Some (m, v) else None) r.values)
    runs

let regressed = ref false

let verdict m base change =
  match m.bound with
  | None -> "-"
  | Some bound ->
      let _, mb, _ = Sample.quartiles base and _, mc, _ = Sample.quartiles change in
      let spread xs =
        let q1, med, q3 = Sample.quartiles xs in
        (q3 -. q1) /. Float.abs med
      in
      let better a b = if m.lower then a < b else a > b in
      let worse = (if m.lower then mc -. mb else mb -. mc) /. Float.abs mb in
      if spread base > bound || spread change > bound then
        if List.for_all (fun c -> List.for_all (better c) base) change then "ok"
        else "unresolved"
      else if worse > bound then (regressed := true; "regressed")
      else "ok"

let fmt_q xs =
  let q1, med, q3 = Sample.quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3

let compare_workload w base change =
  let side runs = List.filter (fun r -> r.workload = w) runs in
  let base = side base and change = side change in
  let pick traced runs = List.filter (fun r -> r.traced = traced) runs in
  let pooled runs =
    let a = List.fold_left (fun n r -> n + r.attempted) 0 runs
    and f = List.fold_left (fun n r -> n + r.failed) 0 runs in
    (a, f)
  in
  let ba, bf = pooled base and ca, cf = pooled change in
  Printf.printf "== %s: base %d runs (%d/%d failed), change %d runs (%d/%d failed)\n" w
    (List.length base) bf ba (List.length change) cf ca;
  if base = [] || change = [] then print_endline "   (missing on one side)"
  else begin
    if cf * max 1 ba > bf * max 1 ca then begin
      regressed := true;
      print_endline "   failed operations: regressed"
    end;
    Printf.printf "   %-34s %-6s %-30s %-30s %8s %s\n" "metric" "unit" "base median [q1, q3]"
      "change median [q1, q3]" "delta" "verdict";
    let names =
      List.sort_uniq compare
        (List.concat_map (fun r -> List.map (fun (m, _) -> (not m.e2e, m.name)) r.values) base)
    in
    List.iter
      (fun (per_layer, name) ->
        let source runs =
          if per_layer && pick true runs <> [] then pick true runs else pick false runs
        in
        match (values (source base) name, values (source change) name) with
        | [], _ | _, [] -> ()
        | ((m, _) :: _ as b), c ->
            let b = List.map snd b and c = List.map snd c in
            let _, mb, _ = Sample.quartiles b and _, mc, _ = Sample.quartiles c in
            Printf.printf "   %-34s %-6s %-30s %-30s %8s %s\n" name m.unit_ (fmt_q b)
              (fmt_q c)
              (if mb = 0.0 then "-"
               else Printf.sprintf "%+.1f%%" (100.0 *. (mc -. mb) /. Float.abs mb))
              (if name = "failed_ops_ratio" then "-" else verdict m b c))
      names
  end

let () =
  match Sys.argv with
  | [| _; base_dir; change_dir |] ->
      let base = read_dir base_dir and change = read_dir change_dir in
      if base = [] || change = [] then begin
        prerr_endline "compare: no ledger/1 runs found";
        exit 2
      end;
      List.iter
        (fun w -> compare_workload w base change)
        (List.sort_uniq compare (List.map (fun r -> r.workload) (base @ change)));
      if !regressed then exit 1
  | _ ->
      prerr_endline "usage: compare.exe BASE_DIR CHANGE_DIR";
      exit 2
