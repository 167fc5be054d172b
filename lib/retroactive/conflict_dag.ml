type edge = int * int

type t = {
  nodes : int array; (* ascending node ids; position = dense index *)
  preds : int array array;
      (* [preds.(p)]: the positions [p] must run after, ascending, distinct
         and all below [p] *)
}

let of_preds ~nodes preds =
  let n = Array.length nodes in
  if Array.length preds <> n then invalid_arg "Conflict_dag.of_preds: arity";
  for p = 1 to n - 1 do
    if nodes.(p - 1) >= nodes.(p) then
      invalid_arg "Conflict_dag: nodes not ascending"
  done;
  let preds =
    Array.mapi
      (fun p ds ->
        Array.iter
          (fun d ->
            if d < 0 || d >= p then
              invalid_arg "Conflict_dag: edge not pointing backwards")
          ds;
        Array.of_list (List.sort_uniq Int.compare (Array.to_list ds)))
      preds
  in
  { nodes; preds }

let build ~nodes ~edges =
  let nodes = Array.of_list nodes in
  let pos = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun p id -> Hashtbl.replace pos id p) nodes;
  let preds = Array.make (Array.length nodes) [] in
  List.iter
    (fun (later, earlier) ->
      match (Hashtbl.find_opt pos later, Hashtbl.find_opt pos earlier) with
      | Some l, Some e -> preds.(l) <- e :: preds.(l)
      | _ -> invalid_arg "Conflict_dag.build: edge endpoint is not a node")
    edges;
  of_preds ~nodes (Array.map Array.of_list preds)

let edge_count t = Array.fold_left (fun acc ds -> acc + Array.length ds) 0 t.preds

let edges t =
  let acc = ref [] in
  for p = Array.length t.nodes - 1 downto 0 do
    for k = Array.length t.preds.(p) - 1 downto 0 do
      acc := (t.nodes.(p), t.nodes.(t.preds.(p).(k))) :: !acc
    done
  done;
  !acc

let waves t =
  let n = Array.length t.nodes in
  if n = 0 then []
  else begin
    (* every dependency sits at a lower position, so one forward scan
       sees its wave before its dependents *)
    let wave_of = Array.make n 0 in
    for p = 0 to n - 1 do
      Array.iter
        (fun d ->
          if wave_of.(d) + 1 > wave_of.(p) then wave_of.(p) <- wave_of.(d) + 1)
        t.preds.(p)
    done;
    let max_wave = Array.fold_left max 0 wave_of in
    let buckets = Array.make (max_wave + 1) [] in
    for p = n - 1 downto 0 do
      buckets.(wave_of.(p)) <- t.nodes.(p) :: buckets.(wave_of.(p))
    done;
    Array.to_list buckets
  end

let wave_count t = List.length (waves t)

(* Ascending position order is a topological order, so both passes are
   single forward scans. *)
let makespan t ~weight ~workers =
  let n = Array.length t.nodes in
  if n = 0 then 0.0
  else begin
    let weights = Array.map weight t.nodes in
    let ready finish p =
      Array.fold_left (fun acc d -> Float.max acc finish.(d)) 0.0 t.preds.(p)
    in
    (* earliest finish ignoring worker limits: the critical path *)
    let finish = Array.make n 0.0 in
    for p = 0 to n - 1 do
      finish.(p) <- ready finish p +. weights.(p)
    done;
    if workers >= n then Array.fold_left Float.max 0.0 finish
    else begin
      (* greedy list scheduling: each node starts at the later of its
         dependencies' finish and the earliest free lane *)
      let lanes = Array.make (max workers 1) 0.0 in
      for p = 0 to n - 1 do
        let best = ref 0 in
        for l = 1 to Array.length lanes - 1 do
          if lanes.(l) < lanes.(!best) then best := l
        done;
        let fin = Float.max (ready finish p) lanes.(!best) +. weights.(p) in
        lanes.(!best) <- fin;
        finish.(p) <- fin
      done;
      Array.fold_left Float.max 0.0 lanes
    end
  end
