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
        if Array.length ds > 1 then Array.sort Int.compare ds;
        (* keep the first of each run of equal positions *)
        let m = ref 0 in
        Array.iter
          (fun d ->
            if !m = 0 || ds.(!m - 1) <> d then begin
              ds.(!m) <- d;
              incr m
            end)
          ds;
        if !m = Array.length ds then ds else Array.sub ds 0 !m)
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

(* Cell state lives in flat int arrays, reused across questions and
   stamped per question ([stamp]):
   - group [g] at [6g]: stamp, last wildcard writer, generation (its
     wildcard writes so far), wildcard readers since (a node list) and
     their count, keyed cells touched since (a list through cell field 6);
   - key [k] at [2k]: stamp, its cells (a list through cell field 1);
   - a cell at [7c]: group, next cell of the key, last writer since the
     generation's wildcard write ([-1]: none), generation, readers since
     (a node list), wildcard readers the writer covered, next touched
     cell of the group;
   - a node at [2j]: member, next node.
   Cells and nodes are handed out afresh each question. [seen.(q)] holds
   [base + p] once member [p] emitted [q]. *)
module Cells = struct
  type t = {
    mutable stamp : int;
    mutable groups : int array;
    mutable keys : int array;
    mutable cells : int array;
    mutable ncells : int;
    mutable nodes : int array;
    mutable nnodes : int;
    mutable seen : int array;
    mutable base : int;
    mutable out : int array;
    mutable nout : int;
    mutable visits : int;
  }

  let create () =
    {
      stamp = 0;
      groups = [||];
      keys = [||];
      cells = [||];
      ncells = 0;
      nodes = [||];
      nnodes = 0;
      seen = [||];
      base = 0;
      out = Array.make 64 0;
      nout = 0;
      visits = 0;
    }

  let sized a n fill =
    if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) fill

  (* [a], its first [len] slots kept, with room for [len + more] *)
  let grow a len more =
    if len + more <= Array.length a then a
    else begin
      let b = Array.make (max (len + more) (2 * len)) 0 in
      Array.blit a 0 b 0 len;
      b
    end

  let start t ~nodes ~groups ~keys =
    t.stamp <- t.stamp + 1;
    t.groups <- sized t.groups (6 * groups) 0;
    t.keys <- sized t.keys (2 * keys) 0;
    t.seen <- sized t.seen nodes (-1);
    t.base <- t.base + Array.length t.seen;
    t.ncells <- 0;
    t.nnodes <- 0;
    t.nout <- 0;
    t.visits <- 0

  let emit t p q =
    if q >= 0 && q <> p && t.seen.(q) <> t.base + p then begin
      t.seen.(q) <- t.base + p;
      t.out <- grow t.out t.nout 1;
      t.out.(t.nout) <- q;
      t.nout <- t.nout + 1
    end

  (* group [gb]'s wildcard state after a write by [writer]: no reader
     or touched cell since *)
  let wild_write t gb ~writer ~gen =
    let gs = t.groups in
    gs.(gb + 1) <- writer;
    gs.(gb + 2) <- gen;
    gs.(gb + 3) <- -1;
    gs.(gb + 4) <- 0;
    gs.(gb + 5) <- -1

  (* [g]'s state, reset at its first access of the question *)
  let group t g =
    let b = 6 * g in
    if t.groups.(b) <> t.stamp then begin
      t.groups.(b) <- t.stamp;
      wild_write t b ~writer:(-1) ~gen:0
    end;
    b

  (* the cell of group [g] on the key list from [c], or -1 *)
  let rec find_cell cells g c =
    if c < 0 || cells.(c) = g then c else find_cell cells g cells.(c + 1)

  (* cell ([g], [key]), [key > 0], current in [g]'s generation: a cell
     last touched before the group's latest wildcard write starts over *)
  let cell t gb g key =
    let kb = 2 * key in
    if t.keys.(kb) <> t.stamp then begin
      t.keys.(kb) <- t.stamp;
      t.keys.(kb + 1) <- -1
    end;
    let c =
      match find_cell t.cells g t.keys.(kb + 1) with
      | -1 ->
          let c = 7 * t.ncells in
          t.cells <- grow t.cells c 7;
          t.ncells <- t.ncells + 1;
          t.cells.(c) <- g;
          t.cells.(c + 1) <- t.keys.(kb + 1);
          t.cells.(c + 3) <- -1;
          t.keys.(kb + 1) <- c;
          c
      | c -> c
    in
    let gs = t.groups in
    if t.cells.(c + 3) <> gs.(gb + 2) then begin
      t.cells.(c + 2) <- -1;
      t.cells.(c + 3) <- gs.(gb + 2);
      t.cells.(c + 4) <- -1;
      t.cells.(c + 5) <- 0;
      t.cells.(c + 6) <- gs.(gb + 5);
      gs.(gb + 5) <- c
    end;
    c

  let push_node t p head =
    let j = 2 * t.nnodes in
    t.nodes <- grow t.nodes j 2;
    t.nnodes <- t.nnodes + 1;
    t.nodes.(j) <- p;
    t.nodes.(j + 1) <- head;
    j

  (* emit the members of the first [k] nodes from [j] on *)
  let rec emit_nodes t p j k =
    if j >= 0 && k > 0 then begin
      t.visits <- t.visits + 1;
      emit t p t.nodes.(j);
      emit_nodes t p t.nodes.(j + 1) (k - 1)
    end

  (* the writers, and with [readers] the readers, of the touched cells
     from [c] on *)
  let rec emit_touched t p c ~readers =
    if c >= 0 then begin
      t.visits <- t.visits + 1;
      emit t p t.cells.(c + 2);
      if readers then emit_nodes t p t.cells.(c + 4) max_int;
      emit_touched t p t.cells.(c + 6) ~readers
    end

  let access t p ~write ~group:g ~key =
    let gb = group t g in
    let gs = t.groups in
    t.visits <- t.visits + 1;
    if key = 0 then begin
      emit t p gs.(gb + 1);
      emit_touched t p gs.(gb + 5) ~readers:write;
      if write then begin
        emit_nodes t p gs.(gb + 3) max_int;
        wild_write t gb ~writer:p ~gen:(gs.(gb + 2) + 1)
      end
      else begin
        gs.(gb + 3) <- push_node t p gs.(gb + 3);
        gs.(gb + 4) <- gs.(gb + 4) + 1
      end
    end
    else begin
      let c = cell t gb g key in
      let cs = t.cells in
      emit t p (if cs.(c + 2) >= 0 then cs.(c + 2) else gs.(gb + 1));
      if write then begin
        emit_nodes t p cs.(c + 4) max_int;
        emit_nodes t p gs.(gb + 3) (gs.(gb + 4) - cs.(c + 5));
        cs.(c + 2) <- p;
        cs.(c + 4) <- -1;
        cs.(c + 5) <- gs.(gb + 4)
      end
      else cs.(c + 4) <- push_node t p cs.(c + 4)
    end

  let take t =
    let r = Array.sub t.out 0 t.nout in
    t.nout <- 0;
    r

  let visits t = t.visits
end
