type t = {
  (* per table: arrays of change points (ascending commit index) *)
  changes : (string, (int * int64) array) Hashtbl.t;
  initial : (string, int64) Hashtbl.t;
}

let of_log ?(initial = []) log =
  let acc : (string, (int * int64) list) Hashtbl.t = Hashtbl.create 32 in
  Uv_db.Log.iter log (fun e ->
      List.iter
        (fun (table, h) ->
          let prev = Option.value (Hashtbl.find_opt acc table) ~default:[] in
          Hashtbl.replace acc table ((e.Uv_db.Log.index, h) :: prev))
        e.Uv_db.Log.written_hashes);
  let changes = Hashtbl.create 32 in
  Hashtbl.iter
    (fun table lst -> Hashtbl.replace changes table (Array.of_list (List.rev lst)))
    acc;
  let init_tbl = Hashtbl.create 8 in
  List.iter (fun (table, h) -> Hashtbl.replace init_tbl table h) initial;
  { changes; initial = init_tbl }

let initial_hash t table =
  Option.value (Hashtbl.find_opt t.initial table) ~default:0L

let hash_at t ~table ~index =
  match Hashtbl.find_opt t.changes table with
  | None -> initial_hash t table
  | Some arr ->
      (* binary search: last change point with commit index <= index *)
      let lo = ref 0 and hi = ref (Array.length arr - 1) and best = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let ci, _ = arr.(mid) in
        if ci <= index then begin
          best := mid;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      if !best < 0 then initial_hash t table else snd arr.(!best)

let delta t ~table ~index =
  let after = hash_at t ~table ~index in
  let before = hash_at t ~table ~index:(index - 1) in
  Uv_util.Table_hash.sub_mod after before

type expectations = {
  mutated_tables : string list;
  (* expected.(k).(ti) = expected hash of mutated table ti after replaying
     member position k *)
  expected : int64 array array;
}

let expectations t ~final ~mutated ~members =
  let nt = List.length mutated in
  let nm = List.length members in
  let final_of table =
    Option.value (List.assoc_opt table final) ~default:0L
  in
  let expected = Array.make_matrix (max nm 1) nt 0L in
  (* reverse scan accumulating future deltas *)
  let acc = Array.of_list (List.map final_of mutated) in
  let member_arr = Array.of_list members in
  for k = nm - 1 downto 0 do
    Array.blit acc 0 expected.(k) 0 nt;
    (* member k's delta becomes "future" for position k-1 *)
    List.iteri
      (fun ti table ->
        acc.(ti) <-
          Uv_util.Table_hash.sub_mod acc.(ti)
            (delta t ~table ~index:member_arr.(k)))
      mutated
  done;
  { mutated_tables = mutated; expected }

let converged exp cat ~member_pos =
  member_pos < Array.length exp.expected
  && List.for_all
       (fun (ti, table) ->
         let current =
           match Uv_db.Catalog.table cat table with
           | Some tbl -> Uv_db.Storage.hash tbl
           | None -> 0L
         in
         Int64.equal current exp.expected.(member_pos).(ti))
       (List.mapi (fun i tbl -> (i, tbl)) exp.mutated_tables)
