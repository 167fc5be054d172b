(* The per-record rollback that [Log.undo_entries] folds: every undo
   record applied on its own, newest first, with one storage read and one
   write per record. The folded rollback must leave the catalog exactly
   as this leaves it: table hashes, row digests, scan order, index
   postings, [next_rowid] and AUTO_INCREMENT counters.

   Counters follow [Log.undo_counters]' rule, taken here from lists: over
   each run of records between DDL records, a table's counter falls to
   the oldest undone entry's pre-statement value, but stays at or above
   every counter that stood above an inserting entry's keys, which a
   kept entry in between must have drawn. *)

open Uv_sql
open Uv_db

let apply cat undos =
  List.iter
    (fun u ->
      match u with
      | Log.U_row_insert (table, rowid, _) -> (
          match Catalog.table cat table with
          | Some tbl -> ( try ignore (Storage.delete tbl rowid) with Not_found -> ())
          | None -> ())
      | Log.U_row_delete (table, rowid, row) -> (
          match Catalog.table cat table with
          | Some tbl -> Storage.insert_with_rowid tbl rowid row
          | None -> ())
      | Log.U_row_update (table, rowid, before, after) -> (
          match Catalog.table cat table with
          | Some tbl -> (
              match Storage.get tbl rowid with
              | None -> ()
              | Some current ->
                  let fresh = Array.copy current in
                  for i = 0 to Array.length current - 1 do
                    if
                      i < Array.length before
                      && i < Array.length after
                      && not (Value.equal before.(i) after.(i))
                    then fresh.(i) <- before.(i)
                  done;
                  ignore (Storage.update tbl rowid fresh))
          | None -> ())
      | Log.U_table_def (name, prior) -> (
          Catalog.remove_table cat name;
          match prior with
          | Some tbl -> Catalog.add_table cat (Storage.copy tbl)
          | None -> ())
      | Log.U_view_def (name, prior) -> (
          Catalog.remove_view cat name;
          match prior with Some v -> Catalog.add_view cat name v | None -> ())
      | Log.U_proc_def (name, prior) -> (
          Catalog.remove_procedure cat name;
          match prior with Some p -> Catalog.add_procedure cat p | None -> ())
      | Log.U_trigger_def (name, prior) -> (
          Catalog.remove_trigger cat name;
          match prior with Some tr -> Catalog.add_trigger cat tr | None -> ())
      | Log.U_index_def (name, prior) -> (
          Catalog.remove_index cat name;
          match prior with Some i -> Catalog.add_index cat name i | None -> ())
      | Log.U_auto_value _ -> ())
    undos

(* One undone entry's records on a table: its oldest counter record,
   whether it inserted a row with a key, and the counter it left. *)
let entry_counter tbl records =
  let key row =
    match Schema.auto_increment_column (Storage.schema tbl) with
    | None -> None
    | Some c -> (
        match Storage.column_index tbl c with
        | Some i when i < Array.length row && not (Value.is_null row.(i)) ->
            Some (Value.to_int row.(i))
        | _ -> None)
  in
  let values =
    List.filter_map
      (function Log.U_auto_value (_, v) -> Some v | _ -> None)
      records
  and keys =
    List.filter_map
      (function Log.U_row_insert (_, _, row) -> key row | _ -> None)
      records
  in
  match List.rev values with
  | [] -> None
  | pre :: _ ->
      Some
        ( pre,
          keys <> [],
          List.fold_left max 0 (values @ List.map (fun k -> k + 1) keys) )

(* Set every table's counter from [run], the (journal, record) pairs
   between two DDL records, newest first. *)
let set_counters cat run =
  List.iter
    (fun (name, tbl) ->
      let mine =
        List.filter
          (fun (_, u) ->
            match u with
            | Log.U_auto_value (t, _) | Log.U_row_insert (t, _, _) -> t = name
            | _ -> false)
          run
      in
      let journals = List.sort_uniq compare (List.map fst mine) in
      let entries =
        List.filter_map
          (fun j ->
            entry_counter tbl
              (List.filter_map
                 (fun (k, u) -> if k = j then Some u else None)
                 mine))
          journals
      in
      if entries <> [] then begin
        let above, keep =
          List.fold_left
            (fun (above, keep) (pre, inserted, post) ->
              (pre, if inserted && above > post then max keep above else keep))
            (Storage.next_auto_value tbl, 0)
            entries
        in
        Storage.set_auto_value tbl (max above keep)
      end)
    (Catalog.tables cat)

let is_ddl = function
  | Log.U_table_def _ | Log.U_view_def _ | Log.U_proc_def _
  | Log.U_trigger_def _ | Log.U_index_def _ ->
      true
  | _ -> false

(* [journals] newest entry first, like [Log.undo_entries]. *)
let undo_entries cat journals =
  let records =
    List.concat
      (List.mapi (fun j undos -> List.map (fun u -> (j, u)) undos) journals)
  in
  let rec go run = function
    | [] -> set_counters cat (List.rev run)
    | (_, u) :: rest when is_ddl u ->
        set_counters cat (List.rev run);
        apply cat [ u ];
        go [] rest
    | (j, u) :: rest ->
        apply cat [ u ];
        go ((j, u) :: run) rest
  in
  go [] records
