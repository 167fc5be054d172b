(* The per-record rollback that [Log.undo_entries] folds: every undo
   record applied on its own, newest first, with one storage read and one
   write per record. The folded rollback must leave the catalog exactly
   as this leaves it: table hashes, row digests, scan order, index
   postings, [next_rowid] and AUTO_INCREMENT counters. *)

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
      | Log.U_auto_value (table, v) -> (
          match Catalog.table cat table with
          | Some tbl -> Storage.set_auto_value tbl v
          | None -> ()))
    undos

(* [journals] newest entry first, like [Log.undo_entries]. *)
let undo_entries cat journals = List.iter (apply cat) journals
