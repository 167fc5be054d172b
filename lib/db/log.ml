open Uv_sql

type undo =
  | U_row_insert of string * int * Value.t array
  | U_row_delete of string * int * Value.t array
  | U_row_update of string * int * Value.t array * Value.t array
  | U_table_def of string * Storage.t option
  | U_view_def of string * Ast.select option
  | U_proc_def of string * Catalog.procedure option
  | U_trigger_def of string * Catalog.trigger option
  | U_index_def of string * (string * string list) option
  | U_auto_value of string * int

type entry = {
  index : int;
  stmt : Ast.stmt;
  sql : string;
  nondet : Value.t list;
  rows_written : int;
  written_hashes : (string * int64) list;
  undo : undo list;
  app_txn : string option;
}

(* A DDL record's inverse, applied as is: the fold below flushes its
   pending rows first and forgets its table handles after. *)
let apply_ddl cat = function
  | U_table_def (name, prior) -> (
      Catalog.remove_table cat name;
      match prior with
      | Some tbl -> Catalog.add_table cat (Storage.copy tbl)
      | None -> ())
  | U_view_def (name, prior) -> (
      Catalog.remove_view cat name;
      match prior with Some v -> Catalog.add_view cat name v | None -> ())
  | U_proc_def (name, prior) -> (
      Catalog.remove_procedure cat name;
      match prior with Some p -> Catalog.add_procedure cat p | None -> ())
  | U_trigger_def (name, prior) -> (
      Catalog.remove_trigger cat name;
      match prior with Some tr -> Catalog.add_trigger cat tr | None -> ())
  | U_index_def (name, prior) -> (
      Catalog.remove_index cat name;
      match prior with Some i -> Catalog.add_index cat name i | None -> ())
  | U_row_insert _ | U_row_delete _ | U_row_update _ | U_auto_value _ -> ()

type undo_stats = { undo_records : int; rows_restored : int }

(* One row during the fold: the image the storage holds ([None]:
   absent) and the one the records walked so far leave. [owned] marks
   [now] as the fold's own copy, patched in place. *)
type pending_row = {
  stored : Value.t array option;
  mutable now : Value.t array option;
  mutable owned : bool;
}

(* One table's AUTO_INCREMENT counter as rollback walks the undone
   entries, newest first ({!undo_counters}). [above] is the counter just
   above the entry being walked: the live counter, then each walked
   entry's pre-statement value (its oldest counter record). That entry
   left the counter at [post], past its own keys; where [above] stands
   higher, a kept entry in between drew a key, and [keep] holds the
   counter above it. An entry that records a counter but inserts no row
   (an [ALTER TABLE … AUTO_INCREMENT] pin) has no known [post]. *)
type counter = {
  auto_col : int option;  (* the AUTO_INCREMENT column's position *)
  mutable above : int;
  mutable keep : int;
  mutable entry : int;  (* the journal [pre] and [post] are of, or -1 *)
  mutable pre : int;  (* [max_int] until the entry's counter record *)
  mutable post : int;
  mutable inserted : bool;
  mutable moved : bool;  (* some entry recorded a counter *)
}

let counter_of tbl =
  {
    auto_col =
      Option.bind
        (Schema.auto_increment_column (Storage.schema tbl))
        (Storage.column_index tbl);
    above = Storage.next_auto_value tbl;
    keep = 0;
    entry = -1;
    pre = max_int;
    post = 0;
    inserted = false;
    moved = false;
  }

let counter_close c =
  if c.pre <> max_int then begin
    if c.inserted && c.above > c.post then c.keep <- max c.keep c.above;
    c.above <- c.pre;
    c.moved <- true
  end

(* Move [c] to journal [j], closing the entry walked before it. *)
let counter_enter c j =
  if c.entry <> j then begin
    counter_close c;
    c.entry <- j;
    c.pre <- max_int;
    c.post <- 0;
    c.inserted <- false
  end

let counter_record c j v =
  counter_enter c j;
  c.pre <- v;
  c.post <- max c.post v

let counter_insert c j row =
  match c.auto_col with
  | Some i when i < Array.length row && not (Value.is_null row.(i)) ->
      counter_enter c j;
      c.post <- max c.post (Value.to_int row.(i) + 1);
      c.inserted <- true
  | _ -> ()

(* Set the counter rollback leaves, if any undone entry recorded one. *)
let counter_final tbl c =
  counter_close c;
  if c.moved then Storage.set_auto_value tbl (max c.above c.keep)

type pending_table = {
  name : string;
  tbl : Storage.t;
  rows : (int, pending_row) Hashtbl.t;
  mutable floor : int;  (* [next_rowid] as the re-inserts raise it *)
  counter : counter;
}

(* Bitwise, like the storage's own cell comparison: a row is written
   back unless every cell would be stored unchanged. *)
let same_cell a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_image a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a == b || (Array.length a = Array.length b && Array.for_all2 same_cell a b)
  | _ -> false

(* Newest-first selective undo leaves each changed cell at the
   before-image of the oldest undone write to it, each row's existence
   at its oldest undone insert or delete, and each table's counter where
   [counter] leaves it. So the records fold, newest
   first, over a pure per-row state, and each table is written once
   with only the rows whose final image differs from the stored one.
   The hash is a sum of row digests and a row's index postings follow
   its image, so writing first-to-final equals walking every
   intermediate image.

   A re-insert over a row live in the folded state replaces it, as
   [Storage.insert_with_rowid] does, so it folds like any other.

   A DDL record is applied as it comes instead. It may replace table
   handles: every pending row is written first and the handles are read
   again after it. *)
let undo_entries cat journals =
  let records = ref 0 and restored = ref 0 in
  let pending : (string, pending_table) Hashtbl.t = Hashtbl.create 8 in
  (* runs of records on one table are the common case *)
  let last = ref None in
  let table name =
    match !last with
    | Some p as hit when String.equal p.name name -> hit
    | _ ->
        let found =
          match Hashtbl.find_opt pending name with
          | Some _ as p -> p
          | None -> (
              match Catalog.table cat name with
              | None -> None
              | Some tbl ->
                  let p =
                    {
                      name;
                      tbl;
                      rows = Hashtbl.create 16;
                      floor = 0;
                      counter = counter_of tbl;
                    }
                  in
                  Hashtbl.add pending name p;
                  Some p)
        in
        if Option.is_some found then last := found;
        found
  in
  let row p rowid =
    match Hashtbl.find_opt p.rows rowid with
    | Some r -> r
    | None ->
        let img = Storage.get p.tbl rowid in
        let r = { stored = img; now = img; owned = false } in
        Hashtbl.add p.rows rowid r;
        r
  in
  let write p changes =
    if changes <> [] then begin
      Storage.restore_many p.tbl changes;
      restored := !restored + List.length changes
    end
  in
  let flush () =
    Hashtbl.iter
      (fun _ p ->
        write p
          (Hashtbl.fold
             (fun id r acc ->
               if same_image r.stored r.now then acc else (id, r.now) :: acc)
             p.rows []);
        if p.floor > 0 then Storage.set_rowid_floor p.tbl p.floor;
        counter_final p.tbl p.counter)
      pending;
    Hashtbl.reset pending;
    last := None
  in
  let on_row name rowid f =
    match table name with
    | None -> ()
    | Some p -> f p (row p rowid)
  in
  let undo j u =
    incr records;
    match u with
    | U_row_insert (name, rowid, image) ->
        on_row name rowid (fun p r ->
            r.now <- None;
            counter_insert p.counter j image)
    | U_row_delete (name, rowid, image) ->
        on_row name rowid (fun p r ->
            r.now <- Some image;
            r.owned <- false;
            p.floor <- max p.floor (rowid + 1))
    | U_row_update (name, rowid, before, after) ->
        on_row name rowid (fun _ r ->
            match r.now with
            | None -> ()
            | Some img ->
                let img =
                  if r.owned then img
                  else begin
                    let c = Array.copy img in
                    r.now <- Some c;
                    r.owned <- true;
                    c
                  end
                in
                for i = 0 to Array.length img - 1 do
                  if
                    i < Array.length before
                    && i < Array.length after
                    && not (Value.equal before.(i) after.(i))
                  then img.(i) <- before.(i)
                done)
    | U_auto_value (name, v) ->
        Option.iter (fun p -> counter_record p.counter j v) (table name)
    | U_table_def _ | U_view_def _ | U_proc_def _ | U_trigger_def _
    | U_index_def _ ->
        flush ();
        apply_ddl cat u
  in
  List.iteri (fun j -> List.iter (undo j)) journals;
  flush ();
  { undo_records = !records; rows_restored = !restored }

let apply_undo cat undos = ignore (undo_entries cat [ undos ] : undo_stats)

let undo_counters cat journals =
  let counters = Hashtbl.create 8 in
  let counter name =
    match Hashtbl.find_opt counters name with
    | Some _ as c -> c
    | None ->
        Option.map
          (fun tbl ->
            let c = (tbl, counter_of tbl) in
            Hashtbl.add counters name c;
            c)
          (Catalog.table cat name)
  in
  List.iteri
    (fun j ->
      List.iter (function
        | U_auto_value (name, v) ->
            Option.iter (fun (_, c) -> counter_record c j v) (counter name)
        | U_row_insert (name, _, row) ->
            Option.iter (fun (_, c) -> counter_insert c j row) (counter name)
        | _ -> ()))
    journals;
  Hashtbl.iter (fun _ (tbl, c) -> counter_final tbl c) counters

type redone = {
  redo_undo : undo list;
  redo_rows : int;
  redo_deltas : (string * int64) list;
}

(* Re-derive an entry's forward effect from its journal: the row images
   carried for rollback determine the redo exactly, so a statement can be
   reenacted without re-executing its SQL. Member redo ([Redo]) calls
   it for a replay-set member whose reads meet no changed cell. A cell
   the statement assigned may have been changed by the replay, so each
   [assigned] column takes its after-image even when history left it
   unchanged (a blind write). Redo passes the journal ordered as the
   statement's own execution would visit its rows, which sit at their
   historical rowids.

   Each row record reads its before-image from [cat], so the fresh
   journal is the one executing the statement over [cat] would have
   logged, and the per-table hash deltas are those its mutations applied.
   An AUTO_INCREMENT record journals the current counter, and the insert
   after it raises the counter past its key, as [Engine]'s insert does.
   Tables absent from the catalog are skipped like in [undo_entries]; DDL
   records cannot be redone from their before-images and raise. *)

(* An insert after an AUTO_INCREMENT record raises the counter past the
   inserted key. *)
let bump_auto tbl row =
  match Schema.auto_increment_column (Storage.schema tbl) with
  | Some c -> (
      match Storage.column_index tbl c with
      | Some i when i < Array.length row && not (Value.is_null row.(i)) ->
          Storage.bump_auto_value tbl (Value.to_int row.(i))
      | _ -> ())
  | None -> ()

let apply_redo ~assigned cat undos =
  let journal = ref [] and rows = ref 0 and written = ref [] in
  let delta name =
    match List.assoc_opt name !written with
    | Some d -> d
    | None ->
        let d = Uv_util.Table_hash.create () in
        written := (name, d) :: !written;
        d
  in
  let logged u =
    journal := u :: !journal;
    incr rows
  in
  let auto_pending = ref None in
  List.iter
    (fun u ->
      match u with
      | U_row_insert (table, rowid, row) -> (
          match Catalog.table cat table with
          | Some tbl ->
              if !auto_pending = Some table then bump_auto tbl row;
              auto_pending := None;
              Storage.insert_with_rowid ~delta:(delta table) tbl rowid row;
              logged (U_row_insert (table, rowid, row))
          | None -> ())
      | U_row_delete (table, rowid, _) -> (
          match Catalog.table cat table with
          | Some tbl -> (
              match Storage.delete ~delta:(delta table) tbl rowid with
              | row -> logged (U_row_delete (table, rowid, row))
              | exception Not_found -> ())
          | None -> ())
      | U_row_update (table, rowid, before, after) -> (
          match Catalog.table cat table with
          | Some tbl -> (
              let redo current =
                let fresh = Array.copy current in
                for i = 0 to Array.length fresh - 1 do
                  if
                    i < Array.length before
                    && i < Array.length after
                    && ((not (Value.equal before.(i) after.(i)))
                       || List.mem i assigned)
                  then fresh.(i) <- after.(i)
                done;
                fresh
              in
              match Storage.patch ~delta:(delta table) tbl rowid redo with
              | old, fresh -> logged (U_row_update (table, rowid, old, fresh))
              | exception Not_found -> ())
          | None -> ())
      | U_auto_value (table, _) -> (
          match Catalog.table cat table with
          | Some tbl ->
              journal :=
                U_auto_value (table, Storage.next_auto_value tbl) :: !journal;
              auto_pending := Some table
          | None -> ())
      | U_table_def _ | U_view_def _ | U_proc_def _ | U_trigger_def _
      | U_index_def _ ->
          invalid_arg "Log.apply_redo: DDL entries cannot be redone")
    (List.rev undos);
  {
    redo_undo = !journal;
    redo_rows = !rows;
    redo_deltas =
      List.rev_map (fun (n, d) -> (n, Uv_util.Table_hash.value d)) !written;
  }

(* [Engine] journals a counter record before every insert into a table
   with an AUTO_INCREMENT column, so each such insert raises it. *)
let redo_counters cat undos =
  List.iter
    (function
      | U_row_insert (table, rowid, row) ->
          Option.iter
            (fun tbl ->
              bump_auto tbl row;
              Storage.set_rowid_floor tbl (rowid + 1))
            (Catalog.table cat table)
      | _ -> ())
    undos

type t = { mutable items : entry array; mutable len : int }

let create () = { items = [||]; len = 0 }

let append t e =
  if t.len = Array.length t.items then begin
    let cap = max 16 (2 * Array.length t.items) in
    let fresh = Array.make cap e in
    Array.blit t.items 0 fresh 0 t.len;
    t.items <- fresh
  end;
  t.items.(t.len) <- e;
  t.len <- t.len + 1

let length t = t.len

let entry t i =
  if i < 1 || i > t.len then invalid_arg "Log.entry: index out of range";
  t.items.(i - 1)

let entries t = Array.to_list (Array.sub t.items 0 t.len)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.items.(i)
  done

let to_array t = Array.sub t.items 0 t.len

let copy t = { items = Array.copy t.items; len = t.len }

let map f t =
  { items = Array.map f (Array.sub t.items 0 t.len); len = t.len }

let nondet_count e = List.length e.nondet

(* Drop the backing array rather than reuse it: a {!prefix} captured
   before the truncation still shares the old array, and an append into
   it here would overwrite an entry the prefix can still read. *)
let truncate t n =
  if n < t.len then begin
    let n = max 0 n in
    t.items <- (if n = 0 then [||] else Array.sub t.items 0 n);
    t.len <- n
  end

(* Appends only write past [len] (or into a fresh array on growth) and
   [truncate] replaces the array, so the first [len] slots of a captured
   array are never written again. *)
type prefix = { p_items : entry array; p_len : int }

let prefix t = { p_items = t.items; p_len = t.len }

let prefix_length p = p.p_len

let prefix_entry p i =
  if i < 1 || i > p.p_len then
    invalid_arg "Log.prefix_entry: index out of range";
  p.p_items.(i - 1)

(* A MySQL statement-format binlog event: 19-byte common header, 13-byte
   query-event post-header, and ~40 bytes of status variables, database
   name and checksum alongside the statement text. *)
let binlog_bytes e = 19 + 13 + 40 + String.length e.sql

(* Ultraverse's own record: commit index (4), a small R/W-set digest
   (the paper reports 12-110 bytes/query), nondet values, and one 8-byte
   hash per written table. *)
let uv_log_bytes e =
  let nondet = List.fold_left (fun a v -> a + String.length (Value.serialize v)) 0 e.nondet in
  4
  + (8 * List.length e.written_hashes)
  + nondet
  + (match e.app_txn with Some s -> String.length s | None -> 0)
  + 8
