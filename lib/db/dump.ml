open Uv_sql

(* Multi-row INSERTs are chunked so no single statement grows unbounded. *)
let rows_per_insert = 100

let create_table_stmt tbl =
  let sch = Storage.schema tbl in
  Ast.Create_table
    { name = sch.Schema.tbl_name; columns = sch.Schema.tbl_columns; if_not_exists = false }

let insert_stmts tbl =
  let sch = Storage.schema tbl in
  let name = sch.Schema.tbl_name in
  let rows =
    List.sort (fun (a, _) (b, _) -> compare a b) (Storage.to_rows tbl)
  in
  let rec chunk acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | (_, row) :: rest ->
        let r = List.map (fun v -> Ast.Lit v) (Array.to_list row) in
        if k + 1 >= rows_per_insert then
          chunk (List.rev (r :: current) :: acc) [] 0 rest
        else chunk acc (r :: current) (k + 1) rest
  in
  List.map
    (fun values -> Ast.Insert { table = name; columns = None; values })
    (chunk [] [] 0 rows)

let to_sql cat =
  let buf = Buffer.create 4096 in
  let emit stmt =
    Buffer.add_string buf (Printer.stmt stmt);
    Buffer.add_string buf ";\n"
  in
  let by_name cmp_of = List.sort (fun a b -> compare (cmp_of a) (cmp_of b)) in
  Buffer.add_string buf "-- ultraverse dump\n";
  (* tables, then their rows *)
  let tables = by_name fst (Catalog.tables cat) in
  List.iter (fun (_, tbl) -> emit (create_table_stmt tbl)) tables;
  List.iter (fun (_, tbl) -> List.iter emit (insert_stmts tbl)) tables;
  (* pin AUTO_INCREMENT counters: re-deriving them from the rows is wrong
     when the row holding the highest key was deleted before the dump *)
  List.iter
    (fun (name, tbl) ->
      match Schema.auto_increment_column (Storage.schema tbl) with
      | Some _ ->
          emit
            (Ast.Alter_table
               (name, Ast.Set_auto_increment (Storage.next_auto_value tbl)))
      | None -> ())
    tables;
  (* secondary indexes *)
  List.iter
    (fun (name, (table, columns)) ->
      emit (Ast.Create_index { name; table; columns }))
    (by_name fst (Catalog.indexes cat));
  (* views *)
  List.iter
    (fun name ->
      match Catalog.view cat name with
      | Some query -> emit (Ast.Create_view { name; query; or_replace = false })
      | None -> ())
    (List.sort compare (Catalog.view_names cat));
  (* procedures *)
  List.iter
    (fun name ->
      match Catalog.procedure cat name with
      | Some (p : Catalog.procedure) ->
          emit
            (Ast.Create_procedure
               {
                 name = p.Catalog.proc_name;
                 params = p.Catalog.proc_params;
                 label = p.Catalog.proc_label;
                 body = p.Catalog.proc_body;
               })
      | None -> ())
    (List.sort compare (Catalog.procedure_names cat));
  (* triggers: enumerate per table and event, dedup by name *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (tname, _) ->
      List.iter
        (fun ev ->
          List.iter
            (fun (tr : Catalog.trigger) ->
              if not (Hashtbl.mem seen tr.Catalog.trig_name) then begin
                Hashtbl.replace seen tr.Catalog.trig_name ();
                emit
                  (Ast.Create_trigger
                     {
                       name = tr.Catalog.trig_name;
                       timing = tr.Catalog.trig_timing;
                       event = tr.Catalog.trig_event;
                       table = tr.Catalog.trig_table;
                       body = tr.Catalog.trig_body;
                     })
              end)
            (Catalog.triggers_for cat tname ev))
        [ Ast.Ev_insert; Ast.Ev_update; Ast.Ev_delete ])
    tables;
  Buffer.contents buf

let restore eng script =
  List.iter
    (fun stmt -> ignore (Engine.exec eng stmt))
    (Parser.parse_script script)

(* ------------------------------------------------------------------ *)
(* Checkpoint-ladder persistence (UCKPv1)                               *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* UCKPv1 <rung count>
   R <commit index> <payload bytes> <crc32 hex>
   <payload: the rung catalog rendered by to_sql, length-delimited>
   ... ascending by commit index. Payloads are length-delimited raw
   bytes, so no escaping is needed; the CRC line makes a torn or
   bit-flipped rung detectable before it is restored. *)
let print_checkpoints ladder =
  let buf = Buffer.create 4096 in
  let rungs =
    List.sort (fun (a, _) (b, _) -> compare a b) (Checkpoint.rungs ladder)
  in
  Buffer.add_string buf (Printf.sprintf "UCKPv1 %d\n" (List.length rungs));
  List.iter
    (fun (at, cat) ->
      let payload = to_sql cat in
      let crc = Uv_util.Crc32.(to_hex (digest payload)) in
      Buffer.add_string buf
        (Printf.sprintf "R %d %d %s\n" at (String.length payload) crc);
      Buffer.add_string buf payload;
      Buffer.add_char buf '\n')
    rungs;
  Buffer.contents buf

let parse_checkpoints data =
  let len = String.length data in
  let line_end pos =
    match String.index_from_opt data pos '\n' with
    | Some e -> e
    | None -> corrupt "unterminated line at byte %d" pos
  in
  let pos = ref 0 in
  let next_line () =
    if !pos >= len then corrupt "unexpected end of file";
    let e = line_end !pos in
    let l = String.sub data !pos (e - !pos) in
    pos := e + 1;
    l
  in
  let header = next_line () in
  let count =
    match String.split_on_char ' ' header with
    | [ "UCKPv1"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> n
        | _ -> corrupt "bad rung count %S" n)
    | _ -> corrupt "bad header %S" header
  in
  let rungs = ref [] in
  for _ = 1 to count do
    let hdr = next_line () in
    let at, bytes, crc =
      match String.split_on_char ' ' hdr with
      | [ "R"; at; bytes; crc ] -> (
          match (int_of_string_opt at, int_of_string_opt bytes) with
          | Some a, Some b when a > 0 && b >= 0 -> (a, b, crc)
          | _ -> corrupt "bad rung header %S" hdr)
      | _ -> corrupt "bad rung header %S" hdr
    in
    if !pos + bytes + 1 > len then corrupt "rung at %d truncated" at;
    let payload = String.sub data !pos bytes in
    pos := !pos + bytes + 1;
    (match Uv_util.Crc32.of_hex crc with
    | Some expect when expect = Uv_util.Crc32.digest payload -> ()
    | _ -> corrupt "rung at %d fails its checksum" at);
    let eng = Engine.create () in
    (try restore eng payload
     with Engine.Sql_error msg -> corrupt "rung at %d: %s" at msg);
    rungs := (at, Engine.catalog eng) :: !rungs
  done;
  List.rev !rungs
