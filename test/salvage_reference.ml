(* The line-by-line decoder that [Log_io.salvage] replaced: one forward
   pass that builds each record as it goes, unescaping every payload,
   deserialising every N value and folding each body line into the
   record's CRC on its own. [Log_io.salvage] followed by
   [Log_io.records] must give exactly what this gives: the same records
   and the same diagnosis, reason text included. *)

open Uv_db

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let header_v1 = "ULOGv1"
let header_v2 = "ULOGv2"

let unescape_sub s off len =
  let stop = off + len in
  let rec plain i = i >= stop || (s.[i] <> '\\' && plain (i + 1)) in
  if plain off then String.sub s off len
  else begin
    let buf = Buffer.create len in
    let i = ref off in
    while !i < stop do
      (match s.[!i] with
      | '\\' ->
          if !i + 1 >= stop then corrupt "dangling escape";
          (match s.[!i + 1] with
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | c -> corrupt "unknown escape \\%c" c);
          incr i
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf
  end

let salvage text : Log_io.record list * Log_io.diagnosis =
  let n = String.length text in
  let pos = ref 0 in
  (* next non-empty line as (offset, length); skips blank lines *)
  let rec next_line () =
    if !pos >= n then None
    else begin
      let start = !pos in
      let nl =
        match String.index_from_opt text start '\n' with
        | Some i -> i
        | None -> n
      in
      pos := (if nl < n then nl + 1 else n);
      if nl = start then next_line () else Some (start, nl - start)
    end
  in
  let fail_at off reason version records =
    ( List.rev records,
      {
        Log_io.version;
        total_bytes = n;
        valid_records = List.length records;
        cut_at = Some off;
        reason = Some reason;
      } )
  in
  let header = Option.map (fun (off, len) -> (String.sub text off len, off)) in
  match header (next_line ()) with
  | None -> fail_at 0 "empty file" 0 []
  | Some (h, off) when h <> header_v1 && h <> header_v2 ->
      fail_at off
        (Printf.sprintf "bad header %S (want %S or %S)" h header_v1 header_v2)
        0 []
  | Some (h, _) -> (
      let version = if String.equal h header_v2 then 2 else 1 in
      let records = ref [] in
      let outcome = ref None in
      let line off len = String.sub text off len in
      let payload off len =
        if len < 2 then corrupt "short line %S" (line off len)
        else unescape_sub text (off + 2) (len - 2)
      in
      (* parse one record starting at the current position, appending it
         to [records], or raise [Corrupt reason] *)
      let parse_record first_line =
        (* CRC-32 of the body: each Q/N/A line with its newline *)
        let body_crc = ref 0 in
        let add_to_body off len =
          body_crc :=
            Uv_util.Crc32.update (Uv_util.Crc32.update_sub !body_crc text off len) "\n"
        in
        let sql = ref None and nondet = ref [] and tag = ref None in
        let crc_ok = ref (version = 1) in
        let rec step (off, len) =
          match text.[off] with
          | 'Q' ->
              if Option.is_some !sql then corrupt "Q line inside an open record";
              sql := Some (payload off len);
              add_to_body off len;
              continue_ ()
          | 'N' ->
              if Option.is_none !sql then corrupt "N line outside a record";
              let v =
                try Uv_sql.Value.deserialize (payload off len)
                with Failure m -> corrupt "bad value: %s" m
              in
              nondet := v :: !nondet;
              add_to_body off len;
              continue_ ()
          | 'A' ->
              if Option.is_none !sql then corrupt "A line outside a record";
              tag := Some (payload off len);
              add_to_body off len;
              continue_ ()
          | 'C' ->
              if Option.is_none !sql then corrupt "C line outside a record";
              if version = 1 then corrupt "checksum line in a v1 log";
              if len < 2 then corrupt "short line %S" (line off len);
              (match Uv_util.Crc32.of_hex_sub text (off + 2) (len - 2) with
              | None -> corrupt "malformed checksum %S" (line off len)
              | Some c ->
                  if c <> !body_crc then
                    corrupt "checksum mismatch (stored %s, computed %s)"
                      (Uv_util.Crc32.to_hex c)
                      (Uv_util.Crc32.to_hex !body_crc);
                  crc_ok := true);
              continue_ ()
          | 'E' ->
              if Option.is_none !sql then corrupt "record end without a Q line";
              if not !crc_ok then corrupt "record without a checksum";
              records :=
                {
                  Log_io.r_sql = Option.get !sql;
                  r_nondet = List.rev !nondet;
                  r_app_txn = !tag;
                }
                :: !records
          | c -> corrupt "unknown line tag %C" c
        and continue_ () =
          match next_line () with
          | None -> corrupt "truncated final record"
          | Some l -> step l
        in
        step first_line
      in
      let rec loop () =
        let rec_start = !pos in
        match next_line () with
        | None -> () (* clean end of file *)
        | Some first -> (
            match parse_record first with
            | () -> loop ()
            | exception Corrupt reason -> outcome := Some (rec_start, reason))
      in
      loop ();
      match !outcome with
      | None ->
          ( List.rev !records,
            {
              Log_io.version;
              total_bytes = n;
              valid_records = List.length !records;
              cut_at = None;
              reason = None;
            } )
      | Some (off, reason) -> fail_at off reason version !records)
