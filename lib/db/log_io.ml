type record = {
  r_sql : string;
  r_nondet : Uv_sql.Value.t list;
  r_app_txn : string option;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let header_v1 = "ULOGv1"
let header_v2 = "ULOGv2"

(* ------------------------------------------------------------------ *)
(* Escaping                                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Unescape the [len] bytes of [s] at [off]; an escape-free range is one
   substring. *)
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

let unescape s = unescape_sub s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let records_of_log log =
  List.map
    (fun (e : Log.entry) ->
      { r_sql = e.Log.sql; r_nondet = e.Log.nondet; r_app_txn = e.Log.app_txn })
    (Log.entries log)

(* A record's body: the Q/N/A lines, newlines included — exactly the
   bytes the C line's CRC-32 covers. *)
let record_body r =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("Q " ^ escape r.r_sql ^ "\n");
  List.iter
    (fun v ->
      Buffer.add_string buf ("N " ^ escape (Uv_sql.Value.serialize v) ^ "\n"))
    r.r_nondet;
  (match r.r_app_txn with
  | Some tag -> Buffer.add_string buf ("A " ^ escape tag ^ "\n")
  | None -> ());
  Buffer.contents buf

let print records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header_v2;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      let body = record_body r in
      Buffer.add_string buf body;
      Buffer.add_string buf
        ("C " ^ Uv_util.Crc32.to_hex (Uv_util.Crc32.digest body) ^ "\n");
      Buffer.add_string buf "E\n")
    records;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing & salvage                                                    *)
(* ------------------------------------------------------------------ *)

type diagnosis = {
  version : int;
  total_bytes : int;
  valid_records : int;
  cut_at : int option;
  reason : string option;
}

(* Single forward pass with byte offsets. A record counts only once its
   whole block — Q line through E, checksum verified on v2 — parses; the
   scan stops at the first damaged record, keeping the valid prefix
   (replaying past a damaged record would silently reorder history).
   Lines are worked on in place: a payload is copied once, as the value
   it decodes to, and the body checksum runs over the text itself. *)
let salvage text =
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
        version;
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
      (* parse one record starting at the current position; returns
         [()] appending to [records], or raises [Corrupt reason]. *)
      let line off len = String.sub text off len in
      let payload off len =
        if len < 2 then corrupt "short line %S" (line off len)
        else unescape_sub text (off + 2) (len - 2)
      in
      (* parse one record starting at the current position; returns
         [()] appending to [records], or raises [Corrupt reason]. *)
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
                  r_sql = Option.get !sql;
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
            | exception Corrupt reason ->
                outcome := Some (rec_start, reason))
      in
      loop ();
      match !outcome with
      | None ->
          ( List.rev !records,
            {
              version;
              total_bytes = n;
              valid_records = List.length !records;
              cut_at = None;
              reason = None;
            } )
      | Some (off, reason) -> fail_at off reason version !records)

let parse text =
  let records, diag = salvage text in
  match diag.reason with
  | Some reason ->
      corrupt "%s (at byte %d)" reason
        (Option.value diag.cut_at ~default:diag.total_bytes)
  | None -> records

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

let replay eng records =
  let skipped = ref [] in
  List.iteri
    (fun i r ->
      try
        ignore
          (Engine.exec_sql ?app_txn:r.r_app_txn ~nondet:r.r_nondet eng r.r_sql)
      with Engine.Sql_error _ | Engine.Signal_raised _ ->
        skipped := (i + 1) :: !skipped)
    records;
  List.rev !skipped
