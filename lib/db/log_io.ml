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

(* A payload is kept as its offset in [text] and a length code: its
   length, or [lnot] of it when its line holds a backslash, so that only
   such a payload is unescaped. [Records] serves an unsynced tail. *)
type decoded =
  | Text of {
      text : string;
      count : int;
      recs : int array;
          (* per record, [stride] ints: SQL payload offset and length
             code, tag payload offset ([-1]: no A line) and length code,
             first N line and N line count *)
      nvals : int array;  (* per N line: payload offset and length code *)
    }
  | Records of record array

let stride = 6

let length = function Text d -> d.count | Records a -> Array.length a

let of_records a = Records a

let payload text off code =
  if code >= 0 then String.sub text off code else unescape_sub text off (lnot code)

let sql d k =
  match d with
  | Text d -> payload d.text d.recs.(k * stride) d.recs.((k * stride) + 1)
  | Records a -> a.(k).r_sql

let app_txn d k =
  match d with
  | Text d ->
      let off = d.recs.((k * stride) + 2) in
      if off < 0 then None else Some (payload d.text off d.recs.((k * stride) + 3))
  | Records a -> a.(k).r_app_txn

let nondet_count d k =
  match d with
  | Text d -> d.recs.((k * stride) + 5)
  | Records a -> List.length a.(k).r_nondet

let nondet d k =
  match d with
  | Text d ->
      let first = d.recs.((k * stride) + 4) in
      List.init d.recs.((k * stride) + 5) (fun j ->
          let v = first + j in
          Uv_sql.Value.deserialize (payload d.text d.nvals.(2 * v) d.nvals.((2 * v) + 1)))
  | Records a -> a.(k).r_nondet

let record d k =
  match d with
  | Text _ -> { r_sql = sql d k; r_nondet = nondet d k; r_app_txn = app_txn d k }
  | Records a -> a.(k)

let records d = List.init (length d) (record d)

(* The end of the line at [i] (its newline, or [n]); [esc] gets the
   offset of its first backslash, if any. Eight bytes at a time while
   they hold neither byte, then byte by byte. *)
let ones = 0x0101010101010101L
let highs = 0x8080808080808080L
let newlines = 0x0a0a0a0a0a0a0a0aL
let backslashes = 0x5c5c5c5c5c5c5c5cL

let rec line_end text i n esc =
  if i + 8 <= n then begin
    let w = String.get_int64_le text i in
    let a = Int64.logxor w newlines and b = Int64.logxor w backslashes in
    if
      Int64.equal
        (Int64.logand
           (Int64.logor
              (Int64.logand (Int64.sub a ones) (Int64.lognot a))
              (Int64.logand (Int64.sub b ones) (Int64.lognot b)))
           highs)
        0L
    then line_end text (i + 8) n esc
    else bytes_end text i (i + 8) n esc
  end
  else bytes_end text i n n esc

and bytes_end text i stop n esc =
  if i >= stop then if stop >= n then n else line_end text stop n esc
  else
    match String.unsafe_get text i with
    | '\n' -> i
    | '\\' when !esc < 0 ->
        esc := i;
        bytes_end text (i + 1) stop n esc
    | _ -> bytes_end text (i + 1) stop n esc

(* Escapes in [s.[i .. stop - 1]] are well formed: the check
   {!unescape_sub} makes, without building the string. *)
let rec check_escapes s i stop =
  if i < stop then
    if String.unsafe_get s i <> '\\' then check_escapes s (i + 1) stop
    else if i + 1 >= stop then corrupt "dangling escape"
    else
      match s.[i + 1] with
      | '\\' | 'n' | 'r' -> check_escapes s (i + 2) stop
      | c -> corrupt "unknown escape \\%c" c

let grow a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Single forward pass with byte offsets. A record counts only once its
   whole block — Q line through E, checksum verified on v2 — parses; the
   scan stops at the first damaged record, keeping the valid prefix
   (replaying past a damaged record would silently reorder history).
   No record is built: a record is kept as the offsets of its payloads,
   each checked as building it would check it (escapes, N values), and
   its body checksum runs over the text itself, one call per run of
   adjacent body lines. Blank lines are skipped. *)
let salvage text =
  let n = String.length text in
  let pos = ref 0 in
  let l_off = ref 0 and l_len = ref 0 and l_esc = ref (-1) in
  (* the next non-empty line into [l_off], [l_len] and [l_esc] *)
  let rec next_line () =
    !pos < n
    &&
    let start = !pos in
    l_esc := -1;
    let nl = line_end text start n l_esc in
    pos := if nl < n then nl + 1 else n;
    if nl = start then next_line ()
    else begin
      l_off := start;
      l_len := nl - start;
      true
    end
  in
  let count = ref 0 and recs = ref (Array.make (stride * 64) 0) in
  let nv = ref 0 and nvals = ref (Array.make 32 0) in
  let finish version cut reason =
    ( Text { text; count = !count; recs = !recs; nvals = !nvals },
      { version; total_bytes = n; valid_records = !count; cut_at = cut; reason } )
  in
  let fail_at off reason version = finish version (Some off) (Some reason) in
  if not (next_line ()) then fail_at 0 "empty file" 0
  else
    let h = String.sub text !l_off !l_len in
    if h <> header_v1 && h <> header_v2 then
      fail_at !l_off
        (Printf.sprintf "bad header %S (want %S or %S)" h header_v1 header_v2)
        0
    else begin
      let version = if String.equal h header_v2 then 2 else 1 in
      let line off len = String.sub text off len in
      (* the current line's payload, checked: its length code *)
      let payload_code () =
        let off = !l_off and len = !l_len in
        if len < 2 then corrupt "short line %S" (line off len);
        if !l_esc < 0 then len - 2
        else begin
          check_escapes text (max (off + 2) !l_esc) (off + len);
          lnot (len - 2)
        end
      in
      (* the body checksum: [crc] over every finished run of adjacent
         body lines, newlines included, then the open run *)
      let crc = ref 0 and run_off = ref 0 and run_end = ref (-1) in
      let flush () =
        if !run_end >= 0 then begin
          crc := Uv_util.Crc32.update_sub !crc text !run_off (!run_end - !run_off);
          run_end := -1
        end
      in
      let add_to_body () =
        if !l_off <> !run_end then begin
          flush ();
          run_off := !l_off
        end;
        run_end := !l_off + !l_len + 1
      in
      (* parse one record from the current line, appending it to the
         record offsets, or raise [Corrupt reason] *)
      let parse_record () =
        crc := 0;
        run_end := -1;
        let q_off = ref (-1) and q_code = ref 0 in
        let a_off = ref (-1) and a_code = ref 0 in
        let n_first = !nv in
        let crc_ok = ref (version = 1) in
        let rec step () =
          let off = !l_off and len = !l_len in
          match String.unsafe_get text off with
          | 'Q' ->
              if !q_off >= 0 then corrupt "Q line inside an open record";
              q_code := payload_code ();
              q_off := off + 2;
              add_to_body ();
              continue_ ()
          | 'N' ->
              if !q_off < 0 then corrupt "N line outside a record";
              let code = payload_code () in
              (try ignore (Uv_sql.Value.deserialize (payload text (off + 2) code) : Uv_sql.Value.t)
               with Failure m -> corrupt "bad value: %s" m);
              nvals := grow !nvals ((2 * !nv) + 2);
              !nvals.(2 * !nv) <- off + 2;
              !nvals.((2 * !nv) + 1) <- code;
              incr nv;
              add_to_body ();
              continue_ ()
          | 'A' ->
              if !q_off < 0 then corrupt "A line outside a record";
              a_code := payload_code ();
              a_off := off + 2;
              add_to_body ();
              continue_ ()
          | 'C' ->
              if !q_off < 0 then corrupt "C line outside a record";
              if version = 1 then corrupt "checksum line in a v1 log";
              if len < 2 then corrupt "short line %S" (line off len);
              (match Uv_util.Crc32.of_hex_sub text (off + 2) (len - 2) with
              | None -> corrupt "malformed checksum %S" (line off len)
              | Some c ->
                  flush ();
                  if c <> !crc then
                    corrupt "checksum mismatch (stored %s, computed %s)"
                      (Uv_util.Crc32.to_hex c) (Uv_util.Crc32.to_hex !crc);
                  crc_ok := true);
              continue_ ()
          | 'E' ->
              if !q_off < 0 then corrupt "record end without a Q line";
              if not !crc_ok then corrupt "record without a checksum";
              let at = !count * stride in
              recs := grow !recs (at + stride);
              let r = !recs in
              r.(at) <- !q_off;
              r.(at + 1) <- !q_code;
              r.(at + 2) <- !a_off;
              r.(at + 3) <- !a_code;
              r.(at + 4) <- n_first;
              r.(at + 5) <- !nv - n_first;
              incr count
          | c -> corrupt "unknown line tag %C" c
        and continue_ () =
          if next_line () then step () else corrupt "truncated final record"
        in
        step ()
      in
      let rec loop () =
        let rec_start = !pos in
        if not (next_line ()) then finish version None None (* clean end of file *)
        else
          match parse_record () with
          | () -> loop ()
          | exception Corrupt reason -> fail_at rec_start reason version
      in
      loop ()
    end

let parse text =
  let d, diag = salvage text in
  match diag.reason with
  | Some reason ->
      corrupt "%s (at byte %d)" reason
        (Option.value diag.cut_at ~default:diag.total_bytes)
  | None -> records d

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
