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

(* [s] holds no byte [escape] rewrites: [escape s] is [s] *)
let plain s =
  let n = String.length s in
  Uv_util.Memchr.index s '\\' 0 n < 0
  && Uv_util.Memchr.index s '\n' 0 n < 0
  && Uv_util.Memchr.index s '\r' 0 n < 0

(* [String.length (escape s)] *)
let escaped_length s =
  if plain s then String.length s
  else begin
    let n = ref (String.length s) in
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with '\\' | '\n' | '\r' -> incr n | _ -> ()
    done;
    !n
  end

let digits n =
  let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
  go n 1

(* [String.length (escape (Value.serialize v))]; a text's is counted
   without building it *)
let value_length (v : Uv_sql.Value.t) =
  match v with
  | Text s -> 2 + digits (String.length s) + escaped_length s
  | _ -> escaped_length (Uv_sql.Value.serialize v)

(* a line [tag payload\n] around a payload of [len] escaped bytes *)
let line len = len + 3

let record_length r =
  line (escaped_length r.r_sql)
  + List.fold_left (fun n v -> n + line (value_length v)) 0 r.r_nondet
  + (match r.r_app_txn with Some tag -> line (escaped_length tag) | None -> 0)
  + String.length "C 01234567\nE\n"

let blit_string b at s =
  Bytes.blit_string s 0 b at (String.length s);
  at + String.length s

(* [escape s] written at [at]; the position after it *)
let blit_escaped b at s =
  if plain s then blit_string b at s
  else begin
    let j = ref at in
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | ('\\' | '\n' | '\r') as c ->
          Bytes.unsafe_set b !j '\\';
          Bytes.unsafe_set b (!j + 1) (match c with '\n' -> 'n' | '\r' -> 'r' | c -> c);
          j := !j + 2
      | c ->
          Bytes.unsafe_set b !j c;
          incr j
    done;
    !j
  end

let escape s =
  if plain s then s
  else begin
    let b = Bytes.create (escaped_length s) in
    ignore (blit_escaped b 0 s : int);
    Bytes.unsafe_to_string b
  end

let blit_char b at c =
  Bytes.set b at c;
  at + 1

(* the line [tag payload\n], the payload escaped *)
let blit_line b at tag payload =
  let at = blit_char b (blit_char b at tag) ' ' in
  blit_char b (blit_escaped b at payload) '\n'

(* the N line of [v]; a text's bytes are copied once, into the segment *)
let blit_value b at (v : Uv_sql.Value.t) =
  match v with
  | Text s ->
      let at = blit_string b at "N T" in
      let at = blit_string b at (string_of_int (String.length s)) in
      let at = blit_escaped b (blit_char b at ':') s in
      blit_char b at '\n'
  | _ -> blit_line b at 'N' (Uv_sql.Value.serialize v)

let blit_hex b at c =
  for k = 0 to 7 do
    Bytes.set b (at + k) "0123456789abcdef".[(c lsr (28 - (4 * k))) land 0xf]
  done;
  at + 8

(* The segment is measured first, then written into one buffer of
   exactly its size, which becomes the result without a copy: each
   record's body (the Q/N/A lines, newlines included), then the C line
   with the CRC-32 of the body's bytes, computed where they lie, and E. *)
let print records =
  let size =
    List.fold_left (fun n r -> n + record_length r) (String.length header_v2 + 1) records
  in
  let b = Bytes.create size in
  let at = blit_char b (blit_string b 0 header_v2) '\n' in
  let at =
    List.fold_left
      (fun at r ->
        let body = at in
        let at = blit_line b at 'Q' r.r_sql in
        let at = List.fold_left (blit_value b) at r.r_nondet in
        let at = match r.r_app_txn with Some tag -> blit_line b at 'A' tag | None -> at in
        let crc = Uv_util.Crc32.update_bytes_sub 0 b body (at - body) in
        blit_string b (blit_hex b (blit_string b at "C ") crc) "\nE\n")
      at records
  in
  assert (at = size);
  Bytes.unsafe_to_string b

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
      offs : int array;
          (* per record [k], [stride] ints from [k * stride]: SQL payload
             offset and length code, tag payload offset ([-1]: no A
             line) and length code, first N value and N value count; per
             N value [v], its payload offset and length code from
             [nbase + 2 * v] *)
      nbase : int;
    }
  | Records of record array

let stride = 6

let length = function Text d -> d.count | Records a -> Array.length a

let of_records a = Records a

let payload text off code =
  if code >= 0 then String.sub text off code else unescape_sub text off (lnot code)

let sql d k =
  match d with
  | Text d -> payload d.text d.offs.(k * stride) d.offs.((k * stride) + 1)
  | Records a -> a.(k).r_sql

let text = function Text d -> d.text | Records _ -> ""

let sql_offset d k =
  match d with
  | Text d when d.offs.((k * stride) + 1) >= 0 -> d.offs.(k * stride)
  | Text _ | Records _ -> -1

let sql_length d k =
  match d with
  | Text d -> d.offs.((k * stride) + 1)
  | Records a -> String.length a.(k).r_sql

let app_txn d k =
  match d with
  | Text d ->
      let off = d.offs.((k * stride) + 2) in
      if off < 0 then None else Some (payload d.text off d.offs.((k * stride) + 3))
  | Records a -> a.(k).r_app_txn

let nondet_count d k =
  match d with
  | Text d -> d.offs.((k * stride) + 5)
  | Records a -> List.length a.(k).r_nondet

let nondet d k =
  match d with
  | Text d ->
      let first = d.nbase + (2 * d.offs.((k * stride) + 4)) in
      List.init d.offs.((k * stride) + 5) (fun j ->
          let at = first + (2 * j) in
          Uv_sql.Value.deserialize (payload d.text d.offs.(at) d.offs.(at + 1)))
  | Records a -> a.(k).r_nondet

let record d k =
  match d with
  | Text _ -> { r_sql = sql d k; r_nondet = nondet d k; r_app_txn = app_txn d k }
  | Records a -> a.(k)

let records d = List.init (length d) (record d)

(* The first malformed escape in [s.[i .. stop - 1]], or [-1]: where
   {!unescape_sub} would raise, without building the string. *)
let rec bad_escape s i stop =
  if i >= stop then -1
  else if String.unsafe_get s i <> '\\' then bad_escape s (i + 1) stop
  else if i + 1 >= stop then i
  else
    match String.unsafe_get s (i + 1) with
    | '\\' | 'n' | 'r' -> bad_escape s (i + 2) stop
    | _ -> i

(* [unescape_sub]'s message for the bad escape at [i] *)
let escape_reason s i stop =
  if i + 1 >= stop then "dangling escape" else Printf.sprintf "unknown escape \\%c" s.[i + 1]

(* [text.[off + i .. off + String.length h - 1]] is [h]'s from [i] *)
let rec same_from text off h i =
  i = String.length h || (text.[off + i] = h.[i] && same_from text off h (i + 1))

(* [text.[off .. stop - 1]] is [h] *)
let is_line text off stop h = stop - off = String.length h && same_from text off h 0

(* [salvage]'s offsets [a], room for [cap] records with N values from
   [stride * cap], holding [count] records and [nv] N values, moved to
   an array with room for [cap'] records and [room] N values. *)
let regrow a ~count ~nv ~cap ~cap' ~room =
  let b = Array.make ((stride * cap') + (2 * room)) 0 in
  Array.blit a 0 b 0 (stride * count);
  Array.blit a (stride * cap) b (stride * cap') (2 * nv);
  b

(* One forward pass with byte offsets, one loop iteration a line, its
   state in local variables (no closure captures them, so none is
   allocated). A record counts only once its whole block — Q line
   through E, checksum verified on v2 — parses; the scan stops at the
   first damaged record, keeping the valid prefix (replaying past a
   damaged record would silently reorder history), and records the
   damage as a reason and the record's offset. No record is built: a
   record is kept as the offsets of its payloads, each checked as
   building it would check it (escapes, N values), and its body
   checksum runs over the text itself, one call per run of adjacent body
   lines. Line ends are found by [memchr]. Blank lines are skipped. *)
let salvage ?(count = 64) text =
  let n = String.length text in
  let reason = ref "" and cut = ref 0 and version = ref 0 in
  (* the header: the first non-empty line *)
  let pos = ref 0 in
  while !pos < n && String.unsafe_get text !pos = '\n' do incr pos done;
  let hdr_end =
    if !pos >= n then -1
    else
      let nl = Uv_util.Memchr.index text '\n' !pos (n - !pos) in
      if nl < 0 then n else nl
  in
  if hdr_end < 0 then reason := "empty file"
  else if is_line text !pos hdr_end header_v2 then version := 2
  else if is_line text !pos hdr_end header_v1 then version := 1
  else begin
    cut := !pos;
    reason :=
      Printf.sprintf "bad header %S (want %S or %S)"
        (String.sub text !pos (hdr_end - !pos))
        header_v1 header_v2
  end;
  (* room for [cap] records, N values from [stride * cap] *)
  let cap = ref (max 1 count) in
  let offs = ref (Array.make ((stride + 2) * !cap) 0) in
  let records = ref 0 and nv = ref 0 in
  if !version > 0 then begin
    pos := if hdr_end < n then hdr_end + 1 else n;
    let rec_start = ref !pos in
    (* the open record: its Q payload ([q_off < 0]: none yet), A payload,
       first N value, and whether a C line vouched for it *)
    let q_off = ref (-1) and q_code = ref 0 and a_off = ref (-1) and a_code = ref 0 in
    let n_first = ref 0 and crc_ok = ref false in
    (* its body checksum: [crc] over every finished run of adjacent body
       lines, newlines included, then the open run [run_off, run_end) *)
    let crc = ref 0 and run_off = ref 0 and run_end = ref (-1) in
    while !reason = "" && (!pos < n || !q_off >= 0) do
      while !pos < n && String.unsafe_get text !pos = '\n' do incr pos done;
      if !pos >= n then begin
        (* end of file inside a record (one outside ends the loop) *)
        if !q_off >= 0 then reason := "truncated final record"
      end
      else begin
        let off = !pos in
        let nl = Uv_util.Memchr.index text '\n' off (n - off) in
        let nl = if nl < 0 then n else nl in
        pos := if nl < n then nl + 1 else n;
        let len = nl - off and tag = String.unsafe_get text off in
        (* a body line's payload: [len - 2] bytes at [off + 2], its
           length code in [code], or the damage in [reason] *)
        let code =
          match tag with
          | 'Q' | 'N' | 'A' ->
              if tag = 'Q' && !q_off >= 0 then begin
                reason := "Q line inside an open record";
                0
              end
              else if tag <> 'Q' && !q_off < 0 then begin
                reason := Printf.sprintf "%c line outside a record" tag;
                0
              end
              else if len < 2 then begin
                reason := Printf.sprintf "short line %S" (String.sub text off len);
                0
              end
              else
                let esc = Uv_util.Memchr.index text '\\' (off + 2) (len - 2) in
                if esc < 0 then len - 2
                else
                  let bad = bad_escape text esc nl in
                  if bad >= 0 then begin
                    reason := escape_reason text bad nl;
                    0
                  end
                  else lnot (len - 2)
          | _ -> 0
        in
        if !reason = "" then
          match tag with
          | 'Q' | 'N' | 'A' ->
              if tag = 'N' then begin
                match
                  if code >= 0 then Uv_sql.Value.deserialize_error text (off + 2) code
                  else
                    let v = unescape_sub text (off + 2) (lnot code) in
                    Uv_sql.Value.deserialize_error v 0 (String.length v)
                with
                | Some m -> reason := "bad value: " ^ m
                | None ->
                    let at = (stride * !cap) + (2 * !nv) in
                    if at + 2 > Array.length !offs then begin
                      let room = (Array.length !offs - (stride * !cap)) / 2 in
                      offs :=
                        regrow !offs ~count:!records ~nv:!nv ~cap:!cap ~cap':!cap ~room:(2 * room)
                    end;
                    !offs.(at) <- off + 2;
                    !offs.(at + 1) <- code;
                    incr nv
              end
              else if tag = 'Q' then begin
                q_off := off + 2;
                q_code := code;
                a_off := -1;
                n_first := !nv;
                crc_ok := !version = 1;
                crc := 0;
                run_end := -1
              end
              else begin
                a_off := off + 2;
                a_code := code
              end;
              if !reason = "" then begin
                if off <> !run_end then begin
                  if !run_end >= 0 then
                    crc := Uv_util.Crc32.update_sub !crc text !run_off (!run_end - !run_off);
                  run_off := off
                end;
                run_end := nl + 1
              end
          | 'C' ->
              if !q_off < 0 then reason := "C line outside a record"
              else if !version = 1 then reason := "checksum line in a v1 log"
              else if len < 2 then
                reason := Printf.sprintf "short line %S" (String.sub text off len)
              else begin
                let c = Uv_util.Crc32.parse_hex_sub text (off + 2) (len - 2) in
                if c < 0 then
                  reason := Printf.sprintf "malformed checksum %S" (String.sub text off len)
                else begin
                  if !run_end >= 0 then begin
                    crc := Uv_util.Crc32.update_sub !crc text !run_off (!run_end - !run_off);
                    run_end := -1
                  end;
                  if c <> !crc then
                    reason :=
                      Printf.sprintf "checksum mismatch (stored %s, computed %s)"
                        (Uv_util.Crc32.to_hex c) (Uv_util.Crc32.to_hex !crc)
                  else crc_ok := true
                end
              end
          | 'E' ->
              if !q_off < 0 then reason := "record end without a Q line"
              else if not !crc_ok then reason := "record without a checksum"
              else begin
                if !records = !cap then begin
                  let room = (Array.length !offs - (stride * !cap)) / 2 in
                  offs := regrow !offs ~count:!records ~nv:!nv ~cap:!cap ~cap':(2 * !cap) ~room;
                  cap := 2 * !cap
                end;
                let at = !records * stride and r = !offs in
                r.(at) <- !q_off;
                r.(at + 1) <- !q_code;
                r.(at + 2) <- !a_off;
                r.(at + 3) <- !a_code;
                r.(at + 4) <- !n_first;
                r.(at + 5) <- !nv - !n_first;
                incr records;
                q_off := -1;
                rec_start := !pos
              end
          | c -> reason := Printf.sprintf "unknown line tag %C" c
      end
    done;
    cut := !rec_start
  end;
  ( Text { text; count = !records; offs = !offs; nbase = stride * !cap },
    {
      version = !version;
      total_bytes = n;
      valid_records = !records;
      cut_at = (if !reason = "" then None else Some !cut);
      reason = (if !reason = "" then None else Some !reason);
    } )

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
