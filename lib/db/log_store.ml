(* Segmented durable history: capped ULOGv2 chunk files under a
   CRC-guarded manifest. See log_store.mli for the format. Every read
   path decodes one segment at a time (a one-segment cache makes
   sequential access cheap), so peak resident log memory is one segment
   plus the manifest regardless of history length. *)

module Store_error = struct
  type t =
    | Io of { path : string; message : string }
    | Corrupt_manifest of { path : string; offset : int; reason : string }
    | Corrupt_segment of {
        segment : int;
        path : string;
        offset : int;
        reason : string;
      }
    | Corrupt_checkpoints of { path : string; reason : string }
    | Corrupt_dump of { path : string; reason : string }

  let to_string = function
    | Io { path; message } -> Printf.sprintf "%s: %s" path message
    | Corrupt_manifest { path; offset; reason } ->
        Printf.sprintf "%s: corrupt manifest at byte %d: %s" path offset reason
    | Corrupt_segment { segment; path; offset; reason } ->
        Printf.sprintf "%s: corrupt segment %d at byte %d: %s" path segment
          offset reason
    | Corrupt_checkpoints { path; reason } ->
        Printf.sprintf "%s: corrupt checkpoint ladder: %s" path reason
    | Corrupt_dump { path; reason } ->
        Printf.sprintf "%s: corrupt dump: %s" path reason
end

exception Error of Store_error.t

let io_error path message = raise (Error (Store_error.Io { path; message }))

let default_segment_cap = 4096

type segment = {
  seg_seq : int;
  seg_file : string;
  seg_min : int;
  seg_max : int;
  seg_nondet : int;
  seg_epoch : int;
  seg_bytes : int;
  seg_crc : string;
}

(* Internal view of a segment: the manifest row plus an optional salvage
   trim — [Some v] serves only the first [v] records (open_salvage cut
   the rest). *)
type iseg = { s : segment; mutable valid : int option }

type t = {
  t_dir : string;
  fault : Uv_fault.Fault.t;
  fsync : bool option;
  cap : int;
  mutable sealed : iseg list;  (* newest first; only the newest row may
                                  hold fewer than [cap] records, and only
                                  while the tail buffer is empty *)
  mutable tail : Log_io.record list;  (* open tail, newest first *)
  mutable tail_count : int;
  mutable tail_min : int;  (* global index of the first tail record *)
  mutable tail_nondet : int;
  mutable cache : (int * Log_io.decoded) option;  (* seq, decoded *)
  mutable resident_peak : int;
  mutable manifest_len : int;
  mutable dirty : bool;
  mutable closed : bool;
  mutable orphans : int list;
      (* sequence numbers truncated away; their files are unlinked only
         after the shrunk manifest is durable, so a crash mid-truncate
         leaves a consistent (if longer) store *)
}

let manifest_name = "MANIFEST"
let checkpoints_name = "checkpoints.uckp"
let seg_name seq = Printf.sprintf "seg-%06d.ulog" seq
let seg_path t seq = Filename.concat t.t_dir (seg_name seq)
let manifest_path dir = Filename.concat dir manifest_name

let nondet_of_records records =
  List.fold_left (fun n (r : Log_io.record) -> n + List.length r.r_nondet) 0
    records

let read_file_or_error path =
  try Uv_util.Safe_io.read_file path
  with Sys_error m -> io_error path m

(* Torn-write-aware atomic write (temp file, fsync, rename): an
   injected tear leaves only a prefix in the temp file, skips the
   rename (previous good file intact) and raises [Injected]. *)
let guarded_write ~fault ?fsync ~site ~key ~path data =
  match Uv_fault.Fault.check ~key fault site [ Uv_fault.Fault.Torn_write ] with
  | Some inj ->
      let keep =
        int_of_float
          (float_of_int (String.length data) *. inj.Uv_fault.Fault.arg)
      in
      Uv_util.Safe_io.write_file (path ^ ".tmp") (String.sub data 0 keep);
      raise (Uv_fault.Fault.Injected inj)
  | None -> (
      try Uv_util.Safe_io.atomic_write ?fsync ~path data
      with Sys_error m -> io_error path m)

(* ------------------------------------------------------------------ *)
(* Manifest                                                             *)
(* ------------------------------------------------------------------ *)

let manifest_header = "ULSTv1"

let manifest_text ~cap segs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" manifest_header cap);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "S %d %d %d %d %d %d %s\n" s.seg_seq s.seg_min
           s.seg_max s.seg_nondet s.seg_epoch s.seg_bytes s.seg_crc))
    segs;
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "E %s\n" Uv_util.Crc32.(to_hex (digest body))

let corrupt_manifest path offset reason =
  raise (Error (Store_error.Corrupt_manifest { path; offset; reason }))

(* Parse and validate a manifest. The trailing E line checksums every
   preceding byte, so truncation anywhere is detected; S rows must be
   contiguous in both sequence number and global index, and every row
   but the last must hold exactly [cap] records. *)
let parse_manifest path text =
  let n = String.length text in
  let fail off reason = corrupt_manifest path off reason in
  let pos = ref 0 in
  let next_line () =
    if !pos >= n then None
    else
      let start = !pos in
      match String.index_from_opt text start '\n' with
      | None -> fail start "unterminated line (truncated manifest)"
      | Some nl ->
          pos := nl + 1;
          Some (String.sub text start (nl - start), start)
  in
  let cap =
    match next_line () with
    | None -> fail 0 "empty manifest"
    | Some (h, off) -> (
        match String.split_on_char ' ' h with
        | [ hdr; cap ] when String.equal hdr manifest_header -> (
            match int_of_string_opt cap with
            | Some c when c >= 1 -> c
            | _ -> fail off (Printf.sprintf "bad segment cap %S" cap))
        | _ ->
            fail off
              (Printf.sprintf "bad header %S (want %S)" h manifest_header))
  in
  let segs = ref [] in
  let finished = ref false in
  while not !finished do
    let line_start = !pos in
    match next_line () with
    | None -> fail n "missing E trailer line"
    | Some (l, off) when String.length l >= 1 && l.[0] = 'S' -> (
        match String.split_on_char ' ' l with
        | [ "S"; seq; mn; mx; nd; ep; by; crc ] -> (
            match
              ( int_of_string_opt seq,
                int_of_string_opt mn,
                int_of_string_opt mx,
                int_of_string_opt nd,
                int_of_string_opt ep,
                int_of_string_opt by,
                Uv_util.Crc32.of_hex crc )
            with
            | Some seq, Some mn, Some mx, Some nd, Some ep, Some by, Some _
              when seq >= 1 && mn >= 1 && mx >= mn && nd >= 0 && by >= 0 ->
                (match !segs with
                | prev :: _ ->
                    if seq <> prev.seg_seq + 1 then
                      fail off
                        (Printf.sprintf "segment %d follows segment %d" seq
                           prev.seg_seq);
                    if mn <> prev.seg_max + 1 then
                      fail off
                        (Printf.sprintf
                           "segment %d starts at index %d, want %d" seq mn
                           (prev.seg_max + 1));
                    if prev.seg_max - prev.seg_min + 1 <> cap then
                      fail off
                        (Printf.sprintf
                           "non-final segment %d holds %d records, cap is %d"
                           prev.seg_seq
                           (prev.seg_max - prev.seg_min + 1)
                           cap)
                | [] ->
                    if seq <> 1 then fail off "first segment is not seg 1";
                    if mn <> 1 then fail off "first segment does not start at 1");
                segs :=
                  {
                    seg_seq = seq;
                    seg_file = seg_name seq;
                    seg_min = mn;
                    seg_max = mx;
                    seg_nondet = nd;
                    seg_epoch = ep;
                    seg_bytes = by;
                    seg_crc = String.lowercase_ascii crc;
                  }
                  :: !segs
            | _ -> fail off (Printf.sprintf "bad segment line %S" l))
        | _ -> fail off (Printf.sprintf "bad segment line %S" l))
    | Some (l, off) when String.length l >= 1 && l.[0] = 'E' -> (
        match String.split_on_char ' ' l with
        | [ "E"; crc ] -> (
            match Uv_util.Crc32.of_hex crc with
            | None -> fail off (Printf.sprintf "malformed trailer %S" l)
            | Some c ->
                let actual =
                  Uv_util.Crc32.update_sub 0 text 0 line_start
                in
                if c <> actual then
                  fail off
                    (Printf.sprintf
                       "manifest checksum mismatch (stored %s, computed %s)"
                       (Uv_util.Crc32.to_hex c)
                       (Uv_util.Crc32.to_hex actual));
                if !pos < n then fail !pos "content after the E trailer";
                finished := true)
        | _ -> fail off (Printf.sprintf "malformed trailer %S" l))
    | Some (l, off) -> fail off (Printf.sprintf "unknown line %S" l)
  done;
  (cap, List.rev !segs)

let write_manifest t ~tail_row =
  let rows = List.rev_map (fun i -> i.s) t.sealed @ tail_row in
  let data = manifest_text ~cap:t.cap rows in
  guarded_write ~fault:t.fault ?fsync:t.fsync
    ~site:Uv_fault.Fault.Site.log_save ~key:0 ~path:(manifest_path t.t_dir)
    data;
  t.manifest_len <- String.length data

(* ------------------------------------------------------------------ *)
(* Open                                                                 *)
(* ------------------------------------------------------------------ *)

let ensure_dir path =
  if Sys.file_exists path then begin
    if not (Sys.is_directory path) then
      io_error path "not a store directory (regular file in the way)"
  end
  else
    try Sys.mkdir path 0o755 with Sys_error m -> io_error path m

let is_store path =
  Sys.file_exists path && Sys.is_directory path
  && (Sys.file_exists (manifest_path path) || Sys.readdir path = [||])

let open_ ?(fault = Uv_fault.Fault.disabled) ?fsync ?segment_cap dir =
  ensure_dir dir;
  let mpath = manifest_path dir in
  let cap, segs, mlen =
    if Sys.file_exists mpath then begin
      let text = read_file_or_error mpath in
      let cap, segs = parse_manifest mpath text in
      (cap, segs, String.length text)
    end
    else (Option.value segment_cap ~default:default_segment_cap, [], 0)
  in
  (match segment_cap with
  | Some c when c < 1 -> invalid_arg "Log_store.open_: segment_cap must be >= 1"
  | _ -> ());
  let last_max = match List.rev segs with s :: _ -> s.seg_max | [] -> 0 in
  {
    t_dir = dir;
    fault;
    fsync;
    cap;
    sealed = List.rev_map (fun s -> { s; valid = None }) segs;
    tail = [];
    tail_count = 0;
    tail_min = last_max + 1;
    tail_nondet = 0;
    cache = None;
    resident_peak = 0;
    manifest_len = mlen;
    dirty = false;
    closed = false;
    orphans = [];
  }

let check_open t = if t.closed then invalid_arg "Log_store: store is closed"

let dir t = t.t_dir
let segment_cap t = t.cap
let resident_peak_bytes t = t.resident_peak

let seg_count i =
  match i.valid with Some v -> v | None -> i.s.seg_max - i.s.seg_min + 1

let length t =
  if t.tail_count > 0 then t.tail_min + t.tail_count - 1
  else
    match t.sealed with
    | i :: _ -> i.s.seg_min + seg_count i - 1
    | [] -> 0

let next_seq t = match t.sealed with i :: _ -> i.s.seg_seq + 1 | [] -> 1

let segments t =
  List.rev_map (fun i -> i.s) t.sealed
  @
  if t.tail_count = 0 then []
  else
    [
      {
        seg_seq = next_seq t;
        seg_file = seg_name (next_seq t);
        seg_min = t.tail_min;
        seg_max = t.tail_min + t.tail_count - 1;
        seg_nondet = t.tail_nondet;
        seg_epoch = 0;
        seg_bytes = 0;
        seg_crc = "";
      };
    ]

let segment_of_index t i =
  if i < 1 || i > length t then
    invalid_arg (Printf.sprintf "Log_store.segment_of_index: %d out of range" i);
  match
    List.find_opt (fun s -> s.seg_min <= i && i <= s.seg_max) (segments t)
  with
  | Some s -> s
  | None -> invalid_arg "Log_store.segment_of_index: index in a salvaged hole"

let boundaries t =
  List.fold_left
    (fun acc i ->
      if i.valid = None && i.s.seg_max - i.s.seg_min + 1 = t.cap then i.s.seg_max :: acc
      else acc)
    [] t.sealed

(* ------------------------------------------------------------------ *)
(* Segment reads                                                        *)
(* ------------------------------------------------------------------ *)

let corrupt_segment ~seq ~path ~offset reason =
  raise
    (Error (Store_error.Corrupt_segment { segment = seq; path; offset; reason }))

(* Decode one segment, verifying the manifest CRC and the per-record
   checksums; updates the resident peak and the one-segment cache. The
   segment's first [seg_count i] records are the ones it serves. *)
let seg_decoded t (i : iseg) =
  match t.cache with
  | Some (seq, d) when seq = i.s.seg_seq -> d
  | _ ->
      let path = Filename.concat t.t_dir i.s.seg_file in
      let bytes = read_file_or_error path in
      t.resident_peak <- max t.resident_peak (String.length bytes);
      let d, diag = Log_io.salvage ~count:(seg_count i) bytes in
      let found = Log_io.length d in
      (match i.valid with
      | Some v ->
          if found < v then
            corrupt_segment ~seq:i.s.seg_seq ~path
              ~offset:(Option.value diag.Log_io.cut_at ~default:0)
              (Printf.sprintf "salvaged prefix shrank to %d record(s), want %d"
                 found v)
      | None -> (
          let crc = Uv_util.Crc32.digest bytes in
          if Uv_util.Crc32.of_hex i.s.seg_crc <> Some crc then
            corrupt_segment ~seq:i.s.seg_seq ~path
              ~offset:(Option.value diag.Log_io.cut_at ~default:0)
              (Printf.sprintf "segment checksum mismatch (stored %s, computed %s)"
                 i.s.seg_crc (Uv_util.Crc32.to_hex crc));
          match diag.Log_io.cut_at with
          | Some off ->
              corrupt_segment ~seq:i.s.seg_seq ~path ~offset:off
                (Option.value diag.Log_io.reason ~default:"unknown damage")
          | None ->
              let expected = seg_count i in
              if found <> expected then
                corrupt_segment ~seq:i.s.seg_seq ~path ~offset:0
                  (Printf.sprintf "segment holds %d record(s), manifest says %d"
                     found expected)));
      t.cache <- Some (i.s.seg_seq, d);
      d

let tail_decoded t = Log_io.of_records (Array.of_list (List.rev t.tail))

let iter_decoded t ~lo ~hi f =
  check_open t;
  let lo = max lo 1 and hi = min hi (length t) in
  List.iter
    (fun i ->
      let mx = i.s.seg_min + seg_count i - 1 in
      if mx >= lo && i.s.seg_min <= hi then begin
        let d = seg_decoded t i in
        for idx = max lo i.s.seg_min to min hi mx do
          f idx d (idx - i.s.seg_min)
        done
      end)
    (List.rev t.sealed);
  if t.tail_count > 0 && hi >= t.tail_min then begin
    let d = tail_decoded t in
    for idx = max lo t.tail_min to hi do
      f idx d (idx - t.tail_min)
    done
  end

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_decoded t ~lo ~hi (fun idx d k -> acc := f !acc idx (Log_io.record d k));
  !acc

let iter_range t ~lo ~hi f = iter_decoded t ~lo ~hi (fun idx d k -> f idx (Log_io.record d k))

type cursor = {
  c_store : t;
  mutable c_next : int;
  c_hi : int;
  mutable c_dec : Log_io.decoded;
  mutable c_base : int;  (* global index of record 0 of [c_dec]; 0 = not loaded *)
  mutable c_count : int;  (* records [c_dec] serves *)
}

let cursor ?(lo = 1) ?hi t =
  check_open t;
  let hi = match hi with Some h -> min h (length t) | None -> length t in
  { c_store = t; c_next = max lo 1; c_hi = hi; c_dec = Log_io.of_records [||];
    c_base = 0; c_count = 0 }

let rec next c =
  if c.c_next > c.c_hi then None
  else if c.c_base > 0 && c.c_next >= c.c_base && c.c_next < c.c_base + c.c_count
  then begin
    let i = c.c_next in
    c.c_next <- i + 1;
    Some (i, Log_io.record c.c_dec (i - c.c_base))
  end
  else begin
    let t = c.c_store in
    let i = c.c_next in
    (match
       List.find_opt
         (fun s -> s.s.seg_min <= i && i <= s.s.seg_min + seg_count s - 1)
         t.sealed
     with
    | Some s ->
        c.c_dec <- seg_decoded t s;
        c.c_base <- s.s.seg_min;
        c.c_count <- seg_count s
    | None ->
        if t.tail_count > 0 && i >= t.tail_min then begin
          c.c_dec <- tail_decoded t;
          c.c_base <- t.tail_min;
          c.c_count <- t.tail_count
        end
        else begin
          (* a salvaged hole: skip forward *)
          c.c_next <- i + 1;
          c.c_base <- 0
        end);
    next c
  end

let records t =
  List.rev (fold_range t ~lo:1 ~hi:(length t) ~init:[] ~f:(fun acc _ r -> r :: acc))

(* ------------------------------------------------------------------ *)
(* Append                                                               *)
(* ------------------------------------------------------------------ *)

(* If the store ended in a partial segment on disk, re-open it as the
   in-memory tail so appends keep filling it (one segment resident). *)
let adopt_tail t =
  if t.tail_count = 0 then
    match t.sealed with
    | i :: older when seg_count i < t.cap ->
        let d = seg_decoded t i in
        let count = seg_count i in
        t.tail <- List.rev (List.init count (Log_io.record d));
        t.tail_count <- count;
        t.tail_min <- i.s.seg_min;
        t.tail_nondet <- i.s.seg_nondet;
        t.sealed <- older;
        t.cache <- None
    | _ -> t.tail_min <- length t + 1

(* The tail written as the next segment file: its manifest row. A file
   written at a truncated sequence number is live again, so [sync] must
   not unlink it. *)
let write_tail t =
  let seq = next_seq t in
  let data = Log_io.print (List.rev t.tail) in
  guarded_write ~fault:t.fault ?fsync:t.fsync
    ~site:Uv_fault.Fault.Site.log_save ~key:seq ~path:(seg_path t seq) data;
  t.orphans <- List.filter (fun o -> o <> seq) t.orphans;
  {
    seg_seq = seq;
    seg_file = seg_name seq;
    seg_min = t.tail_min;
    seg_max = t.tail_min + t.tail_count - 1;
    seg_nondet = t.tail_nondet;
    seg_epoch = 0;
    seg_bytes = String.length data;
    seg_crc = Uv_util.Crc32.(to_hex (digest data));
  }

(* The full tail written and listed in memory; the manifest does not
   list it yet. *)
let seal_tail t =
  let s = write_tail t in
  t.sealed <- { s; valid = None } :: t.sealed;
  t.tail <- [];
  t.tail_min <- s.seg_max + 1;
  t.tail_count <- 0;
  t.tail_nondet <- 0;
  t.cache <- None

(* Buffer [r] into the tail; [true] when the tail is then full. *)
let push t (r : Log_io.record) =
  adopt_tail t;
  t.tail <- r :: t.tail;
  t.tail_count <- t.tail_count + 1;
  t.tail_nondet <- t.tail_nondet + List.length r.Log_io.r_nondet;
  t.dirty <- true;
  t.tail_count >= t.cap

(* after sealing: the manifest lists every sealed segment *)
let list_sealed t =
  write_manifest t ~tail_row:[];
  t.dirty <- t.tail_count > 0

let append t r =
  check_open t;
  if push t r then begin
    seal_tail t;
    list_sealed t
  end

let append_log t log =
  check_open t;
  let sealed =
    List.fold_left
      (fun sealed r ->
        if push t r then begin
          seal_tail t;
          true
        end
        else sealed)
      false (Log_io.records_of_log log)
  in
  if sealed then list_sealed t

let sync t =
  check_open t;
  if t.dirty then begin
    write_manifest t ~tail_row:(if t.tail_count > 0 then [ write_tail t ] else []);
    (* the shrunk manifest is durable; truncated chunk files can go *)
    List.iter
      (fun seq -> try Sys.remove (seg_path t seq) with Sys_error _ -> ())
      t.orphans;
    t.orphans <- [];
    t.dirty <- false
  end

let truncate t n =
  check_open t;
  if n < 0 then invalid_arg "Log_store.truncate: negative length";
  if n < length t then begin
    (if t.tail_count > 0 && n >= t.tail_min then begin
       (* the cut lies inside the open tail *)
       let keep = n - t.tail_min + 1 in
       let kept = List.filteri (fun j _ -> j < keep) (List.rev t.tail) in
       t.tail <- List.rev kept;
       t.tail_count <- keep;
       t.tail_nondet <- nondet_of_records kept
     end
     else begin
       t.tail <- [];
       t.tail_count <- 0;
       t.tail_nondet <- 0;
       let keep, drop = List.partition (fun i -> i.s.seg_min <= n) t.sealed in
       t.sealed <- keep;
       t.orphans <-
         t.orphans @ List.rev_map (fun i -> i.s.seg_seq) drop;
       match keep with
       | i :: older when i.s.seg_min + seg_count i - 1 > n ->
           (* boundary segment straddles the cut: re-open it as the
              trimmed tail so appends keep filling it *)
           let d = seg_decoded t i in
           let keep_n = n - i.s.seg_min + 1 in
           let kept = List.init keep_n (Log_io.record d) in
           t.sealed <- older;
           t.tail <- List.rev kept;
           t.tail_count <- keep_n;
           t.tail_min <- i.s.seg_min;
           t.tail_nondet <- nondet_of_records kept
       | _ -> t.tail_min <- n + 1
     end);
    t.cache <- None;
    t.dirty <- true
  end

let close t =
  if not t.closed then begin
    (* an empty, never-synced store still gets a manifest *)
    if t.dirty || t.manifest_len = 0 then sync t;
    t.closed <- true;
    t.cache <- None;
    t.tail <- []
  end

(* ------------------------------------------------------------------ *)
(* Entries and replay                                                   *)
(* ------------------------------------------------------------------ *)

let entry_of_record ~memo ~index (r : Log_io.record) =
  {
    Log.index;
    stmt = Uv_sql.Stmt_memo.parse memo r.Log_io.r_sql;
    sql = r.Log_io.r_sql;
    nondet = r.Log_io.r_nondet;
    rows_written = 0;
    written_hashes = [];
    undo = [];
    app_txn = r.Log_io.r_app_txn;
  }

let replay t eng =
  check_open t;
  Option.iter
    (fun ladder -> Checkpoint.set_boundaries ladder (boundaries t))
    (Engine.checkpoints eng);
  let skipped =
    fold_range t ~lo:1 ~hi:(length t) ~init:[] ~f:(fun acc i r ->
        try
          ignore
            (Engine.exec_sql ?app_txn:r.Log_io.r_app_txn
               ~nondet:r.Log_io.r_nondet eng r.Log_io.r_sql);
          acc
        with Engine.Sql_error _ | Engine.Signal_raised _ -> i :: acc)
  in
  List.rev skipped

(* ------------------------------------------------------------------ *)
(* Verify and salvage                                                   *)
(* ------------------------------------------------------------------ *)

type check = {
  chk_segment : int;
  chk_file : string;
  chk_records : int;
  chk_crc_ok : bool;
  chk_diag : Log_io.diagnosis option;
}

let damaged_diag reason =
  {
    Log_io.version = 0;
    total_bytes = 0;
    valid_records = 0;
    cut_at = Some 0;
    reason = Some reason;
  }

let verify ?segment t =
  check_open t;
  List.filter_map
    (fun i ->
      if segment <> None && segment <> Some i.s.seg_seq then None
      else
        let path = Filename.concat t.t_dir i.s.seg_file in
        match Uv_util.Safe_io.read_file path with
        | exception Sys_error m ->
            Some
              {
                chk_segment = i.s.seg_seq;
                chk_file = i.s.seg_file;
                chk_records = 0;
                chk_crc_ok = false;
                chk_diag = Some (damaged_diag ("cannot read segment: " ^ m));
              }
        | bytes ->
            t.resident_peak <- max t.resident_peak (String.length bytes);
            let d, diag = Log_io.salvage ~count:(seg_count i) bytes in
            let crc_ok =
              String.equal Uv_util.Crc32.(to_hex (digest bytes)) i.s.seg_crc
            in
            let expected = seg_count i in
            let found = Log_io.length d in
            let diag =
              if diag.Log_io.cut_at <> None then Some diag
              else if not crc_ok then
                Some
                  (damaged_diag
                     (Printf.sprintf
                        "segment checksum mismatch (manifest says %s)"
                        i.s.seg_crc))
              else if found <> expected then
                Some
                  (damaged_diag
                     (Printf.sprintf
                        "segment holds %d record(s), manifest says %d" found
                        expected))
              else None
            in
            Some
              {
                chk_segment = i.s.seg_seq;
                chk_file = i.s.seg_file;
                chk_records = found;
                chk_crc_ok = crc_ok;
                chk_diag = diag;
              })
    (List.rev t.sealed)

type salvage_report = {
  sr_records : int;
  sr_segments : int;
  sr_manifest_rebuilt : bool;
  sr_cut_segment : int option;
  sr_cut_at : int option;
  sr_reason : string option;
}

(* Scan the directory for seg-NNNNNN.ulog files when the manifest is
   unusable; contiguous from 1, ascending. *)
let scan_segment_files dir =
  let seqs =
    Array.to_list (try Sys.readdir dir with Sys_error _ -> [||])
    |> List.filter_map (fun name ->
           try Scanf.sscanf name "seg-%06d.ulog%!" (fun s -> Some s)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    |> List.sort compare
  in
  let rec contiguous expect = function
    | s :: rest when s = expect -> s :: contiguous (expect + 1) rest
    | _ -> []
  in
  contiguous 1 seqs

let open_salvage ?(fault = Uv_fault.Fault.disabled) ?fsync dir =
  let mpath = manifest_path dir in
  let manifest =
    if Sys.file_exists mpath then
      match Uv_util.Safe_io.read_file mpath with
      | text -> ( try Some (parse_manifest mpath text) with Error _ -> None)
      | exception Sys_error _ -> None
    else if is_store dir then Some (default_segment_cap, [])
    else None
  in
  let rebuilt = manifest = None in
  (* Walk segments in order, one resident at a time, cutting at the
     first damage and dropping everything after it. *)
  let cut = ref None in
  let salvage_seg ~seq ~expected ~crc =
    let path = Filename.concat dir (seg_name seq) in
    match Uv_util.Safe_io.read_file path with
    | exception Sys_error m ->
        cut := Some (seq, 0, "cannot read segment: " ^ m);
        None
    | bytes -> (
        let d, diag = Log_io.salvage bytes in
        let found = Log_io.length d in
        let crc_ok =
          match crc with
          | None -> true
          | Some c -> String.equal Uv_util.Crc32.(to_hex (digest bytes)) c
        in
        match diag.Log_io.cut_at with
        | Some off when found = 0 ->
            cut :=
              Some
                (seq, off,
                 Option.value diag.Log_io.reason ~default:"unknown damage");
            None
        | Some off ->
            cut :=
              Some
                (seq, off,
                 Option.value diag.Log_io.reason ~default:"unknown damage");
            Some (d, bytes, true)
        | None ->
            if not crc_ok then begin
              (* The file parses cleanly but disagrees with the manifest
                 — the signature of a crash between a tail-segment write
                 and the manifest update (the new file is the old one
                 plus appended records). Per-record CRCs vouch for every
                 parsed record, so keep the longest valid record prefix
                 instead of dropping the segment: manifest-acknowledged
                 records must survive salvage. *)
              cut :=
                Some
                  ( seq,
                    0,
                    "segment/manifest checksum mismatch (longest valid \
                     record prefix kept)" );
              if found = 0 then None else Some (d, bytes, true)
            end
            else if expected <> None && Some found <> expected then begin
              cut :=
                Some
                  (seq, 0,
                   Printf.sprintf
                     "segment holds %d record(s), manifest says %d" found
                     (Option.get expected));
              Some (d, bytes, true)
            end
            else Some (d, bytes, false))
  in
  let cap, rows =
    match manifest with
    | Some (cap, rows) -> (cap, rows)
    | None ->
        (* rebuild rows from the files on disk; counts fixed below *)
        let seqs = scan_segment_files dir in
        ( default_segment_cap,
          List.map
            (fun seq ->
              {
                seg_seq = seq;
                seg_file = seg_name seq;
                seg_min = 0 (* fixed below *);
                seg_max = 0;
                seg_nondet = 0;
                seg_epoch = 0;
                seg_bytes = 0;
                seg_crc = "";
              })
            seqs )
  in
  let kept = ref [] in
  let min_next = ref 1 in
  (try
     List.iter
       (fun row ->
         if !cut <> None then raise Exit;
         let expected =
           if rebuilt then None else Some (row.seg_max - row.seg_min + 1)
         in
         let crc = if rebuilt then None else Some row.seg_crc in
         match salvage_seg ~seq:row.seg_seq ~expected ~crc with
         | None -> raise Exit
         | Some (d, bytes, trimmed) ->
             let found = Log_io.length d in
             let nondet =
               (* recompute from the salvaged records when rebuilding *)
               if rebuilt || trimmed then
                 List.fold_left ( + ) 0 (List.init found (Log_io.nondet_count d))
               else row.seg_nondet
             in
             let s =
               {
                 row with
                 seg_min = !min_next;
                 seg_max = !min_next + found - 1;
                 seg_nondet = nondet;
                 seg_bytes = String.length bytes;
                 seg_crc = Uv_util.Crc32.(to_hex (digest bytes));
               }
             in
             min_next := !min_next + found;
             kept :=
               { s; valid = (if trimmed then Some found else None) } :: !kept;
             if trimmed then raise Exit)
       rows
   with Exit -> ());
  let sealed = List.filter (fun i -> seg_count i > 0) !kept in
  let t =
    {
      t_dir = dir;
      fault;
      fsync;
      cap;
        sealed;
      tail = [];
      tail_count = 0;
      tail_min = !min_next;
      tail_nondet = 0;
      cache = None;
      resident_peak = 0;
      manifest_len = 0;
      dirty = false;
      closed = false;
      orphans = [];
    }
  in
  let report =
    {
      sr_records = length t;
      sr_segments = List.length sealed;
      sr_manifest_rebuilt = rebuilt;
      sr_cut_segment = Option.map (fun (s, _, _) -> s) !cut;
      sr_cut_at = Option.map (fun (_, o, _) -> o) !cut;
      sr_reason = Option.map (fun (_, _, r) -> r) !cut;
    }
  in
  (t, report)

(* ------------------------------------------------------------------ *)
(* Attached ladder                                                     *)
(* ------------------------------------------------------------------ *)

let read_checkpoints t =
  check_open t;
  let path = Filename.concat t.t_dir checkpoints_name in
  if not (Sys.file_exists path) then []
  else
    let data = read_file_or_error path in
    try Dump.parse_checkpoints data
    with Dump.Corrupt reason ->
      raise (Error (Store_error.Corrupt_checkpoints { path; reason }))

(* ------------------------------------------------------------------ *)
(* Single-file helpers (the legacy formats, unified error type)         *)
(* ------------------------------------------------------------------ *)

let save_log_file ?(fault = Uv_fault.Fault.disabled) ?fsync log ~path =
  guarded_write ~fault ?fsync ~site:Uv_fault.Fault.Site.log_save ~key:0 ~path
    (Log_io.print (Log_io.records_of_log log))

let salvage_log_file ~path =
  let d, diag = Log_io.salvage (read_file_or_error path) in
  (Log_io.records d, diag)

let load_log_file ~path =
  let records, diag = salvage_log_file ~path in
  match diag.Log_io.reason with
  | None -> records
  | Some reason ->
      corrupt_segment ~seq:0 ~path
        ~offset:(Option.value diag.Log_io.cut_at ~default:diag.Log_io.total_bytes)
        reason

let save_dump_file ?(fault = Uv_fault.Fault.disabled) ?fsync cat ~path =
  guarded_write ~fault ?fsync ~site:Uv_fault.Fault.Site.dump_save ~key:0 ~path
    (Dump.to_sql cat)

let load_dump_file eng ~path =
  let data = read_file_or_error path in
  try Dump.restore eng data
  with Engine.Sql_error reason ->
    raise (Error (Store_error.Corrupt_dump { path; reason }))

let save_checkpoints_file ?(fault = Uv_fault.Fault.disabled) ?fsync ladder ~path
    =
  guarded_write ~fault ?fsync ~site:Uv_fault.Fault.Site.checkpoint_save ~key:0
    ~path
    (Dump.print_checkpoints ladder)

let load_checkpoints_file ~path =
  let data = read_file_or_error path in
  try Dump.parse_checkpoints data
  with Dump.Corrupt reason ->
    raise (Error (Store_error.Corrupt_checkpoints { path; reason }))
