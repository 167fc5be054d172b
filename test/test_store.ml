(* The segmented history store (DESIGN.md §12): manifest integrity at
   every truncation point, segment seals falling inside application
   transactions, checkpoint-ladder alignment with segment boundaries,
   bit-equality with the legacy single-file path, salvage of a damaged
   prefix, and the Cell replay-set path served from a streamed store. *)

open Uv_db
open Uv_retroactive
module F = Uv_fault.Fault
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let check = Alcotest.check

let run e sql = ignore (Engine.exec_sql e sql)

let with_store_dir f =
  let dir = Filename.temp_file "uv_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

(* A small history whose statements straddle segment seals: the schema
   DDL plus multi-statement application transactions, so a fresh engine
   can replay it from nothing. *)
let build_history ?(txns = 8) () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  for i = 1 to 4 do
    run e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i)
  done;
  for k = 1 to txns do
    let tag = Printf.sprintf "transfer-%d" k in
    let src = 1 + (k mod 4) and dst = 1 + ((k + 1) mod 4) in
    ignore
      (Engine.exec_sql ~app_txn:tag e
         (Printf.sprintf "UPDATE acct SET bal = bal - %d WHERE id = %d" k src));
    ignore
      (Engine.exec_sql ~app_txn:tag e
         (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" k dst));
    ignore
      (Engine.exec_sql ~app_txn:tag e
         (Printf.sprintf "INSERT INTO acct VALUES (%d, RAND())" (10 + k)))
  done;
  e

let fill_store dir ~cap e =
  let store = Log_store.open_ ~segment_cap:cap dir in
  Log_store.append_log store (Engine.log e);
  Log_store.close store

(* ------------------------------------------------------------------ *)
(* Manifest integrity                                                   *)
(* ------------------------------------------------------------------ *)

let test_manifest_truncation_every_byte () =
  with_store_dir @@ fun dir ->
  let e = build_history () in
  fill_store dir ~cap:3 e;
  let mpath = Filename.concat dir "MANIFEST" in
  let good = read_file mpath in
  let len = String.length good in
  check Alcotest.bool "manifest is non-trivial" true (len > 40);
  for cut = 0 to len - 1 do
    write_file mpath (String.sub good 0 cut);
    match Log_store.open_ dir with
    | _ ->
        Alcotest.fail
          (Printf.sprintf "truncation at byte %d went undetected" cut)
    | exception Log_store.Error (Log_store.Store_error.Corrupt_manifest _) ->
        ()
  done;
  write_file mpath good;
  let store = Log_store.open_ dir in
  check Alcotest.int "intact manifest still opens" (Log.length (Engine.log e))
    (Log_store.length store);
  Log_store.close store

(* ------------------------------------------------------------------ *)
(* Segment seals inside application transactions                        *)
(* ------------------------------------------------------------------ *)

let test_boundary_mid_transaction () =
  with_store_dir @@ fun dir ->
  let e = build_history () in
  (* cap 4 over 3-statement transactions: seals keep landing mid-txn *)
  fill_store dir ~cap:4 e;
  let store = Log_store.open_ dir in
  let spans_seal tag =
    let seqs = ref [] in
    Log.iter (Engine.log e) (fun entry ->
        if entry.Log.app_txn = Some tag then
          seqs :=
            (Log_store.segment_of_index store entry.Log.index)
              .Log_store.seg_seq
            :: !seqs);
    List.sort_uniq compare !seqs |> List.length > 1
  in
  check Alcotest.bool "some app txn straddles a seal" true
    (List.exists
       (fun k -> spans_seal (Printf.sprintf "transfer-%d" k))
       [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  let e2 = Engine.create () in
  let skipped = Log_store.replay store e2 in
  check Alcotest.(list int) "replay skips nothing" [] skipped;
  check Alcotest.int64 "replayed database is bit-identical"
    (Engine.db_hash e) (Engine.db_hash e2);
  (* the app-txn tags survive segmentation *)
  let tags log =
    let acc = ref [] in
    Log.iter log (fun entry -> acc := entry.Log.app_txn :: !acc);
    List.rev !acc
  in
  check
    Alcotest.(list (option string))
    "app-txn tags preserved" (tags (Engine.log e)) (tags (Engine.log e2));
  Log_store.close store

(* ------------------------------------------------------------------ *)
(* Checkpoint-ladder alignment                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_rung_at_boundary () =
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:12 () in
  fill_store dir ~cap:5 e;
  let store = Log_store.open_ dir in
  let bounds = Log_store.boundaries store in
  check Alcotest.bool "several sealed segments" true (List.length bounds >= 3);
  let e2 = Engine.create () in
  (* stride far beyond the history: every rung recorded comes from the
     declared segment boundaries, not the stride *)
  Engine.enable_checkpoints e2 ~every:1_000_000;
  ignore (Log_store.replay store e2);
  let ladder = Option.get (Engine.checkpoints e2) in
  let rungs = List.map fst (Checkpoint.rungs ladder) in
  check Alcotest.bool "a rung exists at a segment boundary" true
    (rungs <> []);
  List.iter
    (fun r ->
      check Alcotest.bool
        (Printf.sprintf "rung %d sits on a segment boundary" r)
        true (List.mem r bounds))
    rungs;
  Log_store.close store

(* ------------------------------------------------------------------ *)
(* Round-trip equality with the legacy single file                      *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_matches_single_file () =
  with_store_dir @@ fun dir ->
  let e = build_history () in
  let path = Filename.concat dir "legacy.ulog" in
  Log_store.save_log_file (Engine.log e) ~path;
  let sub = Filename.concat dir "store" in
  Sys.mkdir sub 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat sub n))
        (Sys.readdir sub);
      Sys.rmdir sub)
  @@ fun () ->
  fill_store sub ~cap:3 e;
  let store = Log_store.open_ sub in
  let from_file = Log_store.load_log_file ~path in
  check Alcotest.bool "record streams are identical" true
    (Log_store.records store = from_file);
  let replay_records records =
    let e2 = Engine.create () in
    let memo = Uv_sql.Stmt_memo.create () in
    List.iteri
      (fun i r ->
        let entry = Log_store.entry_of_record ~memo ~index:(i + 1) r in
        try
          ignore
            (Engine.exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn
               e2 entry.Log.stmt)
        with Engine.Sql_error _ -> ())
      records;
    Engine.db_hash e2
  in
  let e_store = Engine.create () in
  ignore (Log_store.replay store e_store);
  check Alcotest.int64 "store replay = single-file replay"
    (replay_records from_file) (Engine.db_hash e_store);
  check Alcotest.int64 "both match the original" (Engine.db_hash e)
    (Engine.db_hash e_store);
  Log_store.close store

(* A logged statement's persisted text reparses to the statement's own
   literals, equal in kind and value, through the parser and through the
   store's memoised decode: an analyzer over the store then keys rows by
   the values the live log's analyzer sees. Every workload's history,
   raw and transpiled. *)
let literals stmt =
  List.rev
    (Uv_sql.Visit.fold_stmt_exprs
       (fun acc -> function Uv_sql.Ast.Lit v -> v :: acc | _ -> acc)
       [] stmt)

let test_logged_text_reparses () =
  let show vs = String.concat ", " (List.map Uv_sql.Value.serialize vs) in
  let same a b =
    List.length a = List.length b && List.for_all2 Uv_sql.Value.equal a b
  in
  let memo = Uv_sql.Stmt_memo.create () in
  List.iter
    (fun (mode, mode_name) ->
      List.iter
        (fun (w : W.t) ->
          let eng, rt = W.setup ~mode w in
          let calls =
            w.W.target_call
            :: w.W.generate (Uv_util.Prng.create 61) ~scale:1 ~n:60 ~dep_rate:0.3
          in
          ignore (W.run_history rt ~mode calls);
          let log = Engine.log eng in
          List.iteri
            (fun i (r : Log_io.record) ->
              let index = i + 1 in
              let want = literals (Log.entry log index).Log.stmt in
              List.iter
                (fun (path, stmt) ->
                  let got = literals stmt in
                  if not (same want got) then
                    Alcotest.failf "%s %s #%d, %s: %S has [%s], logged [%s]"
                      w.W.name mode_name index path r.Log_io.r_sql (show got)
                      (show want))
                [
                  ("parser", Uv_sql.Parser.parse_stmt r.Log_io.r_sql);
                  ("store", (Log_store.entry_of_record ~memo ~index r).Log.stmt);
                ])
            (Log_io.records_of_log log))
        (W.all ()))
    [ (R.Raw, "raw"); (R.Transpiled, "transpiled") ]

(* ------------------------------------------------------------------ *)
(* Damage: verify flags it, salvage keeps the longest clean prefix      *)
(* ------------------------------------------------------------------ *)

let test_salvage_damaged_segment () =
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:12 () in
  fill_store dir ~cap:5 e;
  let clean = Log_store.open_ dir in
  let sealed =
    List.filter (fun s -> s.Log_store.seg_crc <> "") (Log_store.segments clean)
  in
  check Alcotest.bool "at least three sealed segments" true
    (List.length sealed >= 3);
  List.iter
    (fun c ->
      check Alcotest.bool
        (Printf.sprintf "segment %d verifies clean" c.Log_store.chk_segment)
        true
        (c.Log_store.chk_crc_ok && c.Log_store.chk_diag = None))
    (Log_store.verify clean);
  Log_store.close clean;
  (* cut segment 2 mid-record *)
  let victim = Filename.concat dir (List.nth sealed 1).Log_store.seg_file in
  let bytes = read_file victim in
  write_file victim (String.sub bytes 0 (String.length bytes - 4));
  let damaged = Log_store.open_ dir in
  let checks = Log_store.verify ~segment:2 damaged in
  check Alcotest.int "one check row for --segment 2" 1 (List.length checks);
  check Alcotest.bool "damage detected" true
    (List.for_all (fun c -> c.Log_store.chk_diag <> None) checks);
  Log_store.close damaged;
  let store, report = Log_store.open_salvage dir in
  check Alcotest.(option int) "cut in segment 2" (Some 2)
    report.Log_store.sr_cut_segment;
  let seg1 = List.nth sealed 0 in
  check Alcotest.bool "salvage keeps segment 1 and a prefix of segment 2"
    true
    (Log_store.length store >= seg1.Log_store.seg_max
    && Log_store.length store < Log.length (Engine.log e));
  (* the salvaged prefix replays cleanly *)
  let e2 = Engine.create () in
  ignore (Log_store.replay store e2);
  Log_store.close store

(* Damage on the plain read path: a sealed segment whose bytes were
   flipped, cut mid-record, or that holds fewer records than the
   manifest says is reported by [iter_range] and by an analyzer over
   [source_of_store] as the same [Corrupt_segment]: its segment, the
   segment-relative offset of the damaged record and the reason. *)

(* The offset of every record's Q line in a segment file. *)
let record_starts text =
  let starts = ref [] and at = ref 0 in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"Q " line then starts := !at :: !starts;
      at := !at + String.length line + 1)
    (String.split_on_char '\n' text);
  Array.of_list (List.rev !starts)

(* The manifest with segment [seq]'s byte count and CRC replaced, its
   trailing E line checksummed again. *)
let rewrite_manifest text ~seq ~bytes ~crc =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let body =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "S"; s; mn; mx; nd; ep; _; _ ] when int_of_string s = seq ->
            Some (String.concat " " [ "S"; s; mn; mx; nd; ep; string_of_int bytes; crc ])
        | "E" :: _ -> None
        | _ -> Some line)
      lines
  in
  let body = String.concat "\n" body ^ "\n" in
  body ^ Printf.sprintf "E %s\n" Uv_util.Crc32.(to_hex (digest body))

let test_corrupt_segment_on_read () =
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:12 () in
  fill_store dir ~cap:5 e;
  let seg2 =
    List.find (fun s -> s.Log_store.seg_seq = 2) (Log_store.segments (Log_store.open_ dir))
  in
  let path = Filename.concat dir seg2.Log_store.seg_file in
  let mpath = Filename.concat dir "MANIFEST" in
  let good = read_file path and good_manifest = read_file mpath in
  let starts = record_starts good in
  check Alcotest.int "segment 2 holds five records" 5 (Array.length starts);
  let expect_corrupt label ~offset ~reason =
    let caught f =
      match f () with
      | () -> Alcotest.fail (label ^ ": the damage went unreported")
      | exception
          Log_store.Error
            (Log_store.Store_error.Corrupt_segment { segment; path; offset; reason }) ->
          (segment, path, offset, reason)
    in
    List.iter
      (fun (via, read) ->
        let segment, got_path, got_offset, got_reason = caught read in
        let at = Printf.sprintf "%s via %s" label via in
        check Alcotest.int (at ^ ": segment") 2 segment;
        check Alcotest.string (at ^ ": path") path got_path;
        check Alcotest.int (at ^ ": offset") offset got_offset;
        check Alcotest.string (at ^ ": reason") reason got_reason)
      [
        ( "iter_range",
          fun () ->
            let store = Log_store.open_ dir in
            Log_store.iter_range store ~lo:1 ~hi:(Log_store.length store) (fun _ _ -> ()) );
        ( "source_of_store",
          fun () ->
            let anl = Analyzer.of_source (Analyzer.source_of_store (Log_store.open_ dir)) in
            Analyzer.require anl ~from:(Analyzer.length anl) );
      ]
  in
  let mismatch damaged =
    Printf.sprintf "segment checksum mismatch (stored %s, computed %s)"
      seg2.Log_store.seg_crc
      Uv_util.Crc32.(to_hex (digest damaged))
  in
  (* a flipped byte inside the second record's SQL *)
  let flipped = Bytes.of_string good in
  let at = starts.(1) + 4 in
  Bytes.set flipped at (Char.chr (Char.code good.[at] lxor 0x20));
  let flipped = Bytes.to_string flipped in
  write_file path flipped;
  expect_corrupt "flipped byte" ~offset:starts.(1) ~reason:(mismatch flipped);
  (* the file cut inside the third record *)
  let cut = String.sub good 0 (starts.(2) + 5) in
  write_file path cut;
  expect_corrupt "cut mid-record" ~offset:starts.(2) ~reason:(mismatch cut);
  (* four whole records where the manifest, CRC and size updated, says
     five *)
  let short = String.sub good 0 starts.(4) in
  write_file path short;
  write_file mpath
    (rewrite_manifest good_manifest ~seq:2 ~bytes:(String.length short)
       ~crc:Uv_util.Crc32.(to_hex (digest short)));
  expect_corrupt "record count" ~offset:0
    ~reason:"segment holds 4 record(s), manifest says 5"

(* ------------------------------------------------------------------ *)
(* The decoder against the line-by-line reference                       *)
(* ------------------------------------------------------------------ *)

let diag_text (d : Log_io.diagnosis) =
  Printf.sprintf "v%d, %d bytes, %d records, cut %s: %s" d.Log_io.version
    d.Log_io.total_bytes d.Log_io.valid_records
    (Option.fold ~none:"none" ~some:string_of_int d.Log_io.cut_at)
    (Option.value d.Log_io.reason ~default:"clean")

(* [Log_io.salvage], with every record built, gives what the reference
   gives, and builds each record's fields alike one by one; an
   escape-free SQL payload lies in the text as it is. Presized for one
   record (every offset array grown) and for the default. *)
let same_as_reference label text =
  let want, want_diag = Salvage_reference.salvage text in
  List.iter
    (fun count ->
      let label = Printf.sprintf "%s (count %d)" label count in
      let decoded, diag = Log_io.salvage ~count text in
      check Alcotest.string (label ^ ": diagnosis") (diag_text want_diag) (diag_text diag);
      if Log_io.records decoded <> want then Alcotest.failf "%s: records differ" label;
      List.iteri
        (fun k (r : Log_io.record) ->
          let off = Log_io.sql_offset decoded k in
          if
            Log_io.sql decoded k <> r.Log_io.r_sql
            || Log_io.app_txn decoded k <> r.Log_io.r_app_txn
            || Log_io.nondet_count decoded k <> List.length r.Log_io.r_nondet
            || off >= 0
               && String.sub (Log_io.text decoded) off (Log_io.sql_length decoded k)
                  <> r.Log_io.r_sql
            || (off < 0 && not (String.exists (fun c -> c = '\n' || c = '\r' || c = '\\') r.Log_io.r_sql))
          then Alcotest.failf "%s: record %d's fields differ" label k)
        want)
    [ 1; 64 ]

(* A short segment with every payload kind escaped somewhere: SQL and
   tags holding newlines, carriage returns and backslashes, and N lines
   of every value kind. *)
let short_segment =
  Log_io.print
    [
      { Log_io.r_sql = "INSERT INTO t VALUES ('a\nb\\c')"; r_nondet = [];
        r_app_txn = Some "tx\\1" };
      { Log_io.r_sql = "UPDATE t SET v = NOW()";
        r_nondet = Uv_sql.Value.[ Int (-7); Float 0.5; Text "x\ny\r\\"; Null; Bool true ];
        r_app_txn = None };
      { Log_io.r_sql = "DELETE FROM t"; r_nondet = [ Uv_sql.Value.Int 3 ];
        r_app_txn = Some "tx\n2" };
    ]

(* The same records as ULOGv1: no C lines. *)
let short_segment_v1 =
  String.split_on_char '\n' short_segment
  |> List.filter (fun l -> not (String.starts_with ~prefix:"C " l))
  |> List.map (fun l -> if l = "ULOGv2" then "ULOGv1" else l)
  |> String.concat "\n"

(* The same v2 text with a blank line before every line but the
   header: blank lines split a record's body, and its checksum skips
   them. *)
let short_segment_blank =
  String.concat "\n\n" (String.split_on_char '\n' short_segment)

let test_reference_workload_segments () =
  List.iter
    (fun (w : W.t) ->
      let eng, rt = W.setup ~mode:R.Raw w in
      let calls =
        w.W.target_call :: w.W.generate (Uv_util.Prng.create 77) ~scale:1 ~n:40 ~dep_rate:0.3
      in
      ignore (W.run_history rt ~mode:R.Raw calls);
      with_store_dir @@ fun dir ->
      fill_store dir ~cap:32 eng;
      let store = Log_store.open_ dir in
      let want =
        List.concat_map
          (fun s ->
            let text = read_file (Filename.concat dir s.Log_store.seg_file) in
            same_as_reference
              (Printf.sprintf "%s segment %d" w.W.name s.Log_store.seg_seq)
              text;
            fst (Salvage_reference.salvage text))
          (Log_store.segments store)
      in
      check Alcotest.bool (w.W.name ^ ": several segments") true
        (List.length (Log_store.segments store) > 1);
      (* the store's readers serve the reference's records *)
      let cursor = Log_store.cursor store in
      let rec walk acc =
        match Log_store.next cursor with Some (_, r) -> walk (r :: acc) | None -> List.rev acc
      in
      List.iter
        (fun (reader, got) ->
          if got <> want then Alcotest.failf "%s: %s records differ" w.W.name reader)
        [ ("records", Log_store.records store); ("cursor", walk []) ];
      Log_store.close store)
    (W.all ())

let test_reference_every_cut () =
  List.iter
    (fun (name, text) ->
      for cut = 0 to String.length text do
        same_as_reference (Printf.sprintf "%s cut at %d" name cut) (String.sub text 0 cut)
      done)
    [ ("v2", short_segment); ("v1", short_segment_v1); ("blank lines", short_segment_blank) ]

let test_reference_every_flip () =
  List.iter
    (fun (name, text) ->
      String.iteri
        (fun at c ->
          List.iter
            (fun b ->
              if b <> c then begin
                let damaged = Bytes.of_string text in
                Bytes.set damaged at b;
                same_as_reference
                  (Printf.sprintf "%s byte %d set to %C" name at b)
                  (Bytes.to_string damaged)
              end)
            (List.map (fun m -> Char.chr (Char.code c lxor m)) [ 0x01; 0x02; 0x20; 0x80 ]
            @ [ '\n'; '\\'; 'Q'; 'N'; 'A'; 'C'; 'E'; 'r'; '0' ]))
        text)
    [ ("v2", short_segment); ("v1", short_segment_v1) ]

(* ------------------------------------------------------------------ *)
(* Torn writes: sync never clobbers the previous good state             *)
(* ------------------------------------------------------------------ *)

let test_torn_sync_keeps_old_store () =
  with_store_dir @@ fun dir ->
  let e = build_history () in
  fill_store dir ~cap:1000 e;
  let before = Log_store.open_ dir in
  let n = Log_store.length before in
  let records = Log_store.records before in
  Log_store.close before;
  let fault = F.seeded ~torn_write:1.0 ~seed:11 () in
  let store = Log_store.open_ ~fault dir in
  Log_store.append store
    { Log_io.r_sql = "INSERT INTO acct VALUES (99, 1)"; r_nondet = [];
      r_app_txn = None };
  (match Log_store.sync store with
  | () -> Alcotest.fail "expected the torn write to escape"
  | exception F.Injected inj ->
      check Alcotest.string "site" F.Site.log_save inj.F.site);
  let after = Log_store.open_ dir in
  check Alcotest.int "record count unchanged on disk" n
    (Log_store.length after);
  check Alcotest.bool "records unchanged on disk" true
    (Log_store.records after = records);
  Log_store.close after

(* ------------------------------------------------------------------ *)
(* Crash-window recovery on the live (open) segment                     *)
(* ------------------------------------------------------------------ *)

let sqls store = List.map (fun r -> r.Log_io.r_sql) (Log_store.records store)

let test_crash_between_tail_write_and_manifest () =
  (* sync writes the tail segment file first, the manifest second. A
     crash between the two leaves a segment file that is a byte
     superset of what the manifest acknowledges (same prefix, appended
     records, stale CRC). Salvage must keep every manifest-acknowledged
     record — dropping the whole segment on the CRC mismatch would lose
     acked history. *)
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:4 () in
  let all = Log.length (Engine.log e) in
  let n = all - 5 in
  let store = Log_store.open_ ~segment_cap:1000 dir in
  List.iteri
    (fun i r -> if i < n then Log_store.append store r)
    (Log_io.records_of_log (Engine.log e));
  Log_store.close store;
  let old_manifest = read_file (Filename.concat dir "MANIFEST") in
  let store = Log_store.open_ dir in
  check Alcotest.int "first sync acknowledged" n (Log_store.length store);
  List.iteri
    (fun i r -> if i >= n then Log_store.append store r)
    (Log_io.records_of_log (Engine.log e));
  Log_store.close store;
  (* the crash: segment file holds [all] records, manifest says [n] *)
  write_file (Filename.concat dir "MANIFEST") old_manifest;
  let store, report = Log_store.open_salvage dir in
  check Alcotest.bool "salvage flagged the mismatch" true
    (report.Log_store.sr_cut_segment = Some 1);
  check Alcotest.bool "every acknowledged record survives" true
    (Log_store.length store >= n);
  (* the extra durable-but-unacknowledged records parse cleanly, so the
     longest valid prefix is the whole file; the Durable layer decides
     their fate against its intent journal *)
  check Alcotest.int "longest valid prefix kept" all (Log_store.length store);
  let expect = List.map (fun (r : Log_io.record) -> r.Log_io.r_sql)
      (Log_io.records_of_log (Engine.log e)) in
  check Alcotest.(list string) "records bit-identical" expect (sqls store);
  Log_store.close store

let test_tail_truncation_every_byte () =
  (* the manifest property extended to the open segment: cut the tail
     segment file at every byte; open_salvage must never raise and must
     serve an exact record prefix of the original history *)
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:3 () in
  fill_store dir ~cap:6 e;
  let full = Log_store.open_ dir in
  let expect = sqls full in
  let tail =
    match List.rev (Log_store.segments full) with
    | t :: _ -> t
    | [] -> Alcotest.fail "empty store"
  in
  Log_store.close full;
  check Alcotest.bool "history ends in a partial (open) segment" true
    (tail.Log_store.seg_max - tail.Log_store.seg_min + 1 < 6);
  let tpath = Filename.concat dir tail.Log_store.seg_file in
  let good = read_file tpath in
  let is_prefix got =
    List.length got <= List.length expect
    && List.for_all2 (fun a b -> String.equal a b)
         got
         (List.filteri (fun i _ -> i < List.length got) expect)
  in
  for cut = 0 to String.length good - 1 do
    write_file tpath (String.sub good 0 cut);
    let store, report = Log_store.open_salvage dir in
    let got = sqls store in
    check Alcotest.bool
      (Printf.sprintf "cut at byte %d salvages a record prefix" cut)
      true (is_prefix got);
    check Alcotest.bool
      (Printf.sprintf "cut at byte %d keeps sealed history" cut)
      true
      (List.length got >= tail.Log_store.seg_min - 1);
    if List.length got < List.length expect then
      check Alcotest.bool
        (Printf.sprintf "cut at byte %d diagnosed" cut)
        true
        (report.Log_store.sr_cut_segment <> None);
    Log_store.close store
  done;
  write_file tpath good;
  let store, _ = Log_store.open_salvage dir in
  check Alcotest.(list string) "restored tail serves everything" expect
    (sqls store);
  Log_store.close store

let test_truncate_records () =
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:6 () in
  fill_store dir ~cap:5 e;
  let full = Log_store.open_ dir in
  let expect = sqls full in
  let all = List.length expect in
  Log_store.close full;
  let prefix k l = List.filteri (fun i _ -> i < k) l in
  (* representative cuts: inside the tail, at a seal, inside a sealed
     segment (dropping whole segments behind it), and to zero *)
  List.iter
    (fun n ->
      let store = Log_store.open_ dir in
      Log_store.truncate store n;
      check Alcotest.int
        (Printf.sprintf "in-memory length after truncate %d" n)
        n (Log_store.length store);
      check
        Alcotest.(list string)
        (Printf.sprintf "records after truncate %d" n)
        (prefix n expect) (sqls store);
      Log_store.sync store;
      Log_store.close store;
      (* the cut is durable and the store reopens consistently *)
      let back = Log_store.open_ dir in
      check Alcotest.int
        (Printf.sprintf "durable length after truncate %d" n)
        n (Log_store.length back);
      check
        Alcotest.(list string)
        (Printf.sprintf "durable records after truncate %d" n)
        (prefix n expect) (sqls back);
      (* appends continue from the cut *)
      Log_store.append back
        { Log_io.r_sql = "INSERT INTO acct VALUES (77, 7)"; r_nondet = [];
          r_app_txn = None };
      check Alcotest.int "append after truncate" (n + 1)
        (Log_store.length back);
      Log_store.close back;
      (* rebuild the full store for the next cut *)
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      fill_store dir ~cap:5 e)
    [ all - 1; all - 3; 10; 5; 4; 1; 0 ];
  (* truncating to the current length (or beyond) is a no-op *)
  let store = Log_store.open_ dir in
  Log_store.truncate store all;
  Log_store.truncate store (all + 10);
  check Alcotest.int "no-op truncate" all (Log_store.length store);
  Log_store.close store

let test_truncate_unlinks_orphans_after_manifest () =
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:6 () in
  fill_store dir ~cap:4 e;
  let count_segs () =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".ulog")
    |> List.length
  in
  let before = count_segs () in
  check Alcotest.bool "several segment files" true (before >= 3);
  let store = Log_store.open_ dir in
  Log_store.truncate store 2;
  (* crash-ordering: no chunk file may vanish before the shrunk
     manifest is durable *)
  check Alcotest.int "files intact before sync" before (count_segs ());
  Log_store.sync store;
  check Alcotest.bool "orphan chunks unlinked after sync" true
    (count_segs () < before);
  Log_store.close store;
  let back = Log_store.open_ dir in
  check Alcotest.int "reopened at the cut" 2 (Log_store.length back);
  Log_store.close back

(* A truncate cuts whole segments away; a seal before the next sync
   writes a segment file at a truncated sequence number again, which the
   sync must not unlink with the orphans. *)
let test_truncate_then_seal_keeps_files () =
  with_store_dir @@ fun dir ->
  let r k = { Log_io.r_sql = Printf.sprintf "INSERT INTO t VALUES (%d)" k; r_nondet = []; r_app_txn = None } in
  let store = Log_store.open_ ~segment_cap:4 dir in
  for k = 1 to 12 do Log_store.append store (r k) done;
  Log_store.sync store;
  Log_store.truncate store 4;
  for k = 5 to 9 do Log_store.append store (r k) done;
  Log_store.sync store;
  Log_store.close store;
  let back = Log_store.open_ dir in
  check Alcotest.int "length" 9 (Log_store.length back);
  check Alcotest.(list string) "records"
    (List.init 9 (fun k -> (r (k + 1)).Log_io.r_sql))
    (sqls back);
  Log_store.close back

(* ------------------------------------------------------------------ *)
(* One manifest per append_log                                          *)
(* ------------------------------------------------------------------ *)

(* A store of two full segments (cap 4), then [append_log] of a 41-entry
   history: segments 3 to 12 sealed, one record left in the tail. *)
let pre_records =
  List.init 8 (fun k ->
      { Log_io.r_sql = Printf.sprintf "INSERT INTO pre VALUES (%d)" k; r_nondet = []; r_app_txn = None })

let pre_store ?fault dir =
  let store = Log_store.open_ ~segment_cap:4 dir in
  List.iter (Log_store.append store) pre_records;
  Log_store.close store;
  Log_store.open_ ?fault dir

let torn ~key ~hit =
  F.script [ { F.site = F.Site.log_save; key; hit; kind = F.Torn_write; arg = 0.5 } ]

(* The manifest is written once, at the end of the call: a tear aimed
   at its second write (key 0) does not fire inside the call, and the
   close that lists the tail is that second write. *)
let test_append_log_lists_once () =
  with_store_dir @@ fun dir ->
  let e = build_history ~txns:12 () in
  check Alcotest.int "history" 41 (Log.length (Engine.log e));
  let fault = torn ~key:0 ~hit:2 in
  let store = pre_store ~fault dir in
  Log_store.append_log store (Engine.log e);
  check Alcotest.int "every record" 49 (Log_store.length store);
  check Alcotest.int "sealed segments" 12 (List.length (Log_store.boundaries store));
  (match Log_store.close store with
  | () -> Alcotest.fail "the close's manifest write was the first after the call's"
  | exception F.Injected inj -> check Alcotest.int "its second manifest write" 2 inj.F.hit);
  let back = Log_store.open_ dir in
  check Alcotest.int "listed: every sealed segment" 48 (Log_store.length back);
  Log_store.close back

(* A tear at any segment write of an [append_log], or at its manifest
   write, leaves the store at its previous manifest: it reopens at the
   pre-call length with the pre-call records. Without a fault it lists
   every sealed segment. *)
let test_append_log_fault_keeps_store () =
  let e = build_history ~txns:12 () in
  let want_pre = List.map (fun r -> r.Log_io.r_sql) pre_records in
  List.iter
    (fun (label, fault) ->
      with_store_dir @@ fun dir ->
      let store = pre_store ~fault dir in
      (match Log_store.append_log store (Engine.log e) with
      | () -> Alcotest.failf "%s: the tear did not fire" label
      | exception F.Injected _ -> ());
      let back = Log_store.open_ dir in
      check Alcotest.int (label ^ ": pre-call length") 8 (Log_store.length back);
      check Alcotest.(list string) (label ^ ": pre-call records") want_pre (sqls back);
      Log_store.close back)
    (("manifest write", torn ~key:0 ~hit:1)
    :: List.init 10 (fun k ->
           (Printf.sprintf "segment %d write" (k + 3), torn ~key:(k + 3) ~hit:1)));
  with_store_dir @@ fun dir ->
  let store = pre_store dir in
  Log_store.append_log store (Engine.log e);
  let back = Log_store.open_ dir in
  check Alcotest.int "no fault: every sealed segment listed" 48 (Log_store.length back);
  check Alcotest.(list string) "no fault: records"
    (want_pre @ List.filteri (fun k _ -> k < 40)
                  (List.map (fun r -> r.Log_io.r_sql) (Log_io.records_of_log (Engine.log e))))
    (sqls back);
  Log_store.close back;
  Log_store.close store

(* Three records printed byte for byte: escapes in the SQL, every N
   value form, a tag, and each body's CRC-32. *)
let test_golden_segment () =
  let open Uv_sql.Value in
  check Alcotest.string "segment"
    "ULOGv2\nQ INSERT INTO t VALUES (1, 'a')\nC a0cd146d\nE\nQ UPDATE t SET v = \
     'x\\\\y\\nz\\r' WHERE id = 2\nN I7\nN T4:p\\nq\\\\\nN F0x1p-1\nN N\nN B1\nN I-3\nA \
     txn\\\\1\nC 3fe411d5\nE\nQ SELECT 1\nA t\nC 59af83e9\nE\n"
    (Log_io.print
       [
         { Log_io.r_sql = "INSERT INTO t VALUES (1, 'a')"; r_nondet = []; r_app_txn = None };
         {
           Log_io.r_sql = "UPDATE t SET v = 'x\\y\nz\r' WHERE id = 2";
           r_nondet = [ Int 7; Text "p\nq\\"; Float 0.5; Null; Bool true; Int (-3) ];
           r_app_txn = Some "txn\\1";
         };
         { Log_io.r_sql = "SELECT 1"; r_nondet = []; r_app_txn = Some "t" };
       ])

(* ------------------------------------------------------------------ *)
(* The Cell replay-set path over a streamed store                       *)
(* ------------------------------------------------------------------ *)

let test_cell_over_store () =
  let w = W.by_name "astore" in
  let eng, rt = W.setup ~mode:R.Raw w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:60 ~dep_rate:0.3 in
  ignore (W.run_history rt ~mode:R.Raw calls);
  with_store_dir @@ fun dir ->
  fill_store dir ~cap:16 eng;
  let store = Log_store.open_ dir in
  let streamed =
    Analyzer.of_source ~config:w.W.ri_config ~base
      (Analyzer.source_of_store store)
  in
  let logged = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  (* the what-ifs run on an engine replayed from the store, through its
     own handle, so [store]'s resident peak is the analysis's alone *)
  let e_store = Engine.create () in
  Engine.restore e_store base;
  let replayed = Log_store.open_ dir in
  ignore (Log_store.replay replayed e_store : int list);
  Log_store.close replayed;
  for tau = 1 to 12 do
    let target = { Analyzer.tau; op = Analyzer.Remove } in
    let members anl =
      (Analyzer.replay_set ~mode:Analyzer.Cell anl target).Analyzer.member_indexes
    in
    check
      Alcotest.(list int)
      (Printf.sprintf "tau %d: store-sourced Cell = log-sourced Cell" tau)
      (members logged) (members streamed);
    let whatif analyzer e =
      (Whatif.run_exn ~config:(Whatif.Config.make ~mode:Analyzer.Cell ())
         ~analyzer e target)
        .Whatif.final_db_hash
    in
    check Alcotest.int64
      (Printf.sprintf "tau %d: store-replayed Cell hash = original's" tau)
      (whatif logged eng) (whatif streamed e_store)
  done;
  (* the streamed analysis held at most one segment resident *)
  Analyzer.require streamed ~from:1;
  let largest =
    List.fold_left
      (fun a s -> max a s.Log_store.seg_bytes)
      0 (Log_store.segments store)
  in
  check Alcotest.bool "more than one segment" true
    (List.length (Log_store.segments store) > 1);
  check Alcotest.bool
    (Printf.sprintf "resident peak %d <= largest segment %d"
       (Log_store.resident_peak_bytes store) largest)
    true
    (Log_store.resident_peak_bytes store <= largest);
  Log_store.close store

let () =
  Alcotest.run "uv_store"
    [
      ( "manifest",
        [ Alcotest.test_case "truncation at every byte" `Quick
            test_manifest_truncation_every_byte ] );
      ( "segments",
        [
          Alcotest.test_case "seal mid-transaction" `Quick
            test_boundary_mid_transaction;
          Alcotest.test_case "checkpoint rung at boundary" `Quick
            test_checkpoint_rung_at_boundary;
          Alcotest.test_case "round-trip vs single file" `Quick
            test_roundtrip_matches_single_file;
          Alcotest.test_case "logged text reparses to its literals" `Quick
            test_logged_text_reparses;
          Alcotest.test_case "three records printed byte for byte" `Quick
            test_golden_segment;
          Alcotest.test_case "append_log lists its segments once" `Quick
            test_append_log_lists_once;
          Alcotest.test_case "a tear in append_log keeps the old manifest" `Quick
            test_append_log_fault_keeps_store;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "salvage damaged segment" `Quick
            test_salvage_damaged_segment;
          Alcotest.test_case "corrupt segment on the read path" `Quick
            test_corrupt_segment_on_read;
          Alcotest.test_case "decode = reference on workload segments" `Quick
            test_reference_workload_segments;
          Alcotest.test_case "decode = reference at every cut" `Quick
            test_reference_every_cut;
          Alcotest.test_case "decode = reference at every byte flip" `Quick
            test_reference_every_flip;
          Alcotest.test_case "torn sync keeps old store" `Quick
            test_torn_sync_keeps_old_store;
          Alcotest.test_case "crash between tail write and manifest" `Quick
            test_crash_between_tail_write_and_manifest;
          Alcotest.test_case "tail truncation at every byte" `Quick
            test_tail_truncation_every_byte;
          Alcotest.test_case "truncate records" `Quick test_truncate_records;
          Alcotest.test_case "truncate unlinks orphans after manifest" `Quick
            test_truncate_unlinks_orphans_after_manifest;
          Alcotest.test_case "truncate, then seal before a sync" `Quick
            test_truncate_then_seal_keeps_files;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "cell replay members over a store" `Quick
            test_cell_over_store;
        ] );
    ]
