(* The segmented history store (DESIGN.md §12): manifest integrity at
   every truncation point, segment seals falling inside application
   transactions, checkpoint-ladder alignment with segment boundaries,
   bit-equality with the legacy single-file path, salvage of a damaged
   prefix, and the joint replay-set path served from a streamed store. *)

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

(* ------------------------------------------------------------------ *)
(* The joint replay-set path over a streamed store                      *)
(* ------------------------------------------------------------------ *)

let test_joint_over_store () =
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
  for tau = 1 to 12 do
    let target = { Analyzer.tau; op = Analyzer.Remove } in
    let joint anl = Analyzer.replay_set ~mode:Analyzer.Joint anl target in
    let from_store = joint streamed in
    check
      Alcotest.(list int)
      (Printf.sprintf "tau %d: store-sourced joint = log-sourced joint" tau)
      (joint logged).Analyzer.member_indexes from_store.Analyzer.member_indexes;
    let cell = Analyzer.replay_set streamed target in
    List.iter
      (fun i ->
        check Alcotest.bool
          (Printf.sprintf "tau %d: joint member %d inside Cell" tau i)
          true
          (List.mem i cell.Analyzer.member_indexes))
      from_store.Analyzer.member_indexes
  done;
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
        ] );
      ( "integrity",
        [
          Alcotest.test_case "salvage damaged segment" `Quick
            test_salvage_damaged_segment;
          Alcotest.test_case "torn sync keeps old store" `Quick
            test_torn_sync_keeps_old_store;
          Alcotest.test_case "crash between tail write and manifest" `Quick
            test_crash_between_tail_write_and_manifest;
          Alcotest.test_case "tail truncation at every byte" `Quick
            test_tail_truncation_every_byte;
          Alcotest.test_case "truncate records" `Quick test_truncate_records;
          Alcotest.test_case "truncate unlinks orphans after manifest" `Quick
            test_truncate_unlinks_orphans_after_manifest;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "joint replay members over a store" `Quick
            test_joint_over_store;
        ] );
    ]
