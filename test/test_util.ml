(* Unit and property tests for ultraverse.util: PRNG determinism, the
   incremental table hash (§4.5 algebra), DAG scheduling, stats, and the
   table renderer. *)

open Uv_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seed_changes_stream () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let sa = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" false (sa = sb)

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  check Alcotest.int "copies continue identically" (Prng.int a 1000) (Prng.int b 1000)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_int_range_inclusive =
  QCheck.Test.make ~name:"Prng.int_range inclusive" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, span) ->
      let p = Prng.create seed in
      let v = Prng.int_range p lo (lo + span) in
      v >= lo && v <= lo + span)

let test_prng_shuffle_permutation () =
  let p = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_chance_extremes () =
  let p = Prng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Prng.chance p 1.0)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 always false" false (Prng.chance p 0.0)
  done

let test_alpha_string () =
  let p = Prng.create 9 in
  let s = Prng.alpha_string p 16 in
  check Alcotest.int "length" 16 (String.length s);
  String.iter (fun c -> Alcotest.(check bool) "lowercase" true (c >= 'a' && c <= 'z')) s

(* ------------------------------------------------------------------ *)
(* Table_hash                                                           *)
(* ------------------------------------------------------------------ *)

let test_hash_empty_zero () =
  check Alcotest.int64 "empty hash is 0" 0L (Table_hash.value (Table_hash.create ()))

let test_hash_add_remove_inverse () =
  let h = Table_hash.create () in
  Table_hash.add_row h "row-a";
  Table_hash.add_row h "row-b";
  Table_hash.remove_row h "row-a";
  Table_hash.remove_row h "row-b";
  check Alcotest.int64 "back to empty" 0L (Table_hash.value h)

let test_hash_order_independent () =
  let h1 = Table_hash.create () and h2 = Table_hash.create () in
  Table_hash.add_row h1 "x";
  Table_hash.add_row h1 "y";
  Table_hash.add_row h1 "z";
  Table_hash.add_row h2 "z";
  Table_hash.add_row h2 "x";
  Table_hash.add_row h2 "y";
  check Alcotest.int64 "same multiset, same hash" (Table_hash.value h1)
    (Table_hash.value h2)

let test_hash_distinguishes_content () =
  let h1 = Table_hash.create () and h2 = Table_hash.create () in
  Table_hash.add_row h1 "alice";
  Table_hash.add_row h2 "bob";
  Alcotest.(check bool) "different rows differ" false
    (Int64.equal (Table_hash.value h1) (Table_hash.value h2))

let prop_hash_update_equals_delete_insert =
  QCheck.Test.make ~name:"update = remove old + add new" ~count:200
    QCheck.(triple string string string)
    (fun (a, b, c) ->
      let h1 = Table_hash.create () in
      Table_hash.add_row h1 a;
      Table_hash.add_row h1 b;
      Table_hash.remove_row h1 b;
      Table_hash.add_row h1 c;
      let h2 = Table_hash.create () in
      Table_hash.add_row h2 a;
      Table_hash.add_row h2 c;
      Int64.equal (Table_hash.value h1) (Table_hash.value h2))

let prop_hash_in_range =
  QCheck.Test.make ~name:"hash stays in [0, p)" ~count:500
    QCheck.(small_list string)
    (fun rows ->
      let h = Table_hash.create () in
      List.iter (Table_hash.add_row h) rows;
      let v = Table_hash.value h in
      Int64.compare v 0L >= 0 && Int64.unsigned_compare v Table_hash.modulus < 0)

let test_hash_digest_in_range () =
  List.iter
    (fun s ->
      let d = Table_hash.row_digest s in
      Alcotest.(check bool) "digest < p" true
        (Int64.unsigned_compare d Table_hash.modulus < 0))
    [ ""; "a"; "hello world"; String.make 1000 'x' ]

let test_hash_combine_order_sensitive () =
  let a = Table_hash.combine [ 1L; 2L ] and b = Table_hash.combine [ 2L; 1L ] in
  Alcotest.(check bool) "order matters across tables" false (Int64.equal a b)

(* ------------------------------------------------------------------ *)
(* Conflict_dag: the replay DAG's graph laws                           *)
(* ------------------------------------------------------------------ *)

module Cdag = Uv_retroactive.Conflict_dag

let chain_dag n =
  Cdag.build ~nodes:(List.init n Fun.id)
    ~edges:(List.init (n - 1) (fun i -> (i + 1, i)))

let test_dag_topological () =
  (* a diamond plus a chain: concatenated waves run every node after its
     dependencies *)
  let edges = [ (1, 0); (2, 0); (3, 1); (3, 2); (5, 4) ] in
  let dag = Cdag.build ~nodes:[ 0; 1; 2; 3; 4; 5 ] ~edges in
  let order = List.concat (Cdag.waves dag) in
  let rec index x k = function
    | [] -> Alcotest.failf "node %d missing from the waves" x
    | y :: rest -> if y = x then k else index x (k + 1) rest
  in
  List.iter
    (fun (l, e) ->
      if index e 0 order >= index l 0 order then
        Alcotest.failf "%d does not precede %d" e l)
    edges;
  check Alcotest.(list int) "chain order" [ 0; 1; 2; 3 ]
    (List.concat (Cdag.waves (chain_dag 4)))

let test_dag_dedup_edges () =
  let dag = Cdag.build ~nodes:[ 0; 1 ] ~edges:[ (1, 0); (1, 0); (1, 0) ] in
  check Alcotest.int "deduplicated" 1 (Cdag.edge_count dag);
  check Alcotest.(list (pair int int)) "single edge" [ (1, 0) ] (Cdag.edges dag);
  let dag =
    Cdag.of_preds ~nodes:[| 5; 7; 9 |] [| [||]; [| 0; 0 |]; [| 1; 0; 1 |] |]
  in
  check
    Alcotest.(list (pair int int))
    "positions map to ids, sorted and distinct"
    [ (7, 5); (9, 5); (9, 7) ]
    (Cdag.edges dag)

let test_dag_makespan_serial_chain () =
  let w = [| 1.0; 2.0; 3.0 |] in
  check (Alcotest.float 1e-9) "chain = sum" 6.0
    (Cdag.makespan (chain_dag 3) ~weight:(fun i -> w.(i)) ~workers:8)

let test_dag_makespan_parallel () =
  (* four independent unit tasks *)
  let dag = Cdag.build ~nodes:[ 0; 1; 2; 3 ] ~edges:[] in
  let ms workers = Cdag.makespan dag ~weight:(fun _ -> 1.0) ~workers in
  check (Alcotest.float 1e-9) "infinite workers" 1.0 (ms 8);
  check (Alcotest.float 1e-9) "two workers" 2.0 (ms 2);
  check (Alcotest.float 1e-9) "serial" 4.0 (ms 1)

let prop_makespan_bounds =
  (* makespan is between critical path (many workers) and serial sum *)
  QCheck.Test.make ~name:"makespan between critical path and serial sum" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 1 4))
    (fun (n, workers) ->
      let prng = Prng.create (n * 31) in
      let edges =
        List.filter_map
          (fun i ->
            if i > 0 && Prng.bool prng then Some (i, Prng.int prng i) else None)
          (List.init n Fun.id)
      in
      let dag = Cdag.build ~nodes:(List.init n Fun.id) ~edges in
      let weight i = 1.0 +. float_of_int (i mod 3) in
      let serial =
        List.fold_left (fun acc i -> acc +. weight i) 0.0 (List.init n Fun.id)
      in
      let cp = Cdag.makespan dag ~weight ~workers:max_int in
      let m = Cdag.makespan dag ~weight ~workers in
      m >= cp -. 1e-9 && m <= serial +. 1e-9)

(* Every edge points backwards, so no cycle can be built: a forward edge,
   a self edge or an unknown endpoint is refused. *)
let test_dag_cycle_detected () =
  let refused label f =
    match f () with
    | (_ : Cdag.t) -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument _ -> ()
  in
  refused "a forward edge" (fun () ->
      Cdag.build ~nodes:[ 0; 1 ] ~edges:[ (1, 0); (0, 1) ]);
  refused "a self edge" (fun () -> Cdag.build ~nodes:[ 0; 1 ] ~edges:[ (1, 1) ]);
  refused "an unknown endpoint" (fun () ->
      Cdag.build ~nodes:[ 0; 1 ] ~edges:[ (1, 7) ]);
  refused "descending nodes" (fun () -> Cdag.build ~nodes:[ 1; 0 ] ~edges:[]);
  refused "a position past its node" (fun () ->
      Cdag.of_preds ~nodes:[| 0; 1 |] [| [| 1 |]; [||] |])

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_median () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean [])

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "constant stddev" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "known stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile 99.0 xs)

let test_stats_geomean () =
  check (Alcotest.float 1e-9) "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ])

(* ------------------------------------------------------------------ *)
(* Textgrid                                                             *)
(* ------------------------------------------------------------------ *)

let test_textgrid_renders () =
  let t = Textgrid.create ~title:"demo" ~header:[ "a"; "b" ] in
  Textgrid.add_row t [ "1"; "2" ];
  Textgrid.add_row t [ "333" ];
  let s = Textgrid.render t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "pads short rows" true
    (String.index_opt s '3' <> None)

let test_textgrid_formats () =
  check Alcotest.string "ms" "0.500ms" (Textgrid.fmt_ms 0.5);
  check Alcotest.string "s" "1.50s" (Textgrid.fmt_ms 1500.0);
  check Alcotest.string "hours" "2.00H" (Textgrid.fmt_ms 7_200_000.0);
  check Alcotest.string "bytes" "100b" (Textgrid.fmt_bytes 100);
  check Alcotest.string "mb" "2.0MB" (Textgrid.fmt_bytes (2 * 1024 * 1024));
  check Alcotest.string "speedup" "23.6x" (Textgrid.fmt_speedup 23.6)

(* ------------------------------------------------------------------ *)
(* Clock                                                                *)
(* ------------------------------------------------------------------ *)

let test_clock_simulated () =
  let c = Clock.create ~rtt_ms:2.0 () in
  Clock.charge_rtt c ();
  Clock.charge_rtt c ~count:3 ();
  Clock.charge_ms c 10.0;
  check (Alcotest.float 1e-9) "simulated" 18.0 (Clock.simulated_ms c);
  Clock.reset c;
  check (Alcotest.float 1e-9) "reset" 0.0 (Clock.simulated_ms c)

let test_clock_real_monotonic () =
  let c = Clock.create () in
  let a = Clock.real_elapsed_ms c in
  let b = Clock.real_elapsed_ms c in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

let test_clock_now_monotonic () =
  (* now_ms is a monotonic clock (CLOCK_MONOTONIC stub), not wall time:
     a dense sample burst must never step backwards *)
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 100_000 do
    let t = Clock.now_ms () in
    if t < !prev then
      Alcotest.failf "clock stepped backwards: %.9f after %.9f" t !prev;
    prev := t
  done

let test_clock_now_advances () =
  let a = Clock.now_ms () in
  let x = ref 0 in
  for i = 1 to 2_000_000 do x := !x + i done;
  ignore (Sys.opaque_identity !x);
  Alcotest.(check bool) "strictly advances over real work" true
    (Clock.now_ms () > a)

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_covers_all_items () =
  let pool = Domain_pool.create ~workers:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let n = 10_000 in
  let hits = Array.make n 0 in
  Domain_pool.run pool ~count:n (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "item %d ran %d times" i c)
    hits

let test_pool_reuse_across_waves () =
  (* one pool, many waves — the wave executor's usage pattern *)
  let pool = Domain_pool.create ~workers:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let total = Atomic.make 0 in
  for wave = 1 to 50 do
    Domain_pool.run pool ~count:wave (fun _ -> Atomic.incr total)
  done;
  check Alcotest.int "all waves' items ran" (50 * 51 / 2) (Atomic.get total)

let test_pool_contended_counter () =
  let pool = Domain_pool.create ~workers:8 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let total = Atomic.make 0 in
  Domain_pool.run pool ~count:100_000 (fun _ -> Atomic.incr total);
  check Alcotest.int "no lost updates" 100_000 (Atomic.get total)

let test_pool_exception_propagates () =
  let pool = Domain_pool.create ~workers:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  (match
     Domain_pool.run pool ~count:100 (fun i -> if i = 37 then failwith "boom")
   with
  | () -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Failure msg -> check Alcotest.string "first exception" "boom" msg);
  (* the pool survives a failed job *)
  let ok = Atomic.make 0 in
  Domain_pool.run pool ~count:10 (fun _ -> Atomic.incr ok);
  check Alcotest.int "pool usable after failure" 10 (Atomic.get ok)

let test_pool_shutdown_idempotent () =
  let pool = Domain_pool.create ~workers:3 in
  Domain_pool.run pool ~count:5 (fun _ -> ());
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool

let test_pool_single_lane () =
  let pool = Domain_pool.create ~workers:1 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  check Alcotest.int "one lane" 1 (Domain_pool.lanes pool);
  let sum = ref 0 in
  (* workers:1 runs on the caller: unsynchronised state is safe *)
  Domain_pool.run pool ~count:1000 (fun i -> sum := !sum + i);
  check Alcotest.int "caller-lane sum" (999 * 1000 / 2) !sum

(* ------------------------------------------------------------------ *)
(* Rwlock                                                               *)
(* ------------------------------------------------------------------ *)

let test_rwlock_nested_read () =
  let l = Rwlock.create () in
  let v = Rwlock.read l (fun () -> Rwlock.read l (fun () -> 42)) in
  check Alcotest.int "recursive read admitted" 42 v

let test_rwlock_readers_overlap () =
  (* reader-preferring: all readers must be admitted simultaneously.
     Each reader enters the read side and spins until every other reader
     has entered too — this can only terminate if the read side is
     genuinely shared. *)
  let l = Rwlock.create () in
  let n = 4 in
  let inside = Atomic.make 0 in
  let readers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Rwlock.read l (fun () ->
                Atomic.incr inside;
                while Atomic.get inside < n do
                  Domain.cpu_relax ()
                done)))
  in
  List.iter Domain.join readers;
  check Alcotest.int "all readers were inside at once" n (Atomic.get inside)

let test_rwlock_writers_exclusive () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let per_domain = 20_000 and domains = 4 in
  let writers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              (* plain ref: only writer exclusivity makes this exact *)
              Rwlock.write l (fun () -> counter := !counter + 1)
            done))
  in
  List.iter Domain.join writers;
  check Alcotest.int "no lost increments" (domains * per_domain) !counter

let test_rwlock_writer_progress_after_readers () =
  (* starvation is accepted *while readers hold the lock*; once the
     reader stream drains, a queued writer must run promptly *)
  let l = Rwlock.create () in
  let stop_readers = Atomic.make false in
  let wrote = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop_readers) do
          Rwlock.read l (fun () -> Domain.cpu_relax ())
        done)
  in
  let writer =
    Domain.spawn (fun () -> Rwlock.write l (fun () -> Atomic.set wrote true))
  in
  (* let the writer contend with the reader stream briefly, then drain *)
  let t0 = Clock.now_ms () in
  while Clock.now_ms () -. t0 < 20.0 do
    Domain.cpu_relax ()
  done;
  Atomic.set stop_readers true;
  Domain.join writer;
  Domain.join reader;
  Alcotest.(check bool) "writer completed once readers drained" true
    (Atomic.get wrote)

let test_rwlock_writer_priority_bounded_wait () =
  (* the starvation regression the serve daemon relies on: under a
     saturating stream of readers, a writer on a writer-priority lock
     waits at most the read sections already in flight — queued behind
     it, no *new* reader is admitted. The generous bound absorbs CI
     scheduling noise; a reader-preferring lock fails it by seconds. *)
  let l = Rwlock.create ~writer_priority:true () in
  let stop = Atomic.make false in
  let reads = Atomic.make 0 in
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Rwlock.read l (fun () ->
                  Atomic.incr reads;
                  Domain.cpu_relax ())
            done))
  in
  (* let the reader stream saturate the lock first *)
  while Atomic.get reads < 1000 do
    Domain.cpu_relax ()
  done;
  let writes = 50 in
  let t0 = Clock.now_ms () in
  for _ = 1 to writes do
    Rwlock.write l (fun () -> ())
  done;
  let elapsed = Clock.now_ms () -. t0 in
  Atomic.set stop true;
  List.iter Domain.join readers;
  if elapsed > 2000.0 then
    Alcotest.failf "%d writes took %.0f ms against the reader stream" writes
      elapsed

let test_rwlock_writer_priority_readers_still_share () =
  (* priority only bites while a writer waits: with none queued, the
     read side must still be concurrently shared *)
  let l = Rwlock.create ~writer_priority:true () in
  let n = 4 in
  let inside = Atomic.make 0 in
  let readers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Rwlock.read l (fun () ->
                Atomic.incr inside;
                while Atomic.get inside < n do
                  Domain.cpu_relax ()
                done)))
  in
  List.iter Domain.join readers;
  check Alcotest.int "all readers inside at once" n (Atomic.get inside);
  check Alcotest.int "no waiting writers" 0 (Rwlock.waiting_writers l);
  check Alcotest.int "no active readers" 0 (Rwlock.active_readers l)

let test_rwlock_read_write_interleave () =
  let l = Rwlock.create () in
  let v = ref 0 in
  let iters = 5_000 in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to iters do
          Rwlock.write l (fun () -> v := i)
        done)
  in
  let reader =
    Domain.spawn (fun () ->
        let last = ref 0 in
        for _ = 1 to iters do
          Rwlock.read l (fun () ->
              let x = !v in
              (* writes are ordered, so observed values never regress *)
              if x < !last then Alcotest.failf "read %d after %d" x !last;
              last := x)
        done)
  in
  Domain.join writer;
  Domain.join reader;
  check Alcotest.int "final value" iters !v

(* ------------------------------------------------------------------ *)
(* Frame_io                                                             *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads =
        [ ""; "x"; "{\"id\":1}"; String.make 100_000 '\xfe'; "end" ]
      in
      List.iter (Frame_io.write_frame a) payloads;
      List.iter
        (fun expect ->
          match Frame_io.read_frame b with
          | Ok got -> check Alcotest.string "payload" expect got
          | Error e -> Alcotest.failf "read: %s" (Frame_io.error_to_string e))
        payloads)

let test_frame_oversized () =
  with_socketpair (fun a b ->
      Frame_io.write_frame a (String.make 4096 'z');
      match Frame_io.read_frame ~max_len:1024 b with
      | Error (`Oversized n) -> check Alcotest.int "announced length" 4096 n
      | Ok _ | Error `Closed -> Alcotest.fail "oversized frame accepted")

let test_frame_closed_mid_prefix () =
  with_socketpair (fun a b ->
      (* two bytes of length prefix, then EOF: must be `Closed, not a hang *)
      ignore (Unix.write_substring a "\x00\x00" 0 2);
      Unix.close a;
      match Frame_io.read_frame b with
      | Error `Closed -> ()
      | Ok _ | Error (`Oversized _) -> Alcotest.fail "torn prefix accepted")

let test_frame_closed_mid_payload () =
  with_socketpair (fun a b ->
      (* announce 100 bytes, deliver 3, hang up *)
      ignore (Unix.write_substring a "\x00\x00\x00\x64abc" 0 7);
      Unix.close a;
      match Frame_io.read_frame b with
      | Error `Closed -> ()
      | Ok _ | Error (`Oversized _) -> Alcotest.fail "torn payload accepted")

let test_frame_decoder_dribble () =
  (* the incremental decoder must survive arbitrary fragmentation:
     feed a 3-frame stream one byte at a time *)
  let buf = Buffer.create 64 in
  let payloads = [ "alpha"; ""; "{\"k\":[1,2,3]}" ] in
  List.iter
    (fun p ->
      let n = String.length p in
      Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
      Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (n land 0xff));
      Buffer.add_string buf p)
    payloads;
  let stream = Buffer.contents buf in
  let d = Frame_io.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame_io.Decoder.feed d (Bytes.make 1 c) ~off:0 ~len:1;
      let rec drain () =
        match Frame_io.Decoder.next d with
        | Ok (Some p) ->
            got := p :: !got;
            drain ()
        | Ok None -> ()
        | Error (`Oversized n) -> Alcotest.failf "oversized %d" n
      in
      drain ())
    stream;
  check Alcotest.(list string) "frames" payloads (List.rev !got);
  check Alcotest.int "nothing buffered" 0 (Frame_io.Decoder.buffered d)

let test_frame_decoder_oversized () =
  let d = Frame_io.Decoder.create ~max_len:16 () in
  Frame_io.Decoder.feed d (Bytes.of_string "\x00\x01\x00\x00") ~off:0 ~len:4;
  match Frame_io.Decoder.next d with
  | Error (`Oversized n) -> check Alcotest.int "announced" 65536 n
  | Ok _ -> Alcotest.fail "oversized prefix accepted"

let encode_frame payload =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let test_frame_byte_at_a_time_nonblocking () =
  (* deliver one frame a single byte at a time into a nonblocking
     socket: read_frame must park on EAGAIN between bytes and still
     assemble the exact payload — each of its internal reads is a
     short transfer *)
  with_socketpair (fun a b ->
      Unix.set_nonblock b;
      let payload = "one\x00byte\xffat a time " ^ String.make 200 'q' in
      let stream = encode_frame payload in
      let writer =
        Domain.spawn (fun () ->
            String.iter
              (fun c ->
                ignore (Unix.write a (Bytes.make 1 c) 0 1);
                if Char.code c land 7 = 0 then Unix.sleepf 0.0002)
              stream)
      in
      let got = Frame_io.read_frame b in
      Domain.join writer;
      match got with
      | Ok got -> check Alcotest.string "payload" payload got
      | Error e -> Alcotest.failf "read: %s" (Frame_io.error_to_string e))

let test_frame_nonblocking_write_backpressure () =
  (* a frame far larger than the socket buffer through a nonblocking
     writer: write_frame must absorb partial writes and EAGAIN while a
     slow reader drains the other end *)
  with_socketpair (fun a b ->
      Unix.set_nonblock a;
      let payload = String.init (2 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
      let writer = Domain.spawn (fun () -> Frame_io.write_frame a payload) in
      let got = Frame_io.read_frame ~max_len:(4 * 1024 * 1024) b in
      Domain.join writer;
      match got with
      | Ok got ->
          Alcotest.(check bool) "payload intact" true (String.equal payload got)
      | Error e -> Alcotest.failf "read: %s" (Frame_io.error_to_string e))

let test_frame_interrupted_syscalls () =
  (* pepper the process with signals while a large frame crosses a
     socketpair: reads and writes interrupted by EINTR must resume,
     not raise, and the payload must arrive intact *)
  let previous = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.signal Sys.sigusr1 previous))
    (fun () ->
      with_socketpair (fun a b ->
          let payload = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
          let writer = Domain.spawn (fun () -> Frame_io.write_frame a payload) in
          let stop = Atomic.make false in
          let pid = Unix.getpid () in
          let signaler =
            Domain.spawn (fun () ->
                while not (Atomic.get stop) do
                  (try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ());
                  Unix.sleepf 0.0005
                done)
          in
          let got = Frame_io.read_frame ~max_len:(2 lsl 20) b in
          Atomic.set stop true;
          Domain.join writer;
          Domain.join signaler;
          match got with
          | Ok got ->
              Alcotest.(check bool) "payload intact" true
                (String.equal payload got)
          | Error e -> Alcotest.failf "read: %s" (Frame_io.error_to_string e)))

(* ------------------------------------------------------------------ *)
(* Domain_pool.Queue                                                    *)
(* ------------------------------------------------------------------ *)

module Q = Domain_pool.Queue

let test_queue_no_lost_tasks () =
  (* N producer domains, interleaved submits with saturation retries:
     every task runs exactly once, none lost, none duplicated *)
  let q = Q.create ~workers:3 ~capacity:8 in
  let producers = 4 and per_producer = 500 in
  let ran = Array.init producers (fun _ -> Array.make per_producer 0) in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              let rec go () =
                match
                  Q.submit q (fun () -> ran.(p).(i) <- ran.(p).(i) + 1)
                with
                | `Accepted -> ()
                | `Saturated ->
                    Domain.cpu_relax ();
                    go ()
                | `Shutdown -> Alcotest.fail "premature shutdown"
              in
              go ()
            done))
  in
  List.iter Domain.join doms;
  Q.wait_idle q;
  Q.shutdown q;
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun i n -> if n <> 1 then Alcotest.failf "task %d.%d ran %d times" p i n)
        row)
    ran;
  check Alcotest.int "completed counter" (producers * per_producer)
    (Q.completed q);
  check Alcotest.int "no failures" 0 (Q.failures q)

let test_queue_saturated_then_drains () =
  let q = Q.create ~workers:1 ~capacity:2 in
  let gate = Atomic.make false in
  let block () =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done
  in
  (* occupy the only worker, then fill the queue to capacity *)
  check Alcotest.bool "worker occupied" true (Q.submit q block = `Accepted);
  (* the blocker may or may not have been picked up yet; keep pushing
     until two tasks sit queued behind it *)
  let rec fill n =
    if n > 0 then
      match Q.submit q ignore with
      | `Accepted -> fill (n - 1)
      | `Saturated -> fill n
      | `Shutdown -> Alcotest.fail "shutdown"
  in
  fill 2;
  (* now the queue holds >= capacity pending work: admission must refuse *)
  let refused =
    match Q.submit q ignore with `Saturated -> true | _ -> false
  in
  Atomic.set gate true;
  Q.wait_idle q;
  Alcotest.(check bool) "refused at capacity" true refused;
  (* after draining, admission recovers *)
  check Alcotest.bool "accepts again" true (Q.submit q ignore = `Accepted);
  Q.wait_idle q;
  Q.shutdown q

let test_queue_shutdown_refuses () =
  let q = Q.create ~workers:2 ~capacity:4 in
  Q.shutdown q;
  check Alcotest.bool "post-shutdown submit" true (Q.submit q ignore = `Shutdown)

let test_queue_task_exceptions_counted () =
  let q = Q.create ~workers:2 ~capacity:16 in
  for _ = 1 to 5 do
    match Q.submit q (fun () -> failwith "boom") with
    | `Accepted -> ()
    | _ -> Alcotest.fail "submit refused"
  done;
  Q.wait_idle q;
  (* the pool survives its tasks' exceptions and keeps serving *)
  let ok = Atomic.make 0 in
  ignore (Q.submit q (fun () -> Atomic.incr ok));
  Q.wait_idle q;
  Q.shutdown q;
  check Alcotest.int "failures counted" 5 (Q.failures q);
  check Alcotest.int "still serves after failures" 1 (Atomic.get ok);
  check Alcotest.int "completed includes failed" 6 (Q.completed q)

let test_queue_fifo_single_worker () =
  (* with one worker the queue must drain fairly: strict FIFO *)
  let q = Q.create ~workers:1 ~capacity:64 in
  let order = ref [] in
  let m = Mutex.create () in
  for i = 0 to 49 do
    let rec go () =
      match
        Q.submit q (fun () -> Mutex.protect m (fun () -> order := i :: !order))
      with
      | `Accepted -> ()
      | `Saturated ->
          Domain.cpu_relax ();
          go ()
      | `Shutdown -> Alcotest.fail "shutdown"
    in
    go ()
  done;
  Q.wait_idle q;
  Q.shutdown q;
  check Alcotest.(list int) "FIFO order" (List.init 50 Fun.id)
    (List.rev !order)

let test_queue_wait_idle_no_lost_wakeup () =
  (* tight submit/wait_idle cycles: a lost wakeup would hang here *)
  let q = Q.create ~workers:2 ~capacity:4 in
  let n = Atomic.make 0 in
  for i = 1 to 100 do
    (match Q.submit q (fun () -> Atomic.incr n) with
    | `Accepted -> ()
    | _ -> Alcotest.fail "submit refused");
    Q.wait_idle q;
    check Alcotest.int "counter after wait_idle" i (Atomic.get n)
  done;
  Q.shutdown q

(* ------------------------------------------------------------------ *)
(* Cow                                                                  *)
(* ------------------------------------------------------------------ *)

(* Copy-on-write maps against a Hashtbl model per side: random replaces
   and removes (keys from a small range, so probe runs collide, wrap and
   shift back on delete, and maps grow past several bucket pages)
   interleaved with shares. A share moves the
   source to a fresh generation and gives the new side another, as
   [Storage.copy] does, so every side must keep exactly its own
   bindings however the bucket pages are shared. *)
let prop_cow_map_matches_model =
  let module M = Uv_util.Cow.Int_map in
  let key = QCheck.Gen.int_range (-20) 380 in
  let side = QCheck.Gen.small_nat in
  let op =
    QCheck.Gen.frequency
      [
        (30, QCheck.Gen.map3 (fun j k v -> `Replace (j, k, v)) side key QCheck.Gen.nat);
        (15, QCheck.Gen.map2 (fun j k -> `Remove (j, k)) side key);
        (1, QCheck.Gen.map (fun j -> `Share j) side);
      ]
  in
  QCheck.Test.make ~name:"Cow.Int_map matches a Hashtbl per shared side"
    ~count:200
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "%d ops" (List.length l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 1000) op))
    (fun ops ->
      let fresh () =
        let gen = Uv_util.Cow.fresh_gen () in
        (ref gen, M.create ~gen (-1), Hashtbl.create 16)
      in
      let sides = ref [| fresh () |] in
      let pick j = !sides.(j mod Array.length !sides) in
      List.iter
        (function
          | `Replace (j, k, v) ->
              let gen, m, model = pick j in
              M.replace m ~gen:!gen k v;
              Hashtbl.replace model k v
          | `Remove (j, k) ->
              let gen, m, model = pick j in
              M.remove m ~gen:!gen k;
              Hashtbl.remove model k
          | `Share j ->
              if Array.length !sides < 6 then begin
                let gen, m, model = pick j in
                gen := Uv_util.Cow.fresh_gen ();
                sides :=
                  Array.append !sides
                    [| (ref (Uv_util.Cow.fresh_gen ()), M.share m, Hashtbl.copy model) |]
              end)
        ops;
      Array.for_all
        (fun (_, m, model) ->
          M.count m = Hashtbl.length model
          && List.for_all
               (fun k ->
                 let want = Option.value (Hashtbl.find_opt model k) ~default:(-1) in
                 M.find m k = want && M.mem m k = Hashtbl.mem model k)
               (List.init 401 (fun i -> i - 20)))
        !sides)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                               *)
(* ------------------------------------------------------------------ *)

(* The classic one-table loop, a byte at a time: the reference the
   slicing-by-8 kernel must equal bit for bit. *)
let crc_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun crc s off len ->
    let c = ref (crc lxor 0xffffffff) in
    for i = off to off + len - 1 do
      c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xffffffff

let crc_gen n = String.init n (fun i -> Char.chr (((i * 7919) + (i * i * 31) + (i lsr 3)) land 0xff))

let test_crc_golden () =
  let hex = Printf.sprintf "0x%08x" in
  check Alcotest.string "CRC32(\"123456789\")" "0xcbf43926"
    (hex (Uv_util.Crc32.digest "123456789"));
  (* recorded from the bytewise kernel before it was replaced *)
  List.iter
    (fun (name, s, want) -> check Alcotest.string name want (hex (Uv_util.Crc32.digest s)))
    [
      ("empty", "", "0x00000000");
      ("a", "a", "0xe8b7be43");
      ("abc", "abc", "0x352441c2");
      ("fox", "The quick brown fox jumps over the lazy dog", "0x414fa339");
      ("gen 7", crc_gen 7, "0xde97801c");
      ("gen 8", crc_gen 8, "0x9803dd4c");
      ("gen 9", crc_gen 9, "0xf2f569e3");
      ("gen 63", crc_gen 63, "0xc4276565");
      ("gen 1000", crc_gen 1000, "0x459caac6");
      ("gen 65536", crc_gen 65536, "0x08c86867");
    ];
  check Alcotest.string "chained update_sub and update" "0x367bf606"
    (hex
       Uv_util.Crc32.(
         update (update_sub (digest "ULOGv2\n") (crc_gen 100) 3 50) "Q tail\n"))

(* every length 0-64 at every offset of a random string, from a random
   running value *)
let test_crc_every_offset () =
  let prng = Uv_util.Prng.create 3232 in
  let s = String.init 96 (fun _ -> Char.chr (Uv_util.Prng.int prng 256)) in
  for len = 0 to 64 do
    for off = 0 to String.length s - len do
      let seed = Uv_util.Prng.int prng 0x40000000 in
      let got = Uv_util.Crc32.update_sub seed s off len
      and want = crc_reference seed s off len in
      if got <> want then
        Alcotest.failf "off %d len %d: kernel %08x, bytewise %08x" off len got want
    done
  done

let prop_crc_chained =
  QCheck.Test.make ~name:"chained == bytewise" ~count:300
    QCheck.(list_of_size Gen.(0 -- 8) (string_of_size Gen.(0 -- 40)))
    (fun parts ->
      let whole = String.concat "" parts in
      List.fold_left Uv_util.Crc32.update 0 parts
      = crc_reference 0 whole 0 (String.length whole)
      && Uv_util.Crc32.digest whole = crc_reference 0 whole 0 (String.length whole))

let test_crc_hex () =
  let module C = Uv_util.Crc32 in
  check Alcotest.(option int) "of_hex" (Some 0xcbf43926) (C.of_hex "CBF43926");
  check Alcotest.(option int) "of_hex_sub in place" (Some 0xcbf43926)
    (C.of_hex_sub "C cbf43926\n" 2 8);
  List.iter
    (fun (s, off, len) ->
      check Alcotest.(option int) (Printf.sprintf "%S %d %d" s off len) None (C.of_hex_sub s off len))
    [ ("cbf4392", 0, 7); ("cbf439260", 0, 9); ("cbf4392g", 0, 8); ("0xcbf439", 0, 8);
      ("cbf43926", 1, 8); ("cbf43926", -1, 8); ("+bf43926", 0, 8) ];
  check Alcotest.string "round trip" "00000000" (C.to_hex (Option.get (C.of_hex "00000000")))

let () =
  Alcotest.run "uv_util"
    [
      ( "crc32",
        [
          Alcotest.test_case "check value, golden digests" `Quick test_crc_golden;
          Alcotest.test_case "every offset, len 0-64" `Quick test_crc_every_offset;
          qtest prop_crc_chained;
          Alcotest.test_case "hex in place" `Quick test_crc_hex;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_prng_seed_changes_stream;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "alpha string" `Quick test_alpha_string;
          qtest prop_int_in_bounds;
          qtest prop_int_range_inclusive;
        ] );
      ( "table_hash",
        [
          Alcotest.test_case "empty is zero" `Quick test_hash_empty_zero;
          Alcotest.test_case "add/remove inverse" `Quick test_hash_add_remove_inverse;
          Alcotest.test_case "order independent" `Quick test_hash_order_independent;
          Alcotest.test_case "content sensitive" `Quick test_hash_distinguishes_content;
          Alcotest.test_case "digest in range" `Quick test_hash_digest_in_range;
          Alcotest.test_case "combine order sensitive" `Quick
            test_hash_combine_order_sensitive;
          qtest prop_hash_update_equals_delete_insert;
          qtest prop_hash_in_range;
        ] );
      ( "dag",
        [
          Alcotest.test_case "topological order" `Quick test_dag_topological;
          Alcotest.test_case "edge dedup" `Quick test_dag_dedup_edges;
          Alcotest.test_case "makespan chain" `Quick
            test_dag_makespan_serial_chain;
          Alcotest.test_case "makespan parallel" `Quick
            test_dag_makespan_parallel;
          Alcotest.test_case "cycle detection" `Quick test_dag_cycle_detected;
          qtest prop_makespan_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
        ] );
      ( "textgrid",
        [
          Alcotest.test_case "renders" `Quick test_textgrid_renders;
          Alcotest.test_case "formats" `Quick test_textgrid_formats;
        ] );
      ( "clock",
        [
          Alcotest.test_case "simulated charges" `Quick test_clock_simulated;
          Alcotest.test_case "real monotonic" `Quick test_clock_real_monotonic;
          Alcotest.test_case "now_ms monotonic" `Quick test_clock_now_monotonic;
          Alcotest.test_case "now_ms advances" `Quick test_clock_now_advances;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "covers all items" `Quick test_pool_covers_all_items;
          Alcotest.test_case "reuse across waves" `Quick test_pool_reuse_across_waves;
          Alcotest.test_case "contended counter" `Quick test_pool_contended_counter;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "single lane" `Quick test_pool_single_lane;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "nested read" `Quick test_rwlock_nested_read;
          Alcotest.test_case "readers overlap" `Quick test_rwlock_readers_overlap;
          Alcotest.test_case "writers exclusive" `Quick test_rwlock_writers_exclusive;
          Alcotest.test_case "writer progress" `Quick test_rwlock_writer_progress_after_readers;
          Alcotest.test_case "writer priority bounded wait" `Quick
            test_rwlock_writer_priority_bounded_wait;
          Alcotest.test_case "writer priority readers share" `Quick
            test_rwlock_writer_priority_readers_still_share;
          Alcotest.test_case "read/write interleave" `Quick test_rwlock_read_write_interleave;
        ] );
      ( "frame_io",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized rejected" `Quick test_frame_oversized;
          Alcotest.test_case "closed mid-prefix" `Quick test_frame_closed_mid_prefix;
          Alcotest.test_case "closed mid-payload" `Quick test_frame_closed_mid_payload;
          Alcotest.test_case "decoder dribble" `Quick test_frame_decoder_dribble;
          Alcotest.test_case "decoder oversized" `Quick test_frame_decoder_oversized;
          Alcotest.test_case "byte-at-a-time nonblocking" `Quick
            test_frame_byte_at_a_time_nonblocking;
          Alcotest.test_case "nonblocking write backpressure" `Quick
            test_frame_nonblocking_write_backpressure;
          Alcotest.test_case "interrupted syscalls" `Quick
            test_frame_interrupted_syscalls;
        ] );
      ("cow", [ qtest prop_cow_map_matches_model ]);
      ( "domain_pool.queue",
        [
          Alcotest.test_case "no lost tasks" `Quick test_queue_no_lost_tasks;
          Alcotest.test_case "saturated then drains" `Quick test_queue_saturated_then_drains;
          Alcotest.test_case "shutdown refuses" `Quick test_queue_shutdown_refuses;
          Alcotest.test_case "task exceptions counted" `Quick test_queue_task_exceptions_counted;
          Alcotest.test_case "FIFO single worker" `Quick test_queue_fifo_single_worker;
          Alcotest.test_case "wait_idle no lost wakeup" `Quick test_queue_wait_idle_no_lost_wakeup;
        ] );
    ]
