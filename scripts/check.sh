#!/bin/sh
# One-stop pre-merge check: build, full test suite, a lint pass over the
# demo history, a traced what-if round-trip, and named smoke steps that
# re-run the suite's key gates on their own (replay determinism across
# worker counts, cached == cold, the daemon, crash recovery, the store).
# Run from the repo root: scripts/check.sh
#
# Fails fast: the first failing step prints "CHECK FAILED: <step>" and
# exits 1; success ends with a single "CHECK OK" summary line.
set -u

cd "$(dirname "$0")/.."

step() {
  name="$1"; shift
  echo "== $name =="
  if ! "$@"; then
    echo "CHECK FAILED: $name" >&2
    exit 1
  fi
}

step "dune build" dune build

step "dune runtest" dune runtest

# the gallery history seeds warnings/infos on purpose; only error-level
# diagnostics (exit code 1) fail the check
step "ultraverse lint (demo history)" \
  dune exec bin/ultraverse.exe -- lint examples/histories/lint_demo.sql

trace_roundtrip() {
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  dune exec bin/ultraverse.exe -- whatif examples/histories/lint_demo.sql \
    --tau 2 --op remove --trace "$out/trace.json" --metrics \
    > "$out/whatif.out" 2>&1 &&
  dune exec bin/ultraverse.exe -- trace "$out/trace.json" > "$out/trace.out"
}
step "whatif --trace round-trip" trace_roundtrip

# the static template matrix must over-approximate every dynamic
# dependency it claims to precompute: any error-level diagnostic
# (UVA015 matrix-soundness above all) on a bundled-workload history
# fails the gate (lint exits 1 on errors)
template_lint() {
  for w in tpc-c tatp epinions seats astore; do
    echo "-- lint --workload $w"
    dune exec bin/ultraverse.exe -- lint --workload "$w" --json \
      > /dev/null || return 1
  done
}
step "template lint gate: five workloads" template_lint

# the paged copy-on-write column store vs the boxed model it replaced:
# the qcheck property drives random inserts (plain and at pinned
# rowids), updates, deletes, cell writes, undo re-inserts and copies of
# copies through both, and requires identical Value.t reads, agreeing
# typed readers and index probes, ascending-rowid scans on every side
# and identical incremental table hashes; the allocation guard requires
# the first writes to a copy to cost the same at 1 000 and 16 000 rows.
# The index-key cases: "index probes at numeric extremes" (10^15 probed
# by 1e15, 2^53 + 1 by 2^53, through SELECT, UPDATE and DELETE) and the
# coverage group's "index lookup covers every SQL-equal row" (probes at
# ±2^53±1, the integer extremes, signed zeros and NaNs, fractions and
# numeric texts find exactly their key's rows on both sides of a copy).
# "hex float writer == %h" holds the digest's float writer to Printf on
# the specials and 100 000 arbitrary bit patterns.
storage_smoke() {
  dune exec test/test_db.exe -- test '^(storage|coverage)$'
}
step "storage smoke: copy isolation, undo re-inserts, scan order, first-write allocation, index keys, hex floats" storage_smoke

# the engine's compiled evaluator against the interpreter: a seeded,
# shrinking qcheck property over the compilable subset (own columns bare,
# by table and by alias, bound variables, every operator, NOT, negation,
# IS NULL, BETWEEN, IN) on NULLs, NaNs of both signs, signed zeros,
# 2^53±1, 10^15 vs 1e15, bools and numeric texts; both instances (typed
# columns and boxed rows) must give the interpreter's value, and the row
# filter must never rule out a row a DELETE's WHERE selects
step "expression smoke: compiled (cursor, boxed row) == interpreter, row filter never rules out a selected row" \
  dune exec test/test_db.exe -- test expressions

# the streamed row digest against the string it replaced: a qcheck
# property over integer extremes, float specials, empty and arbitrary-
# byte texts, NULLs, bools and rows wider than the scratch buffer, and
# the five workloads' table hashes (after the seeded history and after a
# what-if on it) equal to values recorded before digests were streamed
step "row digest smoke: streamed digest == serialized reference, golden table hashes" \
  dune exec test/test_db.exe -- test "row digest"

# the folded rollback against the per-record undo it replaced
# (test/undo_reference.ml): a qcheck property over generated journals
# (updates, deletes and re-inserts of absent and live rows, images
# narrower and wider than the schema, counter and DDL records between
# them) and the five workloads' histories undone with τ's replay set,
# grouped and not, and with random sets of later writers, plus hand-built
# cases (one row updated on many columns, insert-update-delete, delete
# then re-insert, a DDL record between row records, a re-insert over a
# live row); both paths must leave equal table hashes, row digests, scan
# order (rowids and images), PRIMARY KEY/UNIQUE index probes,
# AUTO_INCREMENT counters and next rowids
step "rollback fold smoke: folded undo == newest-first reference (hash, digests, scan order, indexes, counters)" \
  dune exec test/test_db.exe -- test "undo fold"

# the SQL front end against its references: token streams equal to a
# linear-scan keyword classifier's on every workload statement and on
# single-byte mutations, the print/parse fixpoint, and parse outcomes
# (ASTs and Parse_error messages) equal to the recorded ones
sql_front_end_smoke() {
  dune exec test/test_sql.exe -- test lexer &&
    dune exec test/test_sql.exe -- test parser
}
step "sql front-end smoke: lexer and parser == reference" sql_front_end_smoke

# the statement memo against the full parser: memo outcomes (ASTs,
# Parse_error messages, other exceptions) equal Parser.parse_stmt on the
# workload corpus and on every single-byte mutation of the mutation
# bases, each fed to a memo that already holds its base's template; the
# literal scan's tokens equal tokenize's; LIMIT, SQLSTATE,
# AUTO_INCREMENT and hash-colliding texts never share a template; full
# parses equal the distinct shapes and stay flat on a 4x history; a
# template named from the bytes alone, without building the statement
# (the analyzer's path for a store's entries), has parse_stmt's shape
# and binds parse_stmt's literal values by position on the corpus, on
# every mutation and on hand-picked literals (negated, TRUE/NULL, LIMIT,
# a comment, an integer above max_int), and raises what parse_stmt
# raises; naming and binding allocate 0 minor words on a warmed memo
# over each workload's history, from each statement's string and from
# its span in the history persisted as a segment, and decoding a clean
# segment allocates the same minor words at 64 and 256 records; float
# literals with an exponent reparse. Then each entry a store-sourced
# pass derives (from its scanned literals, no AST) against the
# log-sourced pass's: rows, column sets, shape, index and tag on the
# five workloads at four τ and on hand-picked literals, with no
# statement built but the declined scans' and the schema changes'.
# Then the segment decoder (one loop a segment, memchr line ends, N
# values checked in place) against test/salvage_reference.ml on
# workload segments, at every cut and at every byte flip (records and
# diagnosis, reason text included), and Corrupt_segment on the read
# path. Then the C slicing-by-8 CRC-32 kernel (uv_bytes_stubs.c, under
# every record, segment and seal checksum) against the bytewise
# reference: every offset and length 0-64, chained updates, the
# 123456789 check value and golden digests recorded from the bytewise
# kernel
front_end_memo_smoke() {
  dune exec test/test_sql.exe -- test memo &&
    dune exec test/test_closure.exe -- test "store entries" &&
    dune exec test/test_store.exe -- test integrity &&
    dune exec test/test_util.exe -- test crc32
}
step "front-end memo smoke: memo parse and literal binding == parse_stmt on the workload corpus and near-miss mutations, allocation-free naming from spans and decode; store-sourced entries == log-sourced; segment decode == reference at every cut and flip; C CRC-32 kernel == bytewise reference" \
  front_end_memo_smoke

# live statements: an engine parses and renders each statement through
# its memo (Stmt_memo.parse_logged). On the front-end corpus and its
# mutations, on generated literals the splice must refuse or keep
# (newlines, carriage returns, tabs, backslashes, blanks at a literal's
# edge, folded negatives, floats printed with an exponent) and on the
# five apps' Raw histories at two seeds, the AST is parse_stmt's and the
# logged text Printer.stmt_compact's, and an engine executing
# parse_stmt of each text logs the same entries and hash; 5 000
# distinct CREATE TABLE file no template; a statement of a known
# template allocates under 0.6 of a full parse and render. Then the
# write path behind it: three records printed byte for byte, one
# manifest per append_log, and a tear at its manifest write or at any
# of its segment writes reopens the store at the pre-call length
live_statement_smoke() {
  dune exec test/test_sql.exe -- test memo '10-14' &&
    dune exec test/test_store.exe -- test segments '4-6'
}
step "live statements parse and render once per template: logged text == Printer.stmt_compact on five workloads" \
  live_statement_smoke

# the replay-set closure against a pairwise reference that shares no
# index with the analyzer: members, counts, touched tables and parents
# in all three modes (Col_only, Row_only and Cell), grouped and not,
# with the row sweep's parents as exact as the column-wise fixpoint's
# (the smallest valid one); a
# hand-built history (an out-of-order group mate, a column no entry
# has, a schema-key conflict, and, asked of Row_only and Cell,
# wildcard-dimension rows and a row read meeting another's row write);
# an analyzer extended across RI merges
# (UPDATEs rewriting RI values the prefix was keyed under) answering
# like a fresh one and the reference in every mode: members, parents,
# row postings popped, replay DAG edges and waves; a target rewriting an
# RI value, merged at question time (every mode == the pairwise
# reference with exact parents, each mode's replay DAG == the
# string-keyed reference); per warm question, equal at 1 008 and
# 4 008 history entries: heap pops of the column-wise fixpoint,
# row postings the row sweep pops, and the
# words allocated straight into the major heap (Cell through the
# service, grouped Cell directly); a Cell question on a hot row: its
# members, and one column-wise pop (the chain's shape) however many
# column-disjoint writes to the row pad the history; per ungrouped
# Col_only and Cell question on the padded history and the fixtures,
# column visits == the distinct shapes of the reference column closure,
# at most the members plus the excluded target; analyzers extended across
# DDL in 3 and 7 batches, whose shapes are registered again after each
# schema generation bump, == the pairwise reference in every mode; and
# a generated property over small histories of a one- and a
# two-dimension table (alias column, wildcard writes, RI rewrites in
# the history and in the question, transaction groups, one
# first-dimension key with several second keys): Row_only and Cell
# members, counts and exact parents == the pairwise reference,
# grouped and not, shrinking a failure to a minimal
# history; on the same generated histories, the replay DAG over every
# entry and over each target's grouped Cell replay set orders every
# conflicting pair and nothing else, and equals the last-writer
# reference; one fixed such history where a group mate joins behind
# the row sweep and reaches a candidate the sweep decided before it;
# and the replay DAG of one hot read-only key (10, then 1 000 readers
# and a write): cell visits and minor words grow with the accesses, not
# 64 steps a read, and stay put behind ten times the history
step "closure smoke: replay sets and exact provenance of the column-wise fixpoint and the row sweep == pairwise reference (Col_only, Row_only, Cell), extend across an RI merge == fresh, question-time RI merge == reference in every mode, allocation flat in history, Cell column visits flat on a hot row, column visits == member shapes, extend across DDL == reference, generated row-closure and replay-DAG ordering properties, group mate behind the row sweep, replay DAG cell visits linear on a hot key" \
  dune exec test/test_closure.exe

# the column-wise closure as a shape-level fixpoint on its own: the
# pairwise reference in every mode, grouped and not (question-time RI
# merges included), the provenance digest over the fixtures' Cell
# parents (group mates' parents too), the fixpoint's pops against the
# reference's member shapes and flat from n to 10n on the five
# workloads, and the generated row-closure and replay-DAG properties
step "closure smoke: fixpoint == pairwise reference, provenance digest, generated properties" \
  dune exec test/test_closure.exe -- test '^(reference|question cost|generated)$'

# the analyzer's read-only tier: a pass for ungrouped questions reads no
# transaction tag and leaves read-only entries after its bound
# underived. On the five workloads (raw and transpiled, log and store
# sources, τ spread over each history, every mode) ungrouped answers
# (members, parents, counts, touched tables) equal an analyzer's that
# had the tier from the start, derived from 1 and cold from τ; grouped
# questions asked after ungrouped ones raise the tier once and answer
# alike; read-only τs removed and changed answer alike; every entry's
# info equals it (a writer's without raising the tier); and the
# provenance digest is unchanged when the tier is raised by the first
# grouped question. Then the allocation gate: one history stored with
# 8-byte and with 64-byte tags costs a cold ungrouped derivation the
# same minor words. Then a warm service: a Remove and a Change at a
# read-only τ, asked beside removals of writers on another domain, raise
# the analyzer's tier once under the write lock without a publish; DML
# and DDL ingests keep it; the log rewritten in place rebuilds without
# it and the next such question raises it again; every answer equals a
# fresh service's and the full-replay oracle at workers 1/2/4/8
read_only_tier_smoke() {
  dune exec test/test_closure.exe -- test '^read-only$' &&
    dune exec test/test_closure.exe -- test '^tag bytes$' &&
    dune exec test/test_parallel.exe -- test 'service tier'
}
step "read-only tier smoke: answers and infos agree with and without the tier, tag bytes cost an ungrouped pass nothing, a read-only tau raises the tier under the service's write lock without a publish" \
  read_only_tier_smoke

# a question leaves the analyzer as it was: the RI merges and aliases a
# target teaches stay in its question, so the RI state is unchanged
# after merge targets and an alias-teaching INSERT, and an analyzer
# extended after them equals a fresh one (every info, pair predicate,
# conflict_tables and answer); four domains asking such questions on one
# service answer as a fresh service and the full-replay oracle, and redo
# runs for them at workers 1/2/4/8 (rowids and counters == the oracle).
# The replay DAG keys a target's merged values as one row, so a member
# reaching the moved row through an alias orders with one addressed by
# the new id. Then DDL ingest extends: new DDL entries extend the
# service's analyzer (one build) and answers equal a fresh service's,
# for a mid-history CREATE TABLE, the DDL history ingested in batches,
# and DDL sent through the daemon; a log rewritten in place rebuilds
question_state_smoke() {
  dune exec test/test_closure.exe -- test '^reference$' &&
    dune exec test/test_parallel.exe -- test '^(cached == cold|redo)$' &&
    dune exec test/test_retroactive.exe -- test '^session caches$' &&
    dune exec test/test_serve.exe -- test '^protocol$'
}
step "question state smoke: a question leaves the analyzer as it was, RI-teaching questions on four domains == fresh and oracle, DDL ingest extends" \
  question_state_smoke

# the analyzer's per-shape memo against direct derivation: every
# entry's column sets on the five workloads (raw and transpiled, with
# the schema script and the transpiled procedures, analysed in one
# batch, in three and in seven) equal Rwset.of_stmt on a schema view the test
# advances itself; a hand-built history uses a shape again right after
# ADD COLUMN, CREATE TRIGGER, CREATE OR REPLACE VIEW, DROP PROCEDURE and
# CREATE PROCEDURE (and after DDL inside a transaction), with replay
# sets == the pairwise reference; single-literal mutations (NULL
# included) share one derivation; analyze.rw_derivations equals the
# distinct (schema generation, shape) pairs and is the same at 1 008
# and 4 008 history entries. Row sets from the per-shape plans equal
# the interpreter in test/rowset_reference.ml, run in commit order on
# the test's own state, after every batch: every entry's rows, the
# alias map, the merge parents and the merge generation, on the same
# histories (the hand-built one also moves a primary key, drops and adds
# columns under an INSERT without a column list, adds an INSERT trigger,
# replaces a view under a DELETE, and teaches aliases and merges) and on
# generated statements (a qcheck property that shrinks): single-table
# DML, CALLs of procedures whose bodies DECLARE, SET, branch (IF),
# loop (WHILE) and SELECT … INTO, a nested CALL, INSERTs and UPDATEs
# that fire triggers (one of which fires itself), subqueries in WHERE,
# VALUES, the projection, UPDATE SET values, CALL arguments, DECLARE,
# SET, IF, ELSEIF and WHILE conditions, SELECT … INTO and another
# subquery, procedures that call themselves directly and through
# another, two-table joins with qualified and unqualified columns,
# INSERT … SELECT and a transaction
step "shape memo smoke: memoized column sets == direct derivation, planned row sets == rowset_reference (generated CALL, trigger, subquery and join cases too), DDL between uses, derivations flat in history" \
  dune exec test/test_closure.exe -- test "shape memo"

# analysis from τ: analyzers opened afresh on a segmented store derive
# sets, rows, keys and postings only from each question's bound (τ, or
# τ's first transaction-group mate when grouped), advancing the schema
# view, the RI alias and merge state and the groups below it. On the
# five workloads (raw and transpiled, seeded targets in every mode,
# grouped and not, and a removal at every τ), on a history that teaches
# an alias and a merge and adds a column below τ, and on a question-time
# RI merge: members, counts, exact parents and the postings both sweeps
# pop equal an analyzer derived from 1, the replay DAG equals the
# string-keyed reference and the full analyzer's, and a later question
# with a lower τ derives again and answers like a fresh full analyzer;
# a pass that fails part-way is derived again, and extending an analyzer
# derived from τ answers like a full analyzer of the grown history
step "from-τ analysis smoke: lazily derived analyzers == derived from 1 (members, parents, visits, replay DAG), lower τ derives again" \
  dune exec test/test_closure.exe -- test "from tau"

# the replay DAG, which reads the analyzer's int row keys, against a
# string-keyed reference of its last-writer rule that recomputes each
# member's edges from every earlier member's accesses (it keys rows by
# canonical value strings, so it shares no key space with the
# analyzer), and against a check that does not depend on the rule:
# every pair of members sharing a (column, row) cell one of them
# writes, or both writing one (table, row), or one writing a column of
# the other's unkeyed PRIMARY KEY or UNIQUE guard, is joined by a DAG
# path, and every edge is such a pair. Edge sets and wave layouts on the five
# workloads (cell and grouped replay sets, and every entry) and on a
# hand-built history with wildcard reads and writes, a schema key, two
# aliasing RI values, a write after 140 readers of one row (ordered
# after each of them, and no reader after another) and the row-level
# write-write rule
step "replay DAG smoke: edges and waves == last-writer reference, every conflicting pair ordered, every edge a conflict" \
  dune exec test/test_parallel.exe -- test "replay DAG"

# the one replay executor, both schedules: the five workloads' what-if
# equal at workers 1/2/4/8 in final hash and merged-log digest, and
# equal to the full-replay oracle; each workload's whole history
# replayed in commit order and over the DAG's waves on 1/2/4/8 lanes,
# with the same tables and logged entries; a history with DDL members
# and a Hash-jumper hit and miss (commit order), at workers 1/2/4/8,
# equal to goldens recorded from the serial replay loop commit order
# replaced; and one injected statement fault retried to the same
# outcome, a second one aborting with a typed fault, on both schedules
step "replay executor smoke: commit order == DAG waves at workers 1/2/4/8, Hash-jumper and DDL members, retry-then-abort" \
  dune exec test/test_parallel.exe -- test 'determinism|commit order'

# member redo: on the five workloads' plain-SQL histories, generated
# removals, no-op changes and re-added statements leave, redone from
# journals and stopped where the replay rejoins history, the tables
# (rows at their rowids, next rowid and AUTO_INCREMENT value), final
# hash and every member's entry (journal rowids and images, restamped
# hashes) that executing every member leaves, at workers 1/2/4/8;
# hand-built cases: a blind write of an undone cell, an INSERT whose
# UNIQUE value an executed member now holds (on one row key, and across
# row keys, where the replay DAG's guard rule orders the two), a
# FOREIGN KEY parent the target inserted, wildcard reads and writes,
# historical rowids for rows executed members inserted (past history's
# count, the private range; a changed INSERT takes τ's rowid; scan order
# as in the full-replay oracle), a member whose
# WHERE reads a column a non-member rewrote on a dirty row, the
# existence guard; and the exact stop: before the first member of a
# no-op removal (no replay DAG built), mid-replay with skipped members'
# entries restamped in commit order, before inserting members, and the
# replay's AUTO_INCREMENT counter kept, raised by a skipped insert, and
# kept on a Hash-jumper hit too, and the stop cursor starting at the
# loud member that ended the rollback phase's quiet prefix; a row whose
# first-dimension value a member moved elsewhere than history did,
# dirty under both keys; and a table's facts (its guards, layout and
# whether a trigger fires on it), kept per catalog epoch, following an
# INSERT trigger created and dropped through a warm service: the member
# executes while the trigger exists and is redone again once it is
# dropped; and two questions of one analyzer, each removing a different
# trigger, whose catalogs both move one step from the live epoch: each
# decides (batches included) as on a fresh analyzer and answers as the
# full-replay oracle at workers 1/2/4/8
step "replay redo smoke: redo == execute at workers 1/2/4/8, blind write, UNIQUE/FK guards, historical rowids, exact stop, table facts follow trigger DDL" \
  dune exec test/test_parallel.exe -- test redo

# the exact stop over a dirty set no remaining member meets, cases
# (t)-(x) of the redo group (indices 22-26): a row τ left dirty that no
# member touches (stop before the first member, deferred rollback,
# replay.stops 1 and replay.stop_rows 1), a row τ inserted or deleted
# (absent, or present at its rowid), a WHERE that selects the dirty row
# on the replay's side only (no stop before it, no deferral), rows that
# executed members left dirty, and a clean verdict that must not be
# served after an executed member changed the set; each universe,
# merged history (rowids, AUTO_INCREMENT counters, written hashes) and
# the full-replay oracle agree at workers 1/2/4/8
step "exact stop over a dirty set: universe, merged history and counters == full replay" \
  dune exec test/test_parallel.exe -- test '^redo$' '22-26'

# small replays, which build only what they run (no DAG, pool, start
# state or restamp they do not use): on the five workloads, the latest
# removals with 0 and 1 members, and a removed CREATE VIEW no member
# reads, leave at workers 1/2/4/8 the tables, hash and merged history
# (entries and written hashes) executing every member leaves, decide
# the same (hash, changed, waves, replayed, redone, stop, rollback,
# measured parallel time) at every worker count and traced, with every
# replay counter recorded and no DAG edge or cell visit; and an empty
# removal on a warm service allocates the same minor words over one
# app's history of 1 000 and of 5 000 entries
step "small replay smoke: 0- and 1-member removals == execute-all at workers 1/2/4/8, counters recorded, allocation flat in history" \
  dune exec test/test_parallel.exe -- test 'small replays'

# the five workloads' what-if at workers 1/2/4/8 must end in the serial
# run's universe hash, merged log and AUTO_INCREMENT records (and the
# full-replay oracle), and the DAG's waves must replay the whole history
# as commit order does; a service's cached answers (its incremental
# analyzer), primed and repeated at workers 1 and 4, must carry a cold
# analyzer's and uncached run's hash
step "parallel replay determinism and cached == cold" \
  dune exec test/test_parallel.exe -- test 'determinism|cached == cold'

# caching must never change the answer: the same what-if runs once,
# uncached, and then repeatedly through one service (incremental
# analyzer); the final universe hashes must be bitwise-identical
cache_smoke() {
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  dune exec bin/ultraverse.exe -- whatif examples/histories/lint_demo.sql \
    --tau 2 --op remove --json > "$out/cold.json" &&
  dune exec bin/ultraverse.exe -- whatif examples/histories/lint_demo.sql \
    --tau 2 --op remove --repeat 3 --json \
    > "$out/warm.json" &&
  cold="$(grep -o '"final_db_hash":"[0-9a-f]*"' "$out/cold.json")" &&
  warm="$(grep -o '"final_db_hash":"[0-9a-f]*"' "$out/warm.json")" &&
  [ -n "$cold" ] && [ "$cold" = "$warm" ]
}
step "whatif cache smoke: warm == cold universe hash" cache_smoke

# the serve daemon end to end: start it on a Unix socket, fire
# concurrent client what-ifs at it, check every served universe hash
# equals the one-shot CLI's for the same question, scrape metrics, and
# shut it down cleanly via the protocol
serve_smoke() {
  out="$(mktemp -d)"
  sock="$out/uv.sock"
  bin=_build/default/bin/ultraverse.exe
  trap 'rm -rf "$out"' EXIT
  "$bin" serve examples/histories/lint_demo.sql --socket "$sock" \
    --workers 2 > "$out/serve.log" 2>&1 &
  srv=$!
  tries=0
  while [ ! -S "$sock" ] && [ $tries -lt 50 ]; do
    sleep 0.1; tries=$((tries + 1))
  done
  [ -S "$sock" ] || { cat "$out/serve.log" >&2; return 1; }
  pids=""
  for i in 1 2 3 4; do
    "$bin" client whatif --socket "$sock" --tau 2 --op remove --json \
      > "$out/w$i.json" &
    pids="$pids $!"
  done
  for p in $pids; do wait "$p" || return 1; done
  "$bin" whatif examples/histories/lint_demo.sql --tau 2 --op remove --json \
    > "$out/oneshot.json" || return 1
  want="$(grep -o '"final_db_hash":"[0-9a-f]*"' "$out/oneshot.json")"
  [ -n "$want" ] || return 1
  for i in 1 2 3 4; do
    got="$(grep -o '"final_db_hash":"[0-9a-f]*"' "$out/w$i.json")"
    if [ "$got" != "$want" ]; then
      echo "served hash $got != one-shot $want" >&2; return 1
    fi
  done
  "$bin" client metrics --socket "$sock" --json > "$out/metrics.json" &&
  grep -q '"schema":"uv.metrics/1"' "$out/metrics.json" &&
  "$bin" client shutdown --socket "$sock" > /dev/null &&
  wait "$srv"
}
step "serve smoke: concurrent clients, hash identity, clean shutdown" \
  serve_smoke

# the durable daemon end to end: serve with a --store, ingest a batch
# under an idempotency key, SIGKILL the daemon, restart it on the same
# store, and prove (a) the acked batch survived (the re-send under the
# same key is deduplicated, not re-executed), (b) the recovered daemon
# serves the same what-if hash as a one-shot run over the combined
# history, and (c) the health endpoint reports the restart as clean
serve_crash_smoke() {
  out="$(mktemp -d)"
  sock1="$out/uv1.sock"
  sock2="$out/uv2.sock"
  store="$out/store"
  bin=_build/default/bin/ultraverse.exe
  batch="UPDATE accounts SET balance = balance + 5 WHERE owner = 'bob';"
  trap 'rm -rf "$out"' EXIT

  # first life: seed the store from the demo history, ingest one batch
  "$bin" serve examples/histories/lint_demo.sql --socket "$sock1" \
    --store "$store" --workers 2 > "$out/serve1.log" 2>&1 &
  srv=$!
  tries=0
  while [ ! -S "$sock1" ] && [ $tries -lt 50 ]; do
    sleep 0.1; tries=$((tries + 1))
  done
  [ -S "$sock1" ] || { cat "$out/serve1.log" >&2; return 1; }
  "$bin" client ingest --socket "$sock1" --sql "$batch" \
    --idem-key smoke-1 --json > "$out/ingest1.json" || return 1
  grep -q '"durable":true' "$out/ingest1.json" || {
    echo "ingest ack not marked durable" >&2; return 1; }

  # the crash: the ack is in hand, so the batch must survive this
  kill -9 "$srv" 2> /dev/null
  wait "$srv" 2> /dev/null

  # second life: same store, no history script — recovery only
  "$bin" serve --socket "$sock2" --store "$store" --workers 2 \
    > "$out/serve2.log" 2>&1 &
  srv=$!
  tries=0
  while [ ! -S "$sock2" ] && [ $tries -lt 50 ]; do
    sleep 0.1; tries=$((tries + 1))
  done
  [ -S "$sock2" ] || { cat "$out/serve2.log" >&2; return 1; }
  grep -q 'idempotency keys' "$out/serve2.log" || {
    echo "restart did not report recovery" >&2; return 1; }

  # the client's post-crash re-send: deduplicated, not re-executed
  "$bin" client ingest --socket "$sock2" --sql "$batch" \
    --idem-key smoke-1 --retries 3 --json > "$out/ingest2.json" || return 1
  grep -q '"duplicate":true' "$out/ingest2.json" || {
    echo "re-sent batch was not deduplicated" >&2; return 1; }

  # hash identity: recovered daemon == one-shot over the same history
  cat examples/histories/lint_demo.sql > "$out/combined.sql"
  printf '%s\n' "$batch" >> "$out/combined.sql"
  "$bin" client whatif --socket "$sock2" --tau 2 --op remove --json \
    > "$out/served.json" || return 1
  "$bin" whatif "$out/combined.sql" --tau 2 --op remove --json \
    > "$out/oneshot.json" || return 1
  want="$(grep -o '"final_db_hash":"[0-9a-f]*"' "$out/oneshot.json")"
  got="$(grep -o '"final_db_hash":"[0-9a-f]*"' "$out/served.json")"
  [ -n "$want" ] || return 1
  if [ "$got" != "$want" ]; then
    echo "recovered hash $got != one-shot $want" >&2; return 1
  fi

  "$bin" client health --socket "$sock2" --json > "$out/health.json" &&
  grep -q '"schema":"uv.health/1"' "$out/health.json" &&
  grep -q '"degraded":false' "$out/health.json" &&
  "$bin" client shutdown --socket "$sock2" > /dev/null &&
  wait "$srv"
}
step "serve crash smoke: SIGKILL, restart, idempotent re-send" \
  serve_crash_smoke

# crash-consistency smoke: persist a log, damage its tail at a fixed
# byte offset, and prove fsck flags it (exit 1) while recover salvages
# the valid prefix; plus a seeded chaos schedule through the test
# binary (the full 200-schedule sweep runs in `dune runtest` above)
fault_smoke() {
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  dune exec bin/ultraverse.exe -- log save \
    examples/histories/lint_demo.sql -o "$out/full.ulog" &&
  dune exec bin/ultraverse.exe -- fsck "$out/full.ulog" &&
  head -c 100 "$out/full.ulog" > "$out/torn.ulog" &&
  if dune exec bin/ultraverse.exe -- fsck "$out/torn.ulog"; then
    echo "fsck missed a torn log" >&2; return 1
  fi &&
  dune exec bin/ultraverse.exe -- recover "$out/torn.ulog" \
    -o "$out/clean.ulog" &&
  dune exec bin/ultraverse.exe -- fsck "$out/clean.ulog"
}
step "fsck/recover smoke: torn log round-trip" fault_smoke

# the segmented store end to end: save a history as chunked segments
# under a manifest, fsck the clean store, damage one chunk file and
# prove fsck pinpoints that segment while recover salvages the longest
# clean prefix into a history that fscks clean again
store_smoke() {
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  dune exec bin/ultraverse.exe -- log save \
    examples/histories/lint_demo.sql -o "$out/store" --segment-cap 4 &&
  [ -f "$out/store/MANIFEST" ] &&
  [ -f "$out/store/seg-000002.ulog" ] &&
  dune exec bin/ultraverse.exe -- fsck "$out/store" &&
  seg="$out/store/seg-000002.ulog" &&
  head -c 20 "$seg" > "$seg.cut" && mv "$seg.cut" "$seg" &&
  if dune exec bin/ultraverse.exe -- fsck "$out/store"; then
    echo "fsck missed a damaged segment" >&2; return 1
  fi &&
  if dune exec bin/ultraverse.exe -- fsck "$out/store" --segment 1; then
    :
  else
    echo "fsck --segment 1 flagged an intact chunk" >&2; return 1
  fi &&
  dune exec bin/ultraverse.exe -- recover "$out/store" \
    -o "$out/clean.ulog" &&
  dune exec bin/ultraverse.exe -- fsck "$out/clean.ulog"
}
step "store smoke: segmented save, damaged chunk, salvage" store_smoke

# the segmented store under analysis: over an AStore history in eight
# segments, analysers sourced from the store give the log-sourced Cell
# replay sets, the Cell what-if on a store-replayed engine ends in the
# original engine's universe hash, and the streamed analysis holds at
# most the largest segment resident
step "store analysis: streamed Cell replay sets, store-replayed == original Cell hash, one segment resident" \
  dune exec test/test_store.exe -- test analysis

# the replay set's cost tracks the replay set, not the history, on the
# five workloads' own histories: one Cell removal
# at n = 250 calls (dependency rate 0.2) and at 10n (0.02), so the hot
# set stays put; the row sweep's pops per row-closure member and the
# column-wise fixpoint's pops each grow < 1.25x
step "question cost: the closure's row and column work flat on workload histories and padded ones" \
  dune exec test/test_closure.exe -- test "question cost"

echo "CHECK OK"
