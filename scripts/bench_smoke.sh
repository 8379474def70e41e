#!/bin/sh
# bench_smoke.sh — fast end-to-end benchmark smoke, available as
# `make bench-smoke`. Runs the quick sweep with the machine-readable
# JSON artifact enabled, validates the artifact against the bench-file
# schema (internal/report.BenchFile.Validate) via `pdwbench -validate`,
# exercises the regression radar with a self-diff (comparing the
# artifact against itself must report zero changes), and runs a second
# quick sweep gated against the first as a baseline — making the smoke
# itself the sweep's perf gate. The baseline step only fails wall time
# on order-of-magnitude growth (-wall-threshold 9 = 10x): quick-budget
# wall times are millisecond-scale and swing several-fold with machine
# load. The solution-quality metrics gate exactly where the quick
# solves complete and by the diff's budget-limited threshold rule where
# they are truncated.
#
# It then runs the two cost benchmarks (flight recorder, progress view)
# once each, only to check that they still run: neither asserts a
# ratio, so a breach of their < 2% cost contracts does not fail the
# smoke. Each contract is read as the median of 30 or more adjacent
# pairs (`-count`; DESIGN.md).
#
# A final corpus step sweeps the same seeded generated corpus unsharded
# and as two merged shards and requires the artifacts to be
# quality-identical, exercising the whole -corpus/-shard/-merge/-compare
# surface end to end.
#
# Fails if any benchmark fails, the JSON does not round-trip through
# the schema, the self-diff reports changes, the baseline gate detects
# a regression, a cost benchmark does not run, or the sharded corpus
# diverges.
set -eu
cd "$(dirname "$0")/.."

out="${BENCH_SMOKE_OUT:-/tmp/pdw_bench_smoke.json}"
out2="${BENCH_SMOKE_OUT2:-/tmp/pdw_bench_smoke2.json}"

echo "==> pdwbench -quick -json $out"
go run ./cmd/pdwbench -quick -json "$out" >/dev/null

echo "==> pdwbench -validate $out"
go run ./cmd/pdwbench -validate "$out"

echo "==> pdwbench -compare $out $out (self-diff must be clean)"
diff_out=$(go run ./cmd/pdwbench -compare "$out" "$out")
echo "$diff_out"
case "$diff_out" in
*"0 improved, 0 regressed,"*) ;;
*)
    echo "bench-smoke: self-diff reported changes" >&2
    exit 1
    ;;
esac

echo "==> pdwbench -quick -baseline $out -json $out2 (perf gate)"
go run ./cmd/pdwbench -quick -baseline "$out" -json "$out2" -wall-threshold 9 >/dev/null

# Flight-recorder cost benchmark: the service hot path with the
# recorder off and on. This checks that it runs; one run's ratio is
# noise, so the contract (DESIGN.md "Request observability contract")
# is read from 30 or more adjacent pairs, e.g.
# go test -run '^$' -bench BenchmarkFlightRecorderOverhead -count 30 ./internal/service
echo "==> go test -bench BenchmarkFlightRecorderOverhead ./internal/service"
go test -run '^$' -bench BenchmarkFlightRecorderOverhead -benchtime 1000x ./internal/service

# Live-progress cost benchmark: the wash-path search bare vs. with a
# progress view attached, on one fixed build of about 312k nodes. This
# checks that it runs; the contract (DESIGN.md "Progress snapshot cost
# contract": within 2%) is read from 30 or more adjacent bare/attached
# pairs (-count 30).
echo "==> go test -bench BenchmarkProgressOverhead ./internal/washpath"
go test -run '^$' -bench BenchmarkProgressOverhead -benchtime 40x ./internal/washpath

# Sharded-corpus smoke: the same seeded corpus swept unsharded and as
# two merged shards must produce quality-identical artifacts. Wall
# times differ run to run, so the equivalence diff is -quality.
corpus_full="${BENCH_SMOKE_CORPUS:-/tmp/pdw_corpus_smoke.json}"
corpus_s0="${BENCH_SMOKE_CORPUS_S0:-/tmp/pdw_corpus_smoke_s0.json}"
corpus_s1="${BENCH_SMOKE_CORPUS_S1:-/tmp/pdw_corpus_smoke_s1.json}"
corpus_merged="${BENCH_SMOKE_CORPUS_MERGED:-/tmp/pdw_corpus_smoke_merged.json}"

echo "==> pdwbench -corpus 6 -quick (unsharded corpus sweep)"
go run ./cmd/pdwbench -corpus 6 -quick -json "$corpus_full" >/dev/null

echo "==> pdwbench -corpus 6 -quick -shard 0/2 and 1/2 (sharded sweep)"
go run ./cmd/pdwbench -corpus 6 -quick -shard 0/2 -json "$corpus_s0" >/dev/null
go run ./cmd/pdwbench -corpus 6 -quick -shard 1/2 -json "$corpus_s1" >/dev/null

echo "==> pdwbench -merge $corpus_merged $corpus_s0 $corpus_s1"
go run ./cmd/pdwbench -merge "$corpus_merged" "$corpus_s0" "$corpus_s1"

echo "==> pdwbench -compare -quality $corpus_full $corpus_merged (shards must merge clean)"
corpus_diff=$(go run ./cmd/pdwbench -compare -quality "$corpus_full" "$corpus_merged")
echo "$corpus_diff"
case "$corpus_diff" in
*"0 improved, 0 regressed,"*) ;;
*)
    echo "bench-smoke: sharded corpus sweep diverged from unsharded" >&2
    exit 1
    ;;
esac

echo "Bench smoke passed."
