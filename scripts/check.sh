#!/bin/sh
# check.sh — the repository's verification gate, also available as
# `make check`. Runs the tier-1 build, formatting and static checks,
# the fast test suite, and the race-detector pass over the
# concurrency-bearing packages (the harness worker pool, the
# context-cancellable MILP search, the observability layer, the
# bench-diff report helpers read concurrently by tooling, the
# corpus generator whose sweeps are sharded across processes, the
# synthesis layer whose checkpointed scheduler aborts race deadline
# expiry from the context's timer goroutine, and the solve service's
# admission/cache/coalescing machinery plus its scaled-down soak), the
# bench module's vet and tests, and the benchmark's smoke run.
#
# The full (non-short) suite, including the complete Table II sweeps,
# is `go test ./...` and takes many minutes on a small machine.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not gofmt-formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

# One telemetry path: metrics are always counted, so nothing outside
# the obs package may branch on its span flag, and the simplex core
# publishes only to solve.Progress.
echo "==> telemetry gates"
gated=$(grep -rln --include='*.go' --exclude='*_test.go' 'obs\.Enabled()' cmd internal pkg examples bench |
    grep -v '^internal/obs/' || true)
if [ -n "$gated" ]; then
    echo "obs.Enabled() gates only span recording inside internal/obs; called from:" >&2
    echo "$gated" >&2
    exit 1
fi
if go list -f '{{.Imports}}' ./internal/lp | grep -q 'pathdriverwash/internal/obs'; then
    echo "internal/lp must not import internal/obs" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go test -short ./..."
go test -short ./...

echo "==> go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service"
go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` skips it even though it builds on solve.Stats and obs.
echo "==> bench module: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

# The benchmark's own smoke: every workload once, untraced and traced,
# against a real pdwd. It is the only gate that checks hot answers are
# cached and stable, cold answers equal the in-process Solve, and
# response bodies decode.
echo "==> bash bench/smoke.sh"
bash bench/smoke.sh

echo "All checks passed."
