#!/bin/sh
# check.sh — the repository's verification gate, also available as
# `make check`. Runs the tier-1 build, formatting and static checks,
# the fast test suite, and the race-detector pass over the
# concurrency-bearing packages (the harness worker pool, the
# context-cancellable MILP oracle, the observability layer, the
# searches' live Progress publication read by /debug/solves, the
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
# the obs package may branch on its span flag; the lp and milp test
# oracles carry no telemetry at all; and the branch & bound totals are
# fed only by solve.Tally, which every exact search counts through.
echo "==> telemetry and structure gates"
gated=$(grep -rln --include='*.go' --exclude='*_test.go' 'obs\.Enabled()' cmd internal pkg examples bench |
    grep -v '^internal/obs/' || true)
if [ -n "$gated" ]; then
    echo "obs.Enabled() gates only span recording inside internal/obs; called from:" >&2
    echo "$gated" >&2
    exit 1
fi
for oracle in lp milp; do
    if go list -f '{{.Imports}}' "./internal/$oracle" | grep -q 'pathdriverwash/internal/obs'; then
        echo "internal/$oracle is a test oracle and must not import internal/obs" >&2
        exit 1
    fi
done
bb=$(grep -rl --include='*.go' --exclude='*_test.go' 'pdw_bb_' cmd internal pkg examples bench |
    grep -v '^internal/solve/' || true)
if [ -n "$bb" ]; then
    echo "only internal/solve (solve.Tally) names the pdw_bb_* series; named in:" >&2
    echo "$bb" >&2
    exit 1
fi
# No production path solves an LP: the time windows and the wash paths
# are exact searches, and the paper's MILPs on lp and milp are only
# their test oracles.
oracles=$({ go list -f '{{.ImportPath}} {{.Imports}}' ./... &&
    (cd bench && go list -f '{{.ImportPath}} {{.Imports}}' ./...); } |
    grep -Ev '^pathdriverwash/internal/(lp|milp) ' |
    grep -E 'pathdriverwash/internal/(lp|milp)[] ]' | cut -d' ' -f1 || true)
if [ -n "$oracles" ]; then
    echo "only tests may import internal/lp or internal/milp; non-test code of these packages does:" >&2
    echo "$oracles" >&2
    exit 1
fi
# PDW, DAWO and the demand-driven wash share one wash-insertion fixpoint
# (replan.Fixpoint), the only caller of the policy analysis outside
# contam: a second analysis loop would be a second fixpoint.
loops=$(grep -rlE --include='*.go' --exclude='*_test.go' 'contam\.AnalyzeWithPolicy(Context)?\(' cmd internal pkg examples bench |
    grep -Ev '^internal/(contam|replan)/' || true)
if [ -n "$loops" ]; then
    echo "only internal/replan's wash-insertion fixpoint calls contam.AnalyzeWithPolicy[Context]; called from:" >&2
    echo "$loops" >&2
    exit 1
fi
# Which chip cells a task holds is decided once, by schedule.CellIndex,
# which the placer, the validator and replan all read: no pair-by-pair
# conflict test may come back in non-test code.
scans=$(grep -rlE --include='*.go' --exclude='*_test.go' 'ConflictCapable\(|\.Path\.Overlaps\(' cmd internal pkg examples bench || true)
if [ -n "$scans" ]; then
    echo "tasks contend for resources only through schedule.CellIndex; ConflictCapable( or .Path.Overlaps( called from:" >&2
    echo "$scans" >&2
    exit 1
fi
# replan.Build sorts each plan once (Plan.Order), and a plan's free
# pairs cost a transitive closure that only the exact window search
# reads: no second topological sort in replan or pdw, and no free-pair
# reader outside pdw.
topo=$(grep -rlF --include='*.go' --exclude='*_test.go' 'TopoOrder(' internal/replan internal/pdw || true)
if [ -n "$topo" ]; then
    echo "a plan is sorted once, into replan.Plan.Order; TopoOrder( called from:" >&2
    echo "$topo" >&2
    exit 1
fi
free=$(grep -rlF --include='*.go' --exclude='*_test.go' '.FreePairs(' cmd internal pkg examples bench |
    grep -v '^internal/pdw/' || true)
if [ -n "$free" ]; then
    echo "only the window search in internal/pdw reads a plan's free pairs; .FreePairs( called from:" >&2
    echo "$free" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go test -short ./..."
go test -short ./...

echo "==> go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service ./internal/solve"
go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service ./internal/solve

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
