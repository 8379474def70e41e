#!/usr/bin/env bash
# Builds the benchmark and pdwd from this checkout and runs one workload:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binaries, and the Chrome
# trace of a traced run (.bench_build/trace/W-seedN.json). The last line
# of standard output is the run's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"

workload="" seed=1 seconds=20 trace=0 smoke=0
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2" ;;
	--seed) seed="$2" ;;
	--seconds) seconds="$2" ;;
	--trace) trace="$2" ;;
	--smoke) smoke="$2" ;; # 1: tiny inputs (bench/smoke.sh)
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
	shift 2
done

mkdir -p "$out/bin" "$out/tmp" "$out/trace"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(
	cd "$root/bench"
	go build -o "$out/bin/pdwperf" ./pdwperf
	go build -o "$out/bin/pdwd" pathdriverwash/cmd/pdwd
)

args=(-workload "$workload" -seed "$seed" -seconds "$seconds" -pdwd "$out/bin/pdwd")
if [ "$trace" = 1 ]; then
	args+=(-trace "$out/trace/$workload-seed$seed.json")
fi
if [ "$smoke" = 1 ]; then
	args+=(-smoke)
fi
cd "$root"
exec "$out/bin/pdwperf" "${args[@]}"
