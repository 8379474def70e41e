#!/usr/bin/env bash
# Smoke test of the benchmark: builds pdwd and pdwperf, then runs all
# four workloads in -smoke mode (one or two instances, one pass, a 3 s
# service-mix), untraced and traced. Fails unless every run exits 0 and
# its JSON line reports "correct": true with no failed operation.
#
#   bash bench/smoke.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pdwd="$root/.bench_build/bin/pdwd"
# pdwperf stops the pdwd it starts; this catches one left behind by an
# interrupted run.
trap 'pkill -f "^$pdwd " 2>/dev/null || true' EXIT

status=0
for w in exact-small table2-budgeted heuristic-scale service-mix; do
	for trace in 0 1; do
		line=$(bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 3 --trace "$trace" --smoke 1 | tail -n 1)
		case "$line" in
		*'"correct":true,'*'"failed":0,'*) echo "ok   $w trace=$trace" ;;
		*) echo "FAIL $w trace=$trace: $line"; status=1 ;;
		esac
	done
done
exit "$status"
