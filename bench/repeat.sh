#!/usr/bin/env bash
# Repeatability check: runs every workload (or the ones named) once per
# seed, twice over, and prints for each (end-to-end metric, workload)
#   - spread: the interquartile range of all runs over their median,
#     next to its bound; it must stay under a third of the bound;
#   - shift:  how much worse the second set's median reads than the
#     first's, which must stay under the bound.
# A metric that fails either check needs a longer or larger workload;
# loosening its bound hides regressions.
#
#   bash bench/repeat.sh [workload ...]
#   SEEDS=10 REPEATS=2 RUN_SECONDS=20 bash bench/repeat.sh service-mix
#
# Results are kept as JSON lines under .bench_build/repeat/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seeds="${SEEDS:-10}" repeats="${REPEATS:-2}" seconds="${RUN_SECONDS:-20}"
dir="$root/.bench_build/repeat"
mkdir -p "$dir"
if [ $# -eq 0 ]; then
	set -- $(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
fi

for w in "$@"; do
	: >"$dir/$w.jsonl"
	for rep in $(seq 1 "$repeats"); do
		for seed in $(seq 1 "$seeds"); do
			line=$(bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
			echo "{\"set\": $rep, \"seed\": $seed, \"result\": $line}" >>"$dir/$w.jsonl"
			echo "$w set $rep seed $seed: $line" >&2
		done
	done
done

python3 - "$root/BENCHMARK.json" "$dir" "$@" <<'EOF'
import json, statistics, sys

decl = json.load(open(sys.argv[1]))
metrics = decl["end_to_end"]
bad = 0
print(f"{'workload':16} {'metric':14} {'median':>12} {'spread':>8} {'bound':>6} {'shift':>8}  verdict")
for w in sys.argv[3:]:
    runs = [json.loads(l) for l in open(f"{sys.argv[2]}/{w}.jsonl")]
    failed = sum(r["result"]["failed"] for r in runs)
    if failed or not all(r["result"]["correct"] for r in runs):
        print(f"{w}: {failed} failed operations")
        bad += 1
    for m in metrics:
        name, bound = m["name"], m["bound"]
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        sets = sorted({r["set"] for r in runs})
        shift = 0.0
        if len(sets) > 1:
            a = statistics.median(v for r, v in zip(runs, vals) if r["set"] == sets[0])
            b = statistics.median(v for r, v in zip(runs, vals) if r["set"] == sets[-1])
            shift = (b - a) / a if a else 0.0
            if m["better"] == "higher":
                shift = -shift
        ok = shift <= bound and (name == "setup_s" or spread <= bound / 3)
        bad += not ok
        print(f"{w:16} {name:14} {med:12.6g} {spread:8.4f} {bound:6.3f} {shift:8.4f}  {'ok' if ok else 'FAIL'}")
sys.exit(1 if bad else 0)
EOF
