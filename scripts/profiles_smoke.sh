#!/bin/sh
# profiles_smoke.sh — end-to-end smoke for the anomaly-triggered
# profiling pipeline, available as `make profiles-smoke`. Starts a real
# pdwd on an ephemeral port, forces a budget-overrun solve (a generated
# assay under a 100 ms total budget degrades to heuristic incumbents
# with canceled=true), and then walks the whole evidence chain the
# observability layer promises: the overrun record appears on
# /debug/requests?outcome=overrun carrying a profile_id, the
# /debug/profiles listing shows the capture, and the capture's CPU
# bytes download as a gzipped pprof protobuf (the format `go tool
# pprof` loads directly). Also asserts /debug/solves answers a valid
# listing. Fails on any missing link.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d /tmp/pdw_profiles_smoke.XXXXXX)
pdwd_pid=""
cleanup() {
    [ -n "$pdwd_pid" ] && kill "$pdwd_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "==> build pdwd"
go build -o "$tmp/pdwd" ./cmd/pdwd

echo "==> start pdwd on an ephemeral port (fast profile capture)"
"$tmp/pdwd" -listen 127.0.0.1:0 -profile-cpu 250ms -profile-cooldown 1s \
    2>"$tmp/pdwd.log" &
pdwd_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$tmp/pdwd.log" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "profiles-smoke: pdwd never logged its bound address" >&2
    cat "$tmp/pdwd.log" >&2
    exit 1
fi
echo "    pdwd at $addr"

echo "==> /debug/solves answers a valid listing"
solves=$(curl -fsS "http://$addr/debug/solves")
case "$solves" in
*'"count"'*'"solves"'*) ;;
*)
    echo "profiles-smoke: /debug/solves malformed: $solves" >&2
    exit 1
    ;;
esac

# The budget must outlast synthesis, or pdwd answers 503 instead of a
# degraded 200, and expire inside exact PDW. Every Table II benchmark's
# exact PDW finishes in tens of ms, so the request carries the
# generated assay examples/budgeted runs (the corpus draw
# overrun-diamond of seed 9): on a 2-core x86 host its synthesis takes
# a few ms and exact PDW about 9 s, nearly all of it the exact window
# search, so 100 ms sits well inside both margins. Re-check them
# whenever the window search gets faster (ROADMAP item 5).
echo "==> force a budget-overrun solve (overrun-diamond draw, 100 ms budget)"
printf '{"assay": %s, "options": {"budget": {"total": "100ms"}}}' \
    "$(cat examples/budgeted/overrun-diamond.json)" >"$tmp/request.json"
curl -fsS "http://$addr/v1/solve" -d @"$tmp/request.json" -o "$tmp/response.json"
if ! grep -q '"canceled":[[:space:]]*true' "$tmp/response.json"; then
    echo "profiles-smoke: solve did not overrun its budget:" >&2
    head -c 400 "$tmp/response.json" >&2
    exit 1
fi

echo "==> overrun record on /debug/requests carries a profile_id"
profile_id=""
for _ in $(seq 1 50); do
    profile_id=$(curl -fsS "http://$addr/debug/requests?outcome=overrun" |
        sed -n 's/.*"profile_id": *"\([^"]*\)".*/\1/p' | head -n1)
    [ -n "$profile_id" ] && break
    sleep 0.1
done
if [ -z "$profile_id" ]; then
    echo "profiles-smoke: no overrun record with a profile_id" >&2
    curl -fsS "http://$addr/debug/requests?outcome=overrun" >&2 || true
    exit 1
fi
echo "    profile_id=$profile_id"

echo "==> /debug/profiles lists the capture"
curl -fsS "http://$addr/debug/profiles" | grep -q "\"$profile_id\"" || {
    echo "profiles-smoke: capture $profile_id missing from the ring listing" >&2
    exit 1
}

echo "==> capture serves a valid gzipped pprof CPU profile"
# The CPU window is 250 ms; poll until the capture completes (202 while
# pending).
ok=""
for _ in $(seq 1 100); do
    code=$(curl -sS -o "$tmp/cpu.pb.gz" -w '%{http_code}' \
        "http://$addr/debug/profiles/$profile_id?kind=cpu" 2>/dev/null || echo 000)
    if [ "$code" = "200" ]; then
        ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$ok" ]; then
    echo "profiles-smoke: capture $profile_id never completed" >&2
    exit 1
fi
magic=$(od -An -tx1 -N2 "$tmp/cpu.pb.gz" | tr -d ' ')
if [ "$magic" != "1f8b" ]; then
    echo "profiles-smoke: CPU profile is not gzipped (magic $magic)" >&2
    exit 1
fi
gunzip -t "$tmp/cpu.pb.gz" || {
    echo "profiles-smoke: CPU profile gzip stream corrupt" >&2
    exit 1
}
for kind in goroutine heap; do
    curl -fsS -o "$tmp/$kind.pb.gz" "http://$addr/debug/profiles/$profile_id?kind=$kind"
    gunzip -t "$tmp/$kind.pb.gz" || {
        echo "profiles-smoke: $kind profile gzip stream corrupt" >&2
        exit 1
    }
done

echo "Profiles smoke passed."
