.PHONY: build vet test test-full race overrun check pdwd soak bench bench-smoke bench-diff corpus-oracle fuzz profiles-smoke

build:
	go build ./...

vet:
	go vet ./...

# Fast suite: skips the full Table II sweeps (-short).
test:
	go test -short ./...

# Full suite, including every benchmark sweep (many minutes).
test-full:
	go test ./...

# Race-detector pass over the concurrency-bearing packages.
race:
	go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service ./internal/solve

# The solve server (see README "Running the service").
pdwd:
	go build -o pdwd ./cmd/pdwd

# Full service soak: >= 1000 concurrent mixed requests (cache-hot,
# cold, budget-starved, hung-up clients, shed and coalesced solves)
# through the real solver under the race detector, with every
# response's schedule re-verified contamination-free, the flight
# recorder asserted to retain every degraded/shed/hung-up outcome
# class with unique request ids, and the trace-context round trip
# proven end to end.
soak:
	go test -race -run 'TestServiceSoak|TestSoakShedVerified|TestRequestObservabilityEndToEnd' -v -count=1 ./internal/service

# Bounded-overrun regression: on reagent-dense instances whose solves
# once busted a 2 s deadline by 30+ s, every solver must return within
# the checkpoint-granularity bound (DESIGN.md "Cancellation granularity
# contract"). Runs under -race; the bounds scale by raceFactor.
overrun:
	go test -race -run TestDeadlineOverrunBounded -v ./internal/corpus

# The verification gate: build + gofmt + vet + fast tests + race pass,
# then the live anomaly-profiling smoke against a real pdwd.
check:
	./scripts/check.sh
	./scripts/profiles_smoke.sh

# End-to-end smoke for anomaly-triggered profiling: start pdwd, force a
# budget-overrun solve, and follow the /debug/requests record's
# profile_id to a valid gzipped pprof CPU capture on /debug/profiles.
profiles-smoke:
	./scripts/profiles_smoke.sh

# Paper evaluation artifacts (Table II, Fig. 4, Fig. 5) plus the
# machine-readable sweep result. COUNT > 1 repeats each benchmark on
# one worker, recording the per-iteration wall-time samples the
# regression radar's significance tests feed on.
COUNT ?= 1
bench:
	go run ./cmd/pdwbench -count $(COUNT) -json BENCH_pdw.json

# Fast end-to-end smoke: quick sweep with a JSON artifact, schema
# validation, a self-diff, and a second sweep gated against the first.
bench-smoke:
	./scripts/bench_smoke.sh

# Regression radar against the committed baseline: rerun the full sweep
# (COUNT samples per benchmark) and fail on significant regressions in
# solution quality or >WALL_THRESHOLD relative wall-time growth.
#   make bench-diff                    # single-shot, threshold mode
#   make bench-diff COUNT=5            # sampled, Mann-Whitney verdicts
BASE ?= BENCH_pdw.json
BENCH_DIFF_OUT ?= /tmp/pdw_bench_new.json
WALL_THRESHOLD ?= 0.20
bench-diff:
	go run ./cmd/pdwbench -count $(COUNT) -json $(BENCH_DIFF_OUT) \
		-baseline $(BASE) -wall-threshold $(WALL_THRESHOLD)

# Differential oracle over a seeded generated corpus: solve every
# instance with PDW, DAWO, and per-wash exact ILPs, and fail on any
# cross-solver invariant violation (see internal/corpus/oracle.go).
CORPUS_N ?= 24
CORPUS_SEED ?= 1
corpus-oracle:
	go run ./cmd/pdwbench -corpus $(CORPUS_N) -corpus-seed $(CORPUS_SEED) -quick -oracle

# Short fuzz pass over the corpus generator pipeline, every
# wire-facing parser (assay documents, bench JSON, W3C traceparent and
# pdw.v1 requests), the dense router and the dense ChainOrder against
# their map-based references and the exact time-window and wash-path
# searches against brute force (committed seeds under testdata/fuzz run
# in every `make test`).
FUZZTIME ?= 30s
fuzz:
	go test ./internal/corpus/ -run '^$$' -fuzz FuzzGenerate -fuzztime $(FUZZTIME)
	go test ./internal/report/ -run '^$$' -fuzz FuzzReadBenchJSON -fuzztime $(FUZZTIME)
	go test ./internal/assayio/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	go test ./internal/obs/reqlog/ -run '^$$' -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME)
	go test ./internal/service/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	go test ./internal/route/ -run '^$$' -fuzz FuzzRouteMatchesReference -fuzztime $(FUZZTIME)
	go test ./internal/washpath/ -run '^$$' -fuzz '^FuzzChainOrderMatchesReference$$' -fuzztime $(FUZZTIME)
	go test ./internal/washpath/ -run '^$$' -fuzz FuzzWashPathMatchesBruteForce -fuzztime $(FUZZTIME)
	go test ./internal/pdw/ -run '^$$' -fuzz FuzzWindowsMatchBruteForce -fuzztime $(FUZZTIME)
