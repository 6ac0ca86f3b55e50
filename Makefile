# NeuroLPM reproduction — stdlib-only Go. `make ci` mirrors the GitHub
# Actions pipeline (.github/workflows/ci.yml).

GO ?= go

.PHONY: build vet test race bench bench-smoke bench-json bench-guard bench-serve-smoke slo smoke faults fuzz loadtest ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The packages whose correctness depends on how goroutines interleave, and the
# core counts they are raced at: GOMAXPROCS=1 hides torn reads that two cores
# show on every run (ROADMAP item 1), so one -cpu value is not a check.
CONCURRENT = ./internal/core ./internal/shard ./internal/serve ./internal/planetest

race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 $(CONCURRENT)

bench:
	$(GO) test -bench=. -benchmem ./...

# Every benchmark compiled and run exactly once: catches bit-rotted
# benchmark code without paying for stable measurements.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The PR-over-PR perf record: quick-scale experiment tables plus the
# reference/compiled/batched/sharded lookup microbenchmarks as JSON.
# -compact keeps the committed file diffable (no timestamps, one line per
# table row).
bench-json:
	$(GO) run ./cmd/lpmbench -json BENCH_PR10.json -compact

# The flight-recorder & SLO plane experiment (E26): sampling overhead,
# quantile fidelity, drift and hotness sanity (DESIGN.md §13).
slo:
	$(GO) run ./cmd/lpmbench -exp observe

# One fast end-to-end experiment plus the machine-readable report.
smoke:
	$(GO) run ./cmd/lpmbench -exp headline -json bench.json

# The E24 retrain-failure storm: lookup latency + correctness while every
# background commit fails, then exactly-once recovery (DESIGN.md §11).
faults:
	$(GO) run ./cmd/lpmbench -exp faults

# Mirrors CI's race-and-fuzz job: race the concurrent packages, then give
# each differential fuzz target a short budget. FuzzStackVsOracle is the
# parameterized lookup-plane matrix target (DESIGN.md §14): one harness
# covering {single engine, 1/2/4/8 shards} × {compiled,reference,quantized} ×
# {cached,uncached} plus update interleavings and injected commit failures.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -race -cpu 1,2,4 $(CONCURRENT)
	$(GO) test -race ./internal/telemetry ./internal/wire ./internal/load
	$(GO) test -run xxx -fuzz FuzzParseRule -fuzztime $(FUZZTIME) ./internal/lpm
	$(GO) test -run xxx -fuzz FuzzPrefixCoverBounds -fuzztime $(FUZZTIME) ./internal/lpm
	$(GO) test -run xxx -fuzz FuzzReadModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzCompiledVsModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzQuantizedVsModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzStackVsOracle -fuzztime $(FUZZTIME) ./internal/planetest
	$(GO) test -run xxx -fuzz FuzzWireCodec -fuzztime $(FUZZTIME) ./internal/wire

# The lpmload CI smoke (DESIGN.md §17): a 2s open-loop wire run with a live
# update stream against an in-process WireServer must complete ≥ 90% of the
# offered rate with zero errors and zero oracle mismatches.
loadtest:
	$(GO) test -run TestLoadSmoke -v -count=1 ./internal/load

# E23 + E25 + E28 + E29 quick on the unified stack, compared against the
# committed baseline: any ratio regressing by more than 3% fails. The
# wall-clock overhead budgets (flight recorder at its default stride,
# cache-off batch path, one shard against the bare engine single-key and
# batch-64; ≤ 10% each) are rows of the same run, measured as interleaved
# A/B pairs.
bench-guard:
	$(GO) run ./cmd/lpmbench -guard BENCH_PR10.json

# The repository benchmark's own smoke, non-short: builds cmd/lpmserve from
# this checkout and drives all six workloads at 20 000 rules (~50 s), so a
# deleted lpmserve flag or a renamed /metrics series that benchmark/ reads
# fails here, not in the next benchmark run.
bench-serve-smoke:
	cd benchmark && $(GO) test -run TestSmoke -count=1 .

# benchmark/ is a module of its own that compiles against this one's API: an
# API deletion that breaks it should fail here, not in the next benchmark run.
ci: build vet race smoke bench-smoke bench-guard bench-serve-smoke loadtest slo
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) test -run xxx -bench 'BenchmarkLookup(Instrumented|Seed)$$' -benchtime 1s ./internal/core/
