# NeuroLPM reproduction — stdlib-only Go. Every step of the GitHub Actions
# pipeline (.github/workflows/ci.yml) is `make <target>` for a target below,
# and `make ci` runs them all: the list of checks exists here and nowhere else.

GO ?= go

.PHONY: build vet deleted-names test race race-all race-cores fuzz bench bench-smoke bench-batch \
	telemetry-overhead bench-module bench-serve-smoke churn smoke slo tiered faults loadtest canary ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# What was deleted stays deleted, in code and docs. The serving path has one
# width (DESIGN.md §9, §15, §16): no shard worker pool, per-worker cache plane,
# in-daemon tier rebalancer or daemon inference switch. Training is one
# deterministic fit (DESIGN.md §5): no SGD knobs, sampler, straggler rounds,
# their counters or their lpmtrain flags. A spilled bucket is one pointer to a
# heap record (DESIGN.md §10, §11): no slot allocator, and no refusal for a
# spent one or for a commit in flight. Each alternative carries a
# one-character class so these lines do not find themselves.
deleted-names:
	@! grep -rnE 'new[P]ool|per[W]orker|keyScratch[P]ool|StartTier[R]ebalancer|Use[I]nference|Parse[I]nference|(-|")cold[-]tier|tier[-]interval|cold[_]tier|neurolpm_tier_(resident[_]buckets|fast[_]bytes)' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Learning[R]ate|Max[R]ounds|draw[S]amples|train[P]arams|neurolpm_train_(loss[_]nano|retrain[_]rounds|stragglers)|(-|")(epoch[s]|sample[s]|target[e]rr)\b' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'spill[C]hunk|chunk[O]f|max[S]lots|spill[N]Bits|spill[A]rea|refused(Spill[E]xhausted|Commit[I]nFlight)|neurolpm_insert_buffered_(spill[_]exhausted|commit[_]in_flight)' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'

test:
	$(GO) test ./...

# The packages whose correctness depends on how goroutines interleave, and the
# core counts they are raced at: GOMAXPROCS=1 hides torn reads that two cores
# show on every run (ROADMAP item 1), so one -cpu value is not a check.
CONCURRENT = ./internal/core ./internal/shard ./internal/serve ./internal/planetest

race: race-all race-cores

race-all:
	$(GO) test -race ./...

race-cores:
	$(GO) test -race -cpu 1,2,4 $(CONCURRENT)

# Each differential fuzz target on a short budget. FuzzStackVsOracle is the
# parameterized lookup-plane matrix target (DESIGN.md §14): one harness
# covering {single engine, 1/2/4/8 shards} × {compiled,reference,quantized} ×
# {cached,uncached} plus update interleavings and injected commit failures, so
# it gets four times the others' budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseRule -fuzztime $(FUZZTIME) ./internal/lpm
	$(GO) test -run xxx -fuzz FuzzPrefixCoverBounds -fuzztime $(FUZZTIME) ./internal/lpm
	$(GO) test -run xxx -fuzz FuzzReadModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzCompiledVsModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzQuantizedVsModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzStackVsOracle -fuzztime 40s ./internal/planetest
	$(GO) test -run xxx -fuzz FuzzWireCodec -fuzztime $(FUZZTIME) ./internal/wire

bench:
	$(GO) test -bench=. -benchmem ./...

# Every package micro-benchmark compiled and run exactly once: catches
# bit-rotted benchmark code without paying for stable measurements, and runs
# one oracle-checked LookupBatch(256) block at benchmark scale (bench-batch).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The cached-batch arms of the stack executor (DESIGN.md §12) and the batch
# kernel at the repository benchmark's scale — LookupBatch(256) over 870 K ripe
# rules, Zipf and uniform traces, every answer held against the trie oracle
# inside the loop, so it fails on a wrong answer (DESIGN.md §10) — a second each.
bench-batch:
	$(GO) test -run xxx -bench 'BenchmarkBatch(UncachedCompiled|CachedZipfHot|CachedUniform|CacheOff|Ripe870K)$$' -benchtime 1s ./internal/core/

# Instrumented Lookup against the pre-telemetry arithmetic (DESIGN.md §8).
telemetry-overhead:
	$(GO) test -run xxx -bench 'BenchmarkLookup(Instrumented|Seed)$$' -benchtime 1s ./internal/core/

# benchmark/ is a module of its own that compiles against this one's API: an
# API deletion that breaks it should fail here, not in the next benchmark run.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The repository benchmark's own smoke, non-short: builds cmd/lpmserve from
# this checkout and drives all six workloads at 20 000 rules (~50 s), so a
# deleted lpmserve flag or a renamed /metrics series that benchmark/ reads
# fails here, not in the next benchmark run.
bench-serve-smoke:
	cd benchmark && $(GO) test -run TestSmoke -count=1 .

# The check for any change to the update path: wire_churn on seed 1, once for
# the end-to-end figures and once traced for the layers under them (~2 min).
# p50_us in the tens of µs, shard.insert_us and shard.delete_us a few µs,
# serve.within_limit_share near 1 and core.torn_reads 0 is healthy; p50_us
# near 10 000 means something is retraining on the serving core again.
# Not part of `make ci`: it reports, and BENCHMARK.json holds the bounds.
churn:
	bash benchmark/run.sh --workload wire_churn --seed 1 --seconds 6 --trace 0 | grep -E '^  (p50_us|cpu_us_per_lookup) '
	bash benchmark/run.sh --workload wire_churn --seed 1 --seconds 6 --trace 1 | grep -E '^  (shard\.|serve\.update_ack_|serve\.within_limit_share|core\.torn_reads)'

# One fast end-to-end experiment through cmd/lpmbench.
smoke:
	$(GO) run ./cmd/lpmbench -exp headline

# The flight-recorder & SLO plane experiment (E26): sampling overhead,
# quantile fidelity, drift and hotness sanity (DESIGN.md §13).
slo:
	$(GO) run ./cmd/lpmbench -exp observe

# The tiered-store experiment (E28, DESIGN.md §16).
tiered:
	$(GO) run ./cmd/lpmbench -exp tiered

# The E24 retrain-failure storm: lookup latency + correctness while every
# background commit fails, then exactly-once recovery (DESIGN.md §11).
faults:
	$(GO) run ./cmd/lpmbench -exp faults

# The lpmload CI smoke (DESIGN.md §17): a 2s open-loop wire run with a live
# update stream against an in-process WireServer must send and get an answer to
# every request of its schedule, with zero errors and zero oracle mismatches.
loadtest:
	$(GO) test -run TestLoadSmoke -v -count=1 ./internal/load

# The 10M-rule scale canary (non-race; wall-clock budgeted).
canary:
	$(GO) test -run TestScaleCanary10M -v ./internal/workload

ci: build vet deleted-names race bench-module smoke telemetry-overhead fuzz \
	bench-smoke bench-batch slo tiered loadtest bench-serve-smoke canary
