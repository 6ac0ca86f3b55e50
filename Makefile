# NeuroLPM reproduction — stdlib-only Go. Every step of the GitHub Actions
# pipeline (.github/workflows/ci.yml) is `make <target>` for a target below,
# and `make ci` runs them all: the list of checks exists here and nowhere else.

GO ?= go

.PHONY: build vet deleted-names test race race-all race-cores fuzz bench bench-smoke bench-batch \
	telemetry-overhead bench-module bench-serve-smoke churn smoke observe canary ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# What was deleted stays deleted, in code and docs. The serving path has one
# width (DESIGN.md §9, §10, §16): no shard worker pool, per-worker cache plane,
# in-daemon tier rebalancer or daemon inference switch. Training is one
# deterministic fit (DESIGN.md §5): no SGD knobs, sampler, straggler rounds,
# their counters or their flags. A spilled bucket is one pointer to a
# heap record (DESIGN.md §10, §11): no slot allocator, and no refusal for a
# spent one or for a commit in flight. There is no tier simulation and no
# result-cache plane (DESIGN.md §12, §16): no tier store or rebalance, no cold
# read, no cache epoch, no cache switch or probe stage, and none of their
# series. An acknowledged insert is in the engine (DESIGN.md §11): no delta
# buffer or overlay read, no background committer, health states or stale
# budget, no backpressure answer, no pending count on the wire, and no E24
# storm. A bucket fetch is a bucketized lookup (DESIGN.md §8): no fetch booking
# of its own, no fetch-bytes series and no fetches-per-query gauge. There is
# one deployed arithmetic (DESIGN.md §10, §14): no plane package, stack
# configuration or stack executor, no quantized lookup arm, no quantized or
# reference inference stage, and no inference-bank series. There is one
# updatable type (DESIGN.md §11, §14): no updatable in core beside the sharded
# one, and no second planetest topology to prove them equivalent. There is one
# data protocol (DESIGN.md §17): lookups and updates travel over the wire, with
# no HTTP /batch or /update, no load driver's HTTP arm or -proto flag, and no
# not-implemented wire error for a server without updates. There is one load
# driver, the repository benchmark (DESIGN.md §17): no load package or command
# beside it, and no CI target or smoke test of theirs. An engine keeps
# the rule-set it is built from (DESIGN.md §5): no clone of it in core. A
# rule file is streamed into its rules, and the range array is written once at
# its size (DESIGN.md §5): no command parses a string copy of the file, and
# Convert makes no shrink copy of its entries. The model is trained where it
# is served (DESIGN.md §1): no offline model file — no model reader, no build
# around a stored model, no offline train or query command — and no trace
# file or lpmgen flag that writes one. The server exports cumulative
# histograms and a window is the difference of two scrapes (DESIGN.md §13): no
# windowed histogram, background rotor, drift meter or hotness sketch, no /slo
# or hotness endpoint, and none of their series; only the two tests that pin
# those routes to 404 name them. The range array is stored in the key's own
# width (DESIGN.md §5): no 24-byte range entry type or entries slice in code.
# A query has one timing record, the flight record (DESIGN.md §8, §13): no span
# type, span stages or span entry point in code, no series counting /trace's
# DRAM traffic and no registry-attached counter for it, and no per-shard
# lookup tally or the balance gauges it fed. A record is 32-bit words holding
# action ids, id 0 for no live owner (DESIGN.md §10, §11): no bit per range
# for a live owner, no spill bit beside such bits, and no 64-bit record words.
# The learned window is searched in the key's own width (DESIGN.md §10): one
# column of 32-bit limbs and one kernel over it, with no per-width bounds copy
# and no per-width search loop beside them.
# A lookup is one frame and pipelining is the one batch path (DESIGN.md §17):
# no wire batch frame — its opcodes, encoders, decoders, key bound, client call
# or server handler — and no series of its keys, nor of the sharded engine's
# LookupBatch calls, which the wire's coalesce series already count.
# The registry has one rendering, /metrics (DESIGN.md §8): no expvar
# publication or its vars route, no metrics-only mux or lpmbench flag that
# mounted it, and no cycle-simulator series. The shipped wire package holds
# the protocol and no client: the benchmark and the tests encode their own
# frames.
# Exported code has a caller by type (the root package's export check): the
# lcache table keeps no hit window or adaptive bypass, which nothing read; the
# wire package decodes no error frame into a Go error type, since its readers
# take the payload's code and message; and experiments keeps no Fig 7 name list.
# The cycle simulator is the FSM pool over banked SRAM (DESIGN.md §4): no
# DRAM-stage or staged-pipeline simulator, and no exact-match expansion table.
# Every insert lands in place and Compact is the one retrain trigger
# (DESIGN.md §11): no insert refusal or its two reasons, no insert-or-rebuild
# or batch-insert entry point, no absorb fault site, none of the two series
# that split the refused inserts from the rest, and no shard tag an engine
# carries for its flight records, which take their shard from the key.
# A series says what no other does and moves (DESIGN.md §8): no
# bucketized-lookup count beside the fetch count that sums the same lanes, no
# shard-commit count that lpmserve never moves, and no server method that
# republishes the build info, which lpmserve publishes once. Training times
# no stage that nothing reads. The updatable under test is shard's
# (DESIGN.md §14): no test copy of it, or its sweep builder, in core.
# Each alternative carries a one-character class so these lines do not find
# themselves.
deleted-names:
	@! grep -rnE 'new[P]ool|per[W]orker|keyScratch[P]ool|StartTier[R]ebalancer|Use[I]nference|Parse[I]nference|(-|")cold[-]tier|tier[-]interval|cold[_]tier' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Learning[R]ate|Max[R]ounds|draw[S]amples|train[P]arams|neurolpm_train_(loss[_]nano|retrain[_]rounds|stragglers)|(-|")(epoch[s]|sample[s]|target[e]rr)\b' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'spill[C]hunk|chunk[O]f|max[S]lots|spill[N]Bits|spill[A]rea|refused(Spill[E]xhausted|Commit[I]nFlight)|neurolpm_insert_buffered[_](spill[_]exhausted|commit[_]in_flight)' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'internal/[t]ier|Rebalance[T]ier|Tier[S]tore|Cold[R]ead|neurolpm_[t]ier_|neurolpm_[l]cache_|Enable[C]ache|Cache[E]poch|UseResult[C]ache|cache[-]bytes|Stage[P]robe' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Count[F]etches|neurolpm_bucket_fetch[_]bytes_total|neurolpm_bucket_fetches[_]per_query' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'internal/[p]lane\b|Stack[C]onfig|Lookup[S]tack|LookupBatch[S]tack|Lookup[Q]uantized|(quantized|reference)[-]inference|neurolpm_inference_bank[_]bytes' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'delta[B]uffer|lookup[O]verlay|Pending[I]nserts|pending[_]inserts|StartAuto[C]ommit|commit[L]oop|ErrDelta[F]ull|SiteDelta[F]ull|delta[_]full|Err[B]ackpressure|Update[P]ending|LastCommit[E]rr|Stale[B]udget|stale[-]budget|auto[c]ommit|neurolpm_insert_buffered[_]|neurolpm_shard[_]health|Fault[S]torm' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'core\.[U]pdatable|core\.New[U]pdatable|planetest\.(S[i]ngle|S[h]arded)\b|Topolog[i]es\(' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Proto[H]TTP|run[H]TTP|http[L]ookup|Parse[P]roto|updates[U]nsupported|ErrNot[I]mplemented|batchScratch[P]ool|update[R]equest|-prot[o] (wire|http)|POST /[u]pdate|curl[^|]*/[b]atch' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'rules: +rs\.Clo[n]e\(\)' --include='*.go' internal/core
	@! grep -rnE 'ParseRuleSet\([^)]*str[i]ng\(|append\(make\(\[\]Entr[y]' --include='*.go' cmd internal/ranges
	@! grep -rnE 'Read[M]odel|BuildWith[M]odel|\blpm(t[r]ain|q[u]ery)\b|(Read|Write)[T]race|-trace[o]ut|model\.[b]in' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Hot[S]ketch|Window[e]d\b|StartR[o]tor|Drift[M]eter|LatencyW[i]ndow|/debug/h[o]tness|"/s[l]o"|neurolpm_model_[d]rift|hotness[_]skew|latency_p(50|99|999)[_]ns' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:|^\./(cmd/lpmserve/main|internal/serve/serve)_test\.go:'
	@! grep -rnE 'ranges\.[E]ntry\b|\.[E]ntries\[' --include='*.go' .
	@! grep -rnE 'Start[S]pan|Span[S]tage|telemetry\.[S]pan\b|Lookup[S]pan|neurolpm_serve[_]dram|shard_(load|range)[_]imbalance|load[C]ounts|Attach[C]ounter' --include='*.go' .
	@! grep -rnE 'aligned[W]ords|spill[B]it|max[S]pillK|matched[ -]bits?\b' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Search[L]ows|lows[6]4' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'internal/[l]oad\b|cmd/lpm[l]oad|lpm[l]oad|make [l]oadtest|TestLoad[S]moke' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:|^\./benchmark/README\.md:'
	@! grep -rnE 'Op[B]atch|Append[B]atch|MaxBatch[K]eys|Batch[K]eys|Batch[R]esults|handle[B]atch|\.[B]atch\(|neurolpm_(wire_batch[_]keys|shard_[b]atch)' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Publish[E]xpvar|/debug/v[a]rs|Metrics[H]andler|neurolpm_[h]wsim_|wire\.(C[l]ient|D[i]al|NewC[l]ient)\b|lpmbench[^|]* -[m]etrics\b' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:|^\./(cmd/lpmserve/main|internal/serve/serve)_test\.go:'
	@! grep -rnE '\bRemote[E]rror\b|Bypass[e]d|bypass[L]eft|close[W]indow|Fig7[A]lgorithms' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'Simulate[D]RAM|Simulate[P]ipelined|DRAM[P]ipeline|EM[E]xpansion|Design[S]pace' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'InsertOr[R]ebuild|Insert[B]atch|not[A]bsorbed|refused(Engine[K]ind|Bucket[F]ull)|Site[A]bsorb|SetShard[I]D|neurolpm_insert_(absorbed|rebuilt)[_]total' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'
	@! grep -rnE 'neurolpm_bucketized[_]lookups_total|neurolpm_shard_commits[_]total|Set[I]nfo\(|Stage[D]uration|new[U]pdatable\b|sweep[U]pdatable' \
		--include='*.go' --include='*.md' --include='Makefile' --include='*.yml' . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE)\.md:'

test:
	$(GO) test ./...

# The packages whose correctness depends on how goroutines interleave — the
# engine, the shards, the serving layer and planetest's shard-count harness —
# and the core counts they are raced at: GOMAXPROCS=1 hides torn reads that two cores
# show on every run (ROADMAP item 1), so one -cpu value is not a check.
CONCURRENT = ./internal/core ./internal/shard ./internal/serve ./internal/planetest

race: race-all race-cores

race-all:
	$(GO) test -race ./...

race-cores:
	$(GO) test -race -cpu 1,2,4 $(CONCURRENT)

# Each differential fuzz target on a short budget. FuzzStackVsOracle is the
# parameterized lookup target (DESIGN.md §14): one harness covering the
# updatable engine at 1/2/4/8 shards, bucketized or SRAM-only, plus update
# interleavings and injected forced compactions and rebuild failures, so it
# gets four times the others' budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseRule -fuzztime $(FUZZTIME) ./internal/lpm
	$(GO) test -run xxx -fuzz FuzzPrefixCoverBounds -fuzztime $(FUZZTIME) ./internal/lpm
	$(GO) test -run xxx -fuzz FuzzCompiledVsModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzQuantizedVsModel -fuzztime $(FUZZTIME) ./internal/rqrmi
	$(GO) test -run xxx -fuzz FuzzStackVsOracle -fuzztime 40s ./internal/planetest
	$(GO) test -run xxx -fuzz FuzzWireCodec -fuzztime $(FUZZTIME) ./internal/wire

bench:
	$(GO) test -bench=. -benchmem ./...

# Every package micro-benchmark compiled and run exactly once: catches
# bit-rotted benchmark code without paying for stable measurements, and runs
# one oracle-checked LookupBatch(256) block and one oracle-checked Lookup at
# benchmark scale (bench-batch), plus lpmserve's two start-up halves on the
# benchmark's 870 K rules, BenchmarkParseRuleSet and BenchmarkBuildUpdatable,
# whose allocation counts -benchmem prints.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./...

# The batch path on a 20 K-rule engine and the two lookup kernels at the
# repository benchmark's scale — LookupBatch(256) and single-key Lookup over
# 870 K ripe rules, Zipf and uniform traces, every answer held against the
# trie oracle inside the loop, so each fails on a wrong answer (DESIGN.md
# §10) — a second each; and the same two over the Snort (width 48) and IPv6
# (width 128) rule-sets, so a wrong answer from the 2- or 4-limb search
# kernel fails here too.
bench-batch:
	$(GO) test -run xxx -bench 'Benchmark(Batch(Compiled|Ripe870K)|LookupRipe870K|(Lookup|Batch)(Snort400K|IPv6200K))$$' -benchtime 1s ./internal/core/

# What the always-on counters cost a key, checked: Lookup against the same
# compiled pipeline with no counter, bucketized and SRAM-only, five runs each;
# fails if a median passes 5 ns a key (DESIGN.md §8). The counters do not
# meet that yet, so ci leaves this out until they do.
telemetry-overhead:
	GO=$(GO) bash scripts/telemetry-overhead.sh

# benchmark/ is a module of its own that compiles against this one's API: an
# API deletion that breaks it should fail here, not in the next benchmark run.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The repository benchmark's own smoke, non-short, and the one CI step that
# drives load: builds cmd/lpmserve from this checkout and drives all six
# workloads at 20 000 rules (≈ 9 s on a 2-vCPU box), every wire answer held
# against the trie oracle and every wire_churn update acknowledged, so a wrong
# or missing answer fails here, and so does a deleted lpmserve flag or a
# renamed /metrics series that benchmark/ reads.
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

# The flight-recorder experiment (E26): sampling overhead and quantile
# fidelity (DESIGN.md §13).
observe:
	$(GO) run ./cmd/lpmbench -exp observe

# The 10M-rule scale canary (non-race; wall-clock budgeted).
canary:
	$(GO) test -run TestScaleCanary10M -v ./internal/workload

ci: build vet deleted-names race bench-module smoke fuzz \
	bench-smoke bench-batch observe bench-serve-smoke canary
