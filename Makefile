GO ?= go

# The tracked perf-trajectory benchmarks `make bench` records in
# BENCH_scenario.json: the memoized Bulyan kernel, the concurrent
# scenario-matrix runner throughput, the blocked/incremental/large-n
# distance-matrix kernels, the result store's warm-vs-cold grid
# economics, the async incremental-cache win under bounded-staleness
# arrival traffic, and the hot loops of the gradient path (digit
# render, MLP and tiny-softmax gradients, coordinate median, and the
# matmul / axpy row kernels on their own).
# COUNTED_BENCHES are the rows run at -count 6 so that each carries a
# [min, max] band (krum-benchjson folds the repeats): the
# distance-matrix kernels — the pattern also matches the Incremental
# and LargeN variants — and the gradient-path loops, which are the rows
# kernel changes are judged by. They run at -cpu 1,$(NPROC): a distance
# build picks its own goroutine count from its shape and GOMAXPROCS, so
# the unsuffixed row is the serial constant of Lemma 4.1 and the
# -$(NPROC) row the fanned-out build (the gradient-path loops are serial
# either way; their two rows are an A/A reading of the host). The rest
# stay at -count 1.
COUNTED_BENCHES ?= BenchmarkDistanceMatrix|BenchmarkGradientPath
NPROC ?= $(shell getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)
TRACKED_BENCHES ?= BenchmarkBulyanMemoized|BenchmarkScenarioMatrixRunner|BenchmarkRunnerWithStore|BenchmarkRunIncrementalAsync

# Per-target budget for the fuzz smoke pass (CI keeps it short; crank
# it up locally for a real hunt).
FUZZTIME ?= 10s

.PHONY: check check-docs fmt vet build test bench-module-test race shard-tests tier-tests load-test fuzz-smoke bench bench-large bench-all

# check is the CI gate: formatting, static analysis, build, the
# race-detector pass over the full tree (race runs every test, so a
# separate plain `test` pass would only repeat it; CI runs the two as
# parallel jobs instead), and the doc drift guard.
check: fmt vet build race check-docs

# check-docs is the documentation drift guard: every registry built-in
# must be named in README/EXPERIMENTS/ARCHITECTURE and still
# round-trip via its parser, and every exported identifier in the
# newest packages (scenario/store, scenario/shardproto,
# cmd/krum-scenariod) must carry a doc comment, and every cmd/,
# examples/ and internal/ path the docs name must exist (with every
# binary and example listed in README). Blocking in CI — docs rot is a
# build failure here.
check-docs:
	$(GO) test -run 'TestDocs' .

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-module-test compiles and tests the repo benchmark (benchmark/,
# declared by BENCHMARK.json). It is a separate Go module that the root
# `go test ./...` never compiles, so this is the only place a change
# that breaks the API surface it imports (krum.NewEngine, EnableCache,
# SetChanged, Distances, NewRoundContext, scenario.Spec, the store)
# fails before the bench pipeline does. Seconds; blocking in CI.
bench-module-test:
	cd benchmark && $(GO) test ./...

# race runs the full suite under the race detector — the concurrent
# scenario runner, the fanned-out distance build, and the cross-round
# cache all carry determinism contracts that only mean something if
# they are also data-race-free. The build fans out only where
# GOMAXPROCS allows, so the second, seconds-long pass runs the two
# packages that own it at -cpu 1,4: both sides of that choice, whatever
# the runner's core count.
race:
	$(GO) test -race ./...
	$(GO) test -race -count 1 -cpu 1,4 ./internal/vec ./internal/core

# shard-tests is the distributed-execution gate: the coordinator +
# in-process-worker-fleet integration tests (sync and async-arrival
# matrices), the chaos tests (worker killed mid-cell, delayed
# heartbeats — over sync and async cells — AND the coordinator itself
# killed mid-matrix and recovered from its journal), the journal
# replay/checkpoint suite, the fleet's dispatch-order, fair-share and
# ring tests and the worker's heartbeat-cadence test, the
# segmented-store crash-window suite, the cold-index suite (sealed
# records read back and re-verified), the single-flight property suite
# and the Monte-Carlo warm-rerun proofs, all under the race detector.
# The chaos and stream tests run three times over: their assertions are
# causal, and a timing premise that creeps back in (as "a cell outlives
# the lease" did when cells got faster) should rot here, in CI, not in
# a reviewer's scratch run. Blocking in CI as its own job — the
# sharding layer's byte-identity contract is the whole point.
shard-tests:
	$(GO) test -race -count 1 -run 'TestShard|TestJournal|TestFleet|TestWorker|TestSegment|TestCold|TestReplayed|TestDropped|TestLookupsAnswer|TestSingleFlight|TestMonteCarlo' ./cmd/krum-scenariod ./scenario/store ./internal/harness
	$(GO) test -race -count 3 -run 'TestChaos|TestStream' ./cmd/krum-scenariod
	$(GO) test -race -count 1 ./scenario/shardproto

# tier-tests is the kernel-tier matrix: the full vec, core and model
# suites under the race detector (model: the gradient path's bits must
# not depend on the tier) plus a -short pass over the whole tree, once per
# KRUM_KERNEL_TIER value. Forcing the knob re-runs every within-tier
# bit-identity proof and the store/fleet salting under the forced tier
# (the batteries that pin kernels and walker to the order's definition
# in spec_test.go — TestWalkerMatchesSpec, TestPanelSeamUnobservable,
# TestDotKernelsBitIdentical, TestDotGoldenVectors — loop over every
# available tier themselves, whatever the knob says); an unavailable tier (e.g. avx2 on a
# pre-Haswell box or a non-amd64 host) degrades to the auto-detected
# one with a stderr note, so the matrix is green everywhere and only
# gains coverage on capable hosts. Blocking in CI as its own job.
tier-tests:
	for tier in go sse2 avx2; do \
		echo "=== KRUM_KERNEL_TIER=$$tier ==="; \
		KRUM_KERNEL_TIER=$$tier $(GO) test -race -count 1 ./internal/vec/ ./internal/core/ ./model/ || exit 1; \
		KRUM_KERNEL_TIER=$$tier $(GO) test -short -count 1 ./... || exit 1; \
	done

# load-test is the in-process multi-tenant load harness: hundreds of
# worker slots against thousands of small cells from several tenants,
# asserting fair-share dispatch ratios (50% ± 10% between two
# equal-priority tenants), strict priority precedence, quota
# backpressure (real 429s, Retry-After honored, zero lost work) and
# byte-identity against a direct in-process Runner. Deliberately
# saturates the machine for tens of seconds, so it is env-gated and
# runs as a non-blocking CI job.
load-test:
	KRUM_LOAD_TEST=1 $(GO) test -count 1 -run 'TestLoadMultiTenant' -timeout 20m -v ./cmd/krum-scenariod

# fuzz-smoke runs each native fuzz target for a short budget (seeds +
# committed corpus + a few seconds of mutation). One target at a time:
# `go test -fuzz` accepts a single target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRule$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseRuleIn$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseAttack$$' -fuzztime $(FUZZTIME) ./attack
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME) ./internal/sgd
	$(GO) test -run '^$$' -fuzz '^FuzzParseWorkload$$' -fuzztime $(FUZZTIME) ./workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrival$$' -fuzztime $(FUZZTIME) ./internal/arrival
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME) ./scenario/shardproto
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulOrder$$' -fuzztime $(FUZZTIME) ./internal/vec
	$(GO) test -run '^$$' -fuzz '^FuzzWalkerCells$$' -fuzztime $(FUZZTIME) ./internal/vec
	$(GO) test -run '^$$' -fuzz '^FuzzColumnMedian$$' -fuzztime $(FUZZTIME) ./internal/core

# bench runs the tracked benchmarks and emits BENCH_scenario.json:
# parsed metrics plus the raw `go test -bench` text in the "raw" field
# (benchstat-compatible — extract it to compare two runs). CI runs this
# as a non-blocking step so the perf trajectory is recorded per commit.
# The intermediate file (not a pipe) makes a bench failure fail the
# target instead of silently recording an empty trajectory.
bench:
	$(GO) test -run '^$$' -bench '$(COUNTED_BENCHES)' -benchmem -count 6 -cpu 1,$(NPROC) . > BENCH_scenario.txt
	$(GO) test -run '^$$' -bench '$(TRACKED_BENCHES)' -benchmem -count 1 . >> BENCH_scenario.txt
	$(GO) run ./cmd/krum-benchjson < BENCH_scenario.txt > BENCH_scenario.json
	@rm -f BENCH_scenario.txt
	@cat BENCH_scenario.json

# bench-large unlocks the n = 10000 tier of the large-n kernel
# benchmarks (KRUM_LARGE_BENCH=1): the distance matrix
# alone is ~800 MB and a single iteration takes minutes, so the tier is
# opt-in rather than part of the default tracked set. Emits the same
# BENCH_scenario.json; CI runs it as a non-blocking step.
bench-large:
	KRUM_LARGE_BENCH=1 $(GO) test -run '^$$' -bench 'BenchmarkDistanceMatrixLargeN' -benchmem -count 1 -timeout 60m . > BENCH_scenario.txt
	$(GO) run ./cmd/krum-benchjson < BENCH_scenario.txt > BENCH_scenario.json
	@rm -f BENCH_scenario.txt
	@cat BENCH_scenario.json

# bench-all is the full local benchmark sweep (figures + kernels).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .
