GO ?= go

# The tracked perf-trajectory benchmarks `make bench` records in
# BENCH_scenario.json: the memoized Bulyan kernel, the
# blocked/incremental/large-n distance-matrix kernels (and the build at
# grid_small's n = 9, d = 21, where every inner product has a tail),
# and the hot loops of the gradient path (digit render, MLP and
# tiny-softmax gradients, coordinate median at n = 20 and 21, the
# matmul / axpy row kernels on their own, and the normal sampler).
# End-to-end numbers — the runner, the store, the async cache — are the
# benchmark module's (benchmark/).
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
TRACKED_BENCHES ?= BenchmarkBulyanMemoized

# Per-target budget for the fuzz smoke pass (CI keeps it short; crank
# it up locally for a real hunt).
FUZZTIME ?= 10s

.PHONY: check check-docs fmt vet build test bench-module-test race shard-tests tier-tests fused-ops load-test fuzz-smoke bench bench-large bench-all count-lines

# check is the CI gate: formatting, static analysis, build, the
# race-detector pass over the full tree (race runs every test, so a
# separate plain `test` pass would only repeat it; CI runs the two as
# parallel jobs instead), and the doc drift guard.
check: fmt vet build race check-docs

# check-docs is the documentation drift guard: every registry built-in
# must be named in README/EXPERIMENTS/ARCHITECTURE and still
# round-trip via its parser, and every exported identifier in
# scenario, scenario/store, scenario/shardproto, distsgd and
# cmd/krum-scenariod must carry a doc comment, and every cmd/,
# examples/ and internal/ path the docs name must exist (with every
# binary and example listed in README), and every native fuzz target
# must be run by fuzz-smoke; README, ARCHITECTURE and EXPERIMENTS may
# not grow past their line caps (docLineCaps). Blocking in CI — docs
# rot is a build failure here.
check-docs:
	$(GO) test -run 'TestDocs' .

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also runs for GOARCH=386, where int is 32 bits: a constant that
# overflows it is a build failure there, not a finding.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

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
# scenario runner, the fanned-out distance build, the cross-round
# cache and distsgd's lanes of correct workers all carry determinism
# contracts that only mean something if they are also data-race-free.
# Both fan-outs are sized by vec.Width from GOMAXPROCS, so the second
# pass runs the packages that own them at -cpu 1,4 — both sides of
# that choice, whatever the runner's core count — in shuffled order:
# each test's distance counts are its own engine's, so no test may
# depend on another's. Through ./distsgd that pass races the lane
# goroutines of a cell above the width threshold
# (TestLanesAboveThresholdBitIdentical) against the round loop that
# reads the workers' buffers, on one core and on four; through
# ./scenario it races a cohort's slots, which step their members on
# one round's shared batches (TestCohortsMatchComputeCell).
race:
	$(GO) test -race ./...
	$(GO) test -race -count 1 -shuffle on -cpu 1,4 ./internal/vec ./internal/core ./distsgd ./scenario

# shard-tests is the distributed-execution gate: the coordinator +
# in-process-worker-fleet integration tests (sync and async-arrival
# matrices), the chaos tests (worker killed mid-cell, delayed
# heartbeats — over sync and async cells — AND the coordinator itself
# killed mid-matrix and recovered from its journal), the journal
# replay/checkpoint suite, the scheduler's priority and fair-share
# tests (unit and whole-coordinator, with and without a fleet), the
# fleet's dispatch-order and ring tests and the worker's
# heartbeat-cadence test, the
# store-directory crash-window suite (with the seal and removal
# failures a fake segment backend injects), the cold-index suite
# (sealed records read back and re-verified) and the single-flight
# property suite, all under the race detector.
# The chaos and stream tests run three times over: their assertions are
# causal, and a timing premise that creeps back in (as "a cell outlives
# the lease" did when cells got faster) should rot here, in CI, not in
# a reviewer's scratch run. Blocking in CI as its own job — the
# sharding layer's byte-identity contract is the whole point.
shard-tests:
	$(GO) test -race -count 1 -run 'TestShard|TestSchedule|TestJournal|TestFleet|TestWorker|TestSegment|TestCold|TestReplayed|TestDropped|TestLookupsAnswer|TestSingleFlight' ./cmd/krum-scenariod ./scenario/store
	$(GO) test -race -count 3 -run 'TestChaos|TestStream' ./cmd/krum-scenariod
	$(GO) test -race -count 1 ./scenario/shardproto

# tier-tests is the kernel-tier matrix: the full vec, core, model and
# data suites under the race detector (model: the gradient path's bits
# must not depend on the tier; data: nor the rasteriser's) plus a -short
# pass over the whole tree, once per KRUM_KERNEL_TIER value. Both tiers
# compute the one fma4 order; forcing the knob re-runs every bit-identity
# proof and the store/fleet salting under the forced tier (the
# batteries that pin kernels and walker to the order's definition in
# spec_test.go — TestWalkerMatchesSpec, TestPanelSeamUnobservable,
# TestDotKernelsBitIdentical, TestDotGoldenVectors — loop over every
# available tier themselves, whatever the knob says); an unavailable
# tier (e.g. avx2 on a pre-Haswell box or a non-amd64 host) degrades to
# the auto-detected one with a stderr note, so the matrix is green
# everywhere and only gains coverage on capable hosts. More legs hold
# vec.Exp's bits (and so the rasteriser's) and the distance build's to
# no CPU feature and no GOARCH: Exp and the tile, golden and walker
# pins, and the whole data and core suites (the samplers, Render, the
# rules' selections), under GODEBUG=cpu.fma=off, where math.Exp rounds
# otherwise but math.FMA falls back to software, on the go and avx2
# tiers; and the same under GOARCH=386, where int is 32 bits, the data
# and core suites with -short. distsgd and scenario stay out of both
# until TestRunArrivalReplayPinned passes there. The last leg,
# fused-ops, holds the Go tiles, Exp and accumulateRows to their
# math.FMA sites where the compiler fuses x*y + z: an arm64 cross-build.
# Blocking in CI as its own job.
PORTABLE_PINS = TestDotKernelsBitIdentical|TestDotGoldenVectors|TestWalkerMatchesSpec
tier-tests:
	for tier in go avx2; do \
		echo "=== KRUM_KERNEL_TIER=$$tier ==="; \
		KRUM_KERNEL_TIER=$$tier $(GO) test -race -count 1 ./internal/vec/ ./internal/core/ ./model/ ./data/ || exit 1; \
		KRUM_KERNEL_TIER=$$tier $(GO) test -short -count 1 ./... || exit 1; \
	done
	for tier in go avx2; do \
		echo "=== GODEBUG=cpu.fma=off KRUM_KERNEL_TIER=$$tier ==="; \
		GODEBUG=cpu.fma=off KRUM_KERNEL_TIER=$$tier $(GO) test -count 1 -run 'Exp|$(PORTABLE_PINS)' ./internal/vec || exit 1; \
		GODEBUG=cpu.fma=off KRUM_KERNEL_TIER=$$tier $(GO) test -count 1 ./data ./internal/core || exit 1; \
	done
	GOARCH=386 $(GO) test -count 1 -run 'Exp|$(PORTABLE_PINS)' ./internal/vec
	GOARCH=386 $(GO) test -short -count 1 ./data ./internal/core
	$(MAKE) --no-print-directory fused-ops

# fused-ops is tier-tests' arm64 leg on its own (see above): in an
# arm64 cross-build of internal/vec, each function of FUSED_FUNCS must
# hold exactly as many fused multiply-adds as its source has math.FMA
# calls. One more is a product the compiler fused into an add (write it
# float64(x*y)); a function missing from the build or the source fails
# the scan as vacuous.
FUSED_FUNCS ?= dot4Go dot24Go Exp accumulateRows
fused-ops:
	@echo "=== GOARCH=arm64: fused ops = math.FMA sites in vec.{$(FUSED_FUNCS)} ==="
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	GOARCH=arm64 $(GO) test -c -o "$$tmp/vec.test" ./internal/vec && \
	for fn in $(FUSED_FUNCS); do \
		$(GO) tool objdump -s "vec\.$$fn$$" "$$tmp/vec.test" > "$$tmp/fn.txt" || exit 1; \
		awk "/^func $$fn\\(/,/^}/" internal/vec/*.go > "$$tmp/fn.go"; \
		if [ "$$(grep -c '^TEXT' "$$tmp/fn.txt")" != 1 ] || [ "$$(grep -c '^func ' "$$tmp/fn.go")" != 1 ]; then \
			echo "vec.$$fn: not found once in the arm64 build and the source: the scan is vacuous"; exit 1; fi; \
		got=$$(grep -cE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$$tmp/fn.txt"); \
		want=$$(grep -o 'math\.FMA(' "$$tmp/fn.go" | wc -l); \
		echo "vec.$$fn: $$got fused ops, $$want math.FMA sites"; \
		if [ "$$got" != "$$want" ]; then echo "vec.$$fn fuses a product math.FMA does not name (write it float64(x*y))"; exit 1; fi; \
	done

# load-test is the in-process multi-tenant load harness: hundreds of
# worker slots (and as many coordinator slots) against thousands of
# small cells from several tenants,
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
# `go test -fuzz` accepts a single target per invocation. Every
# `func Fuzz*` in the tree must have its line here, in its own package
# (TestDocsFuzzTargetsListed, part of check-docs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRule$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseRuleIn$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseAttack$$' -fuzztime $(FUZZTIME) ./attack
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME) ./internal/sgd
	$(GO) test -run '^$$' -fuzz '^FuzzParseWorkload$$' -fuzztime $(FUZZTIME) ./workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrival$$' -fuzztime $(FUZZTIME) ./internal/arrival
	$(GO) test -run '^$$' -fuzz '^FuzzSpecCanonical$$' -fuzztime $(FUZZTIME) ./scenario
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME) ./scenario/shardproto
	$(GO) test -run '^$$' -fuzz '^FuzzResultCodec$$' -fuzztime $(FUZZTIME) ./distsgd
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulOrder$$' -fuzztime $(FUZZTIME) ./internal/vec
	$(GO) test -run '^$$' -fuzz '^FuzzWalkerCells$$' -fuzztime $(FUZZTIME) ./internal/vec
	$(GO) test -run '^$$' -fuzz '^FuzzColumnMedian$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSelectionNonFinite$$' -fuzztime $(FUZZTIME) ./internal/core

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

# bench-all is the full local benchmark sweep (kernels, rules, gradient
# path, resilience verifier; the experiments are tests, not benchmarks).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# count-lines prints the non-test, non-comment, non-blank Go lines of
# every package outside benchmark/, then their total: the one count the
# deletion ledger in EXPERIMENTS.md quotes. A comment line is one whose
# first non-blank characters are //.
count-lines:
	@total=0; for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs -n1 dirname | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -v '^\s*//' | grep -cv '^\s*$$'); \
		printf '%7d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%7d  total\n' $$total
