# CI entry points. `make ci` is the gate: the static protocol lint, vet,
# build, race-enabled tests (which include the allocs/op regression tests
# in allocs_test.go, so a fast-path allocation regression fails here, not
# just in benchmark output), the byte-identical experiment tables
# (exp-golden), a bounded native-fuzz pass over the dispatch
# path, the coverage floor for the runtime-critical packages, then the
# fast-path benchmarks with allocation reporting.

GO ?= go

# Extra flags for `make lint`, e.g. make lint LINTFLAGS="-json" or
# LINTFLAGS="-rules read-before-wait".
LINTFLAGS ?=

# Coverage floor (percent) for internal/core + internal/queue combined.
# Measured 94.4% when introduced; the floor leaves headroom for refactors
# while still failing the build if whole subsystems lose their tests.
COVER_FLOOR ?= 90
COVER_PKGS  := ./internal/core ./internal/queue

# Bounded fuzz budget for CI. `make fuzz FUZZTIME=5m` explores for real.
FUZZTIME ?= 10s

.PHONY: ci lint lock-table-check escape-gate vet build test race fuzz-smoke fuzz cover allocs-gate exp-golden serve-smoke serving-smoke bench-fastpath bench-batch bench bench-serve bench-scale bench-serving bench-telemetry bench-update

ci: lint lock-table-check escape-gate vet build race allocs-gate exp-golden fuzz-smoke serve-smoke serving-smoke cover bench-fastpath bench-batch bench-update bench-serving

# Static whole-program check (protocol rules + lockorder + atomics) over
# the whole module (./... skips the linter's own testdata fixtures by
# design). Findings are suppressed one at a time with
# `//dtt:ignore <rule> -- <justification>`; see internal/lint and the
# README's "Static checking" section.
lint:
	$(GO) run ./cmd/dttlint $(LINTFLAGS) ./...

# The lock lattice lives once in internal/lint/lockorder.go and is
# rendered into DESIGN.md between lock-order-table markers; this fails if
# the two drift.
lock-table-check:
	@$(GO) run ./cmd/dttlint -locktable > .locktable.tmp
	@awk '/<!-- lock-order-table:begin -->/{f=1;next} /<!-- lock-order-table:end -->/{f=0} f' DESIGN.md \
		| diff -u - .locktable.tmp \
		|| { rm -f .locktable.tmp; echo "DESIGN.md lock-order table differs from dttlint -locktable"; exit 1; }
	@rm -f .locktable.tmp
	@echo "lock-table-check: DESIGN.md matches dttlint -locktable"

# Compiler-level zero-allocation gate for the triggering fast paths: fails
# if `go build -gcflags=-m` reports new heap allocations inside the pinned
# functions (TStore*/TUpdate*, queue and delta hot paths). Intentional
# first-touch allocations are justified with `//dtt:escape-ok -- <reason>`.
escape-gate:
	$(GO) run ./cmd/escapegate

vet:
	$(GO) vet ./...

# The paper's tables and figures must not move under a refactor: every
# deterministic experiment is regenerated and diffed byte for byte against
# the committed golden. F10 is excluded because it reports wall-clock
# speedups of the goroutine backend, which differ from run to run (two
# runs of the same commit differed only in F10). Regenerate the golden
# only for a change that means to alter the numbers:
#   go run ./cmd/dttbench -exp $(EXP_GOLDEN_IDS) > $(EXP_GOLDEN)
EXP_GOLDEN_IDS := T1,T2,T3,T4,F1,F2,F3,F4,F5,F6,F7,F8,F9,F11,F12,F13,F14
EXP_GOLDEN     := internal/harness/testdata/exp_golden.txt
exp-golden:
	@$(GO) run ./cmd/dttbench -exp $(EXP_GOLDEN_IDS) > .exp-golden.tmp || { rm -f .exp-golden.tmp; exit 1; }
	@diff -u $(EXP_GOLDEN) .exp-golden.tmp \
		|| { rm -f .exp-golden.tmp; echo "dttbench -exp output differs from $(EXP_GOLDEN)"; exit 1; }
	@rm -f .exp-golden.tmp
	@echo "exp-golden: $(EXP_GOLDEN_IDS) match $(EXP_GOLDEN)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bounded runs of the native fuzz targets: the tstore dispatch path and
# the network frame decoder. The committed corpora under
# internal/core/testdata/fuzz and internal/serve/testdata/fuzz seed them.
# New crashers are written there by `go test` — commit them as regression
# tests.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/serve

fuzz: fuzz-smoke

# End-to-end acceptance of the network trigger plane: an in-process
# loopback server, one scripted session, a /metrics scrape, and the
# counter identity (fired = enqueued + squashed + overflowed) asserted
# from the scraped values. Fails non-zero on any mismatch.
serve-smoke:
	$(GO) run ./cmd/dttclient -smoke

# End-to-end acceptance of the serving-workload suite: every scenario
# (webcache, matview, pubsub, leaderboard) runs briefly under open-loop
# Poisson load over a loopback server, asserting the dispatch-counter
# identity, the in-band notify-gap accounting (client gap count ==
# server's shed counter), and zero stale client words after recovery.
serving-smoke:
	$(GO) run ./cmd/dttbench -serving-smoke

# Coverage floor for the runtime-critical packages. Fails if the combined
# statement coverage of $(COVER_PKGS) drops below $(COVER_FLOOR)%. The
# profile is kept on success (go tool cover -html=cover.out) but removed
# on any failure so a red run leaves no stray cover.out behind.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS) || { rm -f cover.out; exit 1; }
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) ' \
		/^total:/ { sub(/%/, "", $$3); \
			printf "coverage: %s%% (floor %s%%)\n", $$3, floor; \
			if ($$3 + 0 < floor + 0) { print "coverage below floor"; exit 1 } }' \
		|| { rm -f cover.out; exit 1; }

# Dispatch fast-path microbenchmarks; -benchmem prints allocs/op so the
# numbers quoted in CHANGES.md can be regenerated. TestTStoreFastPathAllocs
# (run as part of `make race`/`make test`) is what actually fails the build
# on a regression. The output is teed to bench-fastpath.out (gitignored) so
# a before/after pair can be compared with benchstat.
bench-fastpath:
	$(GO) test -run '^$$' -bench 'BenchmarkTStore|BenchmarkQueuePending' -benchmem . | tee bench-fastpath.out
	@echo "wrote bench-fastpath.out; compare runs with: benchstat <saved-baseline>.out bench-fastpath.out"

# Explicit allocation gate for the triggering-store fast paths, telemetry
# off and on, plus the load generator's arrival tick (on every open-loop
# request's path, so it is held to the same 0 allocs/op contract). The
# same tests run inside `make race`, but a dedicated target runs them
# without -race instrumentation (which changes allocation behaviour) and
# names the contract in the CI log.
allocs-gate:
	$(GO) test -count=1 -run 'Test(TStore(Batch)?|TUpdate)FastPathAllocs' -v . | grep -E '^(=== RUN|--- (PASS|FAIL)|FAIL|ok)'
	$(GO) test -count=1 -run 'TestArrivalsFastPathAllocs' -v ./internal/loadgen | grep -E '^(=== RUN|--- (PASS|FAIL)|FAIL|ok)'

# Batched triggering-store benchmarks: the scalar-vs-batch throughput pair
# plus the silent and squash batch paths, with allocation reporting. The
# batch=64 changing case is the headline number (>=2x scalar per-store
# throughput at 0 allocs/op); TestTStoreBatchFastPathAllocs in the
# allocs-gate is what fails the build if the 0 allocs/op contract breaks.
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkTStoreBatch' -benchmem . | tee bench-batch.out
	@echo "wrote bench-batch.out; compare runs with: benchstat <saved-baseline>.out bench-batch.out"

# Commutative-update plane benchmarks: the producer-side folds, the full
# fold->merge->drain cycle, and the hot-contended A/B against TStoreBatch
# from 8 producers over one shared 64-word window. The A/B's tupdatebatch
# ns/store at <= 1/4 of tstorebatch is the headline ratio (>=4x per-store
# throughput under contention at 0 allocs/op); TestTUpdateFastPathAllocs
# in the allocs-gate is what fails the build if the allocation contract
# breaks.
bench-update:
	$(GO) test -run '^$$' -bench 'BenchmarkTUpdate' -benchmem . | tee bench-update.out
	@echo "wrote bench-update.out; compare runs with: benchstat <saved-baseline>.out bench-update.out"

# Loopback benchmark of the network trigger plane: one session
# round-tripping 64-word batches through a real TCP socket. ns/store here
# minus bench-batch's batch64 ns/store is the framing + syscall bill; both
# sides must hold 0 allocs/op in steady state.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeBatch' -benchmem . | tee bench-serve.out
	@echo "wrote bench-serve.out; compare runs with: benchstat <saved-baseline>.out bench-serve.out"

# Full evaluation benchmark sweep (paper tables/figures).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The observability bill: the same fast paths with the telemetry plane off
# (BenchmarkTStoreSilent/Changing/Squash/Uncovered) and on
# (BenchmarkTStoreTelemetry*), side by side. allocs/op must read 0 in both
# halves; the ns/op delta on the changing path is the cost of the enqueue
# timestamp plus three histogram observes per dispatched instance.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkTStore(Telemetry)?(Silent|Changing|Squash|Uncovered)$$' -benchmem . | tee bench-telemetry.out
	@echo "wrote bench-telemetry.out; compare runs with: benchstat <saved-baseline>.out bench-telemetry.out"

# Producer-scaling curves: aggregate triggering-store throughput, scalar
# and batched x uniform and hot-shard distributions, for doubling producer
# counts capped at min(GOMAXPROCS, NumCPU), written to BENCH_scale.json
# (committed — see EXPERIMENTS.md for the expected shape and the machine
# the checked-in curve was measured on). SCALEFLAGS=-oversubscribe sweeps
# producer counts up to 64 regardless of the host's parallelism; the
# committed curve is generated that way so the contention regime is on
# record even when measured on a small box.
SCALEFLAGS ?=
bench-scale:
	$(GO) run ./cmd/dttbench -scale-sweep $(SCALEFLAGS) -scale-out BENCH_scale.json

# Open-loop serving tail-latency sweep: every scenario twice (a uniform
# round, then a balanced round with load shifted toward the worst p99),
# p50/p99/p999 trigger-to-dispatch and trigger-to-result per run. The CI
# leg writes to the gitignored bench-serving.out.json so a green run
# never dirties the tree; regenerate the committed baseline with
#   make bench-serving SERVINGOUT=BENCH_serving.json SERVINGFLAGS=...
# (on a single-CPU host add SERVINGFLAGS=-force-single-core; the report
# then carries the warning). This is the tail-latency gate: it fails on
# any broken identity or scenario error, not on a slow quantile — the
# committed numbers are the regression baseline, judged by benchstat-like
# comparison, not a hard threshold.
SERVINGFLAGS ?=
SERVINGOUT ?= bench-serving.out.json
bench-serving:
	$(GO) run ./cmd/dttbench -serving-sweep $(SERVINGFLAGS) -serving-out $(SERVINGOUT)
