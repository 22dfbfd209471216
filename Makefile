# conspec build/verify targets.
#
#   make tier1          — the PR gate: build, lint (gofmt + vet), vet and
#                         tests of the perfbench benchmark module, full test
#                         suite, the race detector over the experiment
#                         engine's worker pool, the cache tag-array pool,
#                         the obs sinks, and the serve daemon, the chaos gate (fault-injection corpus +
#                         self-checking stress), a one-iteration
#                         BenchmarkFig5 smoke run, the conspec-served
#                         end-to-end smoke (submit, drain, warm-cache
#                         restart), the crash smoke (kill -9 mid-suite,
#                         journal recovery, bounded-cache eviction), the
#                         trace smoke (flight-recorder dump on the deadlock
#                         reproducer + span-traced suite), the fleet smoke
#                         (coordinator + 3 leased workers beat standalone,
#                         survive kill -9 with zero lost results, answer a
#                         warm resubmission from the store), and the
#                         defense smoke matrix (every registered backend vs
#                         the Spectre V1 PoC).
#   make chaos          — the robustness gate on its own: every fault class
#                         must be caught, and every mechanism must survive
#                         a per-cycle invariant audit over the random-program
#                         corpus.
#   make bench-snapshot — run the tracked benchmark set and write
#                         BENCH_<sha>.json via cmd/conspec-benchstat.
#   make bench-compare OLD=BENCH_<a>.json NEW=BENCH_<b>.json
#                       — diff two BENCH_*.json snapshots and FAIL (exit 1)
#                         if BenchmarkFig5 or any BenchmarkSecMatrix*
#                         regressed ns/op by more than 5% — the perf gate for
#                         perf-sensitive PRs. The pair is named explicitly:
#                         a checkout gives every snapshot the same mtime.
#   make bench-pairs PARENT=<rev> WORKLOAD=<w> SEEDS="1 … 10"
#                       — run perfbench on the parent and the working tree
#                         in alternating pairs and print the medians, IQRs,
#                         changes and "better in N/M" per metric.
#   make profile        — CPU-profile five BenchmarkFig5 iterations and print
#                         the cumulative shares of the cycle step, the five
#                         stages, FlatMem.Read/Fetch and TPBuf.Allocate (not
#                         part of tier1; gates nothing).

GO ?= go

# The benchmarks whose numbers are tracked across PRs in BENCH_*.json:
# the end-to-end Figure 5 evaluation, per-simulation set-up on its own
# (generate, load and build the machine for all 22 profiles), the engine's
# memo-hit path on its own (a warm defenses job and a warm Figure 5 on one
# Runner; tracked, not gated), and the per-component microbenches.
TRACKED_BENCHES = ^(BenchmarkFig5|BenchmarkSimSetup|BenchmarkMemoHit|BenchmarkSimulatorThroughput|BenchmarkSecMatrixDispatch|BenchmarkSecMatrixHazardCheck|BenchmarkTPBufQuery|BenchmarkCacheAccess)$$

.PHONY: all build fmt vet perfbench-vet perfbench-test lint lint-defense test race chaos benchsmoke serve-smoke crash-smoke trace-smoke fleet-smoke defense-matrix tier1 bench bench-snapshot bench-compare bench-pairs profile

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	    echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint-defense keeps the pipeline mechanism-agnostic: only the registry
# bridge (internal/pipeline/defense.go) may name concrete mechanisms.
lint-defense:
	sh scripts/lint_defense.sh

lint: fmt vet lint-defense

# perfbench is a module of its own (replace conspec => ../) that compiles
# against internal APIs, so `go test ./...` never builds it: vet it here so
# an API change that breaks the benchmark fails the gate. Offline: the
# module has no dependencies beyond conspec.
perfbench-vet:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet .

# perfbench's own tests run every workload once at a small size and check
# each result document, so a service-tier change that breaks serve-mix or
# fleet-mix fails here rather than first in a benchmark run (about 20 s).
perfbench-test:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) test .

test:
	$(GO) test ./...

# The engine schedules simulations on a bounded worker pool with a shared
# memo cache, and the workers hand their machines' cache tag arrays to each
# other through internal/mem's per-geometry pool; the obs sinks/registry
# sit on the hot cycle loop, and the fault injector's hook rides that loop
# too. The serve daemon adds its own worker pool, SSE fan-out, and counters
# under its mutex on top. Run all of them under the race detector on every PR.
race:
	$(GO) test -race ./internal/exp ./internal/mem ./internal/obs \
	    ./internal/faultinject ./internal/serve ./internal/serve/client \
	    ./internal/serve/journal ./internal/fleet

# The robustness gate: the seeded fault-injection corpus (every fault class
# must be detected by the invariant auditor, the watchdog, or the attack
# harness's leak check), the hand-written deadlock reproducer, and the
# per-cycle self-check stress run over every mechanism.
chaos:
	$(GO) test -count=1 ./internal/faultinject
	$(GO) test -count=1 -run '^(TestWatchdogDeadlockReproducer|TestSelfCheckStressAllMechanisms|TestSelfCheckCleanRun)$$' ./internal/pipeline

# One iteration of the Figure 5 evaluation: catches benchmark-harness rot
# (renamed suites, broken specs) without paying for a full measurement.
benchsmoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFig5$$' -benchtime 1x .

# End-to-end check of the simulation service: start conspec-served on a
# random port with a fresh persistent store, run a small suite through
# conspec-ctl, SIGTERM-restart the daemon, and assert the identical
# resubmission is served entirely from the disk tier (zero simulations,
# verified via /metrics).
serve-smoke:
	sh scripts/serve_smoke.sh

# The crash-safety gate: submit a suite, kill -9 the daemon mid-run,
# restart it over the same journal and store, and assert the job is
# recovered and completes with every pre-crash simulation served from the
# disk cache; then a sustained run under a tiny -cache-max-bytes budget
# must evict (visible in /metrics) while staying under the cap; then the
# journal package under the race detector.
crash-smoke:
	sh scripts/crash_smoke.sh

# The defense smoke matrix: every registered backend runs two workloads for
# overhead and faces the canonical Spectre V1 PoC; each verdict must match
# the backend's documented expectation (origin and SSBD leak, the rest
# block).
defense-matrix:
	$(GO) test -count=1 -run '^(TestDefenseMatrix|TestDefenseHooksGolden|TestHooksMatchReference)$$' ./internal/exp ./internal/pipeline ./internal/core

# Observability smoke: the deadlock reproducer with the flight recorder
# armed must leave a parseable dump covering the final window before the
# watchdog trip, and a span-traced suite run must export the
# suite > run > phase tree as loadable Chrome trace JSON. Set TRACE_DIR to
# keep the artifacts (CI uploads them).
trace-smoke:
	sh scripts/trace_smoke.sh

# The distributed-tier gate: a duplicate-heavy defense batch must finish
# strictly faster on a coordinator + 3 leased workers (subsets spread
# across the fleet, duplicate submissions coalesced onto one lease) with
# a result document identical to the standalone server's; then kill -9 a
# worker mid-lease and assert the job is re-queued to a survivor and
# completes with every pre-kill simulation reused from the coordinator's
# result store (zero lost results, verified via /metrics); then resubmit
# that job and assert the coordinator answers it from its store without a
# lease, with an identical result document; then drain a worker through
# conspec-ctl.
fleet-smoke:
	sh scripts/fleet_smoke.sh

tier1: build lint perfbench-vet perfbench-test test race chaos benchsmoke serve-smoke crash-smoke trace-smoke fleet-smoke defense-matrix

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

bench-snapshot:
	$(GO) test -run '^$$' -bench '$(TRACKED_BENCHES)' -benchmem . \
	    | $(GO) run ./cmd/conspec-benchstat -snapshot \
	        -sha $$(git rev-parse --short HEAD) \
	        -out BENCH_$$(git rev-parse --short HEAD).json
	@echo wrote BENCH_$$(git rev-parse --short HEAD).json

# Compare two snapshots named as OLD (the base) and NEW.
# The gate fails the target when a perf-critical benchmark (Fig5 or the
# SecMatrix kernels) regressed its ns/op by more than 5%.
bench-compare:
	@if [ -z "$(OLD)" ] || [ -z "$(NEW)" ]; then \
	    echo 'usage: make bench-compare OLD=BENCH_<old>.json NEW=BENCH_<new>.json'; exit 2; fi
	$(GO) run ./cmd/conspec-benchstat -compare -fail-on-regress 5 "$(OLD)" "$(NEW)"

# Paired end-to-end benchmark runs against a parent revision (see
# scripts/benchpairs.sh); each run's length is BENCHMARK.json's run_seconds.
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
bench-pairs:
	@if [ -z "$(PARENT)" ] || [ -z "$(WORKLOAD)" ]; then \
	    echo 'usage: make bench-pairs PARENT=<rev> WORKLOAD=<workload> [SEEDS="1 2 3"]'; exit 2; fi
	sh scripts/benchpairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEEDS)"

# Stage shares of the cycle loop from a CPU profile of BenchmarkFig5 (see
# scripts/profile.sh); the profile is kept in the temporary directory it
# prints.
profile:
	sh scripts/profile.sh
