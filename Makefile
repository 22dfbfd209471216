# conspec build/verify targets.
#
#   make tier1          — the PR gate: build, lint (gofmt + vet), vet and
#                         tests of the perfbench benchmark module, full test
#                         suite (with scripts/pairstat's gate tests), the
#                         race detector over the experiment engine's worker
#                         pool, the cache tag-array pool, the obs sinks, and
#                         the serve daemon, the chaos gate (fault-injection
#                         corpus + self-checking stress), a one-iteration
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
#   make bench-pairs PARENT=<rev> WORKLOAD=<w> SEEDS="1 … 10"
#                       — the repository's benchmark system and the perf gate
#                         for perf-sensitive PRs: run a BENCHMARK.json
#                         workload, or go-bench (the tracked Go benchmarks),
#                         on the parent and the working tree in alternating
#                         pairs, print the medians, IQRs, changes, "better in
#                         N/M" and sign-test p per metric, and FAIL (exit 1)
#                         on a significant regression beyond a bound: an
#                         end-to-end metric's BENCHMARK.json bound, or 5% on
#                         the ns/op of BenchmarkFig5 and BenchmarkSecMatrix*.
#   make profile        — CPU-profile five BenchmarkFig5 iterations and print
#                         the cumulative shares of the cycle step, the five
#                         stages, FlatMem.Read/Fetch and TPBuf.Allocate (not
#                         part of tier1; gates nothing).

GO ?= go

.PHONY: all build fmt vet perfbench-vet perfbench-test lint lint-defense test race chaos benchsmoke serve-smoke crash-smoke trace-smoke fleet-smoke defense-matrix tier1 bench bench-pairs profile

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

# Paired benchmark runs against a parent revision, gated by scripts/pairstat
# (see scripts/benchpairs.sh); a perfbench run's length is BENCHMARK.json's
# run_seconds, WORKLOAD=go-bench pairs the tracked Go benchmarks. make exits 2
# on any failure, so the last line says which: the gate tripped (the script's
# 1) or a usage or set-up error (its 2).
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
bench-pairs:
	@if [ -z "$(PARENT)" ] || [ -z "$(WORKLOAD)" ]; then \
	    echo 'usage: make bench-pairs PARENT=<rev> WORKLOAD=<workload> [SEEDS="1 2 3"]'; \
	    echo 'bench-pairs: usage error' >&2; exit 2; fi
	@sh scripts/benchpairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEEDS)" || { s=$$?; \
	    if [ $$s -eq 1 ]; then echo 'bench-pairs: the gate tripped (pairstat: FAIL lines above)' >&2; \
	    else echo "bench-pairs: usage or set-up error (benchpairs.sh exited $$s)" >&2; fi; exit $$s; }

# Stage shares of the cycle loop from a CPU profile of BenchmarkFig5 (see
# scripts/profile.sh); the profile is kept in the temporary directory it
# prints.
profile:
	sh scripts/profile.sh
