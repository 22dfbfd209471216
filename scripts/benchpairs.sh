#!/bin/sh
# benchpairs: measure the working tree against a parent revision in
# alternating pairs of benchmark runs, and gate the result.
#
#   sh scripts/benchpairs.sh PARENT WORKLOAD "SEEDS"
#   make bench-pairs PARENT=<rev> WORKLOAD=fleet-mix SEEDS="1 2 3 4 5 6 7 8 9 10"
#
# The parent is exported with git archive into a temporary directory. Each
# side runs in its own checkout, one run at a time: for the first, third,
# ... seed the parent runs first, for the others the working tree does, so
# host drift falls on both sides alike.
#
# WORKLOAD is a BENCHMARK.json workload or go-bench. A perfbench workload
# builds and runs each side's perfbench/run.sh (--trace 0, for
# BENCHMARK.json's run_seconds) and keeps, per seed S, SIDE-S.json (its last
# output line), SIDE-S.out and SIDE-S.err, plus SIDE.kernel: the binary's
# calibration kernel, main.(*kernelState).run, as its address mod 64. A
# kernel that moves within its cache line runs at another speed and skews
# every scaled figure (about 5% for a 32-byte shift), which the raw
# (unscaled) CPU figures show. go-bench builds each side's test binary once
# and runs the tracked Go benchmarks once per side and seed (the seed only
# names the pair), keeping their output as SIDE-S.bench.
#
# Everything stays under .perfbench/pairs/WORKLOAD-<time>/. scripts/pairstat
# prints the tables EXPERIMENTS.md uses (medians, IQRs, change, "better in
# N/M", sign-test p) and exits 1, failing this script with 1, when the change
# regressed significantly beyond a bound or failed where the parent did not.
# A usage or set-up error exits 2.
set -eu

if [ $# -lt 3 ] || [ -z "$1" ] || [ -z "$2" ]; then
    echo "usage: $0 PARENT WORKLOAD \"SEEDS\"" >&2
    exit 2
fi
parent_rev=$1
workload=$2
seeds=$3
GO=${GO:-go}

root=$(cd "$(dirname "$0")/.." && pwd)
# The Go benchmarks go-bench tracks: the end-to-end Figure 5 evaluation and
# the SecMatrix kernels (gated), per-simulation set-up on its own (generate,
# load and build the machine for all 22 profiles), the engine's memo-hit path
# on its own (a warm defenses job and a warm Figure 5 on one Runner), and the
# other per-component microbenches. pairstat gates the ns/op of the gated
# ones and BenchmarkMemoHit's allocs/op.
tracked='^(BenchmarkSimSetup|BenchmarkMemoHit|BenchmarkSimulatorThroughput|BenchmarkTPBufQuery|BenchmarkCacheAccess)$'
# Each gated benchmark runs its own fixed number of iterations (NAME=N), 3-5 s
# on a 2-vCPU host, where the default 1 s ramp gave Fig5 two iterations. On a
# shared host the spread between runs can still exceed the 5% bound
# (EXPERIMENTS.md, "Warm jobs answered on the caller").
gated='BenchmarkFig5=8x BenchmarkSecMatrixDispatch=300000000x BenchmarkSecMatrixHazardCheck=2000000000x'

seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
if [ -z "$seconds" ]; then
    echo "benchpairs: no run_seconds in BENCHMARK.json" >&2
    exit 2
fi
out=$root/.perfbench/pairs/$workload-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"
tmp=$(mktemp -d)
bin=$(mktemp -d)
trap 'rm -rf "$tmp" "$bin"' EXIT INT TERM

git -C "$root" archive "$parent_rev" | tar -x -C "$tmp" || exit 2
echo "benchpairs: parent $(git -C "$root" rev-parse --short "$parent_rev") in $tmp, results in $out" >&2

# bench <side> <checkout> <regexp> <benchtime>: one invocation of the side's
# test binary, from its package directory.
bench() {
    (cd "$2" && "$bin/$1.test" -test.run '^$' -test.bench "$3" -test.benchtime "$4" \
        -test.benchmem -test.count 1 -test.timeout 10m)
}

# run <side> <checkout> <seed>: one benchmark run; a failing run keeps its
# output for the summary, which reports it.
run() {
    echo "benchpairs: $1 seed $3" >&2
    if [ "$workload" = go-bench ]; then
        {
            for g in $gated; do
                bench "$1" "$2" "^${g%%=*}\$" "${g#*=}"
            done
            bench "$1" "$2" "$tracked" 1s
        } >"$out/$1-$3.bench" 2>&1 || echo "benchpairs: $1 seed $3 exited $?" >&2
        return
    fi
    bash "$2/perfbench/run.sh" --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0 >"$out/$1-$3.out" 2>"$out/$1-$3.err" ||
        echo "benchpairs: $1 seed $3 exited $?" >&2
    tail -n 1 "$out/$1-$3.out" >"$out/$1-$3.json"
}

# kernel <side> <checkout>: the calibration kernel's offset in its line.
kernel() {
    addr=$(GOTOOLCHAIN=local $GO tool nm "$2/.perfbench/perfbench" |
        awk '$3 == "main.(*kernelState).run" { print $1 }')
    echo $((0x$addr % 64)) >"$out/$1.kernel"
}

if [ "$workload" = go-bench ]; then
    (cd "$tmp" && $GO test -c -o "$bin/parent.test" .) || exit 2
    (cd "$root" && $GO test -c -o "$bin/change.test" .) || exit 2
fi

k=0
for seed in $seeds; do
    k=$((k + 1))
    if [ $((k % 2)) -eq 1 ]; then
        run parent "$tmp" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$tmp" "$seed"
    fi
done
if [ "$workload" != go-bench ]; then
    kernel parent "$tmp"
    kernel change "$root"
fi

(cd "$root" && $GO run ./scripts/pairstat -dir "$out")
