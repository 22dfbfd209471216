#!/bin/sh
# benchpairs: measure the working tree against a parent revision in
# alternating pairs of benchmark runs.
#
#   sh scripts/benchpairs.sh PARENT WORKLOAD "SEEDS"
#   make bench-pairs PARENT=<rev> WORKLOAD=fleet-mix SEEDS="1 2 3 4 5 6 7 8 9 10"
#
# The parent is exported with git archive into a temporary directory. Each
# side builds and runs its own perfbench/run.sh (--trace 0, for
# BENCHMARK.json's run_seconds), one run at a time: for the first, third,
# ... seed the parent runs first, for the others the working tree does, so
# host drift falls on both sides alike.
# Results and standard error of every run are kept under
# .perfbench/pairs/WORKLOAD-<time>/. The summary, printed by
# scripts/pairstat, is the table EXPERIMENTS.md uses: each side's median and
# interquartile range, the change in %, "better in N/M" pairs, then the
# same for the raw (unscaled) CPU figures. It also prints each binary's
# calibration kernel, main.(*kernelState).run, as its address mod 64: a
# kernel that moves within its cache line runs at another speed and skews
# every scaled figure (about 5% for a 32-byte shift), which the raw figures
# show.
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
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
if [ -z "$seconds" ]; then
    echo "benchpairs: no run_seconds in BENCHMARK.json" >&2
    exit 1
fi
out=$root/.perfbench/pairs/$workload-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git -C "$root" archive "$parent_rev" | tar -x -C "$tmp"
echo "benchpairs: parent $(git -C "$root" rev-parse --short "$parent_rev") in $tmp, results in $out" >&2

# run <side> <checkout> <seed>: one benchmark run; a failing run keeps its
# output for the summary, which reports it.
run() {
    echo "benchpairs: $1 seed $3" >&2
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
kernel parent "$tmp"
kernel change "$root"

(cd "$root" && $GO run ./scripts/pairstat -dir "$out")
