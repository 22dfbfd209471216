#!/bin/sh
# profile: where the cycle loop spends its time, stage by stage.
#
#   sh scripts/profile.sh
#   make profile
#
# Runs BenchmarkFig5 for five iterations under the CPU profiler into a
# fresh temporary directory and prints the `go tool pprof -top -cum` rows
# for the cycle step, the five pipeline stages, the memory reads fetch and
# the loads go through, and the TPBuf allocation. The cum% column is each
# function's share of the whole profile, so runs on different hosts or
# revisions compare by share rather than by time. The profile stays in the
# printed directory for further `go tool pprof` queries. Nothing gates on
# the output.
set -eu
GO=${GO:-go}
root=$(cd "$(dirname "$0")/.." && pwd)
dir=$(mktemp -d "${TMPDIR:-/tmp}/conspec-profile.XXXXXX")

cd "$root"
"$GO" test -run '^$' -bench '^BenchmarkFig5$' -benchtime 5x \
    -cpuprofile "$dir/cpu.prof" -o "$dir/conspec.test" . >"$dir/bench.txt"
grep '^BenchmarkFig5' "$dir/bench.txt"
"$GO" tool pprof -top -cum "$dir/conspec.test" "$dir/cpu.prof" 2>/dev/null |
    grep -E '^ +flat|\.\(\*CPU\)\.(step|fetchStage|dispatchStage|issueStage|writebackStage|commitStage)$|\.\(\*FlatMem\)\.(Read|Fetch)$|\.\(\*TPBuf\)\.Allocate$'
echo "profile: $dir/cpu.prof"
