package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// runMainEnv makes the test binary act as conspec-bench: TestMain runs
// main() instead of the tests when it is set, so the goldens below drive
// the real command line, flag parsing and output assembly included.
const runMainEnv = "CONSPEC_BENCH_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenArgs is a small -suite all run. lbm,astar is deliberately out of
// registry order: fig5, table6 and compare rows follow the request order,
// scope rows follow workload.Names().
var goldenArgs = []string{"-suite", "all", "-benches", "lbm,astar", "-warmup", "1000", "-measure", "3000"}

// buildStamp matches the -json document's leading build object, the one
// part of the output that names the binary rather than the results.
var buildStamp = regexp.MustCompile(`(?s)^\{\n  "build": \{.*?\n  \},\n`)

// engineBlock matches the -json document's trailing engine object: the
// scheduler's dedup and cycle-skip counters, which change with how the
// engine shares work, not with what any suite computes. The golden keeps
// it for reference; the comparison leaves it out on both sides.
var engineBlock = regexp.MustCompile(`(?s),\n  "engine": \{.*?\n  \}\n\}\n$`)

// TestSuiteAllGolden pins conspec-bench -suite all stdout, text and -json
// (build stamp removed, engine counters not compared), byte for byte. The
// simulator is deterministic per configuration, so any difference is a
// change in what a suite computes or how it is rendered. Regenerate deliberately with
// `go test ./cmd/conspec-bench -run TestSuiteAllGolden -update`.
func TestSuiteAllGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"suite_all.txt", goldenArgs},
		{"suite_all.json", append([]string{"-json"}, goldenArgs...)},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("conspec-bench %v: %v\n%s", tc.args, err, stderr.Bytes())
			}
			got = buildStamp.ReplaceAll(got, []byte("{\n"))
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strip := []byte("\n}\n"); !bytes.Equal(engineBlock.ReplaceAll(got, strip), engineBlock.ReplaceAll(want, strip)) {
				t.Errorf("stdout differs from %s (rerun with -update only if the change is intended):\n%s", path, got)
			}
		})
	}
}
