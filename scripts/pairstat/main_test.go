package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writePerf writes one synthetic perfbench run: its JSON summary line with
// a single pass_cpu_s metric.
func writePerf(t *testing.T, dir, side string, seed int, passCPU float64, correct bool, failed int) {
	t.Helper()
	doc := fmt.Sprintf(`{"correct":%v,"attempted":100,"failed":%d,"metrics":{"pass_cpu_s":{"value":%g,"unit":"s"}}}`,
		correct, failed, passCPU)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, seed)), []byte(doc+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeBench writes one synthetic go-bench run with the given ns/op of
// BenchmarkFig5 and BenchmarkSimSetup.
func writeBench(t *testing.T, dir, side string, seed int, fig5, setup float64) {
	t.Helper()
	out := fmt.Sprintf(`goos: linux
goarch: amd64
pkg: conspec
BenchmarkFig5-2   	       1	%.0f ns/op	       119.1 baseline-ovh-%%	444565320 B/op	  109187 allocs/op
BenchmarkSimSetup-2   	       3	%.0f ns/op	 1234 B/op	      56 allocs/op
BenchmarkSecMatrixDispatch-2   	 1000000	      11.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	conspec	16.2s
`, fig5, setup)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.bench", side, seed)), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// perfDir builds ten pairs of perfbench runs whose change side runs
// pass_cpu_s at factor(seed) times the parent's.
func perfDir(t *testing.T, factor func(seed int) float64) string {
	dir := t.TempDir()
	for s := 1; s <= 10; s++ {
		p := 1 + 0.01*float64(s)
		writePerf(t, dir, "parent", s, p, true, 0)
		writePerf(t, dir, "change", s, p*factor(s), true, 0)
	}
	return dir
}

func summarizeT(t *testing.T, dir string) ([]string, string) {
	t.Helper()
	var out bytes.Buffer
	failures, err := summarize(&out, dir, "../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return failures, out.String()
}

func TestSignificantRegressionFails(t *testing.T) {
	failures, out := summarizeT(t, perfDir(t, func(int) float64 { return 1.3 }))
	if len(failures) != 1 || !strings.Contains(failures[0], "pass_cpu_s") {
		t.Fatalf("failures = %q, want one naming pass_cpu_s\n%s", failures, out)
	}
	if !strings.Contains(out, "| `pass_cpu_s` | 25% |") || !strings.Contains(out, "| 0/10 | 0.000977 |") {
		t.Errorf("table row lacks the bound, 0/10 better or p = 1/1024:\n%s", out)
	}
}

// Eight of ten pairs worse is not significant at 5% (p = 56/1024), even
// with the medians beyond the bound.
func TestEightOfTenNotSignificant(t *testing.T) {
	failures, out := summarizeT(t, perfDir(t, func(s int) float64 {
		if s > 8 {
			return 0.9
		}
		return 1.3
	}))
	if len(failures) != 0 {
		t.Fatalf("failures = %q, want none\n%s", failures, out)
	}
	if !strings.Contains(out, "| 2/10 | 0.0547 |") {
		t.Errorf("want 2/10 better, p = 0.0547:\n%s", out)
	}
}

func TestRegressionInsideBoundPasses(t *testing.T) {
	if failures, out := summarizeT(t, perfDir(t, func(int) float64 { return 1.1 })); len(failures) != 0 {
		t.Fatalf("failures = %q, want none\n%s", failures, out)
	}
}

func TestIncorrectChangeRunFails(t *testing.T) {
	dir := perfDir(t, func(int) float64 { return 1 })
	writePerf(t, dir, "change", 4, 1.04, false, 0)
	failures, out := summarizeT(t, dir)
	if len(failures) != 1 || !strings.Contains(failures[0], "change seed 4: correct=false") {
		t.Fatalf("failures = %q, want change seed 4 incorrect\n%s", failures, out)
	}
}

func TestMoreFailedOperationsFails(t *testing.T) {
	dir := perfDir(t, func(int) float64 { return 1 })
	writePerf(t, dir, "change", 2, 1.02, true, 1)
	failures, out := summarizeT(t, dir)
	if len(failures) != 1 || !strings.Contains(failures[0], "change failed 1 of 1000 operations, parent 0 of 1000") {
		t.Fatalf("failures = %q, want the failed share\n%s", failures, out)
	}
}

func TestGoBenchGate(t *testing.T) {
	dir := t.TempDir()
	for s := 1; s <= 10; s++ {
		fig5 := 2.8e9 + 1e7*float64(s)
		writeBench(t, dir, "parent", s, fig5, 2e7)
		writeBench(t, dir, "change", s, fig5*1.06, 2e7)
	}
	failures, out := summarizeT(t, dir)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "BenchmarkFig5 ns/op worse by 6.0% (bound 5%), worse in 10/10 pairs") {
		t.Fatalf("failures = %q, want BenchmarkFig5 ns/op\n%s", failures, out)
	}
	for _, row := range []string{"| `BenchmarkFig5 ns/op` | 5% |", "| `BenchmarkFig5 allocs/op` | – |",
		"| `BenchmarkSimSetup ns/op` | – |", "| `BenchmarkSecMatrixDispatch ns/op` | 5% | 11.5 [11.5–11.5] | 11.5 [11.5–11.5] | +0.0% | 0/10 | 1 |"} {
		if !strings.Contains(out, row) {
			t.Errorf("missing row %q:\n%s", row, out)
		}
	}
}

// BenchmarkSimSetup is tracked, not gated: 30% slower is printed and
// passes.
func TestGoBenchUngatedPrinted(t *testing.T) {
	dir := t.TempDir()
	for s := 1; s <= 10; s++ {
		setup := 2e7 + 1e5*float64(s)
		writeBench(t, dir, "parent", s, 2.8e9, setup)
		writeBench(t, dir, "change", s, 2.8e9, setup*1.3)
	}
	failures, out := summarizeT(t, dir)
	if len(failures) != 0 {
		t.Fatalf("failures = %q, want none\n%s", failures, out)
	}
	if !strings.Contains(out, "| `BenchmarkSimSetup ns/op` | – |") || !strings.Contains(out, "| +30.0% | 0/10 | 0.000977 |") {
		t.Errorf("BenchmarkSimSetup row missing or wrong:\n%s", out)
	}
}

// BenchmarkMemoHit's allocs/op is gated, its ns/op is not: allocations
// 10% up in every pair fail, a 30% slower ns/op alone passes.
func TestGoBenchMemoHitAllocsGated(t *testing.T) {
	for _, c := range []struct {
		allocs, ns float64
		fail       bool
	}{{1.1, 1, true}, {1, 1.3, false}, {0.5, 1, false}} {
		dir := t.TempDir()
		for s := 1; s <= 10; s++ {
			for side, f := range map[string][2]float64{"parent": {1, 1}, "change": {c.allocs, c.ns}} {
				out := fmt.Sprintf("BenchmarkMemoHit-2   \t    1000\t%.0f ns/op\t  722768 B/op\t  %.0f allocs/op\nPASS\n",
					7e5*f[1]*(1+0.01*float64(s)), 627*f[0])
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.bench", side, s)), []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		failures, out := summarizeT(t, dir)
		tripped := len(failures) == 1 && strings.HasPrefix(failures[0], "BenchmarkMemoHit allocs/op worse by 10.0% (bound 5%)")
		if c.fail && !tripped || !c.fail && len(failures) != 0 {
			t.Errorf("allocs ×%v, ns ×%v: failures = %q\n%s", c.allocs, c.ns, failures, out)
		}
		for _, row := range []string{"| `BenchmarkMemoHit allocs/op` | 5% |", "| `BenchmarkMemoHit ns/op` | – |"} {
			if !strings.Contains(out, row) {
				t.Errorf("missing row %q:\n%s", row, out)
			}
		}
	}
}

func TestParseBenchCustomMetrics(t *testing.T) {
	line := "BenchmarkFig5-2   \t       1\t2812888957 ns/op\t       119.1 baseline-ovh-%\t        84.35 cachehit-ovh-%\t        25.83 tpbuf-ovh-%\t444565320 B/op\t  109187 allocs/op"
	m, defs, r := parseBenchOutput("goos: linux\n" + line + "\nPASS\nok  \tconspec\t3.1s\n")
	if !r.Correct || r.Attempted != 1 || r.Failed != 0 {
		t.Errorf("outcome = %+v, want correct, 1 attempted", r)
	}
	want := []metricDef{{"BenchmarkFig5 ns/op", "lower", 0.05}, {"BenchmarkFig5 B/op", "lower", 0},
		{"BenchmarkFig5 allocs/op", "lower", 0}}
	if !reflect.DeepEqual(defs, want) {
		t.Errorf("rows = %v, want %v", defs, want)
	}
	for u, v := range map[string]float64{"ns/op": 2812888957, "B/op": 444565320, "allocs/op": 109187} {
		if m["BenchmarkFig5 "+u] != v {
			t.Errorf("%s = %v, want %v", u, m["BenchmarkFig5 "+u], v)
		}
	}
	if len(m) != 3 {
		t.Errorf("metrics %v, want only ns/op, B/op and allocs/op", m)
	}
	if _, _, r := parseBenchOutput("--- FAIL: BenchmarkFig5-2\nFAIL\nFAIL\tconspec\t1.0s\n"); r.Correct || r.Failed != 1 || r.Attempted != 1 {
		t.Errorf("failed run outcome = %+v, want incorrect with 1 of 1 failed", r)
	}
}

func TestParentStatusFirst(t *testing.T) {
	_, out := summarizeT(t, perfDir(t, func(int) float64 { return 1 }))
	var status []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " seed ") {
			status = append(status, l)
		}
	}
	if len(status) != 20 {
		t.Fatalf("%d status lines, want 20:\n%s", len(status), out)
	}
	for i, l := range status {
		want := fmt.Sprintf("parent seed %d: ", i/2+1)
		if i%2 == 1 {
			want = fmt.Sprintf("change seed %d: ", i/2+1)
		}
		if !strings.HasPrefix(l, want) {
			t.Errorf("status line %d = %q, want prefix %q", i, l, want)
		}
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{{10, 10, 1.0 / 1024}, {9, 10, 11.0 / 1024}, {8, 10, 56.0 / 1024}, {0, 10, 1}, {0, 0, 1}} {
		if got := signTest(c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
}
