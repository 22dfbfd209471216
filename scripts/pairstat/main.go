// Command pairstat summarizes and gates the paired benchmark runs that
// scripts/benchpairs.sh writes into DIR (its comment lists the files):
//
//	pairstat -dir DIR
//
// Each table row gives each side's median and interquartile range, the change
// of the medians, in how many pairs (same seed) the change was better, the p
// of an exact one-sided sign test in the direction the medians moved (ties
// count for neither side), and whether the medians differ by more than the
// parent's IQR. The rows are BENCHMARK.json's end-to-end metrics (read from
// the working directory, the repository root) and perfbench's unscaled CPU
// figures, which the calibration kernel's alignment cannot skew; or, for
// go-bench runs, each benchmark's ns/op, B/op and allocs/op.
//
// pairstat exits 1 when a change-side run is not correct, when the change
// failed a larger share of operations than the parent, or when a gated metric
// regressed significantly beyond its bound: the change's median is worse by
// more than the bound and the sign test gives p < alpha (with ten pairs:
// worse in at least nine). The end-to-end metrics are gated at their
// BENCHMARK.json bounds, goBenchGate's go-bench metrics at goBenchBound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The go-bench gate, by unit: the Figure 5 evaluation and the SecMatrix
// kernels may not regress their ns/op by more than 5%, nor the memo-hit path
// its allocs/op, a count that timing noise does not move. The other tracked
// benchmarks and units are printed but not gated.
var goBenchGate = map[string]*regexp.Regexp{
	"ns/op":     regexp.MustCompile(`^Benchmark(Fig5|SecMatrix)`),
	"allocs/op": regexp.MustCompile(`^BenchmarkMemoHit$`),
}

const (
	goBenchBound = 0.05
	alpha        = 0.05 // the sign test's significance level
)

// result is one run's outcome: perfbench's one-line JSON summary, or what
// parseBenchOutput makes of a go-bench run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metricDef is one metric of a table; a zero Bound prints it without
// gating it.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one side's samples, by seed.
type side map[string]map[string]float64

// rawCPU matches perfbench's unscaled CPU summary line.
var rawCPU = regexp.MustCompile(`raw CPU time \(unscaled\): setup ([0-9.e+-]+) s, pass ([0-9.e+-]+) s, warm_job p50 ([0-9.e+-]+) ms, p90 ([0-9.e+-]+) ms, cold_job p50 ([0-9.e+-]+) ms`)

// benchLine matches a go test -bench result line, e.g.
//
//	BenchmarkFig5-2  1  2812888957 ns/op  119.1 baseline-ovh-%  444565320 B/op  109187 allocs/op
//
// capturing the name without its -GOMAXPROCS suffix and the value-unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+(.*)$`)

// rawDefs are the unscaled CPU figures rawCPU captures, in its group order.
var rawDefs = []metricDef{{Name: "raw.setup_s"}, {Name: "raw.pass_cpu_s"},
	{Name: "raw.warm_job_p50_ms"}, {Name: "raw.warm_job_p90_ms"}, {Name: "raw.cold_job_p50_ms"}}

func main() {
	dir := flag.String("dir", "", "directory of paired runs")
	flag.Parse()
	failures, err := summarize(os.Stdout, *dir, "BENCHMARK.json")
	if err != nil {
		failures = []string{err.Error()}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "pairstat: FAIL:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// summarize prints the runs in dir to w and returns why the change fails
// the gate, if it does. decl is BENCHMARK.json's path.
func summarize(w io.Writer, dir, decl string) ([]string, error) {
	seeds, ext, err := seedsIn(dir)
	if err != nil {
		return nil, err
	}
	var failures []string
	var order []metricDef
	sides := [2]side{{}, {}}
	var failed, attempted [2]int
	for _, s := range seeds {
		for i, name := range []string{"parent", "change"} {
			m, defs, r, err := load(filepath.Join(dir, name+"-"+s), ext)
			if err != nil {
				return nil, err
			}
			sides[i][s] = m
			if len(defs) > len(order) {
				order = defs
			}
			failed[i] += r.Failed
			attempted[i] += r.Attempted
			fmt.Fprintf(w, "%s seed %s: correct=%v, %d failed of %d attempted\n", name, s, r.Correct, r.Failed, r.Attempted)
			if i == 1 && !r.Correct {
				failures = append(failures, fmt.Sprintf("change seed %s: correct=false", s))
			}
		}
	}
	if failed[1]*attempted[0] > failed[0]*attempted[1] {
		failures = append(failures, fmt.Sprintf("change failed %d of %d operations, parent %d of %d",
			failed[1], attempted[1], failed[0], attempted[0]))
	}
	tables := [][]metricDef{order}
	if ext == "json" {
		var bench struct {
			EndToEnd []metricDef `json:"end_to_end"`
		}
		b, err := os.ReadFile(decl)
		if err == nil {
			err = json.Unmarshal(b, &bench)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", decl, err)
		}
		for _, name := range []string{"parent", "change"} {
			k, _ := os.ReadFile(filepath.Join(dir, name+".kernel"))
			fmt.Fprintf(w, "%s: calibration kernel at offset %s mod 64\n", name, strings.TrimSpace(string(k)))
		}
		tables = [][]metricDef{bench.EndToEnd, rawDefs}
	}
	for _, defs := range tables {
		fmt.Fprintln(w)
		failures = append(failures, table(w, defs, seeds, sides[0], sides[1])...)
	}
	return failures, nil
}

// seedsIn lists the seeds that have both sides' runs, in numeric order,
// and their extension: "json" for perfbench runs, "bench" for go-bench.
func seedsIn(dir string) ([]string, string, error) {
	files, _ := filepath.Glob(filepath.Join(dir, "parent-*.*"))
	seeds, ext := []string(nil), ""
	for _, f := range files {
		s, e, _ := strings.Cut(strings.TrimPrefix(filepath.Base(f), "parent-"), ".")
		if _, err := os.Stat(filepath.Join(dir, "change-"+s+"."+e)); err == nil && (e == "json" || e == "bench") {
			seeds, ext = append(seeds, s), e
		}
	}
	if len(seeds) == 0 {
		return nil, "", fmt.Errorf("no paired runs in %s", dir)
	}
	sort.Slice(seeds, func(i, k int) bool {
		a, _ := strconv.Atoi(seeds[i])
		b, _ := strconv.Atoi(seeds[k])
		return a < b
	})
	return seeds, ext, nil
}

// load reads one run, base.ext: its metrics, the go-bench table rows (a
// perfbench run has none) and its outcome.
func load(base, ext string) (map[string]float64, []metricDef, result, error) {
	b, err := os.ReadFile(base + "." + ext)
	if err != nil {
		return nil, nil, result{}, err
	}
	if ext == "bench" {
		m, defs, r := parseBenchOutput(string(b))
		return m, defs, r, nil
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, nil, r, fmt.Errorf("%s.json: %v", base, err)
	}
	m := make(map[string]float64, len(r.Metrics)+len(rawDefs))
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	if errText, err := os.ReadFile(base + ".err"); err == nil {
		if sub := rawCPU.FindSubmatch(errText); sub != nil {
			for i, d := range rawDefs {
				m[d.Name], _ = strconv.ParseFloat(string(sub[i+1]), 64)
			}
		}
	}
	return m, nil, r, nil
}

// parseBenchOutput reads one `go test -bench -benchmem` run: each result
// line's ns/op, B/op and allocs/op, keyed "<name> <unit>", and their table
// rows. A result line or a "--- FAIL" line is one attempted operation, the
// latter failed; the run is correct when it passed and nothing failed.
func parseBenchOutput(out string) (map[string]float64, []metricDef, result) {
	m := map[string]float64{}
	var defs []metricDef
	var r result
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "--- FAIL") {
			r.Failed++
		}
		sub := benchLine.FindStringSubmatch(line)
		if sub == nil {
			continue
		}
		r.Attempted++
		f := strings.Fields(sub[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if u := f[i+1]; err == nil && (u == "ns/op" || u == "B/op" || u == "allocs/op") {
				d := metricDef{Name: sub[1] + " " + u, Better: "lower"}
				if g := goBenchGate[u]; g != nil && g.MatchString(sub[1]) {
					d.Bound = goBenchBound
				}
				m[d.Name] = v
				defs = append(defs, d)
			}
		}
	}
	r.Attempted += r.Failed
	out = "\n" + out
	r.Correct = r.Failed == 0 && strings.Contains(out, "\nPASS\n") && !strings.Contains(out, "\nFAIL")
	return m, defs, r
}

// table prints one markdown row per metric present on both sides and
// returns the gated metrics that regressed significantly beyond their
// bounds.
func table(w io.Writer, defs []metricDef, seeds []string, parent, change side) []string {
	var failures []string
	fmt.Fprintln(w, "| metric | bound | parent [IQR] | this change [IQR] | change | better in | p | beyond parent IQR |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, d := range defs {
		sense := 1.0 // -1 where higher is better
		if d.Better == "higher" {
			sense = -1
		}
		var ps, cs []float64
		better, worse := 0, 0
		for _, s := range seeds {
			p, pok := parent[s][d.Name]
			c, cok := change[s][d.Name]
			if !pok || !cok {
				continue
			}
			ps, cs = append(ps, p), append(cs, c)
			if (c-p)*sense < 0 {
				better++
			} else if c != p {
				worse++
			}
		}
		if len(ps) == 0 {
			continue
		}
		pm, cm := quantile(ps, 0.5), quantile(cs, 0.5)
		rel := 0.0
		if pm != 0 {
			rel = (cm - pm) / pm
		}
		loss := rel * sense // how much worse the change's median is
		pWorse, p := signTest(worse, better+worse), signTest(better, better+worse)
		if loss > 0 {
			p = pWorse
		}
		bound, beyond := "–", "no"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		if math.Abs(cm-pm) > quantile(ps, 0.75)-quantile(ps, 0.25) {
			beyond = "yes"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %+.1f%% | %d/%d | %.3g | %s |\n", d.Name, bound,
			spread(ps), spread(cs), 100*rel, better, len(ps), p, beyond)
		if d.Bound > 0 && loss > d.Bound && pWorse < alpha {
			failures = append(failures, fmt.Sprintf("%s worse by %.1f%% (bound %s), worse in %d/%d pairs, p=%.3g",
				d.Name, 100*loss, bound, worse, len(ps), pWorse))
		}
	}
	return failures
}

// signTest is the exact one-sided sign test: the chance that at least k of
// n untied pairs fall on one side when each falls there with probability
// 1/2.
func signTest(k, n int) float64 {
	c, tail := 1.0, 0.0 // c is the binomial coefficient (n choose i)
	for i := 0; i <= n; i++ {
		if i >= k {
			tail += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return tail / math.Ldexp(1, n)
}

// spread renders a sample's median and interquartile range.
func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

// quantile is the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
