// Command pairstat summarizes paired benchmark runs written by
// scripts/benchpairs.sh:
//
//	pairstat -dir DIR
//
// DIR holds, for every seed S, parent-S.json and change-S.json (the last
// line of perfbench's standard output) and parent-S.err and change-S.err
// (its standard error), plus parent.kernel and change.kernel (the
// calibration kernel's address mod 64 in each binary). It prints a
// markdown table of every end-to-end metric BENCHMARK.json declares (read
// from the working directory, the repository root): each side's median and
// interquartile range over the seeds, the change of the medians, in how
// many pairs (same seed) the change was better, and whether the medians
// differ by more than the parent's interquartile range. A second table does the same for the unscaled CPU figures
// perfbench prints on standard error, which the calibration kernel's
// alignment cannot skew.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is perfbench's one-line JSON summary.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// side is one side's samples, by seed.
type side map[string]map[string]float64

// rawCPU matches perfbench's unscaled CPU summary line.
var rawCPU = regexp.MustCompile(`raw CPU time \(unscaled\): setup ([0-9.e+-]+) s, pass ([0-9.e+-]+) s, warm_job p50 ([0-9.e+-]+) ms, p90 ([0-9.e+-]+) ms, cold_job p50 ([0-9.e+-]+) ms`)

var rawNames = []string{"raw.setup_s", "raw.pass_cpu_s", "raw.warm_job_p50_ms", "raw.warm_job_p90_ms", "raw.cold_job_p50_ms"}

func main() {
	dir := flag.String("dir", "", "directory of paired runs")
	flag.Parse()
	if err := run(*dir); err != nil {
		fmt.Fprintln(os.Stderr, "pairstat:", err)
		os.Exit(1)
	}
}

func run(dir string) error {
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	seeds, err := seedsIn(dir)
	if err != nil {
		return err
	}
	parent, change := side{}, side{}
	for _, s := range seeds {
		for name, sd := range map[string]side{"parent": parent, "change": change} {
			m, status, err := load(dir, name, s)
			if err != nil {
				return err
			}
			sd[s] = m
			fmt.Printf("%s seed %s: %s\n", name, s, status)
		}
	}
	for _, name := range []string{"parent", "change"} {
		k, _ := os.ReadFile(filepath.Join(dir, name+".kernel"))
		fmt.Printf("%s: calibration kernel at offset %s mod 64\n", name, strings.TrimSpace(string(k)))
	}
	fmt.Println()
	table(decl.EndToEnd, seeds, parent, change)
	fmt.Println()
	var raw []metricDef
	for _, n := range rawNames {
		raw = append(raw, metricDef{Name: n, Better: "lower"})
	}
	table(raw, seeds, parent, change)
	return nil
}

// seedsIn lists the seeds that have both sides' results, in numeric order.
func seedsIn(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "parent-*.json"))
	if err != nil {
		return nil, err
	}
	var seeds []string
	for _, f := range files {
		s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "parent-"), ".json")
		if _, err := os.Stat(filepath.Join(dir, "change-"+s+".json")); err == nil {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no paired runs in %s", dir)
	}
	sort.Slice(seeds, func(i, k int) bool {
		a, _ := strconv.Atoi(seeds[i])
		b, _ := strconv.Atoi(seeds[k])
		return a < b
	})
	return seeds, nil
}

// load reads one run's metrics (end-to-end and raw CPU) and a status line.
func load(dir, name, seed string) (map[string]float64, string, error) {
	b, err := os.ReadFile(filepath.Join(dir, name+"-"+seed+".json"))
	if err != nil {
		return nil, "", err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, "", fmt.Errorf("%s-%s.json: %v", name, seed, err)
	}
	m := make(map[string]float64, len(r.Metrics)+len(rawNames))
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	if errText, err := os.ReadFile(filepath.Join(dir, name+"-"+seed+".err")); err == nil {
		if sub := rawCPU.FindSubmatch(errText); sub != nil {
			for i, n := range rawNames {
				m[n], _ = strconv.ParseFloat(string(sub[i+1]), 64)
			}
		}
	}
	status := fmt.Sprintf("correct=%v, %d failed of %d attempted", r.Correct, r.Failed, r.Attempted)
	return m, status, nil
}

// table prints one markdown row per metric present on both sides.
func table(defs []metricDef, seeds []string, parent, change side) {
	fmt.Println("| metric | parent [IQR] | this change [IQR] | change | better in | beyond parent IQR |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, d := range defs {
		var ps, cs []float64
		better := 0
		for _, s := range seeds {
			p, pok := parent[s][d.Name]
			c, cok := change[s][d.Name]
			if !pok || !cok {
				continue
			}
			ps, cs = append(ps, p), append(cs, c)
			if (d.Better == "higher" && c > p) || (d.Better != "higher" && c < p) {
				better++
			}
		}
		if len(ps) == 0 {
			continue
		}
		pm, cm := quantile(ps, 0.5), quantile(cs, 0.5)
		piqr := quantile(ps, 0.75) - quantile(ps, 0.25)
		pct := 0.0
		if pm != 0 {
			pct = 100 * (cm - pm) / pm
		}
		beyond := "no"
		if math.Abs(cm-pm) > piqr {
			beyond = "yes"
		}
		fmt.Printf("| `%s` | %s | %s | %+.1f%% | %d/%d | %s |\n", d.Name,
			spread(ps), spread(cs), pct, better, len(ps), beyond)
	}
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
