package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"conspec/internal/core"
	"conspec/internal/workload"
)

// TestGoldenCoversEverySeed checks that golden.json has a digest for every
// profile × mechanism a seed can choose.
func TestGoldenCoversEverySeed(t *testing.T) {
	if err := loadGolden(); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		for _, m := range core.Mechanisms {
			if golden.Long[longKey(name, m)] == "" {
				t.Errorf("no long digest for %s / %s", name, m)
			}
		}
		for _, d := range core.Defenses() {
			if golden.Short[shortKey(name, d.Name())] == "" {
				t.Errorf("no short digest for %s / %s", name, d.Name())
			}
		}
	}
}

// spanPrefixes are the spans each workload's trace must contain.
var spanPrefixes = map[string][]string{
	"sim-long": {"pass:sim-long", "job:cold", "job:warm", "run:", "probe", "sim:",
		"workload.generate", "workload.load", "pipeline.new", "pipeline.warmup", "pipeline.measure"},
	"sim-short": {"pass:sim-short", "job:cold", "job:warm", "run:", "probe", "sim:",
		"workload.generate", "workload.load", "pipeline.new", "pipeline.warmup", "pipeline.measure", "attack.v1"},
	"serve-mix": {"pass:serve-mix", "job", "serve.submit", "serve.watch", "serve.fetch", "probe",
		"workload.load", "pipeline.measure"},
	"fleet-mix": {"pass:fleet-mix", "job", "serve.submit", "serve.watch", "serve.fetch", "probe",
		"workload.load", "pipeline.measure"},
}

// bench is the metric contract in the repository's BENCHMARK.json.
var bench struct {
	endToEnd, perLayer []string
}

func loadBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	bench.endToEnd, bench.perLayer = nil, nil
	for _, m := range doc.EndToEnd {
		bench.endToEnd = append(bench.endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		bench.perLayer = append(bench.perLayer, m.Name)
	}
}

// TestWorkloads runs every workload on a tiny configuration in both modes:
// no operation may fail, each mode must report its whole metric set, and
// the traced run's Chrome trace must pass scripts/tracecheck. The metric
// sets are the ones BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	loadBenchmarkJSON(t)
	dir := t.TempDir()
	for wl, prefixes := range spanPrefixes {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := &options{workload: wl, seed: 7, seconds: 1, trace: traced, outDir: dir, passes: 1, profiles: 2, lenient: true}
				if traced {
					o.passes = 2 // one untraced, one traced
				}
				res, err := execute(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := bench.endToEnd
				if traced {
					want = bench.perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					if !ok || (!traced && m.Value <= 0) {
						t.Errorf("traced=%v: metric %s = %+v (present %v)", traced, n, m, ok)
					}
				}
			}
			path := filepath.Join(dir, "trace-"+wl+".json")
			cmd := exec.Command("go", append([]string{"run", "./scripts/tracecheck", "-chrome", path}, prefixes...)...)
			cmd.Dir = ".."
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("tracecheck: %v\n%s", err, out)
			}
		})
	}
}
