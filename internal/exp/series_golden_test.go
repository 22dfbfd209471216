package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"conspec/internal/core"
	"conspec/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// TestSeriesGolden pins the sampled metric series of one measured run: the
// column names and their order, every row, and the histogram trailer.
// Self-checking is on, so the hardening columns read non-zero.
func TestSeriesGolden(t *testing.T) {
	p, ok := workload.ByName("astar")
	if !ok {
		t.Fatal("astar profile missing")
	}
	d, err := core.LookupDefense("cachehit")
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec()
	spec.Warmup, spec.Measure = 2_000, 10_000
	spec.Sec = SecFor(d)
	spec.MetricsInterval = 1024
	spec.SelfCheck = 64
	res := RunWorkload(workload.MustGenerate(p), spec)
	if res.Series == nil {
		t.Fatal("run carries no series")
	}
	var got bytes.Buffer
	if err := res.Series.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "series_cachehit.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("series differs from %s:\n got %s\nwant %s", path, got.Bytes(), want)
	}
}
