package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	var h *Histogram
	var s *Sampler
	c.Inc()
	h.Observe(7)
	s.MaybeSample(100)
	s.Reset(0)
	if c.Value() != 0 || h.Count() != 0 || s.Len() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if s.Series() != nil {
		t.Fatal("nil sampler must yield a nil series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []uint64{1, 4, 16})
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshots()
	if len(snap) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snap))
	}
	// Buckets: <=1 -> {0,1}, <=4 -> {2,4}, <=16 -> {5,16}, overflow -> {17,1000}.
	want := []uint64{2, 2, 2, 2}
	if !reflect.DeepEqual(snap[0].Counts, want) {
		t.Fatalf("counts = %v, want %v", snap[0].Counts, want)
	}
	if h.Count() != 8 || h.Max() != 1000 || h.Sum() != 0+1+2+4+5+16+17+1000 {
		t.Fatalf("summary wrong: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

// TestHistogramObserveN: ObserveN(v, n) must leave a histogram exactly as
// n Observe(v) calls do — every bucket, the count, the sum and the max. The
// stall skipper credits whole skipped spans this way, so a mistake here
// silently skews every occupancy histogram.
func TestHistogramObserveN(t *testing.T) {
	bounds := []uint64{1, 4, 16}
	bulk, unrolled := NewRegistry(), NewRegistry()
	hb, hu := bulk.Histogram("occ", bounds), unrolled.Histogram("occ", bounds)
	for _, o := range []struct{ v, n uint64 }{{0, 7}, {4, 10}, {5, 3}, {99, 2}, {50, 0}} {
		hb.ObserveN(o.v, o.n)
		for i := uint64(0); i < o.n; i++ {
			hu.Observe(o.v)
		}
	}
	got := bulk.Snapshots()[0]
	// The boundary value 4 lands in its own bucket; 99 overflows; n=0 is a
	// no-op.
	want := HistogramSnapshot{Name: "occ", Bounds: bounds, Counts: []uint64{7, 10, 3, 2},
		Count: 22, Sum: 0*7 + 4*10 + 5*3 + 99*2, Max: 99}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveN snapshot = %+v, want %+v", got, want)
	}
	if u := unrolled.Snapshots()[0]; !reflect.DeepEqual(u, got) {
		t.Errorf("ObserveN diverges from unrolled Observe:\nbulk     %+v\nunrolled %+v", got, u)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Counter("x")
}

func TestSamplerRowsAndColumns(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("committed")
	ext := uint64(0)
	r.GaugeFunc("external", func() uint64 { return ext })
	h := r.Histogram("occ", []uint64{4, 8})

	s := NewSampler(r, 10, 16)
	for cycle := uint64(1); cycle <= 35; cycle++ {
		c.Inc()
		ext = cycle * 2
		h.Observe(cycle % 5)
		s.MaybeSample(cycle)
	}
	series := s.Series()
	wantCols := []string{"cycle", "committed", "external", "occ.count", "occ.sum", "occ.max"}
	if !reflect.DeepEqual(series.Columns, wantCols) {
		t.Fatalf("columns = %v, want %v", series.Columns, wantCols)
	}
	if len(series.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (cycles 10, 20, 30)", len(series.Rows))
	}
	first := series.Rows[0]
	if first[0] != 10 || first[1] != 10 || first[2] != 20 {
		t.Fatalf("first row = %v", first)
	}
	if len(series.Hists) != 1 || series.Hists[0].Name != "occ" {
		t.Fatalf("histogram snapshot missing: %+v", series.Hists)
	}
}

// TestSamplerLateColumns pins the registration window: columns added
// between sampler construction and the first sample are included (the
// stride re-derives while the series is empty), and registering after
// sampling has begun panics instead of silently misaligning earlier rows.
func TestSamplerLateColumns(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("early")
	s := NewSampler(r, 10, 16)
	r.GaugeFunc("late", func() uint64 { return 7 }) // after NewSampler, before sampling

	c.Inc()
	s.MaybeSample(10)
	s.MaybeSample(20)
	series := s.Series()
	wantCols := []string{"cycle", "early", "late"}
	if !reflect.DeepEqual(series.Columns, wantCols) {
		t.Fatalf("columns = %v, want %v", series.Columns, wantCols)
	}
	if len(series.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(series.Rows))
	}
	for i, row := range series.Rows {
		if len(row) != len(wantCols) {
			t.Fatalf("row %d has %d values for %d columns", i, len(row), len(wantCols))
		}
		if row[2] != 7 {
			t.Fatalf("row %d late gauge = %d, want 7", i, row[2])
		}
	}

	r.Counter("too_late")
	defer func() {
		if recover() == nil {
			t.Fatal("sampling after a post-start registration must panic")
		}
	}()
	s.MaybeSample(30)
}

func TestSamplerSteadyStateAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("occ", DefaultBounds)
	s := NewSampler(r, 100, 2048)
	cycle := uint64(0)
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			cycle++
			c.Inc()
			h.Observe(cycle % 64)
			s.MaybeSample(cycle)
		}
	})
	if avg != 0 {
		t.Fatalf("sampling allocates: %.2f allocs per 1000 cycles", avg)
	}
}

func TestSamplerReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("n")
	s := NewSampler(r, 10, 4)
	for cycle := uint64(1); cycle <= 25; cycle++ {
		s.MaybeSample(cycle)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	s.Reset(25)
	if s.Len() != 0 {
		t.Fatalf("len after reset = %d, want 0", s.Len())
	}
	s.MaybeSample(30) // still before 25+10
	if s.Len() != 0 {
		t.Fatal("sampled before re-armed boundary")
	}
	s.MaybeSample(35)
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestSeriesExport(t *testing.T) {
	s := &Series{
		Interval: 10,
		Columns:  []string{"cycle", "a"},
		Rows:     [][]uint64{{10, 1}, {20, 3}},
		Hists: []HistogramSnapshot{{
			Name: "h", Bounds: []uint64{1}, Counts: []uint64{1, 0},
			Count: 1, Sum: 1, Max: 1,
		}},
	}
	var jb strings.Builder
	if err := s.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(jb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl has %d lines, want 4 (header, 2 rows, trailer):\n%s", len(lines), jb.String())
	}
	if !strings.Contains(lines[0], `"columns":["cycle","a"]`) {
		t.Fatalf("header line: %s", lines[0])
	}
	if lines[1] != "[10,1]" || lines[2] != "[20,3]" {
		t.Fatalf("row lines: %q %q", lines[1], lines[2])
	}
	if !strings.Contains(lines[3], `"histograms"`) {
		t.Fatalf("trailer line: %s", lines[3])
	}

	var cb strings.Builder
	if err := s.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	want := "cycle,a\n10,1\n20,3\n"
	if cb.String() != want {
		t.Fatalf("csv = %q, want %q", cb.String(), want)
	}
}
