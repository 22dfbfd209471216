// Package obs is the zero-allocation observability layer threaded through
// the simulator's cycle loop. It has three parts:
//
//   - the pipeline's sampled-series Registry: counters, gauge readouts over
//     statistics kept elsewhere, and fixed-bucket histograms backed by
//     plain arrays, into which the pipeline records security-specific
//     distributions: suspect-window lengths, discarded-miss re-issue
//     latencies, TPBuf occupancy, structure occupancies, squash depths;
//   - an interval Sampler that snapshots every registered metric into an
//     in-memory time series every N cycles, exported as JSONL or CSV;
//   - one pipeline event stream: each event is a six-word pointer-free
//     FlightEvent delivered to every attached EventSink — the
//     FlightRecorder ring, the human-readable TextSink and the O3PipeView
//     (Konata-compatible) PipeViewSink, which look up disassembly (Disasm)
//     only when they render.
//
// The hot-path contract: with nothing attached every recording call is a
// nil-receiver no-op or an empty-slice test (a single branch-predicted
// test); with metrics attached, recording is a bounds scan plus an array
// write; with sinks attached, delivery is one by-value interface call per
// sink — never an allocation, and the ring's store allocates nothing
// either. Allocation is confined to construction, to export, and to the
// text and O3PipeView renderers' formatting.
package obs

import "fmt"

// DefaultBounds is the shared power-of-two histogram bucket layout: it
// covers both cycle-denominated latencies (miss penalties, suspect windows)
// and structure occupancies (IQ/ROB/LSQ sizes) with one fixed array.
var DefaultBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
	2048, 4096, 16384, 65536}

// Counter is a monotonically increasing uint64. The zero value is unusable;
// obtain one from Registry.Counter. All methods are nil-safe so a detached
// metric set costs one predicted branch per call site.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram is a fixed-bucket histogram over uint64 observations. Bucket i
// counts observations v <= Bounds[i]; one implicit overflow bucket counts
// the rest. Count, Sum and Max are maintained alongside so interval samples
// stay cheap (three words per histogram, not the whole bucket array).
type Histogram struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1; last bucket = overflow
	count  uint64
	sum    uint64
	max    uint64
}

// Observe records v: a linear scan over the (small, fixed) bounds array and
// one array increment. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// ObserveN records n identical observations of v in O(1) — the bulk form
// the event-driven stall skipper uses to credit an occupancy histogram for
// a whole skipped span at once. Equivalent to calling Observe(v) n times.
// Nil-safe.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.count += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observation seen.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// HistogramSnapshot is a histogram's exportable final state. Counts has one
// more entry than Bounds: the overflow bucket.
type HistogramSnapshot struct {
	Name   string   `json:"name"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
}

// column is one sampled value stream: a name plus a closure reading the
// current value. Counters, gauge readouts and histogram summaries all
// reduce to columns, so the sampler is a single loop.
type column struct {
	name string
	read func() uint64
}

// Registry holds the named metrics of one simulation. Registration happens
// at construction time (and may allocate); recording and sampling do not.
type Registry struct {
	cols  []column
	names map[string]bool
	hists []*Histogram
	hname []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) addColumn(name string, read func() uint64) {
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
	r.cols = append(r.cols, column{name: name, read: read})
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.addColumn(name, c.Value)
	return c
}

// GaugeFunc registers an externally computed readout — the bridge that
// pulls already-maintained statistics (cache hit counters, filter stats)
// into the time series without instrumenting their hot paths. fn is called
// only at sample boundaries and must not allocate.
func (r *Registry) GaugeFunc(name string, fn func() uint64) {
	r.addColumn(name, fn)
}

// Histogram registers a histogram with the given bucket upper bounds
// (ascending). Its time-series columns are <name>.count, <name>.sum and
// <name>.max; the full bucket array is exported once per run via Snapshots.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.addColumn(name+".count", h.Count)
	r.addColumn(name+".sum", h.Sum)
	r.addColumn(name+".max", h.Max)
	r.hists = append(r.hists, h)
	r.hname = append(r.hname, name)
	return h
}

// Columns returns the sampled column names in registration order.
// NumColumns returns the number of registered sample columns.
func (r *Registry) NumColumns() int { return len(r.cols) }

func (r *Registry) Columns() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.name
	}
	return out
}

// AppendSample appends every column's current value to dst and returns it.
// With sufficient capacity this performs no allocation.
func (r *Registry) AppendSample(dst []uint64) []uint64 {
	for _, c := range r.cols {
		dst = append(dst, c.read())
	}
	return dst
}

// Snapshots returns the final state of every registered histogram.
func (r *Registry) Snapshots() []HistogramSnapshot {
	out := make([]HistogramSnapshot, len(r.hists))
	for i, h := range r.hists {
		out[i] = HistogramSnapshot{
			Name:   r.hname[i],
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
			Max:    h.max,
		}
	}
	return out
}
