package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"conspec/internal/buildinfo"
	"conspec/internal/diskcache"
	"conspec/internal/exp"
)

// CacheStats is the optional interface a Config.Cache can implement (as
// *diskcache.Store does) to export occupancy and eviction counters through
// /metrics.
type CacheStats interface {
	Stats() diskcache.Stats
}

// counters are the server's own /metrics counters. They live in the Server
// under s.mu, beside the queued and running counts.
type counters struct {
	submitted, rejected, recovered uint64
	done, failed, canceled         uint64
	// Engine-level run accounting, summed over finished jobs.
	executed, memHits, diskHits, skippedCycles, skipSpans uint64
}

// finished counts a terminal job and its engine-level run accounting.
func (s *Server) finished(status Status, st exp.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch status {
	case StatusDone:
		s.n.done++
	case StatusFailed:
		s.n.failed++
	case StatusCanceled:
		s.n.canceled++
	}
	s.n.executed += st.Executed
	s.n.memHits += st.Hits
	s.n.diskHits += st.DiskHits
	s.n.skippedCycles += st.SkippedCycles
	s.n.skipSpans += st.SkipSpans
}

// writeMetrics renders the server's part of GET /metrics: the build
// identity, the server's counters, and live readouts over the disk cache
// (when the configured cache exposes Stats) and the job journal.
func (s *Server) writeMetrics(w io.Writer) {
	m := NewMetricWriter(w)
	bi := buildinfo.Get()
	m.Sample("conspec_build_info", 1, "module", bi.Module, "version", bi.Version,
		"revision", bi.Revision, "dirty", strconv.FormatBool(bi.Dirty), "go_version", bi.GoVersion)
	s.mu.Lock()
	n, queued, running := s.n, s.queued, s.running
	s.mu.Unlock()
	type sample struct {
		name string
		v    uint64
	}
	samples := []sample{
		{"jobs_submitted_total", n.submitted},
		{"jobs_rejected_total", n.rejected},
		{"jobs_recovered_total", n.recovered},
		{"jobs_done_total", n.done},
		{"jobs_failed_total", n.failed},
		{"jobs_canceled_total", n.canceled},
		{"runs_executed_total", n.executed},
		{"cache_hits_memory_total", n.memHits},
		{"cache_hits_disk_total", n.diskHits},
		{"sim_skipped_cycles_total", n.skippedCycles},
		{"sim_skip_spans_total", n.skipSpans},
		{"jobs_queued", uint64(queued)},
		{"jobs_running", uint64(running)},
	}
	if cs, ok := s.cfg.Cache.(CacheStats); ok && cs != nil {
		st := cs.Stats()
		samples = append(samples,
			sample{"cache_disk_gets_total", st.Gets},
			sample{"cache_disk_hits_total", st.Hits},
			sample{"cache_disk_bytes", uint64(st.Bytes)},
			sample{"cache_disk_entries", uint64(st.Entries)},
			sample{"cache_disk_evictions_total", st.Evictions},
			sample{"cache_disk_evicted_bytes_total", st.EvictedBytes},
			sample{"cache_disk_quarantined_total", st.Quarantined},
			sample{"cache_disk_gc_sweeps_total", st.GCSweeps},
			sample{"cache_disk_put_errors_total", st.PutErrs})
	}
	if jr := s.cfg.Journal; jr != nil {
		wal, appends, compactions := jr.Sizes()
		samples = append(samples,
			sample{"journal_wal_bytes", uint64(wal)},
			sample{"journal_appends_total", appends},
			sample{"journal_compactions_total", compactions},
			sample{"journal_live_jobs", uint64(jr.Live())})
	}
	for _, sm := range samples {
		m.Sample("conspec_served_"+sm.name, sm.v)
	}
}

// MetricWriter renders GET /metrics in the Prometheus text exposition
// format (version 0.0.4). Every line of the exposition goes through one,
// the coordinator's fleet and worker series included. Ahead of a family's
// first sample it writes the family's one # TYPE line, typed by name:
// counter when the name ends in _total, gauge otherwise. Write errors are
// dropped; they mean the scraper went away.
type MetricWriter struct {
	w     io.Writer
	typed map[string]bool
}

// NewMetricWriter starts an exposition on w.
func NewMetricWriter(w io.Writer) *MetricWriter {
	return &MetricWriter{w: w, typed: make(map[string]bool)}
}

// Sample writes one sample of the family name; labels alternate label
// names and values.
func (m *MetricWriter) Sample(name string, v uint64, labels ...string) {
	if !m.typed[name] {
		m.typed[name] = true
		kind := "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		fmt.Fprintf(m.w, "# TYPE %s %s\n", name, kind)
	}
	series := name
	if len(labels) > 0 {
		pairs := make([]string, 0, len(labels)/2)
		for i := 0; i+1 < len(labels); i += 2 {
			pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
		}
		series += "{" + strings.Join(pairs, ",") + "}"
	}
	fmt.Fprintf(m.w, "%s %d\n", series, v)
}
