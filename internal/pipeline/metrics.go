package pipeline

import "conspec/internal/obs"

// Metrics is the pipeline's typed view of an obs.Registry: the
// security-attribution distributions the paper's evaluation is built on
// (suspect windows, discarded-miss re-issue latencies, TPBuf activity,
// squash depths) plus structure-occupancy histograms — what a Result cannot
// hold — and gauge-func readouts that sample the statistics the machine
// already counts in its Result. Each statistic is counted in one place.
//
// A CPU with no metrics attached holds the zero Metrics value: every
// recording field is nil and each record site is one nil-check branch (see
// internal/obs). With metrics attached, recording is array writes only, so
// the cycle loop keeps its zero-allocation guarantee.
type Metrics struct {
	reg *obs.Registry

	// The sampler is built lazily in AttachMetrics, after bindCPU has
	// registered the gauge columns, so its stride and row preallocation
	// see the final column set.
	sampler        *obs.Sampler
	sampleInterval uint64
	sampleRows     int
	bound          bool

	// Security-hazard distributions (the §VIII attribution data).
	suspectWindow  *obs.Histogram // dispatch -> dependence-clear cycles
	reissueLatency *obs.Histogram // filter discard -> successful re-issue
	squashDepth    *obs.Histogram // ROB entries removed per squash
	dataAccessLat  *obs.Histogram // refilling data-access latency (mem-side)

	// Structure occupancies, observed once per cycle.
	fetchQOcc *obs.Histogram
	iqOcc     *obs.Histogram
	readyOcc  *obs.Histogram
	robOcc    *obs.Histogram
	tpbufOcc  *obs.Histogram // TPBuf shadows the LSQ 1:1, so this is LSQ occupancy too

	// tpbufUnsafeCommitted counts committed loads that a TPBuf UNSAFE
	// verdict blocked — architecturally benign blocks, i.e. the filter's
	// false positives.
	tpbufUnsafeCommitted *obs.Counter
}

// NewMetrics builds a registry populated with the pipeline's standard
// metric set. Attach it to a CPU with AttachMetrics; call EnableSampling
// first to also record the interval time series.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:                  r,
		suspectWindow:        r.Histogram("suspect_window_cycles", obs.DefaultBounds),
		reissueLatency:       r.Histogram("reissue_latency_cycles", obs.DefaultBounds),
		squashDepth:          r.Histogram("squash_depth", obs.DefaultBounds),
		dataAccessLat:        r.Histogram("data_access_latency_cycles", obs.DefaultBounds),
		fetchQOcc:            r.Histogram("fetchq_occupancy", obs.DefaultBounds),
		iqOcc:                r.Histogram("iq_occupancy", obs.DefaultBounds),
		readyOcc:             r.Histogram("ready_occupancy", obs.DefaultBounds),
		robOcc:               r.Histogram("rob_occupancy", obs.DefaultBounds),
		tpbufOcc:             r.Histogram("tpbuf_occupancy", obs.DefaultBounds),
		tpbufUnsafeCommitted: r.Counter("tpbuf_unsafe_committed"),
	}
}

// EnableSampling arms the interval time series: every interval cycles the
// registry is snapshotted into one row. capacityRows preallocates the row
// storage — size it to cover the measured window when the run must stay
// allocation-free (rows beyond capacity grow by append). Call before
// AttachMetrics, which constructs the sampler once the CPU's gauge columns
// are registered.
func (m *Metrics) EnableSampling(interval uint64, capacityRows int) {
	m.sampleInterval, m.sampleRows = interval, capacityRows
}

// Series exports the sampled time series plus final histogram
// distributions (nil when sampling was not enabled).
func (m *Metrics) Series() *obs.Series { return m.sampler.Series() }

// enabled reports whether this is a live metric set (used by per-cycle
// grouped record sites; individual sites rely on nil-safe methods).
func (m *Metrics) enabled() bool { return m.reg != nil }

// AttachMetrics wires m into the CPU: recording sites start writing into
// its histograms/counters, the per-run statistics the machine already
// keeps (Result counters, cache/branch/TPBuf stats) are registered as
// sampled gauge readouts, and the memory hierarchy's latency histogram is
// attached. A nil m detaches. A Metrics instance observes one CPU for one
// run; build a fresh one per machine.
func (c *CPU) AttachMetrics(m *Metrics) {
	if m == nil {
		c.m = Metrics{}
		c.hier.DataLat = nil
		return
	}
	if !m.bound {
		m.bound = true
		m.bindCPU(c)
	}
	if m.sampleInterval > 0 && m.sampler == nil {
		m.sampler = obs.NewSampler(m.reg, m.sampleInterval, m.sampleRows)
	}
	c.m = *m
	c.hier.DataLat = m.dataAccessLat
}

// bindCPU registers gauge-func readouts over the statistics the machine
// maintains anyway — the sampler calls them only at interval boundaries,
// so the hot path pays nothing for them. The hardening counters come first:
// they sit right after tpbuf_unsafe_committed in the series' columns.
func (m *Metrics) bindCPU(c *CPU) {
	r := m.reg
	h := &c.stats.Hardening
	r.GaugeFunc("watchdog_trips", func() uint64 { return h.WatchdogTrips })
	r.GaugeFunc("selfcheck_sweeps", func() uint64 { return h.SelfCheckSweeps })
	r.GaugeFunc("selfcheck_violations", func() uint64 { return h.SelfCheckViolations })
	r.GaugeFunc("faults_injected", func() uint64 { return h.FaultsInjected })

	r.GaugeFunc("committed", func() uint64 { return c.stats.Committed })
	r.GaugeFunc("squashes", func() uint64 { return c.stats.Squashes })
	r.GaugeFunc("mem_violations", func() uint64 { return c.stats.MemViolations })
	r.GaugeFunc("issued_uops", func() uint64 { return c.stats.Stages.IssuedUops })
	r.GaugeFunc("issue_idle_cycles", func() uint64 { return c.stats.Stages.IssueIdleCycles })
	r.GaugeFunc("commit_stalls", func() uint64 { return c.stats.Stages.CommitStalls })

	r.GaugeFunc("suspect_issued", func() uint64 { return c.stats.Filter.SuspectIssued })
	r.GaugeFunc("suspect_l1_hits", func() uint64 { return c.stats.Filter.SuspectL1Hits })
	r.GaugeFunc("suspect_l1_misses", func() uint64 { return c.stats.Filter.SuspectL1Misses })
	r.GaugeFunc("blocked_events", func() uint64 { return c.stats.Filter.BlockedEvents })
	r.GaugeFunc("blocked_insts", func() uint64 { return c.stats.Filter.BlockedInsts })
	r.GaugeFunc("committed_mem_insts", func() uint64 { return c.stats.Filter.CommittedMemInsts })
	r.GaugeFunc("dtlb_filter_blocks", func() uint64 { return c.stats.DTLBFilterBlocks })

	r.GaugeFunc("tpbuf_queries", func() uint64 { return c.tpbuf.Stats.Queries })
	r.GaugeFunc("tpbuf_unsafe", func() uint64 { return c.tpbuf.Stats.Unsafe })
	r.GaugeFunc("tpbuf_safe", func() uint64 { return c.tpbuf.Stats.Safe })
	r.GaugeFunc("tpbuf_allocs", func() uint64 { return c.tpbuf.Stats.Allocs })

	r.GaugeFunc("branch_cond_predicts", func() uint64 { return c.bp.Stats.CondPredicts })
	r.GaugeFunc("branch_cond_mispredicts", func() uint64 { return c.bp.Stats.CondMispredict })

	r.GaugeFunc("l1d_accesses", func() uint64 { return c.hier.L1D.Stats.Accesses })
	r.GaugeFunc("l1d_misses", func() uint64 { return c.hier.L1D.Stats.Misses })
	r.GaugeFunc("l1i_misses", func() uint64 { return c.hier.L1I.Stats.Misses })
	r.GaugeFunc("l2_misses", func() uint64 { return c.hier.L2.Stats.Misses })
	r.GaugeFunc("l3_misses", func() uint64 { return c.hier.L3.Stats.Misses })
}

// creditOccupancy adds n cycles at the current structure occupancies to
// the Result's occupancy integrals and, with metrics attached, to the
// occupancy histograms. step() credits each cycle through it and the stall
// skipper a whole skipped span, so the two cannot disagree.
func (c *CPU) creditOccupancy(n uint64) {
	st := &c.stats.Stages
	st.FetchQOccupancy += uint64(c.fqLen) * n
	st.IQOccupancy += uint64(c.iqCount) * n
	st.ReadyOccupancy += uint64(len(c.readyList)) * n
	st.ROBOccupancy += uint64(c.robCount) * n
	st.ExecInflight += uint64(len(c.inflight)) * n
	if c.m.enabled() {
		m := &c.m
		m.fetchQOcc.ObserveN(uint64(c.fqLen), n)
		m.iqOcc.ObserveN(uint64(c.iqCount), n)
		m.readyOcc.ObserveN(uint64(len(c.readyList)), n)
		m.robOcc.ObserveN(uint64(c.robCount), n)
		m.tpbufOcc.ObserveN(uint64(c.tpbuf.Occupancy()), n)
	}
}
