package pipeline

import (
	"conspec/internal/branch"
	"conspec/internal/core"
	"conspec/internal/mem"
	"conspec/internal/obs"
)

// Event-driven stall skipping.
//
// A machine waiting out a long memory latency ticks through thousands of
// cycles in which no stage does anything: nothing commits, nothing issues,
// nothing fetches, no counter moves. Those cycles are pure overhead for the
// simulator, and they dominate memory-bound workloads (the Fig. 5 suite's
// lbm/libquantum/GemsFDTD phases).
//
// The skipper works post hoc rather than predictively: after each step it
// captures a signature of every piece of state a stalled cycle could
// legally change — all statistics counters (a suspect-load retry loop, a
// store-set stall, an ICache-filter fetch stall each tick a counter every
// cycle), every structure occupancy, and the frontend/serialization
// watermarks. When two consecutive steps produce identical signatures the
// machine is provably in a fixed point: per-cycle behavior is a pure
// function of machine state, and the only cycle-dependent enablers are the
// scheduled events below. RunFor then jumps the cycle counter to one cycle
// before the next event and bulk-credits every per-cycle counter for the
// span (see creditStall), so statistics, sampled series and traces are
// byte-identical to stepping through the span — enforced by differential
// tests over every defense backend.
//
// The event horizon is the minimum of:
//
//   - every in-flight execution's completion cycle (writeback drains it,
//     waking dependents — including the column clears that un-park
//     delay-on-miss loads, which is why a skipped span can never cross a
//     wakeup those loads are waiting for: the wakeup is itself scheduled);
//   - the fetch-stall expiry (L1I miss fill time), unless fetch is halted;
//   - the fetch-queue head's dispatch-ready cycle (frontend pipeline delay);
//   - the watchdog's trip cycle (a skipped span counts toward the
//     no-progress window, so real deadlocks trip at the identical wall
//     cycle with identical diagnostics);
//   - the RunFor cycle cap.
//
// Skipping never engages under StepCycle (multi-core harnesses interleave
// cores cycle by cycle), with per-cycle self-check sweeps armed, or with a
// fault hook attached — those observers see individual cycles.

// SetStallSkip enables or disables event-driven stall skipping for this
// CPU. Disabling is the escape hatch for debugging and for byte-identity
// differential runs; results must not depend on it (modulo the
// SkippedCycles/SkipSpans meta-counters).
func (c *CPU) SetStallSkip(enabled bool) { c.skipDisabled = !enabled }

// stepSig is the activity signature: every counter and occupancy a stalled
// cycle could legally change. Two consecutive steps with equal signatures
// mean the second did nothing — and, since per-cycle behavior is a pure
// function of this state plus the scheduled events, neither will any
// following cycle before the event horizon. Fields must be comparable; any
// new per-cycle statistic in the pipeline MUST be added here, otherwise
// cycles that only move that statistic would be skipped and it would
// undercount (the skip-on/off differential tests catch exactly this).
type stepSig struct {
	committed       uint64
	seq             uint64
	squashes        uint64
	memViolations   uint64
	unresolvedAtDis uint64
	storeSetStalls  uint64
	fetchStallsICF  uint64
	dtlbBlocks      uint64
	issuedUops      uint64

	fqLen, iqCount, robCount int
	readyLen, inflightLen    int
	awaitingLen, parkedLen   int
	outstandingMisses        int
	unresolvedBranches       int

	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool

	fenceSeq           uint64
	serializeSeq       uint64
	unresolvedStoreSeq uint64

	filter core.FilterStats
	secmat core.SecMatrixStats
	tpbuf  core.TPBufStats
	branch branch.Stats

	l1i, l1d, l2, l3 mem.CacheStats
	itlb, dtlb       mem.CacheStats
	prefetches       uint64
}

func (c *CPU) captureSig(sig *stepSig) {
	sig.committed = c.stats.Committed
	sig.seq = c.seq
	sig.squashes = c.stats.Squashes
	sig.memViolations = c.stats.MemViolations
	sig.unresolvedAtDis = c.stats.UnresolvedBranchAtDispatch
	if c.storeSets != nil {
		sig.storeSetStalls = c.storeSets.Stalls
	}
	sig.fetchStallsICF = c.stats.FetchStallsICacheFilter
	sig.dtlbBlocks = c.stats.DTLBFilterBlocks
	sig.issuedUops = c.stats.Stages.IssuedUops

	sig.fqLen = c.fqLen
	sig.iqCount = c.iqCount
	sig.robCount = c.robCount
	sig.readyLen = len(c.readyList)
	sig.inflightLen = len(c.inflight)
	sig.awaitingLen = len(c.awaitingData)
	sig.parkedLen = len(c.parked)
	sig.outstandingMisses = c.outstandingMisses
	sig.unresolvedBranches = c.unresolvedBranches

	sig.fetchPC = c.fetchPC
	sig.fetchStallUntil = c.fetchStallUntil
	sig.fetchHalted = c.fetchHalted

	sig.fenceSeq = c.fenceSeq
	sig.serializeSeq = c.serializeSeq
	sig.unresolvedStoreSeq = c.unresolvedStoreSeq

	sig.filter = c.stats.Filter
	if c.secmat != nil {
		sig.secmat = c.secmat.Stats
	}
	sig.tpbuf = c.tpbuf.Stats
	sig.branch = c.bp.Stats

	sig.l1i = c.hier.L1I.Stats
	sig.l1d = c.hier.L1D.Stats
	sig.l2 = c.hier.L2.Stats
	sig.l3 = c.hier.L3.Stats
	sig.itlb = c.hier.ITLB.Stats
	sig.dtlb = c.hier.DTLB.Stats
	sig.prefetches = c.hier.Prefetches
}

// noteSig runs at the end of every armed step: it captures the activity
// signature and flags the step inert when it matches the previous one.
func (c *CPU) noteSig() {
	cur := &c.sigs[c.sigCur]
	c.captureSig(cur)
	c.inert = c.sigValid && *cur == c.sigs[c.sigCur^1]
	c.sigCur ^= 1
	c.sigValid = true
}

// fastForward jumps the cycle counter to one cycle before the next
// scheduled event (bounded by the watchdog trip cycle and capCycle),
// crediting every per-cycle counter for the skipped span. Called by RunFor
// immediately after an inert step; a no-op when the next event is due on
// the very next cycle.
func (c *CPU) fastForward(capCycle uint64) {
	target := capCycle
	if c.watchdogLimit != 0 {
		if trip := c.lastProgress + c.watchdogLimit; trip-1 < target {
			target = trip - 1
		}
	}
	for _, pe := range c.inflight {
		if pe.done-1 < target {
			target = pe.done - 1
		}
	}
	if !c.fetchHalted && c.fetchStallUntil > c.cycle && c.fetchStallUntil-1 < target {
		target = c.fetchStallUntil - 1
	}
	if c.fqLen > 0 {
		if ra := c.fetchQ[c.fqHead].readyAt; ra > c.cycle && ra-1 < target {
			target = ra - 1
		}
	}
	if target <= c.cycle {
		return
	}
	span := target - c.cycle
	c.creditStall(span)
	c.stats.Stages.SkippedCycles += span
	c.stats.Stages.SkipSpans++
	// Stamped at the span's END so a dump window that opens mid-span still
	// retains the event explaining its silence (no events can occur inside
	// a skipped span by construction).
	c.emit(obs.FlightSkipSpan, 0, 0, span, false)
}

// creditStall advances the cycle counter by span, crediting the counters a
// stepped-through stall would have accumulated. The span is split at every
// interval-sampler boundary it crosses so each sampled row sees exactly the
// cumulative values it would have seen stepping cycle by cycle.
func (c *CPU) creditStall(span uint64) {
	for span > 0 {
		n := span
		if b := c.m.sampler.NextAt(); b > c.cycle && b-c.cycle < span {
			n = b - c.cycle
		}
		c.creditCycles(n)
		c.cycle += n
		span -= n
		if c.m.enabled() {
			c.m.sampler.MaybeSample(c.cycle)
		}
	}
}

// creditCycles bulk-credits n identical stalled cycles at the current
// occupancies: the per-cycle accounting from step() times n.
func (c *CPU) creditCycles(n uint64) {
	c.stats.Cycles += n
	st := &c.stats.Stages
	if c.robCount > 0 {
		st.CommitStalls += n
	}
	if c.iqCount > 0 {
		st.IssueIdleCycles += n
	}
	c.creditOccupancy(n)
}
