package pipeline

import (
	"conspec/internal/branch"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/obs"
)

func (c *CPU) fuLimit(f isa.FU) int {
	switch f {
	case isa.FUAlu:
		return c.cfg.ALUs
	case isa.FUMul:
		return c.cfg.MulUnits
	case isa.FUDiv:
		return c.cfg.DivUnits
	case isa.FUMem:
		return c.cfg.MemPorts
	case isa.FUBranch:
		return c.cfg.BranchUnits
	default:
		return 0
	}
}

func (c *CPU) srcReady(p int) bool { return p < 0 || c.physReady[p] }

func (c *CPU) srcVal(p int) uint64 {
	if p < 0 {
		return 0
	}
	return c.physVal[p]
}

// issueStage performs wakeup-select: the oldest ready instructions issue up
// to IssueWidth per cycle, respecting functional-unit ports, an active
// FENCE, and — this is the paper's mechanism — the security hazard check.
//
// Selection walks the incrementally maintained ready list (data-ready
// issue-queue entries, sorted oldest-first; see ready.go) instead of
// rescanning the whole queue. Every not-yet-tried candidate is still passed
// through eligible() each select iteration — not just the winner — because
// eligible() carries per-cycle side effects (security block events,
// store-set stall accounting) that the full-queue scan used to apply; this
// keeps Result values byte-identical to the pre-ready-list implementation.
func (c *CPU) issueStage() {
	c.resumeParked()
	issued := 0
	var violation *uop // oldest memory-order-violating load this cycle

	// Each select pass resumes after the previous winner instead of
	// rescanning the rejected prefix: entries older than an issued entry
	// cannot become eligible later in the same cycle (wakeups happen at
	// writeback, the security matrix only changes at dispatch and clock
	// edge, FU budgets only tighten, and a prefix load's unresolved older
	// stores are themselves stuck in the prefix), and re-running eligible
	// on them is a no-op — their filter-block and stall transitions already
	// fired on the first pass.
	start := 0
	for issued < c.cfg.IssueWidth {
		var best *uop
		bestIdx := -1
		for idx := start; idx < len(c.readyList); idx++ {
			u := c.readyList[idx]
			if u.triedCycle == c.cycle {
				continue
			}
			if c.eligible(u) && best == nil {
				best = u // list is seq-sorted: first eligible is oldest
				bestIdx = idx
			}
		}
		if best == nil {
			break
		}
		best.triedCycle = c.cycle
		fu := best.fu
		c.fuUsed[fu]++
		if v := c.tryIssue(best); v != nil {
			if violation == nil || v.seq < violation.seq {
				violation = v
			}
		}
		if best.iqIdx == -1 {
			issued++ // accepted (slot released)
		}
		if bestIdx < len(c.readyList) && c.readyList[bestIdx] == best {
			start = bestIdx + 1 // replaying in place; triedCycle skips it
		} else {
			// best left the ready list (accepted, or parked by
			// delay-on-miss) and everything after it shifted left.
			start = bestIdx
		}
	}

	c.stats.Stages.IssuedUops += uint64(issued)
	if issued == 0 && c.iqCount > 0 {
		c.stats.Stages.IssueIdleCycles++
	}

	if violation != nil {
		c.stats.MemViolations++
		if c.storeSets != nil && violation.violStorePC != 0 {
			// Train the predictor: this load/store PC pair conflicted.
			c.storeSets.merge(violation.pc, violation.violStorePC)
		}
		c.squashFrom(violation.seq, violation.pc, nil)
	}
}

// eligible applies operand readiness, FU ports, FENCE serialization, and
// the Baseline security block. Stores issue on address readiness alone —
// the data operand is delivered to the STQ entry whenever it arrives, the
// standard split-store design (and the reason a store's column in the
// security matrix clears as soon as its address resolves).
func (c *CPU) eligible(u *uop) bool {
	if !c.srcReady(u.psrc1) {
		return false
	}
	if (c.cfg.FusedStores || !u.inst.Op.IsStore()) && !c.srcReady(u.psrc2) {
		return false
	}
	if c.fenceSeq != 0 && u.seq > c.fenceSeq {
		return false
	}
	if c.serializeSeq != 0 && u.seq > c.serializeSeq {
		// Fence defense: nothing younger than an unresolved branch issues.
		// The watermark branch itself (seq == serializeSeq) stays eligible,
		// as does everything older, so resolution always makes progress.
		return false
	}
	if c.fuUsed[u.fu] >= c.fuLim[u.fu] {
		return false
	}
	if u.inst.Op.IsLoad() && c.loadMustWait(u) {
		return false
	}
	if c.sec.SSBD && u.inst.Op.IsLoad() &&
		c.unresolvedStoreSeq != 0 && c.unresolvedStoreSeq < u.seq {
		return false // SSBD: no speculative store bypass at all
	}
	if c.secmat != nil && u.class() == core.ClassMem {
		if u.blockedSec {
			// Previously blocked by a filter: wait for dependence clearance.
			if c.secmat.Peek(u.iqIdx) {
				return false
			}
			u.blockedSec = false
			u.suspect = false
			// The suspect window just closed: this instruction waited from
			// dispatch until every security dependence resolved.
			c.m.suspectWindow.Observe(c.cycle - u.dispatchCycle)
			c.emit(obs.FlightSuspectClose, u.seq, u.pc, c.cycle-u.dispatchCycle, false)
		}
		if c.def.BlockAtIssue && c.secmat.Peek(u.iqIdx) {
			// Baseline: suspect memory instructions do not issue at all.
			if !u.blockedSec {
				u.blockedSec = true
				u.wasBlocked = true
				c.stats.Filter.BlockedEvents++
				c.emit(obs.FlightSuspectOpen, u.seq, u.pc, 0, true)
			}
			return false
		}
	}
	return true
}

// tryIssue executes the issue attempt for u. On acceptance the IQ slot is
// released (u.iqIdx becomes -1). Loads blocked by a hazard filter, or
// replaying behind a store, keep their slot and retry on a later cycle.
// The returned uop, when non-nil, is a load that must be squashed because
// the issuing store exposed a memory-order violation.
func (c *CPU) tryIssue(u *uop) *uop {
	op := u.inst.Op
	a, b := c.srcVal(u.psrc1), c.srcVal(u.psrc2)

	// Security hazard detection (3rd select stage of Fig. 2): the issuing
	// memory instruction is tagged with the suspect speculation flag when
	// its matrix row is non-empty. Baseline never reaches here suspect.
	if c.secmat != nil && u.class() == core.ClassMem && !c.def.BlockAtIssue {
		u.suspect = c.secmat.HasHazard(u.iqIdx)
	}

	switch {
	case op.IsLoad():
		return c.issueLoad(u, a)
	case op.IsStore():
		return c.issueStore(u, a)
	case op == isa.OpClflush:
		u.memAddr = a + uint64(int64(u.inst.Imm))
		u.addrReady = true
		// CLFLUSH of a present line takes longer than of an absent one,
		// exactly the timing difference the Flush+Flush side channel reads.
		// The invalidation itself happens non-speculatively at commit.
		lat := 2
		if c.hier.ProbeL1D(u.memAddr) {
			lat = 6
		}
		c.acceptIssue(u, lat, 0)
		return nil
	case op.IsCondBranch():
		taken := isa.BranchTaken(op, a, b)
		target := u.pc + isa.InstBytes
		if taken {
			target = u.pc + uint64(int64(u.inst.Imm))
		}
		u.result = 0
		c.acceptIssue(u, 1, 0)
		u.memAddr = target // stash actual target for writeback resolve
		u.addrReady = taken
		return nil
	case op == isa.OpJalr:
		target := a + uint64(int64(u.inst.Imm))
		u.result = u.pc + isa.InstBytes // link value
		c.acceptIssue(u, 1, 0)
		u.memAddr = target
		u.addrReady = true
		return nil
	case op == isa.OpJal:
		u.result = u.pc + isa.InstBytes
		c.acceptIssue(u, 1, 0)
		return nil
	default:
		lat := 1
		switch op.Unit() {
		case isa.FUMul:
			lat = c.cfg.MulLat
		case isa.FUDiv:
			lat = c.cfg.DivLat
		}
		u.result = isa.EvalALU(u.inst, a, b, c.cycle)
		c.acceptIssue(u, lat, 0)
		return nil
	}
}

// acceptIssue releases u's issue-queue slot, clears its security column via
// the update vector register, and schedules completion after lat cycles.
func (c *CPU) acceptIssue(u *uop, lat int, extra int) {
	if c.secmat != nil && u.iqIdx >= 0 {
		c.secmat.OnIssue(u.iqIdx)
		maskClear(c.prodMask, u.iqIdx)
		c.emit(obs.FlightSecRowClear, u.seq, u.pc, uint64(u.iqIdx), false)
	}
	if u.iqIdx >= 0 {
		c.readyRemove(u)
		c.iq[u.iqIdx] = nil
		maskSet(c.iqFree, u.iqIdx)
		u.iqIdx = -1
		c.iqCount--
	}
	u.issued = true
	if u.discardedAt != 0 {
		c.m.reissueLatency.Observe(c.cycle - u.discardedAt)
		u.discardedAt = 0
	}
	c.emit(obs.FlightIssue, u.seq, u.pc, 0, u.suspect)
	c.inflight = append(c.inflight, pendingExec{u: u, done: c.cycle + uint64(lat+extra)})
}

type fwdAction int

const (
	fwdNone    fwdAction = iota // go to the cache
	fwdForward                  // value forwarded from an older store
	fwdWait                     // must replay later (store data conflict)
)

// scanSTQ implements store-to-load disambiguation for a load whose address
// just resolved. Older stores with unknown addresses are speculatively
// bypassed (load speculation — the Spectre V4 ingredient).
func (c *CPU) scanSTQ(u *uop) (fwdAction, *uop) {
	var youngest *uop
	bypassed := false
	for _, s := range c.stq {
		if s == nil || s.seq >= u.seq {
			continue
		}
		if !s.addrReady {
			bypassed = true
			continue
		}
		if !overlap(s.memAddr, s.inst.Op.MemBytes(), u.memAddr, u.inst.Op.MemBytes()) {
			continue
		}
		if youngest == nil || s.seq > youngest.seq {
			youngest = s
		}
	}
	u.bypassedStore = bypassed
	if youngest == nil {
		return fwdNone, nil
	}
	if contains(youngest.memAddr, youngest.inst.Op.MemBytes(), u.memAddr, u.inst.Op.MemBytes()) &&
		youngest.dataReady {
		return fwdForward, youngest
	}
	// Partial overlap, or a covering store whose data has not arrived yet:
	// replay until it drains or the data shows up.
	return fwdWait, youngest
}

func overlap(aAddr uint64, aSize int, bAddr uint64, bSize int) bool {
	return aAddr < bAddr+uint64(bSize) && bAddr < aAddr+uint64(aSize)
}

func contains(sAddr uint64, sSize int, lAddr uint64, lSize int) bool {
	return sAddr <= lAddr && lAddr+uint64(lSize) <= sAddr+uint64(sSize)
}

// tpTag returns the TPBuf comparison tag for an access: the physical page
// number under the paper's design, the line address under the line-granular
// ablation variant.
func (c *CPU) tpTag(addr, ppn uint64) uint64 {
	if c.sec.TPBufVariant == core.VariantLine {
		return addr >> 6
	}
	return ppn
}

// issueLoad runs the full load path: AGU, disambiguation, and the
// Conditional Speculation filters at the L1D boundary.
func (c *CPU) issueLoad(u *uop, base uint64) *uop {
	u.memAddr = base + uint64(int64(u.inst.Imm))
	u.addrReady = true
	size := u.inst.Op.MemBytes()
	tp := u.ldqIdx

	action, st := c.scanSTQ(u)
	switch action {
	case fwdWait:
		// Partial overlap or unforwardable: replay after the store drains.
		return nil
	case fwdForward:
		shift := (u.memAddr - st.memAddr) * 8
		v := st.result >> shift
		if size < 8 {
			v &= (1 << (8 * size)) - 1
		}
		u.result = v
		u.fwdFromSeq = st.seq
		ppn, tlbLat := c.hier.DTLB.Translate(u.memAddr)
		c.tpbuf.SetPPN(tp, c.tpTag(u.memAddr, ppn))
		c.tpbuf.SetSuspect(tp, u.suspect)
		// Forwarded loads never touch the cache: always safe.
		c.acceptIssue(u, 1+c.hier.L1D.HitLat, tlbLat)
		return nil
	}

	// Cache path: this is where Conditional Speculation decides.
	if c.def.InvisibleLoads {
		// InvisiSpec comparator: fetch the data without touching any cache
		// level; the visible (refilling) access happens at commit.
		res := c.hier.AccessDataNoRefill(u.memAddr)
		c.tpbuf.SetPPN(tp, c.tpTag(u.memAddr, res.PPN))
		u.result = c.hier.ReadData(u.memAddr, size)
		c.acceptIssue(u, 1+res.Latency, 0)
		return nil
	}
	if u.suspect {
		if u.inst.Op.IsLoad() {
			c.stats.Filter.SuspectIssued++
		}
		if c.sec.DTLBFilter && !c.hier.DTLB.Probe(u.memAddr) {
			// TLB-hit filter: the walk itself would be an observable refill.
			// Discard the request before translating; re-issue after the
			// security dependences clear, like the cache-hit filter does.
			c.stats.DTLBFilterBlocks++
			u.blockedSec = true
			u.wasBlocked = true
			u.discardedAt = c.cycle
			c.stats.Filter.BlockedEvents++
			c.emit(obs.FlightSuspectOpen, u.seq, u.pc, 0, true)
			return nil
		}
		res, hit := c.hier.AccessL1DHitOnly(u.memAddr, true)
		c.tpbuf.SetPPN(tp, c.tpTag(u.memAddr, res.PPN))
		if hit {
			c.stats.Filter.SuspectL1Hits++
			c.tpbuf.SetSuspect(tp, true)
			u.pendingTouch = res.PendingTouch
			u.result = c.hier.ReadData(u.memAddr, size)
			c.acceptIssue(u, 1+res.Latency, 0)
			return nil
		}
		c.stats.Filter.SuspectL1Misses++
		if c.def.TPBufFilter && c.tpbuf.QuerySafe(tp, c.tpTag(u.memAddr, res.PPN)) {
			// The miss does not complete an S-Pattern: allowed to refill.
			if !c.mshrAvailable(u.memAddr) {
				return nil
			}
			full := c.hier.AccessData(u.memAddr, true)
			c.tpbuf.SetSuspect(tp, true)
			u.result = c.hier.ReadData(u.memAddr, size)
			c.claimMSHR(u, full.Level)
			c.acceptIssue(u, 1+full.Latency, 0)
			return nil
		}
		// Unsafe: the miss request is discarded; the load waits in the
		// issue queue for its security dependences to clear (§V.C).
		if c.def.TPBufFilter {
			u.tpbufUnsafe = true
			c.emit(obs.FlightTPBufHit, u.seq, u.pc, uint64(tp), true)
		}
		u.blockedSec = true
		u.wasBlocked = true
		u.discardedAt = c.cycle
		c.stats.Filter.BlockedEvents++
		c.emit(obs.FlightSuspectOpen, u.seq, u.pc, 0, true)
		if c.def.DelayOnMiss {
			// Delay-on-miss: park in place instead of re-entering selection.
			// The load leaves the ready list and resumeParked retries it once
			// its security row clears (or a squash removes it).
			c.readyRemove(u)
			u.parked = true
			c.parked = append(c.parked, u)
		}
		return nil
	}

	if !c.mshrAvailable(u.memAddr) {
		return nil // all MSHRs busy: replay on a later cycle
	}
	res := c.hier.AccessData(u.memAddr, false)
	c.tpbuf.SetPPN(tp, c.tpTag(u.memAddr, res.PPN))
	c.tpbuf.SetSuspect(tp, false)
	u.result = c.hier.ReadData(u.memAddr, size)
	c.claimMSHR(u, res.Level)
	c.acceptIssue(u, 1+res.Latency, 0)
	return nil
}

// resumeParked retries delay-on-miss loads whose security dependence row
// has cleared. A resumed load re-runs the full issue path — including store
// disambiguation, which may have changed while parked — but no longer as a
// suspect, so it refills normally. Resumption happens outside wakeup-select
// and does not consume issue width or FU ports: the load issued once
// already and is draining a stalled access, not competing for a slot. A
// resume that cannot complete (store conflict, MSHRs full) stays parked and
// retries next cycle. Squashed entries never appear here: squashFrom
// filters the parked list before their uops can be recycled.
func (c *CPU) resumeParked() {
	if len(c.parked) == 0 {
		return
	}
	keep := c.parked[:0]
	for _, u := range c.parked {
		if c.secmat != nil && c.secmat.Peek(u.iqIdx) {
			keep = append(keep, u)
			continue
		}
		if u.blockedSec {
			u.blockedSec = false
			u.suspect = false
			// The suspect window just closed (cf. the re-issue path in
			// eligible): this load waited from dispatch until every security
			// dependence resolved.
			c.m.suspectWindow.Observe(c.cycle - u.dispatchCycle)
			c.emit(obs.FlightSuspectClose, u.seq, u.pc, c.cycle-u.dispatchCycle, false)
		}
		// memAddr was computed before parking; recover the AGU input so the
		// issue path recomputes it identically.
		c.issueLoad(u, u.memAddr-uint64(int64(u.inst.Imm)))
		if u.iqIdx >= 0 {
			keep = append(keep, u) // not accepted yet: retry next cycle
		} else {
			u.parked = false // accepted: the IQ slot was released
		}
	}
	for i := len(keep); i < len(c.parked); i++ {
		c.parked[i] = nil
	}
	c.parked = keep
}

// mshrAvailable reports whether a new L1D miss may start. Hits never need
// an MSHR, but availability is checked before the access since the lookup
// itself decides hit/miss; a resident line always passes.
func (c *CPU) mshrAvailable(addr uint64) bool {
	if c.cfg.MaxMSHRs <= 0 || c.hier.ProbeL1D(addr) {
		return true
	}
	return c.outstandingMisses < c.cfg.MaxMSHRs
}

// claimMSHR accounts an accepted load against the MSHR pool if it missed.
func (c *CPU) claimMSHR(u *uop, level mem.Level) {
	if c.cfg.MaxMSHRs > 0 && level != mem.LevelL1 {
		u.holdsMSHR = true
		c.outstandingMisses++
	}
}

// issueStore resolves a store's address, records it in the STQ entry, and
// checks younger already-executed loads for memory-order violations (the
// recovery path Spectre V4 abuses). The data operand may still be pending;
// writeback parks such stores on the awaiting-data list.
func (c *CPU) issueStore(u *uop, base uint64) *uop {
	u.memAddr = base + uint64(int64(u.inst.Imm))
	u.addrReady = true
	c.noteStoreResolved(u)
	if c.srcReady(u.psrc2) {
		u.result = c.srcVal(u.psrc2)
		u.dataReady = true
	}
	ppn, tlbLat := c.hier.DTLB.Translate(u.memAddr)
	c.tpbuf.SetPPN(c.cfg.LDQ+u.stqIdx, c.tpTag(u.memAddr, ppn))
	c.tpbuf.SetSuspect(c.cfg.LDQ+u.stqIdx, u.suspect)
	c.acceptIssue(u, 1, tlbLat)

	// Violation scan: any younger load that already obtained a value from
	// an overlapping address without forwarding from this store read stale
	// data and must be squashed (along with everything after it).
	var oldest *uop
	for _, l := range c.ldq {
		if l == nil || l.seq <= u.seq || !l.addrReady || !l.issued {
			continue
		}
		if !overlap(u.memAddr, u.inst.Op.MemBytes(), l.memAddr, l.inst.Op.MemBytes()) {
			continue
		}
		if l.fwdFromSeq == u.seq {
			continue
		}
		if oldest == nil || l.seq < oldest.seq {
			oldest = l
			l.violStorePC = u.pc
		}
	}
	return oldest
}

// writebackStage completes in-flight executions whose latency elapsed:
// results become visible to the issue queue, loads mark their TPBuf W bit,
// and branches resolve (possibly squashing and re-steering fetch). It also
// delivers late store data to STQ entries whose address already issued.
func (c *CPU) writebackStage() {
	if len(c.awaitingData) > 0 {
		rest := c.awaitingData[:0]
		for _, st := range c.awaitingData {
			switch {
			case st.squashed:
			case c.srcReady(st.psrc2):
				st.result = c.srcVal(st.psrc2)
				st.dataReady = true
				st.completed = true
			default:
				rest = append(rest, st)
			}
		}
		c.awaitingData = rest
	}
	done := c.wbScratch[:0]
	rest := c.inflight[:0]
	for _, pe := range c.inflight {
		if pe.u.squashed {
			continue
		}
		if pe.done <= c.cycle {
			done = append(done, pe.u)
		} else {
			rest = append(rest, pe)
		}
	}
	c.inflight = rest
	c.wbScratch = done
	// Insertion sort by seq (unique): completions resolve oldest-first.
	// Replaces sort.Slice, whose closure allocates on every cycle; the done
	// set is small (bounded by what completes in one cycle).
	for i := 1; i < len(done); i++ {
		u := done[i]
		j := i - 1
		for j >= 0 && done[j].seq > u.seq {
			done[j+1] = done[j]
			j--
		}
		done[j+1] = u
	}

	for _, u := range done {
		if u.squashed { // squashed by an older uop's resolution this cycle
			continue
		}
		if u.pdst >= 0 {
			c.physVal[u.pdst] = u.result
			c.physReady[u.pdst] = true
			c.wake(u.pdst)
		}
		if u.inst.Op.IsStore() && !u.dataReady {
			// Address part done; the store completes when data arrives.
			c.awaitingData = append(c.awaitingData, u)
			continue
		}
		if u.holdsMSHR {
			u.holdsMSHR = false
			c.outstandingMisses--
		}
		u.completed = true
		c.emit(obs.FlightWriteback, u.seq, u.pc, 0, u.suspect)
		if u.inst.Op.IsLoad() && u.ldqIdx >= 0 {
			c.tpbuf.SetWriteback(u.ldqIdx)
		}
		if u.isBranch {
			c.unresolvedBranches--
			c.resolveBranch(u)
			if u.seq == c.serializeSeq {
				// The watermark branch resolved (serializeSeq is only ever
				// non-zero under the fence defense): advance to the next
				// oldest unresolved branch, if any.
				c.rescanSerialize()
			}
		}
	}
}

// resolveBranch trains the predictor and recovers from mispredictions.
func (c *CPU) resolveBranch(u *uop) {
	if u.inst.Op.IsCondBranch() {
		actualTaken := u.addrReady // stashed at issue
		actualTarget := u.memAddr
		if !actualTaken {
			actualTarget = u.pc + isa.InstBytes
		}
		mispredicted := actualTaken != u.predTaken
		c.bp.ResolveCond(u.pc, actualTaken, mispredicted, u.ghrAtPred)
		if mispredicted {
			cp := u.bpCP
			c.squashFrom(u.seq+1, actualTarget, &cp)
			c.bp.CorrectGHRAfterRestore(actualTaken)
		}
		return
	}
	// Indirect jump.
	actualTarget := u.memAddr
	mispredicted := actualTarget != u.predTarget
	c.bp.ResolveTarget(u.pc, actualTarget, mispredicted)
	if mispredicted {
		cp := u.bpCP
		c.squashFrom(u.seq+1, actualTarget, &cp)
	}
}

// squashFrom removes every uop with seq >= fromSeq from the machine,
// restores the rename map, clears the security structures, and re-steers
// fetch to redirectPC. cp, when non-nil, restores predictor state (branch
// mispredictions; memory-order violations skip it).
func (c *CPU) squashFrom(fromSeq uint64, redirectPC uint64, cp *branch.Checkpoint) {
	c.emit(obs.FlightSquash, fromSeq, 0, redirectPC, false)
	c.stats.Squashes++
	robBefore := c.robCount
	for c.robCount > 0 {
		u := c.robAt(c.robCount - 1)
		if u.seq < fromSeq {
			break
		}
		u.squashed = true
		if u.isBranch && !u.completed {
			c.unresolvedBranches--
		}
		if u.pdst >= 0 {
			c.renameMap[u.archRd] = u.oldPdst
			c.freeList = append(c.freeList, u.pdst)
		}
		if u.iqIdx >= 0 {
			if c.secmat != nil {
				c.secmat.OnSquash(u.iqIdx)
				maskClear(c.prodMask, u.iqIdx)
				c.emit(obs.FlightSecRowClear, u.seq, u.pc, uint64(u.iqIdx), false)
			}
			c.readyRemove(u)
			c.iq[u.iqIdx] = nil
			maskSet(c.iqFree, u.iqIdx)
			u.iqIdx = -1
			c.iqCount--
		}
		if u.ldqIdx >= 0 {
			c.ldq[u.ldqIdx] = nil
			maskSet(c.ldqFree, u.ldqIdx)
			c.tpbuf.Free(u.ldqIdx)
			u.ldqIdx = -1
		}
		if u.stqIdx >= 0 {
			c.stq[u.stqIdx] = nil
			maskSet(c.stqFree, u.stqIdx)
			c.tpbuf.Free(c.cfg.LDQ + u.stqIdx)
			u.stqIdx = -1
		}
		c.rob[(c.robHead+c.robCount-1)%len(c.rob)] = nil
		c.robCount--
		// Back to the pool. Any stale wakeup registrations it leaves on
		// regWaiters are neutralized by the wait1/wait2 match in wake()
		// and truncated when the register is re-allocated; its `squashed`
		// flag stays readable for same-cycle stage logic until recycled.
		c.freeUop(u)
	}
	c.m.squashDepth.Observe(uint64(robBefore - c.robCount))
	// Drop squashed in-flight work, parked stores awaiting data, and the
	// entire fetch queue (everything in it is younger than anything in
	// the ROB).
	rest := c.inflight[:0]
	for _, pe := range c.inflight {
		if !pe.u.squashed {
			rest = append(rest, pe)
			continue
		}
		if pe.u.holdsMSHR {
			pe.u.holdsMSHR = false
			c.outstandingMisses--
		}
	}
	c.inflight = rest
	if len(c.awaitingData) > 0 {
		keep := c.awaitingData[:0]
		for _, st := range c.awaitingData {
			if !st.squashed {
				keep = append(keep, st)
			}
		}
		for i := len(keep); i < len(c.awaitingData); i++ {
			c.awaitingData[i] = nil
		}
		c.awaitingData = keep
	}
	if len(c.parked) > 0 {
		// Parked delay-on-miss loads: drop squashed entries NOW — their uops
		// return to the pool above and are recycled at the next fetch, so a
		// stale parked pointer would alias a different instruction.
		keep := c.parked[:0]
		for _, u := range c.parked {
			if !u.squashed {
				keep = append(keep, u)
			}
		}
		for i := len(keep); i < len(c.parked); i++ {
			c.parked[i] = nil
		}
		c.parked = keep
	}
	c.fqFlush()
	c.noteSquashWatermark(fromSeq)
	if cp != nil {
		c.bp.Restore(*cp)
	}
	c.fetchPC = redirectPC
	c.fetchHalted = false
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1 // one-cycle re-steer bubble
	}
	c.rescanFence()
	c.rescanSerialize()
}

func (c *CPU) rescanFence() {
	c.fenceSeq = 0
	for i := 0; i < c.robCount; i++ {
		u := c.robAt(i)
		if u.inst.Op == isa.OpFence && !u.completed {
			c.fenceSeq = u.seq
			return
		}
	}
}

// rescanSerialize recomputes the fence-defense watermark: the seq of the
// oldest unresolved branch in the ROB (0 = none). A no-op — and always zero
// — unless the active defense serializes branches.
func (c *CPU) rescanSerialize() {
	c.serializeSeq = 0
	if !c.def.SerializeBranches {
		return
	}
	for i := 0; i < c.robCount; i++ {
		u := c.robAt(i)
		if u.isBranch && !u.completed {
			c.serializeSeq = u.seq
			return
		}
	}
}

// commitStage retires completed instructions in order, performing the
// non-speculative side effects: store writes, CLFLUSH invalidations,
// deferred LRU touches, and the HALT that ends simulation.
func (c *CPU) commitStage() {
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		u := c.robAt(0)
		if u.inst.Op == isa.OpFence && !u.completed {
			// A fence completes when it reaches the ROB head: everything
			// older has committed.
			u.completed = true
			c.fenceSeq = 0
			c.rescanFence()
		}
		if !u.completed {
			return
		}
		op := u.inst.Op
		switch {
		case op.IsStore():
			c.hier.WriteData(u.memAddr, op.MemBytes(), u.result)
			c.hier.AccessData(u.memAddr, false) // non-speculative fill
			c.hier.StoreCommitted(u.memAddr)    // invalidate peer L1 copies
		case op == isa.OpClflush:
			c.hier.Flush(u.memAddr)
		case op.IsLoad():
			if c.def.InvisibleLoads {
				// InvisiSpec exposure: the load becomes architecturally
				// visible, refilling the hierarchy like a normal access.
				c.hier.AccessData(u.memAddr, false)
			}
			if u.pendingTouch {
				c.hier.TouchL1D(u.memAddr) // §VII.A delayed LRU update
			}
		}
		if u.class() == core.ClassMem && op != isa.OpClflush {
			c.stats.Filter.CommittedMemInsts++
			if u.wasBlocked {
				c.stats.Filter.BlockedInsts++
			}
			if u.tpbufUnsafe {
				// A committed load the TPBuf had flagged UNSAFE: by
				// definition benign speculation, i.e. a false positive.
				c.m.tpbufUnsafeCommitted.Inc()
			}
		}
		if u.pdst >= 0 {
			c.freeList = append(c.freeList, u.oldPdst)
		}
		if u.ldqIdx >= 0 {
			c.ldq[u.ldqIdx] = nil
			maskSet(c.ldqFree, u.ldqIdx)
			c.tpbuf.Free(u.ldqIdx)
		}
		if u.stqIdx >= 0 {
			c.stq[u.stqIdx] = nil
			maskSet(c.stqFree, u.stqIdx)
			c.tpbuf.Free(c.cfg.LDQ + u.stqIdx)
		}
		c.emit(obs.FlightCommit, u.seq, u.pc, 0, false)
		c.rob[c.robHead] = nil
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		c.stats.Committed++
		// Retired: recycle. No structure references u past this point
		// (LSQ slots and TPBuf entries were released above).
		c.freeUop(u)
		if op == isa.OpHalt {
			c.halted = true
			return
		}
		if c.stats.Committed >= c.committedTarget {
			return
		}
	}
}
