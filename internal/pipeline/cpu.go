// Package pipeline implements the cycle-driven out-of-order core the paper
// evaluates on: speculative fetch with branch prediction, register renaming,
// an issue queue with data/age/security-dependence selection, a load/store
// queue with store-to-load forwarding and memory-order violation recovery,
// and in-order commit. Wrong-path execution is modelled for real — loads on
// a mis-speculated path genuinely access and refill the caches, which is
// precisely the side channel Conditional Speculation exists to close.
//
// The security machinery from internal/core hooks in at three points:
//
//	dispatch — security dependence matrix row initialization (§V.B)
//	issue    — row-OR hazard detection assigns the suspect flag; Baseline
//	           refuses to select suspect memory instructions at all
//	L1D      — the Cache-hit filter (§V.C) discards suspect miss requests;
//	           the TPBuf filter (§V.D) rescues misses that do not complete
//	           an S-Pattern
package pipeline

import (
	"fmt"

	"conspec/internal/branch"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/obs"
)

// SecurityConfig selects the defense configuration under evaluation.
type SecurityConfig struct {
	Mechanism core.Mechanism
	Scope     core.Scope
	// ICacheFilter enables the §VII.B extension: next-PC fetch requests are
	// unsafe while an unresolved branch is in flight, and unsafe L1I misses
	// stall fetch instead of refilling.
	ICacheFilter bool
	// TPBufVariant selects the S-Pattern matching rule (design-space
	// ablation; VariantPaper is eq. (1)).
	TPBufVariant core.TPBufVariant
	// SSBD (speculative store bypass disable) is the V4 software/firmware
	// mitigation §VIII discusses: loads may not issue while any older store
	// in the store queue still has an unresolved address. It kills V4 at
	// the cost of all load-over-store reordering.
	SSBD bool
	// DTLBFilter enables this reproduction's own §VII.B-style extension:
	// a suspect data access whose translation MISSES the DTLB is blocked
	// before the page walk, closing the TLB-refill side channel that the
	// cache filters leave open (a discarded suspect miss still translates,
	// and a page-granular prober can time the saved walk — see DESIGN.md §8).
	DTLBFilter bool
}

// uop is one dynamic instruction flowing through the pipeline.
type uop struct {
	seq  uint64
	pc   uint64
	inst isa.Inst
	fu   isa.FU // inst.Op.Unit(), decoded once at fetch for the select loop

	// Rename state. Physical register -1 means "none"/"not needed".
	pdst, psrc1, psrc2 int
	oldPdst            int
	archRd             uint8

	// Structure indices; -1 when not allocated.
	iqIdx  int
	ldqIdx int
	stqIdx int

	// Execution state.
	dispatched bool
	issued     bool
	completed  bool
	squashed   bool
	readyAt    uint64 // frontend: earliest dispatch cycle
	// triedCycle stamps the last cycle the select logic attempted this
	// entry, replacing a per-cycle "tried" set (cycle numbers start at 1,
	// so the zero value never matches a live cycle).
	triedCycle uint64
	// ssStallCycle stamps the last cycle a store-set conflict was tallied
	// for this load, so repeated select passes count one stall per cycle.
	ssStallCycle uint64

	// Wakeup state (see ready.go). wait1/wait2 name the physical registers
	// this issue-queue entry is registered on (-1 = none); waitCnt is how
	// many are still pending; inReady marks ready-list membership.
	wait1, wait2 int
	waitCnt      int
	inReady      bool

	// Branch state.
	isBranch   bool
	predTaken  bool
	predTarget uint64
	bpCP       branch.Checkpoint
	ghrAtPred  uint64

	// Memory state.
	holdsMSHR     bool // this in-flight load occupies an MSHR
	memAddr       uint64
	addrReady     bool
	dataReady     bool   // stores: data operand delivered to the STQ entry
	fwdFromSeq    uint64 // seq of the store this load forwarded from (0 none)
	bypassedStore bool   // load issued past an older store with unknown address
	violStorePC   uint64 // PC of the store that exposed this load's violation

	// Security state.
	suspect      bool
	blockedSec   bool // currently blocked waiting for dependence clearance
	wasBlocked   bool // blocked at least once (Table V blocked-rate numerator)
	tpbufUnsafe  bool // a TPBuf UNSAFE verdict blocked this load at least once
	pendingTouch bool // deferred LRU update owed at commit (§VII.A delayed)
	parked       bool // delay-on-miss: waiting in place, off the ready list

	// Observability stamps (cycle numbers; 0 = never happened, cycles
	// start at 1). dispatchCycle anchors the suspect-window histogram;
	// discardedAt anchors the re-issue latency of filter-discarded misses.
	dispatchCycle uint64
	discardedAt   uint64

	result uint64
}

func (u *uop) class() core.Class {
	switch {
	case u.inst.Op.IsMem():
		return core.ClassMem
	case u.inst.Op.IsBranch():
		return core.ClassBranch
	default:
		return core.ClassOther
	}
}

// Result summarizes one simulation run.
type Result struct {
	Cycles    uint64
	Committed uint64
	Halted    bool

	Branch branch.Stats
	Filter core.FilterStats
	SecMat core.SecMatrixStats
	TPBuf  core.TPBufStats

	L1I, L1D, L2, L3 mem.CacheStats

	Squashes      uint64
	MemViolations uint64
	// UnresolvedBranchAtDispatch counts instructions dispatched while at
	// least one unresolved branch was in flight (§VI.C(1) analysis).
	UnresolvedBranchAtDispatch uint64
	// StoreSetStalls counts load issues deferred by the Store Sets
	// predictor (zero unless Core.StoreSets is enabled).
	StoreSetStalls uint64
	// FetchStallsICacheFilter counts cycles the §VII.B ICache-hit filter
	// stalled fetch.
	FetchStallsICacheFilter uint64
	// DTLBFilterBlocks counts suspect accesses blocked by the DTLB-hit
	// filter before their page walk (zero unless DTLBFilter is enabled).
	DTLBFilterBlocks uint64

	// Stages is the per-stage cycle-accounting counter set.
	Stages StageStats

	// Outcome classifies how the producing Run/RunFor call ended; Diag
	// carries the watchdog/audit diagnostic dump for failed outcomes (empty
	// otherwise). Hardening counts the self-checking layer's activity. All
	// three stay zero for healthy runs with the hardening layer disabled.
	Outcome   RunOutcome     `json:",omitempty"`
	Diag      string         `json:",omitempty"`
	Hardening HardeningStats `json:",omitempty"`

	// Flight is the flight recorder's dump of the last K cycles of
	// microarchitectural events, populated on the same failure paths that
	// fill Diag (watchdog trip, audit failure) when a recorder is armed.
	// Nil for healthy runs and disarmed machines.
	Flight *obs.FlightDump `json:",omitempty"`

	// Series is the sampled metric time series, populated by the exp layer
	// after the run when interval sampling was enabled (never by the cycle
	// loop itself — materializing it allocates). Nil otherwise.
	Series *obs.Series `json:",omitempty"`
}

// StageStats is a per-stage cycle-accounting counter set: occupancy
// integrals (divide by Cycles for an average) plus activity counts that
// show where cycles go without attaching a tracer. Occupancies are sampled
// at the end of each simulated cycle.
type StageStats struct {
	FetchQOccupancy uint64 // Σ fetch-queue entries per cycle
	IQOccupancy     uint64 // Σ occupied issue-queue slots per cycle
	ReadyOccupancy  uint64 // Σ ready-list (data-ready IQ) entries per cycle
	ROBOccupancy    uint64 // Σ occupied ROB entries per cycle
	ExecInflight    uint64 // Σ in-flight executions per cycle
	IssuedUops      uint64 // accepted issues
	IssueIdleCycles uint64 // cycles with a non-empty IQ and no accepted issue
	CommitStalls    uint64 // cycles with a non-empty ROB and no commit

	// Stall-skipper meta-counters (see skip.go): simulated cycles the
	// event-driven fast-forward credited without stepping, and the number
	// of skipped spans. These describe the simulator, not the machine —
	// every other statistic is byte-identical whether or not they are
	// non-zero.
	SkippedCycles uint64
	SkipSpans     uint64
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// CPU is one simulated core.
type CPU struct {
	cfg  config.Core
	sec  SecurityConfig
	hier *mem.Hierarchy
	bp   *branch.Predictor

	// def is sec's defense contract, resolved once at construction from the
	// core defense registry (see defense.go). The cycle loop reads these
	// plain flags instead of looking the backend up, which is what keeps the
	// steady state allocation- and lookup-free.
	def core.Hooks

	secmat *core.SecMatrix
	tpbuf  *core.TPBuf

	cycle uint64
	seq   uint64

	// Fetch. fetchQ is a fixed-capacity ring buffer (fqHead = oldest entry,
	// fqLen = occupancy) so steady-state fetch/dispatch never reallocates.
	fetchPC         uint64
	fetchHalted     bool
	fetchStallUntil uint64
	fetchQ          []*uop
	fqHead, fqLen   int
	fetchQCap       int

	// Rename.
	renameMap [isa.NumRegs]int
	physVal   []uint64
	physReady []bool
	freeList  []int

	// Reorder buffer (circular).
	rob      []*uop
	robHead  int
	robCount int

	// Issue queue: fixed slots, nil = free. iqCount tracks occupancy;
	// readyList holds the data-ready entries sorted by seq (see ready.go);
	// regWaiters[p] lists entries waiting on physical register p.
	iq         []*uop
	iqCount    int
	readyList  []*uop
	regWaiters [][]*uop

	// Free-slot bitmaps (bit set = slot free) replacing the O(N) nil scans
	// at dispatch; lowest set bit preserves the scans' lowest-index policy.
	iqFree  []uint64
	ldqFree []uint64
	stqFree []uint64

	// prodMask mirrors the issue queue for the security matrix: bit j is set
	// iff iq[j] holds a valid, unissued entry of a producer class under the
	// matrix scope. Maintained at dispatch, issue, and squash; it is the
	// word-wide operand of SecMatrix.OnDispatchMask. Nil when secmat is nil.
	prodMask []uint64

	// unresolvedBranches counts dispatched, uncompleted branches — the O(1)
	// replacement for the per-dispatch ROB scan (incremented at dispatch,
	// decremented at branch writeback and at squash of uncompleted branches).
	unresolvedBranches int

	// Load/store queues: fixed slots, nil = free. TPBuf entry i maps to
	// LDQ slot i; entry LDQ+j maps to STQ slot j.
	ldq []*uop
	stq []*uop

	// In-flight executions waiting for their completion cycle.
	inflight []pendingExec
	// Stores whose address issued but whose data operand is still pending.
	awaitingData []*uop
	// Parked suspect-miss loads (delay-on-miss backend): held in their IQ
	// slot, off the ready list, retried by resumeParked when their security
	// dependence row clears. Capacity LDQ — each parked load owns an LDQ slot.
	parked []*uop

	// Per-cycle functional unit usage (reset each cycle).
	fuUsed [isa.FUCount]int
	fuLim  [isa.FUCount]int // per-FU port limits, flattened from cfg at New

	// Active FENCE tracking: the oldest uncommitted fence's seq (0 = none).
	fenceSeq uint64

	// Serialization watermark (fence defense backend): seq of the oldest
	// unresolved branch (0 = none). While set, nothing younger may issue —
	// the LFENCE-after-branch model. Maintained at dispatch, branch
	// writeback, and squash; always 0 unless def.SerializeBranches.
	serializeSeq uint64

	// SSBD watermark: seq of the oldest STQ entry with an unresolved
	// address (0 = all resolved). Maintained in ready.go; replaces the
	// per-eligibility-check STQ scan.
	unresolvedStoreSeq uint64

	// Steady-state allocation elision: retired/squashed uops are pooled
	// and recycled at fetch; wbScratch is the writeback stage's completed
	// list.
	uopPool   []*uop
	wbScratch []*uop

	// Optional Store Sets memory-dependence predictor (ablation).
	storeSets *storeSets

	// outstandingMisses tracks in-flight L1D load misses for the MSHR cap.
	outstandingMisses int

	halted bool

	// Forward-progress watchdog (see watchdog.go): lastProgress is the most
	// recent committing cycle; the run fails with OutcomeDeadlock when
	// cycle-lastProgress reaches watchdogLimit (0 = disabled). runErr is the
	// sticky terminal error of a failed run. selfCheckEvery > 0 audits the
	// machine's invariants every that many cycles. faultHook, when non-nil,
	// runs once per cycle after the stages and the security clock edge —
	// the fault-injection attachment point (see fault.go).
	lastProgress   uint64
	watchdogLimit  uint64
	selfCheckEvery uint64
	runErr         error
	runOutcome     RunOutcome
	faultHook      func(*CPU)

	// sinks, when non-empty, receive one obs.FlightEvent per pipeline event
	// (see trace.go). fr is the armed flight recorder, also one of the
	// sinks; the CPU keeps it to dump into Result.Flight on failure paths
	// (see flight.go). Nil when disarmed.
	sinks []obs.EventSink
	fr    *obs.FlightRecorder

	// m is the attached metric set, held by value so detached metrics are
	// nil pointers and each record site is a nil-receiver no-op (see
	// metrics.go). Zero value = no metrics.
	m Metrics

	// Event-driven stall skipping (see skip.go). skipArmed is true only
	// inside a RunFor with skipping engaged (never under StepCycle, a fault
	// hook, or per-cycle self-checks); the signature pair detects inert
	// steps, and inert hands RunFor the fast-forward decision.
	skipDisabled bool
	skipArmed    bool
	sigValid     bool
	inert        bool
	sigs         [2]stepSig // alternating capture slots; sigCur indexes the next
	sigCur       int

	stats Result
	// committedTarget lets RunFor stop exactly at an instruction budget.
	committedTarget uint64
}

type pendingExec struct {
	u    *uop
	done uint64
}

// New builds a CPU over the given hierarchy. The hierarchy must have been
// created with the same mem configuration as cfg.Mem (callers typically use
// NewWithMemory or build both from the same config).
func New(cfg config.Core, sec SecurityConfig, hier *mem.Hierarchy) *CPU {
	if cfg.PhysRegs < isa.NumRegs+cfg.ROB {
		panic(fmt.Sprintf("pipeline: %d physical registers cannot cover %d arch + %d ROB",
			cfg.PhysRegs, isa.NumRegs, cfg.ROB))
	}
	fetchQCap := cfg.FetchWidth * (cfg.FrontendDepth + 2)
	c := &CPU{
		cfg:          cfg,
		sec:          sec,
		hier:         hier,
		bp:           branch.New(cfg.Predictor),
		physVal:      make([]uint64, cfg.PhysRegs),
		physReady:    make([]bool, cfg.PhysRegs),
		freeList:     make([]int, 0, cfg.PhysRegs),
		rob:          make([]*uop, cfg.ROB),
		iq:           make([]*uop, cfg.IQ),
		ldq:          make([]*uop, cfg.LDQ),
		stq:          make([]*uop, cfg.STQ),
		fetchQ:       make([]*uop, fetchQCap),
		fetchQCap:    fetchQCap,
		readyList:    make([]*uop, 0, cfg.IQ),
		regWaiters:   make([][]*uop, cfg.PhysRegs),
		inflight:     make([]pendingExec, 0, cfg.ROB),
		wbScratch:    make([]*uop, 0, cfg.ROB),
		awaitingData: make([]*uop, 0, cfg.STQ),
		parked:       make([]*uop, 0, cfg.LDQ),
	}
	for f := isa.FU(0); f < isa.FUCount; f++ {
		c.fuLim[f] = c.fuLimit(f)
	}
	c.iqFree = newFullMask(cfg.IQ)
	c.ldqFree = newFullMask(cfg.LDQ)
	c.stqFree = newFullMask(cfg.STQ)
	c.def = resolveHooks(sec)
	if c.def.TracksDependence {
		c.secmat = core.NewSecMatrix(cfg.IQ, sec.Scope)
		c.prodMask = make([]uint64, c.secmat.Words())
	}
	if cfg.StoreSets {
		entries := cfg.StoreSetEntries
		if entries == 0 {
			entries = 1024
		}
		c.storeSets = newStoreSets(entries)
	}
	c.tpbuf = core.NewTPBuf(cfg.LDQ + cfg.STQ).SetVariant(sec.TPBufVariant)
	c.committedTarget = ^uint64(0)
	switch {
	case cfg.Watchdog < 0:
		c.watchdogLimit = 0
	case cfg.Watchdog == 0:
		c.watchdogLimit = defaultWatchdogLimit(cfg.Mem.MemLat)
	default:
		c.watchdogLimit = uint64(cfg.Watchdog)
	}
	// Registers x0..x31 start mapped to physical 0..31; all ready. Physical
	// register 0 is pinned to zero for x0.
	for r := 0; r < isa.NumRegs; r++ {
		c.renameMap[r] = r
		c.physReady[r] = true
	}
	for p := isa.NumRegs; p < cfg.PhysRegs; p++ {
		c.freeList = append(c.freeList, p)
		c.physReady[p] = true
	}
	return c
}

// NewWithMemory builds a fresh hierarchy from cfg.Mem over backing and a CPU
// on top of it.
func NewWithMemory(cfg config.Core, sec SecurityConfig, backing *isa.FlatMem) *CPU {
	return New(cfg, sec, mem.NewHierarchy(cfg.Mem, backing))
}

// Release hands the machine's caches back for reuse by the next machine of
// the same cache geometry (see mem.Hierarchy.Release). Call it once the
// run's statistics have been read; the CPU must not run or touch its
// memory system afterwards (that panics), and Hierarchy returns nil. A
// second Release is a no-op. A run that panicked should not be released:
// its caches may be mid-update.
func (c *CPU) Release() {
	if c.hier != nil {
		c.hier.Release()
		c.hier = nil
	}
}

// Hierarchy returns the memory system (attack harnesses probe it directly).
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch predictor (attack harnesses train it).
func (c *CPU) Predictor() *branch.Predictor { return c.bp }

// Cycle returns the current cycle count.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Halted reports whether a HALT has committed.
func (c *CPU) Halted() bool { return c.halted }

// SetPC steers fetch; call before running or after a drain.
func (c *CPU) SetPC(pc uint64) {
	c.fetchPC = pc
	c.fetchHalted = false
	c.halted = false
}

// ArchReg reads architectural register r through the rename map. The value
// is the committed state only when the pipeline is drained (after Run
// returns with Halted), which is how tests use it.
func (c *CPU) ArchReg(r int) uint64 {
	if r == 0 {
		return 0
	}
	return c.physVal[c.renameMap[r]]
}

// ResetStats zeroes all statistics counters (after cache warmup) without
// touching microarchitectural state.
func (c *CPU) ResetStats() {
	c.stats = Result{}
	c.bp.Stats = branch.Stats{}
	if c.secmat != nil {
		c.secmat.Stats = core.SecMatrixStats{}
	}
	c.tpbuf.Stats = core.TPBufStats{}
	c.hier.L1I.Stats = mem.CacheStats{}
	c.hier.L1D.Stats = mem.CacheStats{}
	c.hier.L2.Stats = mem.CacheStats{}
	c.hier.L3.Stats = mem.CacheStats{}
	c.m.sampler.Reset(c.cycle)
}

func (c *CPU) snapshotResult() Result {
	r := c.stats
	if c.storeSets != nil {
		r.StoreSetStalls = c.storeSets.Stalls
	}
	r.Branch = c.bp.Stats
	if c.secmat != nil {
		r.SecMat = c.secmat.Stats
	}
	r.TPBuf = c.tpbuf.Stats
	r.L1I = c.hier.L1I.Stats
	r.L1D = c.hier.L1D.Stats
	r.L2 = c.hier.L2.Stats
	r.L3 = c.hier.L3.Stats
	return r
}

// Run executes until HALT commits or maxCycles elapse, and returns the
// accumulated statistics since the last ResetStats.
func (c *CPU) Run(maxCycles uint64) Result {
	return c.RunFor(^uint64(0), maxCycles)
}

// RunFor executes until `insts` more instructions commit, HALT commits,
// maxCycles elapse, or the machine fails (watchdog trip or self-check
// violation — see Result.Outcome and CPU.Err).
func (c *CPU) RunFor(insts, maxCycles uint64) Result {
	c.committedTarget = c.stats.Committed + insts
	if c.committedTarget < c.stats.Committed { // overflow: no limit
		c.committedTarget = ^uint64(0)
	}
	start := c.cycle
	// Each RunFor call grants a fresh no-progress grace window; the commit
	// history of a previous (possibly drained) run must not count against it.
	if c.lastProgress < c.cycle {
		c.lastProgress = c.cycle
	}
	// Arm the stall skipper (skip.go) unless an observer needs every cycle.
	c.skipArmed = !c.skipDisabled && c.faultHook == nil && c.selfCheckEvery == 0
	c.sigValid = false
	c.inert = false
	capCycle := start + maxCycles
	if capCycle < start {
		capCycle = ^uint64(0) // saturate
	}
	for !c.halted && c.runErr == nil && c.cycle-start < maxCycles && c.stats.Committed < c.committedTarget {
		c.step()
		if c.inert {
			c.inert = false
			c.fastForward(capCycle)
		}
	}
	c.skipArmed = false
	switch {
	case c.runErr != nil:
		// tripWatchdog/failAudit set stats.Outcome at trip time, but an
		// intervening ResetStats clears it; the sticky copy survives.
		c.stats.Outcome = c.runOutcome
	case c.halted:
		c.stats.Outcome = OutcomeHalted
	case c.stats.Committed >= c.committedTarget:
		c.stats.Outcome = OutcomeInstTarget
	default:
		c.stats.Outcome = OutcomeCycleCapExceeded
	}
	return c.snapshotResult()
}

// StepCycle advances the machine by exactly one cycle; multi-core harnesses
// (Duo) interleave cores with it. Single-core users should prefer Run.
func (c *CPU) StepCycle() {
	if !c.halted && c.runErr == nil {
		c.step()
	}
}

// Result returns the statistics accumulated since the last ResetStats.
func (c *CPU) Result() Result { return c.snapshotResult() }

// step advances the machine by one cycle. Stages run back-to-front so that
// same-cycle structural hazards resolve the way real pipelines do.
func (c *CPU) step() {
	c.cycle++
	c.stats.Cycles++
	for i := range c.fuUsed {
		c.fuUsed[i] = 0
	}
	committedBefore := c.stats.Committed
	c.commitStage()
	if c.halted {
		return
	}
	if c.robCount > 0 && c.stats.Committed == committedBefore {
		c.stats.Stages.CommitStalls++
	}
	c.writebackStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	if c.secmat != nil {
		c.secmat.ClockEdge()
	}
	c.creditOccupancy(1)
	if c.m.enabled() {
		c.m.sampler.MaybeSample(c.cycle)
	}
	// Hardening layer. The fault hook fires after the stages and the
	// security clock edge, immediately before the checks, so a same-cycle
	// self-check sweep sees an injected corruption before any stage logic
	// can react to (or mask) it. Steady-state cost with everything
	// disabled/healthy: two predicted branches and one compare.
	if c.faultHook != nil {
		c.faultHook(c)
	}
	if c.stats.Committed != committedBefore {
		c.lastProgress = c.cycle
	} else if c.watchdogLimit != 0 && c.cycle-c.lastProgress >= c.watchdogLimit {
		c.tripWatchdog()
	}
	if c.selfCheckEvery != 0 && c.cycle%c.selfCheckEvery == 0 && c.runErr == nil {
		c.stats.Hardening.SelfCheckSweeps++
		if err := c.CheckInvariants(); err != nil {
			c.stats.Hardening.SelfCheckViolations++
			c.failAudit(err)
		}
	}
	if c.skipArmed && c.runErr == nil {
		c.noteSig()
	}
}

// ringWrap reduces a ring index i in [0, 2*n) into [0, n). The ROB and
// fetch-queue index paths use it in place of %: every index they form is a
// position below twice the ring size, so one compare-and-subtract wraps it
// and no division sits on the per-instruction path.
func ringWrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// robAt returns the uop at ROB position (head+i) mod size, for i in
// [0, size).
func (c *CPU) robAt(i int) *uop {
	return c.rob[ringWrap(c.robHead+i, len(c.rob))]
}

// robFull reports whether the ROB has no free entry.
func (c *CPU) robFull() bool { return c.robCount == len(c.rob) }

func (c *CPU) robPush(u *uop) {
	c.rob[ringWrap(c.robHead+c.robCount, len(c.rob))] = u
	c.robCount++
}

// unresolvedBranchInFlight reports whether any dispatched branch has not
// completed — the §VII.B ICache filter's "unsafe NPC" condition and the
// §VI.C(1) unresolved-branch statistic. O(1): the counter is maintained at
// dispatch, branch writeback, and squash (CheckInvariants recomputes it
// from the ROB).
func (c *CPU) unresolvedBranchInFlight() bool {
	return c.unresolvedBranches > 0
}
