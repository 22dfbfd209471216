package pipeline

import (
	"errors"
	"fmt"
	"strings"
)

// RunOutcome classifies how a Run/RunFor call ended. The zero value means
// the machine has not finished a run (or predates the outcome tracking).
type RunOutcome uint8

const (
	// OutcomeNone is the zero value: no run has completed.
	OutcomeNone RunOutcome = iota
	// OutcomeHalted: a HALT instruction committed.
	OutcomeHalted
	// OutcomeInstTarget: the RunFor instruction budget was reached. This is
	// the normal ending for the exp layer's budgeted measurement runs.
	OutcomeInstTarget
	// OutcomeCycleCapExceeded: maxCycles elapsed with neither a HALT nor the
	// instruction budget reached — historically this returned a plausible
	// Result that silently polluted aggregates.
	OutcomeCycleCapExceeded
	// OutcomeDeadlock: the forward-progress watchdog tripped — no uop
	// committed for the configured window. CPU.Err carries a *NoProgressError
	// with the diagnostic dump.
	OutcomeDeadlock
	// OutcomeAuditFailed: an in-run self-check sweep (-selfcheck K) found an
	// invariant violation. CPU.Err carries the violation.
	OutcomeAuditFailed
)

// String names the outcome.
func (o RunOutcome) String() string {
	switch o {
	case OutcomeHalted:
		return "halted"
	case OutcomeInstTarget:
		return "inst-target"
	case OutcomeCycleCapExceeded:
		return "cycle-cap-exceeded"
	case OutcomeDeadlock:
		return "deadlock"
	case OutcomeAuditFailed:
		return "audit-failed"
	default:
		return "none"
	}
}

// Completed reports whether the run ended the way a healthy run can: HALT
// committed or the instruction budget was reached.
func (o RunOutcome) Completed() bool {
	return o == OutcomeHalted || o == OutcomeInstTarget
}

// ErrNoProgress is the sentinel the forward-progress watchdog wraps:
// errors.Is(cpu.Err(), ErrNoProgress) identifies a deadlocked machine.
var ErrNoProgress = errors.New("pipeline: no forward progress")

// NoProgressError is the watchdog's typed error: no uop committed for
// Window cycles. Dump holds a bounded diagnostic snapshot of the machine
// at trip time (ROB head, its security-dependence row, queue occupancies,
// TPBuf status bits).
type NoProgressError struct {
	Cycle      uint64 // cycle the watchdog tripped
	LastCommit uint64 // last cycle that committed a uop
	Window     uint64 // configured no-progress limit
	Dump       string
}

// Error summarizes the trip; the full dump is in Dump.
func (e *NoProgressError) Error() string {
	return fmt.Sprintf("pipeline: no forward progress for %d cycles (cycle %d, last commit at %d)",
		e.Window, e.Cycle, e.LastCommit)
}

// Unwrap makes errors.Is(err, ErrNoProgress) work.
func (e *NoProgressError) Unwrap() error { return ErrNoProgress }

// HardeningStats counts the self-checking layer's activity; all zero unless
// the watchdog trips, selfcheck sweeps run, or faults are injected — so a
// run with the hardening layer disabled reports a byte-identical Result.
type HardeningStats struct {
	WatchdogTrips       uint64
	SelfCheckSweeps     uint64
	SelfCheckViolations uint64
	FaultsInjected      uint64
}

// defaultWatchdogLimit derives the no-progress window from the memory
// latency: the longest legitimate commit gap is a dependence chain of
// serialized misses stalling the ROB head, each costing on the order of
// MemLat; 64 of them plus a fixed floor is far above anything a live
// machine produces (~16K cycles on the paper core) and far below the
// multi-million-cycle caps runs used to spin to.
func defaultWatchdogLimit(memLat int) uint64 {
	return 4096 + 64*uint64(memLat)
}

// SetWatchdog overrides the forward-progress window: the run fails with
// OutcomeDeadlock when no uop commits for limit cycles. 0 disables the
// watchdog. The default comes from config.Core.Watchdog (or, when that is
// zero, from the memory latency).
func (c *CPU) SetWatchdog(limit uint64) { c.watchdogLimit = limit }

// SetSelfCheck makes the machine audit its own invariants (CheckInvariants,
// including the security-structure audits) every `every` cycles; a
// violation ends the run with OutcomeAuditFailed. 0 (the default) disables
// sweeps and leaves the hot path untouched. Sweeps allocate; they are
// debugging/hardening machinery, not part of the zero-alloc contract.
func (c *CPU) SetSelfCheck(every uint64) { c.selfCheckEvery = every }

// Err returns the error that ended the current run (nil for healthy
// machines): a *NoProgressError after a watchdog trip, or the invariant
// violation after a failed self-check sweep. The error is sticky — a
// wedged or corrupted machine stays failed across Run calls.
func (c *CPU) Err() error { return c.runErr }

// tripWatchdog records the deadlock: builds the bounded diagnostic dump
// (the only allocation the watchdog ever performs — on the failure path),
// marks the run failed, and counts the trip. step() stops advancing once
// runErr is set.
func (c *CPU) tripWatchdog() {
	c.stats.Hardening.WatchdogTrips++
	err := &NoProgressError{
		Cycle:      c.cycle,
		LastCommit: c.lastProgress,
		Window:     c.watchdogLimit,
	}
	err.Dump = c.progressDump()
	c.runErr = err
	c.runOutcome = OutcomeDeadlock
	c.stats.Outcome = OutcomeDeadlock
	c.stats.Diag = err.Dump
	c.stats.Flight = c.fr.Dump(c.cycle)
}

// failAudit records a self-check violation as the run's terminal error.
func (c *CPU) failAudit(violation error) {
	err := fmt.Errorf("pipeline: self-check audit failed at cycle %d: %w", c.cycle, violation)
	c.runErr = err
	c.runOutcome = OutcomeAuditFailed
	c.stats.Outcome = OutcomeAuditFailed
	c.stats.Diag = err.Error() + "\n" + c.progressDump()
	c.stats.Flight = c.fr.Dump(c.cycle)
}

// progressDump renders a bounded snapshot of the stuck machine: ROB head
// (the blocked uop), its security-dependence matrix row, queue occupancies,
// and the TPBuf status bits — everything needed to diagnose a wedged
// security policy without re-running under a tracer.
func (c *CPU) progressDump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle %d: last commit at cycle %d (watchdog window %d)\n",
		c.cycle, c.lastProgress, c.watchdogLimit)
	fmt.Fprintf(&sb, "occupancy: rob %d/%d  iq %d/%d  ready %d  fetchq %d  inflight %d  awaiting-data %d  mshr %d\n",
		c.robCount, len(c.rob), c.iqCount, len(c.iq), len(c.readyList),
		c.fqLen, len(c.inflight), len(c.awaitingData), c.outstandingMisses)
	if c.robCount == 0 {
		fmt.Fprintf(&sb, "rob empty; fetchHalted=%v fetchPC=%#x\n", c.fetchHalted, c.fetchPC)
		return sb.String()
	}
	u := c.robAt(0)
	fmt.Fprintf(&sb, "rob head: seq=%d pc=%#x op=%v iq=%d ldq=%d stq=%d issued=%v completed=%v suspect=%v blockedSec=%v tpbufUnsafe=%v waitCnt=%d\n",
		u.seq, u.pc, u.inst.Op, u.iqIdx, u.ldqIdx, u.stqIdx,
		u.issued, u.completed, u.suspect, u.blockedSec, u.tpbufUnsafe, u.waitCnt)
	if c.secmat != nil && u.iqIdx >= 0 {
		fmt.Fprintf(&sb, "secmatrix row %d: hazard=%v cols=[", u.iqIdx, c.secmat.Peek(u.iqIdx))
		printed := 0
		for y := 0; y < c.secmat.Size() && printed < 16; y++ {
			if c.secmat.Get(u.iqIdx, y) {
				if printed > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", y)
				printed++
			}
		}
		sb.WriteString("]\n")
	}
	// Oldest unissued IQ entries: the candidates actually blocking commit.
	fmt.Fprintf(&sb, "iq (oldest unissued, max 8):")
	shown := 0
	for i := 0; i < c.robCount && shown < 8; i++ {
		r := c.robAt(i)
		if r.iqIdx < 0 || r.issued {
			continue
		}
		fmt.Fprintf(&sb, " [seq=%d pc=%#x %v blockedSec=%v]", r.seq, r.pc, r.inst.Op, r.blockedSec)
		shown++
	}
	sb.WriteString("\n")
	// TPBuf V/W/S status, bounded to the first 16 allocated entries.
	fmt.Fprintf(&sb, "tpbuf occ %d:", c.tpbuf.Occupancy())
	printed := 0
	for i := 0; i < c.tpbuf.Size() && printed < 16; i++ {
		a, v, w, s, ppn := c.tpbuf.Entry(i)
		if !a {
			continue
		}
		flags := [4]byte{'a', '-', '-', '-'}
		if v {
			flags[1] = 'V'
		}
		if w {
			flags[2] = 'W'
		}
		if s {
			flags[3] = 'S'
		}
		fmt.Fprintf(&sb, " [%d:%s ppn=%#x]", i, flags[:], ppn)
		printed++
	}
	sb.WriteString("\n")
	return sb.String()
}
