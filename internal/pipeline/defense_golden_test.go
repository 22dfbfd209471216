package pipeline

import (
	"testing"

	"conspec/internal/core"
	"conspec/internal/isa"
)

// TestDefenseHooksGolden checks that the CPU runs under exactly the hook
// set of the backend its SecurityConfig names, for every registry row
// resolved by name. The rows' literal hook values are pinned by core's
// TestHooksMatchReference.
func TestDefenseHooksGolden(t *testing.T) {
	for _, name := range core.DefenseNames() {
		t.Run(name, func(t *testing.T) {
			d, err := core.LookupDefense(name)
			if err != nil {
				t.Fatal(err)
			}
			cpu := NewWithMemory(smallCore(), SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()}, isa.NewFlatMem())
			if cpu.def != d.Hooks() {
				t.Errorf("CPU hooks %+v, want the row's %+v", cpu.def, d.Hooks())
			}
		})
	}
}

// TestNewDefenseBackendsRun sanity-runs the three new backends on the same
// kernel: they must make forward progress, stay invariant-clean, and show
// their mechanism's signature (the fence run cannot out-run origin; the
// delay-on-miss run must block suspect misses without discarding them).
func TestNewDefenseBackendsRun(t *testing.T) {
	run := func(sec SecurityConfig) Result {
		prog := allocKernel()
		backing := isa.NewFlatMem()
		prog.Load(backing)
		cpu := NewWithMemory(smallCore(), sec, backing)
		cpu.SetPC(prog.Base)
		res := cpu.Run(20_000)
		if err := cpu.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if res.Committed == 0 {
			t.Fatal("no forward progress")
		}
		return res
	}
	origin := run(SecurityConfig{Mechanism: core.Origin})
	fence := run(SecurityConfig{Mechanism: core.Fence})
	if fence.Committed >= origin.Committed {
		t.Errorf("LFENCE-after-branch committed %d >= origin %d in the same budget; serialization has no cost?",
			fence.Committed, origin.Committed)
	}
	dom := run(SecurityConfig{Mechanism: core.DelayOnMiss, Scope: core.ScopeBranchMem})
	if dom.Filter.SuspectIssued == 0 {
		t.Error("delay-on-miss never classified a suspect load")
	}
	run(SecurityConfig{Mechanism: core.InvisiSpec})
}
