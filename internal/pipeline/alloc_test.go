package pipeline

import (
	"testing"

	"conspec/internal/asm"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/obs"
)

// countingSink is an event sink that only counts what it is fed, so the
// allocation check sees the pipeline's delivery cost and nothing else.
type countingSink struct{ events uint64 }

func (s *countingSink) Event(obs.FlightEvent) { s.events++ }
func (s *countingSink) Flush() error          { return nil }

// allocKernel builds a non-terminating kernel exercising every hot path:
// dependent ALU chains, loads and stores over a strided buffer, a
// data-dependent branch (mispredicts → squashes), and a multiply.
func allocKernel() *asm.Program {
	b := asm.New()
	b.Li(asm.A0, 0x40000) // buffer
	b.Li(asm.S0, 0)       // i
	b.Li(asm.S1, 255)     // index mask
	b.Li(asm.S3, 0)       // checksum
	b.Bind("loop")
	b.And(asm.T0, asm.S0, asm.S1)
	b.Shli(asm.T0, asm.T0, 3)
	b.Add(asm.T1, asm.A0, asm.T0)
	b.St(asm.S3, asm.T1, 0)
	b.Ld(asm.T2, asm.T1, 0)
	b.Mul(asm.T3, asm.T2, asm.S1)
	b.Add(asm.S3, asm.S3, asm.T3)
	b.Addi(asm.S0, asm.S0, 1)
	// Data-dependent branch: taken when the low checksum bit is set, which
	// flips irregularly — a steady source of mispredictions and squashes.
	b.Andi(asm.T4, asm.S3, 1)
	b.Beq(asm.T4, asm.Zero, "skip")
	b.Ld(asm.T5, asm.A0, 0)
	b.Add(asm.S3, asm.S3, asm.T5)
	b.Bind("skip")
	b.Jmp("loop")
	return b.MustAssemble(testBase)
}

// TestZeroAllocSteadyState pins the tentpole property: after warmup, the
// cycle loop performs no heap allocations — the tried map, per-cycle
// scratch slices, uop churn and sort closures are all gone.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sec     SecurityConfig
		metrics bool
		flight  bool
		sink    bool
	}{
		{"origin", SecurityConfig{Mechanism: core.Origin}, false, false, false},
		{"cachehit-tpbuf", SecurityConfig{Mechanism: core.CacheHitTPBuf, Scope: core.ScopeBranchMem}, false, false, false},
		{"ssbd", SecurityConfig{Mechanism: core.Origin, SSBD: true}, false, false, false},
		// The new Defense backends must keep the property: the fence
		// watermark is a scalar, parked delay-on-miss loads reuse a
		// preallocated slice, and invisible loads change no bookkeeping.
		{"fence", SecurityConfig{Mechanism: core.Fence}, false, false, false},
		{"delay-on-miss", SecurityConfig{Mechanism: core.DelayOnMiss, Scope: core.ScopeBranchMem}, false, false, false},
		{"invisispec", SecurityConfig{Mechanism: core.InvisiSpec}, false, false, false},
		// The obs contract: an attached registry with interval sampling
		// costs array writes only — still zero allocations per cycle.
		{"origin-metrics", SecurityConfig{Mechanism: core.Origin}, true, false, false},
		{"cachehit-tpbuf-metrics", SecurityConfig{Mechanism: core.CacheHitTPBuf, Scope: core.ScopeBranchMem}, true, false, false},
		// The flight recorder's contract: an armed recorder is ring stores
		// only — still zero allocations per cycle, even alongside metrics.
		{"origin-flight", SecurityConfig{Mechanism: core.Origin}, false, true, false},
		{"cachehit-tpbuf-flight", SecurityConfig{Mechanism: core.CacheHitTPBuf, Scope: core.ScopeBranchMem}, true, true, false},
		// Event delivery itself: with a sink attached every event is one
		// by-value interface call — no disassembly, no boxing.
		{"cachehit-tpbuf-sink", SecurityConfig{Mechanism: core.CacheHitTPBuf, Scope: core.ScopeBranchMem}, false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := allocKernel()
			backing := isa.NewFlatMem()
			prog.Load(backing)
			cpu := NewWithMemory(smallCore(), tc.sec, backing)
			if tc.flight {
				cpu.ArmFlightRecorder(0, 0)
			}
			sink := &countingSink{}
			if tc.sink {
				cpu.AttachSink(sink)
			}
			if tc.metrics {
				m := NewMetrics()
				// 30000 warmup + 21*2000 measured cycles at interval 256
				// needs ~290 rows; 1024 leaves the append path untouched.
				m.EnableSampling(256, 1024)
				cpu.AttachMetrics(m)
			}
			cpu.SetPC(prog.Base)
			// Warm up: let pools, waiter lists and scratch slices reach
			// their steady-state capacities.
			cpu.Run(30000)
			if cpu.Halted() {
				t.Fatal("kernel must not halt")
			}
			avg := testing.AllocsPerRun(20, func() {
				cpu.Run(2000)
			})
			if cpu.Halted() {
				t.Fatal("kernel must not halt during measurement")
			}
			if avg != 0 {
				t.Fatalf("steady-state cycle loop allocates: %.2f allocs per 2000 cycles", avg)
			}
			if err := cpu.CheckInvariants(); err != nil {
				t.Fatalf("invariants after run: %v", err)
			}
			if tc.flight {
				if d := cpu.DumpFlight(); d == nil || len(d.Events) == 0 {
					t.Fatal("flight recorder armed but recorded nothing")
				}
			}
			if tc.sink && sink.events == 0 {
				t.Fatal("sink attached but fed no events")
			}
			if tc.metrics {
				s := cpu.m.Series()
				if s == nil || len(s.Rows) == 0 {
					t.Fatal("metrics were attached but the sampler recorded nothing")
				}
				// The gauge columns register after EnableSampling (inside
				// AttachMetrics); every row must still align with the final
				// column set, cycle column strictly increasing.
				prev := uint64(0)
				for i, row := range s.Rows {
					if len(row) != len(s.Columns) {
						t.Fatalf("row %d has %d values for %d columns", i, len(row), len(s.Columns))
					}
					if row[0] <= prev {
						t.Fatalf("row %d cycle %d not after previous %d", i, row[0], prev)
					}
					prev = row[0]
				}
			}
		})
	}
}
