package workload

import (
	"testing"

	"conspec/internal/isa"
)

func TestProfilesCount(t *testing.T) {
	ps := Profiles()
	if len(ps) != 22 {
		t.Fatalf("expected the 22 SPEC CPU2006 benchmarks, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"astar", "lbm", "libquantum", "mcf", "zeusmp", "GemsFDTD"} {
		if !seen[want] {
			t.Errorf("missing profile %q", want)
		}
	}
}

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range Profiles() {
		w, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(w.Prog.Insts) == 0 {
			t.Fatalf("%s: empty program", p.Name)
		}
		if w.Entry != w.Prog.Base {
			t.Fatalf("%s: entry %#x != base %#x", p.Name, w.Entry, w.Prog.Base)
		}
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("lbm"); !ok || p.Name != "lbm" {
		t.Fatal("ByName(lbm) failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName must report unknown names")
	}
	if len(Names()) != 22 {
		t.Fatal("Names must list all profiles")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := Profiles()[0]
	for _, mutate := range []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemBlocks = 0 },
		func(p *Profile) { p.HotBytes = 48 * 1024 }, // not a power of two
		func(p *Profile) { p.ColdBytes = 0 },
		func(p *Profile) { p.ColdPattern = ColdSeq; p.ColdStride = 0 },
	} {
		p := good
		mutate(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("mutated profile %+v must fail validation", p)
		}
	}
}

// TestWorkloadsRunOnInterpreter executes each generated kernel briefly on
// the golden model: no faults, no runaway PCs, accumulator advances.
func TestWorkloadsRunOnInterpreter(t *testing.T) {
	for _, p := range Profiles() {
		w := MustGenerate(p)
		m := isa.NewFlatMem()
		w.Load(m)
		in := isa.NewInterp(m, w.Entry)
		if _, err := in.Run(20000); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if in.Halted {
			t.Fatalf("%s: kernels are infinite loops, must not halt", p.Name)
		}
		if in.PC < w.Prog.Base || in.PC >= w.Prog.End() {
			t.Fatalf("%s: PC escaped to %#x", p.Name, in.PC)
		}
	}
}

// TestChaseRingIsCycle checks the seeded pointer ring is a single cycle.
func TestChaseRingIsCycle(t *testing.T) {
	w := MustGenerate(mustProfile(t, "mcf"))
	m := isa.NewFlatMem()
	w.Load(m)
	const step = 4096
	n := w.Profile.ColdBytes / step
	if n > 4096 {
		n = 4096
	}
	start := w.coldBase
	cur := start
	for i := 0; i < n; i++ {
		cur = m.Read(cur, 8)
		if cur == 0 {
			t.Fatalf("ring broken at hop %d", i)
		}
	}
	if cur != start {
		t.Fatalf("ring is not a single %d-cycle: ended at %#x", n, cur)
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return p
}

func TestRatioEvery(t *testing.T) {
	cases := map[float64]int{0: 0, 1: 1, 0.5: 2, 0.25: 4, 0.33: 3, 2: 1}
	for frac, want := range cases {
		if got := ratioEvery(frac); got != want {
			t.Errorf("ratioEvery(%v) = %d, want %d", frac, got, want)
		}
	}
}

func TestICacheStressGenerates(t *testing.T) {
	p := ICacheStress()
	w := MustGenerate(p)
	// Code footprint must exceed a 64KB L1I.
	if size := len(w.Prog.Insts) * 8; size < 80*1024 {
		t.Fatalf("code footprint %d bytes, want > 80KB", size)
	}
	// All segments must be bound and the table seeded.
	m := isa.NewFlatMem()
	w.Load(m)
	for seg := 0; seg < p.CodeSegments; seg++ {
		addr := m.Read(0x3F_0000+uint64(seg)*8, 8)
		if addr < w.Prog.Base || addr >= w.Prog.End() {
			t.Fatalf("segment %d table entry %#x outside program", seg, addr)
		}
	}
	// Runs on the golden model without faults and visits several segments.
	in := isa.NewInterp(m, w.Entry)
	if _, err := in.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if in.Halted {
		t.Fatal("kernel must not halt")
	}
}

func TestSegmentedKernelValidation(t *testing.T) {
	p := ICacheStress()
	p.CodeSegments = 3 // not a power of two
	if _, err := Generate(p); err == nil {
		t.Fatal("non-power-of-two CodeSegments must fail validation")
	}
}

func TestSegmentedMatchesUnsegmented(t *testing.T) {
	// A segmented kernel's per-iteration work is the same body; both forms
	// must run indefinitely with the accumulator advancing.
	p := ICacheStress()
	p.CodeSegments = 4
	p.SegmentPadding = 10
	w := MustGenerate(p)
	m := isa.NewFlatMem()
	w.Load(m)
	in := isa.NewInterp(m, w.Entry)
	if _, err := in.Run(30_000); err != nil {
		t.Fatal(err)
	}
	if in.PC < w.Prog.Base || in.PC >= w.Prog.End() {
		t.Fatalf("PC escaped: %#x", in.PC)
	}
}

// TestFenceAfterBranches: the SW-mitigated kernel contains fences, runs
// correctly, and is architecturally equivalent per-iteration to the plain
// kernel (same memory traffic intent, more serialization).
func TestFenceAfterBranches(t *testing.T) {
	p := mustProfile(t, "astar")
	p.FenceAfterBranches = true
	w := MustGenerate(p)
	fences := 0
	for _, in := range w.Prog.Insts {
		if in.Op == isa.OpFence {
			fences++
		}
	}
	if fences == 0 {
		t.Fatal("FenceAfterBranches must emit fences")
	}
	m := isa.NewFlatMem()
	w.Load(m)
	in := isa.NewInterp(m, w.Entry)
	if _, err := in.Run(20000); err != nil {
		t.Fatal(err)
	}
}

// TestProfilesHavePaperTargets ensures every profile carries its Table V
// reference value (used by EXPERIMENTS.md and the calibration test).
func TestProfilesHavePaperTargets(t *testing.T) {
	for _, p := range Profiles() {
		if p.PaperL1HitRate <= 0 || p.PaperL1HitRate > 1 {
			t.Errorf("%s: PaperL1HitRate %v out of range", p.Name, p.PaperL1HitRate)
		}
	}
}

// TestGeneratedKernelsAreDeterministic: generating the same profile twice
// yields identical programs (experiments must be reproducible).
func TestGeneratedKernelsAreDeterministic(t *testing.T) {
	for _, p := range Profiles()[:4] {
		a, b := MustGenerate(p), MustGenerate(p)
		if len(a.Prog.Insts) != len(b.Prog.Insts) {
			t.Fatalf("%s: nondeterministic length", p.Name)
		}
		for i := range a.Prog.Insts {
			if a.Prog.Insts[i] != b.Prog.Insts[i] {
				t.Fatalf("%s: instruction %d differs", p.Name, i)
			}
		}
	}
}

// TestLoadSeedsDeterministic: loading twice produces identical memory.
func TestLoadSeedsDeterministic(t *testing.T) {
	w := MustGenerate(mustProfile(t, "mcf"))
	m1, m2 := isa.NewFlatMem(), isa.NewFlatMem()
	w.Load(m1)
	w.Load(m2)
	for off := uint64(0); off < 1<<16; off += 4096 {
		if m1.Read(0x4000_0000+off, 8) != m2.Read(0x4000_0000+off, 8) {
			t.Fatal("nondeterministic seeding")
		}
	}
}

// TestLoadResidentPages: after Load, the only resident pages are the dense
// regions — code, the segment table and the hot region. The cold pointer
// ring is seeded, so its pages stay non-resident until a store touches them.
func TestLoadResidentPages(t *testing.T) {
	for _, p := range append(Profiles(), ICacheStress()) {
		w := MustGenerate(p)
		m := isa.NewFlatMem()
		w.Load(m)
		want := map[uint64]bool{}
		for a := w.Prog.Base; a < w.Prog.End(); a += isa.InstBytes {
			want[a>>isa.PageBits] = true
		}
		for addr, blob := range w.Prog.Data {
			for i := range blob {
				want[(addr+uint64(i))>>isa.PageBits] = true
			}
		}
		if p.CodeSegments > 1 {
			want[segTable>>isa.PageBits] = true
		}
		for off := 0; off < p.HotBytes; off += 64 {
			want[(w.hotBase+uint64(off))>>isa.PageBits] = true
		}
		if m.Pages() != len(want) {
			t.Errorf("%s: %d resident pages after Load, want %d (code, table, hot)", p.Name, m.Pages(), len(want))
		}
	}
}
