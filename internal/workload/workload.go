// Package workload generates the 22 SPEC CPU2006-shaped synthetic kernels
// the evaluation runs in place of the real suite (reference inputs cannot be
// run inside the simulator). Each benchmark is described by a Profile whose
// knobs target the microarchitectural behaviours Table V shows actually
// drive the results:
//
//   - HotFrac splits memory traffic between a small L1-resident region and a
//     large cold region, steering the L1D hit rate toward the paper's
//     per-benchmark "L1 Hit Rate" column.
//   - ColdPattern selects sequential (page-local) or random (page-hopping)
//     cold traffic, steering the S-Pattern mismatch rate: page-local misses
//     mostly mismatch (safe under TPBuf, lbm-like), page-hopping misses
//     mostly match (unsafe, libquantum-like).
//   - BranchNoise adds data-dependent 50/50 branches (astar/gobmk-like
//     misprediction rates).
//   - StoreFrac and ChaseFrac model store pressure (memory-memory
//     dependences) and pointer chasing (mcf-like).
//
// Generated programs are self-contained infinite loops over an LCG-driven
// body; the harness runs them for a fixed committed-instruction budget after
// a warmup period, mirroring the paper's warmup+measure methodology.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"conspec/internal/asm"
	"conspec/internal/isa"
)

// ColdPattern selects how the cold region is walked.
type ColdPattern int

const (
	// ColdSeq walks the cold region sequentially with a small stride:
	// consecutive misses fall on the same page (high S-Pattern mismatch).
	ColdSeq ColdPattern = iota
	// ColdRandom jumps to a random cold address every access: consecutive
	// misses fall on different pages (low S-Pattern mismatch).
	ColdRandom
	// ColdPageHop walks sequentially but with a page-sized stride: every
	// access lands on a new page (lowest mismatch).
	ColdPageHop
)

// Profile describes one synthetic benchmark.
type Profile struct {
	Name string

	// HotFrac in [0,1] is the fraction of memory accesses aimed at the
	// L1-resident hot region; the remainder goes to the cold region.
	HotFrac float64
	// HotBytes and ColdBytes size the two regions (powers of two).
	HotBytes  int
	ColdBytes int
	// ColdPattern selects the cold walk; ColdStride applies to ColdSeq.
	ColdPattern ColdPattern
	ColdStride  int

	// ChaseFrac in [0,1] replaces that fraction of cold accesses with a
	// dependent pointer chase through the cold region.
	ChaseFrac float64
	// StoreFrac in [0,1] is the fraction of memory operations that are
	// stores (to the same region mix).
	StoreFrac float64

	// MemBlocks is the number of memory operations per loop iteration;
	// FillerALU is the number of independent ALU ops inserted per memory
	// operation (lower = more memory-bound).
	MemBlocks int
	FillerALU int
	// ChainDepth adds a serial dependence chain per iteration (lower ILP).
	ChainDepth int

	// NoisyBranches per iteration flip on LCG bits (50% mispredict until
	// the counters dither); PredictableBranches are never taken.
	NoisyBranches       int
	PredictableBranches int

	// PhaseLen holds the hot/cold region decision for this many consecutive
	// iterations (a power of two; 0 or 1 re-decides every iteration).
	// Streaming applications run in long phases, which is also what gives
	// them their high S-Pattern mismatch rates: during a cold streaming
	// phase the only in-flight accesses are to neighbouring pages.
	PhaseLen int

	// LaggardEvery, when non-zero, inserts one "laggard" access every that
	// many iterations (a power of two): a load whose address depends on the
	// accumulator, which chains on cold-miss data. The laggard sits
	// unissued in the issue queue for roughly a memory latency — the
	// long-latency producer that makes Conditional Speculation's blocking
	// expensive under Baseline (everything younger waits) yet nearly free
	// under the Cache-hit filter (younger HITS keep flowing). SPEC codes
	// get this structure from loads feeding address computations across
	// loop-carried dependences.
	LaggardEvery int

	// LaggardChain, when non-zero, replaces the laggard's cold anchor with
	// an ALU dependence chain of that many operations seeded by a hot load:
	// the laggard stays unissued for tens of cycles (not hundreds), and —
	// critically — nothing about it misses the cache, so the Cache-hit
	// filter recovers essentially all of the Baseline's cost. This is the
	// hmmer/dealII structure: long arithmetic recurrences feeding addresses.
	LaggardChain int

	// ColdDepFrac is the fraction of blocks that are dependent loads INTO
	// THE CURRENT REGION: address = selected base + (recent load value
	// masked to a page offset). In cold streaming phases these chain on
	// miss data (a long-latency unissued producer, like LaggardEvery) but
	// their targets stay on the stream's own page — so under TPBuf the
	// blocked youngers re-qualify as safe (no S-Pattern), reproducing the
	// paper's "TPBuf rescues lbm" behaviour.
	ColdDepFrac float64

	// IndirectFrac is the fraction of load blocks whose ADDRESS depends on
	// the previous load's value (a[b[i]]-style indirection). Indirection is
	// what keeps memory instructions waiting in the issue queue — and
	// therefore what gives the security dependence matrix real teeth: a
	// suspect access behind an unissued indirect producer genuinely stalls.
	IndirectFrac float64
	// LoadBranchFrac makes that fraction of noisy branches read their
	// condition from loaded data instead of the LCG register, so branch
	// resolution (and dependence clearance) waits on the memory system.
	LoadBranchFrac float64

	// FenceAfterBranches models the LFENCE software mitigation (§VIII):
	// the "compiler" inserts a speculation fence after every conditional
	// branch, so no memory access starts under an unresolved branch. Run on
	// the UNPROTECTED core, this is the software baseline the hardware
	// mechanisms are compared against.
	FenceAfterBranches bool

	// CodeSegments, when > 1, replicates the loop body into that many code
	// segments and dispatches through an indirect jump to an LCG-chosen
	// segment each iteration. With enough segments the code working set
	// exceeds the L1 ICache and fetch misses become common — the pressure
	// the §VII.B ICache-hit filter needs to matter at all.
	CodeSegments int
	// SegmentPadding appends that many NOPs to each segment (code bloat).
	SegmentPadding int

	// PaperL1HitRate is Table V's Origin L1 hit rate for this benchmark,
	// recorded for EXPERIMENTS.md comparison (not used by the generator).
	PaperL1HitRate float64
}

// Workload is a generated, loadable benchmark program.
type Workload struct {
	Profile Profile
	Prog    *asm.Program
	// Entry is the first executed address.
	Entry uint64
	// hot/cold region bases used by Seed.
	hotBase, coldBase uint64
}

// Register roles inside generated code (documented for the disassembly
// reader; the generator owns all registers).
const (
	rLCG    = asm.S2      // linear congruential generator state
	rHot    = asm.S3      // hot region base
	rCold   = asm.S4      // cold region base
	rSeq    = asm.S5      // sequential cold offset
	rChase  = asm.S6      // pointer-chase cursor
	rAcc    = asm.S7      // accumulator (serial chain)
	rK1     = asm.A4      // LCG multiplier
	rColdM  = asm.A3      // cold offset mask
	rThresh = asm.A2      // cold-selection threshold (16-bit scale)
	rHotM   = asm.S0      // hot offset mask
	rHotB   = asm.S1      // this iteration's hot base candidate
	rColdB  = asm.Reg(16) // this iteration's cold base candidate
	rSel    = asm.Reg(17) // selected base for this iteration's accesses
	rIdxM   = asm.A5      // index mask for dependent (indirect) addressing
	rSelM   = asm.Reg(26) // phase-held hot/cold select mask
	rIter   = asm.Reg(27) // iteration counter (phase clock)
	rInd    = asm.Reg(24) // indirect-chain cursor (hot index data)
)

const (
	codeBase = 0x40_0000
	segTable = 0x3F_0000 // segment address table (CodeSegments > 1)
	hotBase  = 0x100_0000
	coldBase = 0x4000_0000
)

// Generate assembles the kernel for p.
// emitIteration emits one loop-body instance; id disambiguates labels when
// the body is replicated across code segments.
func emitIteration(b *asm.Builder, p Profile, id string) {
	// One LCG step per iteration feeds all random decisions.
	b.Mul(rLCG, rLCG, rK1)
	b.I(isa.OpAddi, rLCG, rLCG, 12345)

	// Hot/cold region selection happens ONCE per iteration, branchlessly:
	// compute both candidate bases, compare an LCG window against the cold
	// threshold, and mask-select. Individual accesses then cost one or two
	// instructions each (static offsets off the selected base), which keeps
	// the generated code's memory density at SPEC-like levels — essential
	// for the issue queue to actually contain older unissued memory
	// instructions when younger ones dispatch (the security dependence
	// matrix's entire raison d'être).
	stride := p.ColdStride
	if p.ColdPattern == ColdPageHop {
		stride = isa.PageSize + 64
	}
	if stride <= 0 {
		stride = 64
	}
	// Advance the sequential cold cursor by the whole iteration's window.
	b.Addi(rSeq, rSeq, int32(stride*p.MemBlocks))
	b.And(rSeq, rSeq, rColdM)
	// Hot candidate: random line in the hot region.
	b.Shri(asm.T0, rLCG, 13)
	b.And(asm.T0, asm.T0, rHotM)
	b.Add(rHotB, rHot, asm.T0)
	// Cold candidate.
	if p.ColdPattern == ColdRandom {
		b.Shri(asm.T1, rLCG, 27)
		b.And(asm.T1, asm.T1, rColdM)
		b.Add(rColdB, rCold, asm.T1)
	} else {
		b.Add(rColdB, rCold, rSeq)
	}
	// Select: mask = (lcgWindow < threshold) ? ~0 : 0. With PhaseLen > 1
	// the decision is re-drawn only at phase boundaries, so the workload
	// streams in hot or cold phases like real applications do.
	b.Addi(rIter, rIter, 1)
	if p.PhaseLen > 1 {
		b.Andi(asm.T5, rIter, int32(p.PhaseLen-1))
		b.Bne(asm.T5, asm.Zero, asm.Label("keep_sel"+id))
	}
	b.Shri(asm.T5, rLCG, 33)
	b.Andi(asm.T5, asm.T5, 0xFFFF)
	b.R(isa.OpSltu, asm.T5, asm.T5, rThresh)
	b.Sub(rSelM, asm.Zero, asm.T5)
	if p.PhaseLen > 1 {
		b.Bind(asm.Label("keep_sel" + id))
		if p.FenceAfterBranches {
			b.Fence()
		}
	}
	b.Xor(asm.T6, rHotB, rColdB)
	b.And(asm.T6, asm.T6, rSelM)
	b.Xor(rSel, rHotB, asm.T6)

	storeEvery := ratioEvery(p.StoreFrac)
	chaseEvery := ratioEvery(p.ChaseFrac)
	indirectEvery := ratioEvery(p.IndirectFrac)
	coldDepEvery := ratioEvery(p.ColdDepFrac)
	loadBranchEvery := ratioEvery(p.LoadBranchFrac)
	acc := []asm.Reg{asm.T2, asm.T3, asm.T4}

	for blk := 0; blk < p.MemBlocks; blk++ {
		isStore := storeEvery > 0 && (blk+1)%storeEvery == 0
		isChase := chaseEvery > 0 && (blk+1)%chaseEvery == 0
		isIndirect := indirectEvery > 0 && (blk+2)%indirectEvery == 0
		isColdDep := coldDepEvery > 0 && (blk+3)%coldDepEvery == 0
		off := int32(blk * stride)

		switch {
		case isColdDep:
			t := acc[blk%len(acc)]
			b.Andi(asm.T6, acc[(blk+1)%len(acc)], 0xFC0)
			b.Add(asm.T6, rSel, asm.T6)
			b.Ld(t, asm.T6, 0)
		case isChase:
			b.Ld(rChase, rChase, 0) // dependent pointer chase
			b.Add(rAcc, rAcc, rChase)
		case isStore:
			b.St(rAcc, rSel, off)
		case isIndirect:
			// a[b[i]]-style dependent addressing through HOT index data:
			// each indirect load's address comes from the previous indirect
			// load's value, forming hit-latency chains (the hmmer/dealII
			// dependence structure) without chaining onto cold misses —
			// real index arrays are hot.
			b.And(asm.T6, rInd, rIdxM)
			b.Add(asm.T6, rHot, asm.T6)
			b.Ld(rInd, asm.T6, 0)
		default:
			t := acc[blk%len(acc)]
			b.Ld(t, rSel, off)
			if blk%2 == 0 {
				b.Add(rAcc, rAcc, t) // consume half the loads
			}
		}

		for f := 0; f < p.FillerALU; f++ {
			t := acc[f%len(acc)]
			b.Addi(t, t, int32(f+1))
		}
	}

	if p.LaggardEvery > 0 {
		if p.LaggardEvery > 1 {
			b.Andi(asm.T5, rIter, int32(p.LaggardEvery-1))
			b.Bne(asm.T5, asm.Zero, asm.Label("skip_laggard"+id))
		}
		if p.LaggardChain > 0 {
			// Chain anchor: a hot load followed by a serial ALU chain; the
			// dependent load below waits tens of cycles in the issue queue.
			b.Ld(asm.T6, rHot, 64)
			for k := 0; k < p.LaggardChain; k++ {
				b.Addi(asm.T6, asm.T6, 1)
			}
		} else {
			// Cold anchor: an always-cold load (fresh lines via the LCG);
			// the dependent load below waits ~a full miss latency.
			b.Shri(asm.T6, rLCG, 21)
			b.And(asm.T6, asm.T6, rColdM)
			b.Add(asm.T6, rCold, asm.T6)
			b.Ld(asm.T2, asm.T6, 0)
			b.And(asm.T6, asm.T2, rIdxM)
		}
		b.And(asm.T6, asm.T6, rIdxM)
		b.Add(asm.T6, rHot, asm.T6)
		b.Ld(asm.T2, asm.T6, 0)
		if p.LaggardEvery > 1 {
			b.Bind(asm.Label("skip_laggard" + id))
			if p.FenceAfterBranches {
				b.Fence()
			}
		}
	}

	for i := 0; i < p.NoisyBranches; i++ {
		lbl := asm.Label(fmt.Sprintf("noisy%s_%d", id, i))
		if loadBranchEvery > 0 && (i+1)%loadBranchEvery == 0 {
			// Condition depends on loaded data: the branch cannot resolve
			// until the memory system delivers it.
			b.Andi(asm.T5, acc[i%len(acc)], 1)
		} else {
			bit := int32(20 + i*3) // independent LCG bits per branch
			b.Shri(asm.T5, rLCG, bit)
			b.Andi(asm.T5, asm.T5, 1)
		}
		b.Beq(asm.T5, asm.Zero, lbl)
		b.Addi(rAcc, rAcc, 1)
		b.Bind(lbl)
		if p.FenceAfterBranches {
			b.Fence()
		}
	}
	for i := 0; i < p.PredictableBranches; i++ {
		lbl := asm.Label(fmt.Sprintf("pred%s_%d", id, i))
		b.Blt(rHot, asm.Zero, lbl) // never taken
		b.Bind(lbl)
		if p.FenceAfterBranches {
			b.Fence()
		} else {
			b.Nop()
		}
	}

	for i := 0; i < p.ChainDepth; i++ {
		b.Addi(rAcc, rAcc, 1) // serial chain on rAcc
	}

}

func Generate(p Profile) (*Workload, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	b := asm.New()

	// Prologue.
	b.Li64(rLCG, 0x9E3779B97F4A7C15)
	b.Li64(rK1, 6364136223846793005)
	b.Li64(rHot, hotBase)
	b.Li64(rCold, coldBase)
	b.Li64(rColdM, uint64(p.ColdBytes-1)&^7)
	b.Li64(rHotM, uint64(p.HotBytes-1)&^63)
	b.Li64(rIdxM, uint64(p.HotBytes-1)&^63)
	b.Li(rThresh, int32((1-p.HotFrac)*65536))
	b.Li(rSeq, 0)
	b.Li(rIter, 0)
	b.Li(rSelM, 0)
	b.Li(rInd, 0)
	b.R(isa.OpAdd, rChase, rCold, asm.Zero) // chase cursor starts at cold base
	b.Li(rAcc, 0)

	if p.CodeSegments > 1 {
		// Segmented form: each iteration jumps through a memory-resident
		// table to an LCG-chosen copy of the body. With enough copies the
		// code footprint exceeds the L1 ICache, creating the fetch misses
		// the §VII.B ICache-hit filter exists for.
		b.Li64(asm.A0, segTable)
		b.Bind("loop")
		b.Shri(asm.T6, rLCG, 45)
		b.Andi(asm.T6, asm.T6, int32(p.CodeSegments-1))
		b.Shli(asm.T6, asm.T6, 3)
		b.Add(asm.T6, asm.A0, asm.T6)
		b.Ld(asm.T6, asm.T6, 0)
		b.Jalr(asm.Zero, asm.T6, 0) // indirect dispatch into a segment
		for seg := 0; seg < p.CodeSegments; seg++ {
			b.Bind(asm.Label(fmt.Sprintf("seg%d", seg)))
			emitIteration(b, p, fmt.Sprintf("s%d", seg))
			for n := 0; n < p.SegmentPadding; n++ {
				b.Nop()
			}
			b.Jmp("loop")
		}
	} else {
		b.Bind("loop")
		emitIteration(b, p, "")
		b.Jmp("loop")
	}

	prog, err := b.Assemble(codeBase)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Profile: p, Prog: prog, Entry: codeBase,
		hotBase: hotBase, coldBase: coldBase,
	}, nil
}

// ratioEvery converts a fraction into an "every Nth block" period; 0 means
// never.
func ratioEvery(frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return 1
	}
	return int(1/frac + 0.5)
}

func validate(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without a name")
	}
	if p.MemBlocks <= 0 {
		return fmt.Errorf("workload %s: MemBlocks must be positive", p.Name)
	}
	for _, sz := range []int{p.HotBytes, p.ColdBytes} {
		if sz <= 0 || sz&(sz-1) != 0 {
			return fmt.Errorf("workload %s: region sizes must be powers of two, got %d", p.Name, sz)
		}
	}
	if p.ColdPattern == ColdSeq && p.ColdStride <= 0 {
		return fmt.Errorf("workload %s: ColdSeq needs a positive stride", p.Name)
	}
	if p.PhaseLen > 1 && p.PhaseLen&(p.PhaseLen-1) != 0 {
		return fmt.Errorf("workload %s: PhaseLen must be a power of two", p.Name)
	}
	if p.LaggardEvery > 1 && p.LaggardEvery&(p.LaggardEvery-1) != 0 {
		return fmt.Errorf("workload %s: LaggardEvery must be a power of two", p.Name)
	}
	if p.CodeSegments > 1 && p.CodeSegments&(p.CodeSegments-1) != 0 {
		return fmt.Errorf("workload %s: CodeSegments must be a power of two", p.Name)
	}
	return nil
}

// MustGenerate is Generate for known-good (package-internal) profiles.
func MustGenerate(p Profile) *Workload {
	w, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return w
}

// Load installs the program and seeds the data regions: the chase ring is a
// random cycle through the cold region so dependent chases visit every node.
func (w *Workload) Load(m *isa.FlatMem) {
	w.Prog.Load(m)
	// Segment dispatch table (segmented kernels only).
	for seg := 0; seg < w.Profile.CodeSegments; seg++ {
		if addr, ok := w.Prog.Symbols[asm.Label(fmt.Sprintf("seg%d", seg))]; ok {
			m.Write(segTable+uint64(seg)*8, 8, addr)
		}
	}
	// Seed a pointer ring through the cold region at 4KB spacing (the exact
	// granularity matters less than it being a single full-length cycle).
	// One word per page: Seed keeps the pages non-resident until a store
	// touches them, so a run pays only for the cold pages it writes.
	const step = 4096
	n := w.Profile.ColdBytes / step
	if n > 4096 {
		n = 4096
	}
	if n > 1 {
		rng := rand.New(rand.NewSource(int64(len(w.Profile.Name)) * 7919))
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			from := w.coldBase + uint64(perm[i])*step
			to := w.coldBase + uint64(perm[(i+1)%n])*step
			m.Seed(from, to)
		}
	}
	// Pseudo-random hot data: indirect addressing reads these as indices,
	// so every line carries a distinct, well-spread value.
	rng2 := rand.New(rand.NewSource(0x5EED))
	for off := 0; off < w.Profile.HotBytes; off += 64 {
		m.Write(w.hotBase+uint64(off), 8, rng2.Uint64())
	}
}

// Names lists the benchmark names in Table V order.
func Names() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Profiles returns the 22 SPEC-named profiles in Table V order. The knob
// assignments are derived from the paper's per-benchmark measurements (L1
// hit rate, S-Pattern mismatch rate, branch behaviour described in §VI.C).
// The slice is the caller's own copy.
func Profiles() []Profile { return slices.Clone(profiles()) }

// profiles is the profile table, built once and never modified: ByName
// runs for every profile of every suite a job submits.
var profiles = sync.OnceValue(profileTable)

func profileTable() []Profile {
	kb := func(n int) int { return n * 1024 }
	mb := func(n int) int { return n * 1024 * 1024 }
	ps := []Profile{
		// astar: path-finding; decent hit rate, notoriously bad branches.
		{Name: "astar", HotFrac: 0.95, HotBytes: kb(32), ColdBytes: mb(16),
			ColdPattern: ColdSeq, ColdStride: 192, StoreFrac: 0.2,
			MemBlocks: 6, FillerALU: 1, ChainDepth: 2, NoisyBranches: 1,
			PredictableBranches: 4, PhaseLen: 4, LaggardEvery: 8, IndirectFrac: 0.4, LoadBranchFrac: 1,
			PaperL1HitRate: 0.944},
		// bwaves: dense FP stencils; streaming misses hop pages.
		{Name: "bwaves", HotFrac: 0.84, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdPageHop, StoreFrac: 0.25, MemBlocks: 8,
			FillerALU: 2, ChainDepth: 2, PredictableBranches: 2,
			PhaseLen: 16, LaggardEvery: 0, ColdDepFrac: 0.2, IndirectFrac: 0.5, LoadBranchFrac: 0,
			PaperL1HitRate: 0.813},
		// bzip2: compression; hot tables, few cold misses, mild noise.
		{Name: "bzip2", HotFrac: 0.975, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdRandom, StoreFrac: 0.3, MemBlocks: 6,
			FillerALU: 2, ChainDepth: 1, NoisyBranches: 1, PredictableBranches: 3,
			LaggardEvery: 4, IndirectFrac: 0.5, LoadBranchFrac: 1,
			PaperL1HitRate: 0.967},
		// dealII: FE library; very hot, misses page-local.
		{Name: "dealII", HotFrac: 0.982, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 256, StoreFrac: 0.2, MemBlocks: 6,
			FillerALU: 3, ChainDepth: 2, PredictableBranches: 2,
			PhaseLen: 4, LaggardEvery: 16, IndirectFrac: 0.2, LoadBranchFrac: 0,
			PaperL1HitRate: 0.973},
		// gamess: quantum chemistry; compute-heavy, hot.
		{Name: "gamess", HotFrac: 0.97, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 320, StoreFrac: 0.15, MemBlocks: 5,
			FillerALU: 4, ChainDepth: 3, PredictableBranches: 1,
			LaggardEvery: 8, IndirectFrac: 0.4, LoadBranchFrac: 0,
			PaperL1HitRate: 0.960},
		// gcc: compiler; hot with scattered cold pointers, branchy.
		{Name: "gcc", HotFrac: 0.972, HotBytes: kb(32), ColdBytes: mb(16),
			ColdPattern: ColdSeq, ColdStride: 512, StoreFrac: 0.25,
			MemBlocks: 6, FillerALU: 1, ChainDepth: 1, NoisyBranches: 2,
			PredictableBranches: 4, PhaseLen: 4, LaggardEvery: 16, IndirectFrac: 0.25, LoadBranchFrac: 1,
			PaperL1HitRate: 0.962},
		// GemsFDTD: FDTD stencil; near-perfect locality.
		{Name: "GemsFDTD", HotFrac: 0.999, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 64, StoreFrac: 0.3, MemBlocks: 8,
			FillerALU: 2, ChainDepth: 2, PredictableBranches: 1,
			LaggardEvery: 8, IndirectFrac: 0.4, LoadBranchFrac: 0,
			PaperL1HitRate: 0.999},
		// gobmk: go-playing; branch-dominated, misses page-local.
		{Name: "gobmk", HotFrac: 0.962, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 96, StoreFrac: 0.2, MemBlocks: 4,
			FillerALU: 1, ChainDepth: 1, NoisyBranches: 2, PredictableBranches: 3,
			LaggardEvery: 16, IndirectFrac: 0.3, LoadBranchFrac: 1,
			PaperL1HitRate: 0.953},
		// gromacs: molecular dynamics.
		{Name: "gromacs", HotFrac: 0.95, HotBytes: kb(32), ColdBytes: mb(16),
			ColdPattern: ColdSeq, ColdStride: 160, StoreFrac: 0.2, MemBlocks: 6,
			FillerALU: 3, ChainDepth: 2, PredictableBranches: 1,
			PhaseLen: 8, LaggardEvery: 8, IndirectFrac: 0.5, LoadBranchFrac: 0,
			PaperL1HitRate: 0.938},
		// h264ref: video encode; hot, misses strongly page-local.
		{Name: "h264ref", HotFrac: 0.996, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 64, StoreFrac: 0.3, MemBlocks: 7,
			FillerALU: 2, ChainDepth: 1, NoisyBranches: 1, PredictableBranches: 4,
			LaggardEvery: 16, IndirectFrac: 0.3, LoadBranchFrac: 1,
			PaperL1HitRate: 0.991},
		// hmmer: profile HMM; hot tables, page-hopping rare misses.
		{Name: "hmmer", HotFrac: 0.99, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdPageHop, StoreFrac: 0.25, MemBlocks: 7,
			FillerALU: 2, ChainDepth: 2, PredictableBranches: 1,
			PhaseLen: 8, LaggardEvery: 1, LaggardChain: 40, IndirectFrac: 0.8, LoadBranchFrac: 0,
			PaperL1HitRate: 0.979},
		// lbm: lattice Boltzmann; pure streaming — its L1 hits are SPATIAL
		// locality within the streamed pages themselves (stride << line), so
		// suspect misses only ever see same-page neighbours: the highest
		// S-Pattern mismatch of the suite, the benchmark TPBuf rescues.
		{Name: "lbm", HotFrac: 0.02, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdSeq, ColdStride: 24, StoreFrac: 0.45, MemBlocks: 10,
			FillerALU: 1, ChainDepth: 1, PredictableBranches: 1,
			PhaseLen: 16, LaggardEvery: 0, ColdDepFrac: 0.3, IndirectFrac: 0, LoadBranchFrac: 0,
			PaperL1HitRate: 0.618},
		// leslie3d: CFD.
		{Name: "leslie3d", HotFrac: 0.963, HotBytes: kb(32), ColdBytes: mb(16),
			ColdPattern: ColdSeq, ColdStride: 128, StoreFrac: 0.3, MemBlocks: 7,
			FillerALU: 2, ChainDepth: 2, PredictableBranches: 1,
			PhaseLen: 8, LaggardEvery: 8, IndirectFrac: 0.4, LoadBranchFrac: 0,
			PaperL1HitRate: 0.951},
		// libquantum: quantum simulation; streaming but page-hopping misses.
		{Name: "libquantum", HotFrac: 0.90, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdPageHop, StoreFrac: 0.3, MemBlocks: 8,
			FillerALU: 1, ChainDepth: 1, PredictableBranches: 1,
			PhaseLen: 16, LaggardEvery: 4, IndirectFrac: 0.25, LoadBranchFrac: 0,
			PaperL1HitRate: 0.796},
		// mcf: network simplex; pointer chasing over a huge graph.
		{Name: "mcf", HotFrac: 0.89, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdSeq, ColdStride: 224, ChaseFrac: 0.15, StoreFrac: 0.15,
			MemBlocks: 7, FillerALU: 1, ChainDepth: 1, NoisyBranches: 1,
			PredictableBranches: 3, PhaseLen: 8, LaggardEvery: 16, IndirectFrac: 0.2, LoadBranchFrac: 1,
			PaperL1HitRate: 0.739},
		// milc: lattice QCD; random-ish cold traffic.
		{Name: "milc", HotFrac: 0.62, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdRandom, StoreFrac: 0.3, MemBlocks: 8,
			FillerALU: 2, ChainDepth: 2, PredictableBranches: 1,
			PhaseLen: 16, LaggardEvery: 4, ColdDepFrac: 0, IndirectFrac: 0.3, LoadBranchFrac: 0,
			PaperL1HitRate: 0.662},
		// namd: molecular dynamics; very hot.
		{Name: "namd", HotFrac: 0.986, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 128, StoreFrac: 0.2, MemBlocks: 6,
			FillerALU: 4, ChainDepth: 2, PredictableBranches: 1,
			LaggardEvery: 8, IndirectFrac: 0.4, LoadBranchFrac: 0,
			PaperL1HitRate: 0.975},
		// omnetpp: discrete event simulation; pointer-heavy, page-hopping.
		{Name: "omnetpp", HotFrac: 0.95, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdPageHop, StoreFrac: 0.3,
			MemBlocks: 6, FillerALU: 1, ChainDepth: 1, NoisyBranches: 1,
			PredictableBranches: 3, PhaseLen: 8, LaggardEvery: 16, IndirectFrac: 0.5, LoadBranchFrac: 1,
			PaperL1HitRate: 0.929},
		// sjeng: chess; hot, branch-noisy.
		{Name: "sjeng", HotFrac: 0.997, HotBytes: kb(32), ColdBytes: mb(8),
			ColdPattern: ColdSeq, ColdStride: 96, StoreFrac: 0.2, MemBlocks: 5,
			FillerALU: 2, ChainDepth: 1, NoisyBranches: 2, PredictableBranches: 4,
			LaggardEvery: 16, IndirectFrac: 0.3, LoadBranchFrac: 1,
			PaperL1HitRate: 0.994},
		// soplex: LP solver; sparse matrices, page-hopping misses.
		{Name: "soplex", HotFrac: 0.92, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdPageHop, StoreFrac: 0.2, MemBlocks: 7,
			FillerALU: 2, ChainDepth: 2, NoisyBranches: 1, PredictableBranches: 3,
			PhaseLen: 8, IndirectFrac: 0, LoadBranchFrac: 0,
			PaperL1HitRate: 0.849},
		// sphinx3: speech recognition.
		{Name: "sphinx3", HotFrac: 0.99, HotBytes: kb(32), ColdBytes: mb(16),
			ColdPattern: ColdSeq, ColdStride: 256, StoreFrac: 0.2, MemBlocks: 6,
			FillerALU: 2, ChainDepth: 2, NoisyBranches: 1, PredictableBranches: 4,
			LaggardEvery: 8, IndirectFrac: 0.5, LoadBranchFrac: 1,
			PaperL1HitRate: 0.979},
		// zeusmp: astrophysics CFD; like lbm a streaming code whose hits are
		// spatial locality inside the streams (larger stride: worse hit
		// rate, moderate S-Pattern mismatch).
		{Name: "zeusmp", HotFrac: 0.02, HotBytes: kb(32), ColdBytes: mb(32),
			ColdPattern: ColdSeq, ColdStride: 30, StoreFrac: 0.35, MemBlocks: 9,
			FillerALU: 1, ChainDepth: 1, PredictableBranches: 1,
			PhaseLen: 8, LaggardEvery: 0, ColdDepFrac: 0.25, IndirectFrac: 0, LoadBranchFrac: 0,
			PaperL1HitRate: 0.553},
	}
	return ps
}

// ICacheStress returns a kernel whose CODE working set exceeds a 64KB L1
// instruction cache: 32 replicated body segments dispatched through an
// indirect jump, each padded to ~3KB. Fetch misses are frequent, and with
// load-dependent branches in flight they are exactly the "unsafe NPC"
// events the §VII.B ICache-hit filter stalls on. It is not part of the 22
// SPEC-shaped profiles; the ICache experiment adds it explicitly.
func ICacheStress() Profile {
	return Profile{
		Name:        "icache-stress",
		HotFrac:     0.97,
		HotBytes:    32 * 1024,
		ColdBytes:   8 * 1024 * 1024,
		ColdPattern: ColdSeq, ColdStride: 256,
		StoreFrac: 0.2, MemBlocks: 5, FillerALU: 1, ChainDepth: 1,
		NoisyBranches: 2, LoadBranchFrac: 1, PredictableBranches: 1,
		LaggardEvery: 8, IndirectFrac: 0.3,
		CodeSegments: 32, SegmentPadding: 330,
		PaperL1HitRate: 0.97,
	}
}
