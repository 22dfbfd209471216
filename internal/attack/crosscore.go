package attack

import (
	"fmt"

	"conspec/internal/asm"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/pipeline"
)

// Cross-core attack layout: attacker and victim are SEPARATE PROGRAMS on
// separate cores sharing L2/L3 (pipeline.Duo). They communicate only
// through a mailbox word — the IPC a real service would expose — and the
// shared probe region that makes the Flush+Reload channel possible.
const (
	victimCodeBase = 0x2_0000
	mailboxAddr    = 0x78_0000
)

// CrossCoreOutcome extends Outcome with duo-level cycle counts.
type CrossCoreOutcome struct {
	Outcome
	VictimMechanism string
	DuoCycles       uint64
}

// buildCrossCoreVictim emits the victim service: an infinite mailbox loop
// that calls the classic V1 gadget with the request's argument. Only the
// victim's own requests train its branch predictor — the attacker can only
// choose WHAT requests to send, exactly the paper's cross-process setting.
func buildCrossCoreVictim() *asm.Program {
	b := asm.New()
	b.Li64(rA1, array1Addr)
	b.Li64(rA2, array2Addr)
	b.Li64(rBound, boundAddr)
	b.Li64(asm.S4, mailboxAddr)
	b.Bind("serve")
	b.Ld(asm.A0, asm.S4, 0)
	b.Beq(asm.A0, asm.Zero, "serve") // poll for a request
	b.Addi(asm.A0, asm.A0, -1)       // request value = x+1
	emitGHRNormalize(b, "vic")
	b.Jal(asm.RA, "gadget")
	b.St(asm.Zero, asm.S4, 0) // ack: mailbox = 0
	b.Jmp("serve")
	emitV1Gadget(b, pageShift)
	return b.MustAssemble(victimCodeBase)
}

// buildCrossCoreAttacker emits the client: per secret byte it sends benign
// requests (training the victim's predictor from across the core boundary
// through the victim's OWN execution), opens the window with global
// CLFLUSHes, sends the out-of-bounds request, and reads the shared-L2
// Flush+Reload channel.
func buildCrossCoreAttacker() *asm.Program {
	b := asm.New()
	b.Jmp("main")
	b.Bind("main")
	emitProloguePointers(b, array2Addr)
	b.Li64(asm.S4, mailboxAddr)

	// request sends value in T6 and spin-waits for the ack.
	emitRequest := func(id string) {
		spin := asm.Label("spin_" + id)
		b.St(asm.T6, asm.S4, 0)
		b.Bind(spin)
		b.Ld(asm.T5, asm.S4, 0)
		b.Bne(asm.T5, asm.Zero, spin)
	}

	emitOuterLoop(b, len(defaultSecret), func() {
		for i := 0; i < 4; i++ { // benign requests: x = 0
			b.Li(asm.T6, 1)
			emitRequest(fmt.Sprintf("b%d", i))
		}
		emitFlushTransmission(b, "xc", pageShift)
		emitFlushBound(b) // global: the victim's next bound load misses
		b.Add(asm.T6, rDelta, rByteIdx)
		b.Addi(asm.T6, asm.T6, 1) // evil request: x = secret offset
		emitRequest("evil")
		emitProbeFlushReload(b, "xc", pageShift)
		emitStoreResult(b)
	})
	return b.MustAssemble(codeBase)
}

// RunCrossCore runs the two-program attack with the VICTIM's core under the
// given mechanism (the attacker always runs unprotected — defenses protect
// the defended party only).
func RunCrossCore(cfg config.Core, victim core.Mechanism) CrossCoreOutcome {
	attackerProg := buildCrossCoreAttacker()
	victimProg := buildCrossCoreVictim()

	backing := isa.NewFlatMem()
	attackerProg.Load(backing)
	victimProg.Load(backing)
	seedCommon(defaultSecret)(backing)

	duo := pipeline.NewDuo(cfg,
		pipeline.SecurityConfig{Mechanism: core.Origin},
		pipeline.SecurityConfig{Mechanism: victim},
		backing)
	// The victim has used its secret recently: warm it in the VICTIM's L1.
	duo.B.Hierarchy().AccessData(secretAddr, false)
	duo.A.SetPC(attackerProg.Base)
	duo.B.SetPC(victimProg.Base)

	cycles := duo.Run(120_000_000, func(d *pipeline.Duo) bool { return d.A.Halted() })
	if !duo.A.Halted() {
		panic("attack: cross-core attacker did not finish")
	}

	recovered := make([]byte, len(defaultSecret))
	correct := 0
	for i := range defaultSecret {
		recovered[i] = backing.ByteAt(resultAddr + uint64(i))
		if recovered[i] == defaultSecret[i] {
			correct++
		}
	}
	def, _ := core.DefenseFor(victim, false) // NewDuo panics on a mechanism without a row
	return CrossCoreOutcome{
		Outcome: Outcome{
			Scenario:     "cross-core-v1/flush+reload",
			Defense:      def,
			SharedMemory: true,
			Recovered:    recovered,
			Secret:       append([]byte(nil), defaultSecret...),
			Correct:      correct,
			Leaked:       correct*2 >= len(defaultSecret),
			Cycles:       cycles,
		},
		VictimMechanism: def.Title(),
		DuoCycles:       cycles,
	}
}
