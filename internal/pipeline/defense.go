package pipeline

import (
	"fmt"
	"strings"

	"conspec/internal/core"
)

// This file is the pipeline's only bridge between the Mechanism enum in
// SecurityConfig and defense behavior: resolveHooks turns the enum into the
// precomputed core.Hooks flag struct the cycle loop reads. No other file in
// this package may name a concrete mechanism constant —
// scripts/lint_defense.sh enforces it — so adding a defense backend means
// adding its row to internal/core's registry and implementing any new hook
// here and at the hook sites, never editing mechanism switches scattered
// through the stages.
//
// SecurityConfig deliberately carries the enum rather than a core.Defense:
// the experiment layer's memo run key hashes SecurityConfig verbatim, so
// the struct must stay a flat value type with a stable format. The enum is
// the run-key identity; Hooks is the behavior it compiles to.

// resolveHooks maps sec's run-key identity (Mechanism, SSBD) to its pipeline
// contract via the defense registry. Every Mechanism constant ships with a
// registry row, so a failed lookup is a programmer error (a constant without
// a row), not a user-input error — user-facing name validation happens in
// the CLIs and serve via core.LookupDefense before a SecurityConfig is ever
// built.
func resolveHooks(sec SecurityConfig) core.Hooks {
	d, ok := core.DefenseFor(sec.Mechanism, sec.SSBD)
	if !ok {
		panic(fmt.Sprintf("pipeline: mechanism %d (%s) has no registered defense (registered: %s)",
			uint8(sec.Mechanism), sec.Mechanism, strings.Join(core.DefenseNames(), ", ")))
	}
	return d.Hooks()
}
