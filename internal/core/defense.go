package core

import (
	"fmt"
	"slices"
	"strings"
)

// Hooks is a defense's compiled-down contract with the pipeline: a flat
// struct of booleans the cycle loop reads directly. Copying a backend's
// Hooks into the CPU at construction keeps the steady state at zero
// allocations and zero registry lookups — the pipeline never holds a
// Defense value, only its Hooks.
//
// The hook points, in pipeline order:
//
//   - TracksDependence: maintain the security dependence matrix (suspect
//     tagging at dispatch, row clears at branch resolution/squash). Off for
//     defenses that do not classify loads (origin, fence, invisispec).
//   - SerializeBranches: no instruction younger than an unresolved branch
//     may leave the issue queue (the LFENCE-after-branch model).
//   - BlockAtIssue: suspect memory instructions are held in the issue queue
//     until their dependences clear (the paper's Baseline policy).
//   - CacheHitFilter: suspect loads probe the L1D without refilling; hits
//     proceed (they cannot change cache content, §V.C), misses fall through
//     to the miss policy below.
//   - TPBufFilter: suspect L1D misses consult the Trusted Pages Buffer; a
//     miss that does not complete an S-Pattern may refill (§V.D).
//   - DelayOnMiss: suspect L1D misses (not rescued by the TPBuf) park in
//     place and retry when their row clears, instead of being discarded and
//     re-dispatched through the scheduler.
//   - InvisibleLoads: speculative loads fetch data without refilling any
//     cache level; the visible access replays at commit (InvisiSpec model).
type Hooks struct {
	TracksDependence  bool
	SerializeBranches bool
	BlockAtIssue      bool
	CacheHitFilter    bool
	TPBufFilter       bool
	DelayOnMiss       bool
	InvisibleLoads    bool
}

// Defense is one defense backend: one row of the registry table below. A
// row carries everything the rest of the program knows about a backend —
// its names, its display title, its pipeline hooks, the run-key identity
// (Mechanism, SSBD) the experiment layer caches under, and the channel
// classes it is expected to close — so adding a backend is one Mechanism
// constant plus one row. Rows are immutable values shared by every
// simulation.
type Defense struct {
	name    string
	aliases []string
	title   string
	hooks   Hooks
	mech    Mechanism
	ssbd    bool
	// closesShared and closesSamePage are the Table IV expectation: whether
	// the backend stops a branch-speculation attack whose receiver shares
	// memory with the victim (Flush+Reload and relatives), and one whose
	// receiver only primes or times lines on the secret's page.
	closesShared, closesSamePage bool
}

// Name is the canonical registry key ("cachehit+tpbuf"); every CLI flag and
// JobSpec field resolves through it.
func (d Defense) Name() string { return d.name }

// Title is the display name used in tables and attack verdicts; for the
// paper variants it is also Mechanism().String().
func (d Defense) Title() string { return d.title }

// Hooks returns the pipeline contract (see Hooks).
func (d Defense) Hooks() Hooks { return d.hooks }

// Mechanism is the enum value carried in SecurityConfig — the memo run key
// hashes it, so backends map onto Mechanism constants rather than replacing
// them.
func (d Defense) Mechanism() Mechanism { return d.mech }

// SSBD reports whether the backend also enables Speculative Store Bypass
// Disable (the store-queue watermark).
func (d Defense) SSBD() bool { return d.ssbd }

// Closes reports whether d is expected to defend a branch-speculation
// attack whose receiver shares memory with the victim (sharedMemory) or
// sits on the secret's page without sharing memory (!sharedMemory).
func (d Defense) Closes(sharedMemory bool) bool {
	if sharedMemory {
		return d.closesShared
	}
	return d.closesSamePage
}

// defenses is the registry. Its order is every listing's order: the paper
// variants first, then SSBD, then the comparison points.
var defenses = []Defense{
	// The four paper variants (§VI.A), under the names the CLIs have always
	// accepted; the per-CLI spellings are aliases.

	// Unprotected out-of-order baseline (no defense).
	{name: "origin", title: "Origin", mech: Origin},
	// Block every suspect memory access at issue until dependences clear.
	{name: "baseline", title: "Baseline", mech: Baseline,
		hooks:        Hooks{TracksDependence: true, BlockAtIssue: true},
		closesShared: true, closesSamePage: true},
	// Suspect loads proceed on L1D hits; misses are blocked (§V.C).
	{name: "cachehit", aliases: []string{"cache-hit"}, title: "Cache-hit Filter", mech: CacheHit,
		hooks:        Hooks{TracksDependence: true, CacheHitFilter: true},
		closesShared: true, closesSamePage: true},
	// Cache-hit filter plus Trusted Pages Buffer screening of misses (§V.D).
	// A transmission on the secret's own page completes no S-Pattern, so
	// the TPBuf lets it refill and a same-page receiver still sees it.
	{name: "cachehit+tpbuf", aliases: []string{"tpbuf", "cachehit-tpbuf"},
		title: "Cache-hit Filter + TPBuf Filter", mech: CacheHitTPBuf,
		hooks:        Hooks{TracksDependence: true, CacheHitFilter: true, TPBufFilter: true},
		closesShared: true},
	// Speculative Store Bypass Disable: loads wait for older store
	// addresses. It stops store bypass (V4), not branch speculation. SSBD
	// rides on Origin's mechanism: the store-queue watermark is a
	// SecurityConfig flag, not a Mechanism, so the run key stays
	// {Mechanism: Origin, SSBD: true} — exactly what existing caches hold.
	{name: "ssbd", title: "SSBD (store bypass disable)", mech: Origin, ssbd: true},

	// Comparison points: fence and delay-on-miss stop every branch-
	// speculation channel, and InvisiSpec hides every cache-content channel,
	// shared memory or not.

	// LFENCE after every branch: nothing issues past an unresolved branch.
	{name: "fence", aliases: []string{"lfence"}, title: "LFENCE-after-branch", mech: Fence,
		hooks:        Hooks{SerializeBranches: true},
		closesShared: true, closesSamePage: true},
	// Suspect L1D misses park until their dependences clear (no re-issue).
	{name: "delay-on-miss", aliases: []string{"delayonmiss", "dom"}, title: "Delay-on-Miss", mech: DelayOnMiss,
		hooks:        Hooks{TracksDependence: true, CacheHitFilter: true, DelayOnMiss: true},
		closesShared: true, closesSamePage: true},
	// Speculative loads skip refills; the visible access replays at commit.
	{name: "invisispec", aliases: []string{"invisi"}, title: "InvisiSpec-like (comparator)", mech: InvisiSpec,
		hooks:        Hooks{InvisibleLoads: true},
		closesShared: true, closesSamePage: true},
}

// LookupDefense resolves a canonical name or alias (case-insensitively) to
// its Defense. Unknown names return an error listing the registry contents,
// so every CLI and the serve JobSpec reject typos with the same message.
func LookupDefense(name string) (Defense, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, d := range defenses {
		if d.name == key || slices.Contains(d.aliases, key) {
			return d, nil
		}
	}
	return Defense{}, fmt.Errorf("unknown defense %q (registered: %s)", name, strings.Join(DefenseNames(), ", "))
}

// DefenseFor returns the row a run key names: the backend with mechanism m
// and SSBD flag ssbd, else — SSBD being a flag any mechanism can carry —
// m's own row. It reports false only for a Mechanism constant without a row.
func DefenseFor(m Mechanism, ssbd bool) (Defense, bool) {
	for _, d := range defenses {
		if d.mech == m && d.ssbd == ssbd {
			return d, true
		}
	}
	if ssbd {
		return DefenseFor(m, false)
	}
	return Defense{}, false
}

// Defenses lists the registered backends in registry order.
func Defenses() []Defense {
	return slices.Clone(defenses)
}

// DefenseNames lists the canonical registry keys in registry order.
func DefenseNames() []string {
	names := make([]string, len(defenses))
	for i, d := range defenses {
		names[i] = d.name
	}
	return names
}

// DefenseUsage is the -mech help text the CLIs share: the canonical names,
// then every alias.
func DefenseUsage() string {
	var aliases []string
	for _, d := range defenses {
		aliases = append(aliases, d.aliases...)
	}
	return strings.Join(DefenseNames(), "|") + " (aliases: " + strings.Join(aliases, ", ") + ")"
}
