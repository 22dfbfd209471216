package attack

import (
	"strings"
	"testing"

	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/mem"
	"conspec/internal/pipeline"
)

// attackCore shrinks the outer cache levels so runs stay fast while keeping
// the L1D geometry (which the set-granular receivers depend on) identical
// to the paper configuration.
func attackCore() config.Core {
	c := config.PaperCore()
	c.Mem.L2Size = 256 * 1024
	c.Mem.L3Size = 1024 * 1024
	return c
}

func runScenario(t *testing.T, h *Harness, m core.Mechanism) Outcome {
	t.Helper()
	return h.Run(attackCore(), pipeline.SecurityConfig{Mechanism: m})
}

// TestV1FlushReloadLeaksOnOrigin is the foundational sanity check: the
// attack must actually work on the unprotected machine.
func TestV1FlushReloadLeaksOnOrigin(t *testing.T) {
	o := runScenario(t, V1FlushReload(attackCore()), core.Origin)
	if o.Correct != len(o.Secret) {
		t.Fatalf("V1 F+R on Origin recovered %d/%d bytes: %x vs %x",
			o.Correct, len(o.Secret), o.Recovered, o.Secret)
	}
}

// TestTableIV regenerates the paper's Table IV: every scenario under every
// mechanism, compared against the published ✓/✗ matrix.
func TestTableIV(t *testing.T) {
	cfg := attackCore()
	for _, h := range Scenarios(cfg) {
		for _, m := range core.Mechanisms {
			o := h.Run(cfg, pipeline.SecurityConfig{Mechanism: m})
			d, _ := core.DefenseFor(m, false)
			wantDefended := d.Closes(h.SharedMemory)
			if o.Leaked == wantDefended {
				t.Errorf("%s under %v: leaked=%v (recovered %x, secret %x), Table IV expects defended=%v",
					h.Name, m, o.Leaked, o.Recovered, o.Secret, wantDefended)
			}
		}
	}
}

// TestOutcomeLabels checks an outcome is titled by its defense row: SSBD
// rides on Origin's mechanism but is labelled as itself, and the paper
// variants keep the titles Table IV prints.
func TestOutcomeLabels(t *testing.T) {
	cfg := attackCore()
	h := V4FlushReload(cfg)
	for name, want := range map[string]string{
		"ssbd":           "SSBD (store bypass disable)",
		"origin":         "Origin",
		"baseline":       "Baseline",
		"cachehit":       "Cache-hit Filter",
		"cachehit+tpbuf": "Cache-hit Filter + TPBuf Filter",
	} {
		d, err := core.LookupDefense(name)
		if err != nil {
			t.Fatal(err)
		}
		o := h.Run(cfg, pipeline.SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()})
		if got := o.Defense.Title(); got != want {
			t.Errorf("%s: outcome titled %q, want %q", name, got, want)
		}
		if !strings.Contains(o.String(), want) {
			t.Errorf("%s: outcome line %q does not carry %q", name, o.String(), want)
		}
	}
}

func TestScenarioMetadata(t *testing.T) {
	cfg := attackCore()
	ss := Scenarios(cfg)
	if len(ss) != 10 {
		t.Fatalf("expected 10 scenarios, got %d", len(ss))
	}
	classes := map[string]bool{}
	for _, h := range ss {
		if h.Name == "" || h.Class == "" || h.Variant == "" {
			t.Errorf("incomplete metadata: %+v", h)
		}
		classes[h.Class] = true
	}
	for _, c := range []string{ClassFlushReloadShared, ClassFlushFlushShared,
		ClassEvictReloadShared, ClassPrimeProbeShared,
		ClassPrimeProbePrivate, ClassEvictTimePrivate} {
		if !classes[c] {
			t.Errorf("Table IV class %q not covered", c)
		}
	}
	if _, ok := ByName(cfg, "spectre-v1/flush+reload"); !ok {
		t.Error("ByName lookup failed")
	}
	if _, ok := ByName(cfg, "no-such"); ok {
		t.Error("ByName must reject unknown scenarios")
	}
}

// TestScenarioNames: every listed name is the Name its builder gives the
// harness, so ByName builds the scenario it was asked for and Scenarios
// comes out in ScenarioNames order.
func TestScenarioNames(t *testing.T) {
	cfg := attackCore()
	names := ScenarioNames()
	for i, h := range Scenarios(cfg) {
		if h.Name != names[i] {
			t.Errorf("scenario %d is named %q, listed as %q", i, h.Name, names[i])
		}
		if b, ok := ByName(cfg, names[i]); !ok {
			t.Errorf("ByName(%q) found nothing", names[i])
		} else if b.Name != names[i] {
			t.Errorf("ByName(%q) built %q", names[i], b.Name)
		}
	}
}

func TestSecretValuesValid(t *testing.T) {
	for i, s := range defaultSecret {
		if s == 0 || int(s) >= probeEntries {
			t.Errorf("secret[%d]=%#x outside (0,%d)", i, s, probeEntries)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Scenario: "x", Secret: []byte{1, 2}, Correct: 2, Leaked: true}
	if s := o.String(); s == "" {
		t.Fatal("empty outcome string")
	}
	o.Leaked = false
	if s := o.String(); s == "" {
		t.Fatal("empty outcome string")
	}
}

// TestLRUSideChannel reproduces §VII.A's motivation end to end: suspect
// HITS leak through replacement metadata under the conventional update
// policy — a channel the cache-content filters cannot see — and the
// paper's no-update policy closes it. Delayed-update also defends: the
// speculative hit is squashed, so its deferred touch never commits.
func TestLRUSideChannel(t *testing.T) {
	h := LRUSideChannel(attackCore())
	for _, tc := range []struct {
		policy mem.UpdatePolicy
		leak   bool
	}{
		{mem.UpdateAlways, true},
		{mem.UpdateNoSpec, false},
		{mem.UpdateDelayed, false},
	} {
		cfg := attackCore()
		cfg.Mem.L1DUpdate = tc.policy
		o := h.Run(cfg, pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf})
		if o.Leaked != tc.leak {
			t.Errorf("policy %v: leaked=%v (recovered %x vs %x), want leaked=%v",
				tc.policy, o.Leaked, o.Recovered, o.Secret, tc.leak)
		}
	}
}

// TestInvisiSpecDefendsEverything: the related-work comparator hides all
// speculative refills, so every scenario — including the two non-shared
// rows that escape TPBuf, and the LRU replacement-state channel — must be
// defended.
func TestInvisiSpecDefendsEverything(t *testing.T) {
	cfg := attackCore()
	for _, h := range Scenarios(cfg) {
		o := h.Run(cfg, pipeline.SecurityConfig{Mechanism: core.InvisiSpec})
		if o.Leaked {
			t.Errorf("%s leaked under InvisiSpec: recovered %x", h.Name, o.Recovered)
		}
	}
	o := LRUSideChannel(cfg).Run(cfg, pipeline.SecurityConfig{Mechanism: core.InvisiSpec})
	if o.Leaked {
		t.Errorf("LRU channel leaked under InvisiSpec: recovered %x", o.Recovered)
	}
}

// TestStoreSetsMitigateNaiveV4: with the memory-dependence predictor on,
// the V4 PoC's second pass finds its load refusing to speculate past the
// trained store, so the two-pass attack recovers noise even on an
// otherwise-unprotected core. (Real V4 attacks must also defeat the
// predictor; the naive PoC does not.)
func TestStoreSetsMitigateNaiveV4(t *testing.T) {
	cfg := attackCore()
	cfg.StoreSets = true
	o := V4FlushReload(cfg).Run(cfg, pipeline.SecurityConfig{Mechanism: core.Origin})
	if o.Leaked {
		t.Errorf("store sets should break the naive V4 PoC, recovered %x", o.Recovered)
	}
}

// TestCrossCore runs the full two-core, two-program attack: the attacker
// process on core A leaks the victim service's secret through the shared
// L2 when the victim core is unprotected, and fails when the victim runs
// any Conditional Speculation mechanism.
func TestCrossCore(t *testing.T) {
	cfg := attackCore()
	for _, m := range core.Mechanisms {
		o := RunCrossCore(cfg, m)
		wantLeak := m == core.Origin
		if o.Leaked != wantLeak {
			t.Errorf("victim %v: leaked=%v (recovered %x vs %x), want %v",
				m, o.Leaked, o.Recovered, o.Secret, wantLeak)
		}
	}
}

// TestDTLBChannelAndFilter is the finding-to-fix arc: a raw-timing receiver
// leaks through DTLB refills even when every cache refill is blocked
// (CacheHit and TPBuf translate before discarding); Baseline never issues
// the access so it defends; and the DTLB-hit filter extension closes the
// channel for the filter mechanisms.
func TestDTLBChannelAndFilter(t *testing.T) {
	cfg := attackCore()
	h := V1TLBChannel(cfg)
	// Plain CacheHit is omitted from the leak assertions: its own blocking
	// of the probe loads (no TPBuf rescue) adds enough timing noise to mask
	// the 30-cycle walk signal — an empirical observation, not a defense
	// guarantee.
	cases := []struct {
		mech   core.Mechanism
		dtlb   bool
		leaked bool
	}{
		{core.Origin, false, true},
		{core.Baseline, false, false},
		{core.CacheHitTPBuf, false, true}, // TLB refilled despite the discard
		{core.CacheHit, true, false},      // DTLB-hit filter closes it
		{core.CacheHitTPBuf, true, false},
	}
	for _, tc := range cases {
		o := h.Run(cfg, pipeline.SecurityConfig{Mechanism: tc.mech, DTLBFilter: tc.dtlb})
		if o.Leaked != tc.leaked {
			t.Errorf("%v dtlbFilter=%v: leaked=%v (recovered %x), want %v",
				tc.mech, tc.dtlb, o.Leaked, o.Recovered, tc.leaked)
		}
	}
}

// TestTPBufVariantsStillDefend: both ablation variants are at least as
// strict as the paper's matcher on the shared-memory attack, and the
// line-granular variant still defends it too.
func TestTPBufVariantsStillDefend(t *testing.T) {
	cfg := attackCore()
	h := V1FlushReload(cfg)
	for _, v := range []core.TPBufVariant{core.VariantNoW, core.VariantLine} {
		o := h.Run(cfg, pipeline.SecurityConfig{
			Mechanism: core.CacheHitTPBuf, TPBufVariant: v})
		if o.Leaked {
			t.Errorf("variant %v leaked: %x", v, o.Recovered)
		}
	}
}

// TestSSBDStopsV4: the speculative-store-bypass-disable mitigation (§VIII)
// kills V4 on an otherwise unprotected core, and V1 remains exploitable —
// SSBD addresses exactly one variant.
func TestSSBDStopsV4(t *testing.T) {
	cfg := attackCore()
	o := V4FlushReload(cfg).Run(cfg, pipeline.SecurityConfig{Mechanism: core.Origin, SSBD: true})
	if o.Leaked {
		t.Errorf("SSBD must stop V4, recovered %x", o.Recovered)
	}
	o = V1FlushReload(cfg).Run(cfg, pipeline.SecurityConfig{Mechanism: core.Origin, SSBD: true})
	if !o.Leaked {
		t.Error("SSBD must NOT stop V1 (it is a V4-only mitigation)")
	}
}
