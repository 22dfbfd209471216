package core

import (
	"strings"
	"testing"
)

// TestDefenseRegistry pins the registry's public contract: the paper
// variants and the comparison backends are registered under their canonical
// names, in registry order, with the documented aliases.
func TestDefenseRegistry(t *testing.T) {
	want := []string{"origin", "baseline", "cachehit", "cachehit+tpbuf",
		"ssbd", "fence", "delay-on-miss", "invisispec"}
	got := DefenseNames()
	if len(got) != len(want) {
		t.Fatalf("DefenseNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefenseNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Defenses()) != len(want) {
		t.Fatalf("Defenses() has %d entries, want %d", len(Defenses()), len(want))
	}
	// Names and aliases share one namespace; a key reused by two rows
	// would make LookupDefense silently return the first.
	seen := map[string]string{}
	for _, d := range Defenses() {
		for _, k := range append([]string{d.Name()}, d.aliases...) {
			if prev, dup := seen[k]; dup {
				t.Errorf("key %q names both %s and %s", k, prev, d.Name())
			}
			seen[k] = d.Name()
		}
	}
}

// TestLookupDefense covers canonical names, aliases, normalization, and the
// unknown-name error that lists the registry contents.
func TestLookupDefense(t *testing.T) {
	for alias, canon := range map[string]string{
		"origin":         "origin",
		"tpbuf":          "cachehit+tpbuf",
		"cachehit-tpbuf": "cachehit+tpbuf",
		"cache-hit":      "cachehit",
		"lfence":         "fence",
		"dom":            "delay-on-miss",
		"delayonmiss":    "delay-on-miss",
		"invisi":         "invisispec",
		"  CacheHit  ":   "cachehit", // trimmed, case-insensitive
	} {
		d, err := LookupDefense(alias)
		if err != nil {
			t.Errorf("LookupDefense(%q): %v", alias, err)
			continue
		}
		if d.Name() != canon {
			t.Errorf("LookupDefense(%q) = %q, want %q", alias, d.Name(), canon)
		}
	}

	_, err := LookupDefense("nope")
	if err == nil {
		t.Fatal("unknown defense must be rejected")
	}
	for _, name := range DefenseNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-defense error does not list %q: %v", name, err)
		}
	}
}

// TestDefenseAliases checks every alias resolves to its own row and that
// the shared -mech help text lists it.
func TestDefenseAliases(t *testing.T) {
	usage := DefenseUsage()
	n := 0
	for _, d := range Defenses() {
		for _, a := range d.aliases {
			n++
			got, err := LookupDefense(a)
			if err != nil {
				t.Fatalf("alias %q does not resolve: %v", a, err)
			}
			if got.Name() != d.Name() {
				t.Errorf("alias %q -> %q, row says %q", a, got.Name(), d.Name())
			}
			if !strings.Contains(usage, a) {
				t.Errorf("usage %q does not list alias %q", usage, a)
			}
		}
	}
	if n == 0 {
		t.Fatal("no aliases registered")
	}
}

// TestHooksMatchReference pins, as a literal table, the hook set each
// registry row carries. The paper variants' rows are the truth values the
// inline Mechanism predicates produced before the registry existed; a row
// that drifts from them is named here, hook by hook, rather than surfacing
// as a stats diff. The pipeline's TestDefenseHooksGolden checks that the
// CPU runs under exactly these hooks.
func TestHooksMatchReference(t *testing.T) {
	ref := map[string]Hooks{
		"origin":         {},
		"baseline":       {TracksDependence: true, BlockAtIssue: true},
		"cachehit":       {TracksDependence: true, CacheHitFilter: true},
		"cachehit+tpbuf": {TracksDependence: true, CacheHitFilter: true, TPBufFilter: true},
		"invisispec":     {InvisibleLoads: true},
		"ssbd":           {},
		"fence":          {SerializeBranches: true},
		"delay-on-miss":  {TracksDependence: true, CacheHitFilter: true, DelayOnMiss: true},
	}
	if len(ref) != len(Defenses()) {
		t.Fatalf("reference table has %d rows, registry %d", len(ref), len(Defenses()))
	}
	for name, want := range ref {
		d, err := LookupDefense(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Hooks() != want {
			t.Errorf("%s: registry hooks %+v != reference %+v", name, d.Hooks(), want)
		}
	}
}

// TestDefenseFor covers the lookup by run-key identity: SSBD on Origin's
// mechanism is its own row, SSBD on any other mechanism falls back to that
// mechanism's row, and a constant without a row is reported.
func TestDefenseFor(t *testing.T) {
	for _, d := range Defenses() {
		got, ok := DefenseFor(d.Mechanism(), d.SSBD())
		if !ok || got.Name() != d.Name() {
			t.Errorf("DefenseFor(%d, %v) = %q, %v; want %q", d.Mechanism(), d.SSBD(), got.Name(), ok, d.Name())
		}
	}
	if got, ok := DefenseFor(CacheHitTPBuf, true); !ok || got.Name() != "cachehit+tpbuf" {
		t.Errorf("DefenseFor(CacheHitTPBuf, ssbd) = %q, %v; want cachehit+tpbuf", got.Name(), ok)
	}
	if _, ok := DefenseFor(Mechanism(99), false); ok {
		t.Error("a mechanism without a row must not resolve")
	}
	if s := Mechanism(99).String(); s != "mechanism(?)" {
		t.Errorf("Mechanism(99).String() = %q", s)
	}
}

// TestDefenseTitles pins the display names tables and attack verdicts use,
// and the channel classes each backend is expected to close: the paper's
// Table IV for the four variants (TPBuf leaves the same-page receivers
// open), extended with the comparison backends. SSBD and origin close no
// branch-speculation channel.
func TestDefenseTitles(t *testing.T) {
	for name, want := range map[string]struct {
		title            string
		shared, samePage bool
	}{
		"origin":         {"Origin", false, false},
		"baseline":       {"Baseline", true, true},
		"cachehit":       {"Cache-hit Filter", true, true},
		"cachehit+tpbuf": {"Cache-hit Filter + TPBuf Filter", true, false},
		"ssbd":           {"SSBD (store bypass disable)", false, false},
		"fence":          {"LFENCE-after-branch", true, true},
		"delay-on-miss":  {"Delay-on-Miss", true, true},
		"invisispec":     {"InvisiSpec-like (comparator)", true, true},
	} {
		d, err := LookupDefense(name)
		if err != nil {
			t.Fatalf("LookupDefense(%q): %v", name, err)
		}
		if d.Title() != want.title {
			t.Errorf("%s: Title() = %q, want %q", name, d.Title(), want.title)
		}
		if !d.SSBD() && d.Mechanism().String() != want.title {
			t.Errorf("%s: Mechanism().String() = %q, want the title %q", name, d.Mechanism(), want.title)
		}
		if d.Closes(true) != want.shared || d.Closes(false) != want.samePage {
			t.Errorf("%s: closes shared=%v same-page=%v, want %v/%v",
				name, d.Closes(true), d.Closes(false), want.shared, want.samePage)
		}
	}
}
