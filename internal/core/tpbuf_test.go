package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// spatternSetup allocates entry 0 as instruction A (suspect access to the
// secret page) and entry 1 as instruction B (the transmitter), with A's
// result written back — the canonical S-Pattern preamble.
func spatternSetup(t *TPBuf, pageA, pageB uint64) {
	t.Allocate(0)
	t.SetSuspect(0, true)
	t.SetPPN(0, pageA)
	t.SetWriteback(0)
	t.Allocate(1)
	t.SetSuspect(1, true)
	t.SetPPN(1, pageB)
}

func TestSPatternDetected(t *testing.T) {
	b := NewTPBuf(8)
	spatternSetup(b, 0x100, 0x200) // different pages
	if b.QuerySafe(1, 0x200) {
		t.Fatal("S-Pattern (older suspect WB entry on a different page) must be unsafe")
	}
	if b.Stats.Unsafe != 1 {
		t.Fatalf("stats %+v", b.Stats)
	}
}

func TestSamePageIsSafe(t *testing.T) {
	b := NewTPBuf(8)
	spatternSetup(b, 0x100, 0x100) // same page: not an S-Pattern
	if !b.QuerySafe(1, 0x100) {
		t.Fatal("same-page accesses must be safe per Table II")
	}
}

func TestNotWrittenBackIsSafe(t *testing.T) {
	b := NewTPBuf(8)
	b.Allocate(0)
	b.SetSuspect(0, true)
	b.SetPPN(0, 0x100) // V set but W clear: A's data not yet available
	b.Allocate(1)
	if !b.QuerySafe(1, 0x200) {
		t.Fatal("without Writeback status the older entry cannot feed B's address")
	}
}

func TestNonSuspectOlderEntryIsSafe(t *testing.T) {
	b := NewTPBuf(8)
	b.Allocate(0)
	b.SetSuspect(0, false) // A was not speculative
	b.SetPPN(0, 0x100)
	b.SetWriteback(0)
	b.Allocate(1)
	if !b.QuerySafe(1, 0x200) {
		t.Fatal("non-suspect older entries do not form an S-Pattern")
	}
}

func TestInvalidPPNIsSafe(t *testing.T) {
	b := NewTPBuf(8)
	b.Allocate(0)
	b.SetSuspect(0, true)
	b.SetWriteback(0) // W without V: address never translated
	b.Allocate(1)
	if !b.QuerySafe(1, 0x200) {
		t.Fatal("entries without a valid PPN must not match")
	}
}

func TestYoungerEntriesIgnored(t *testing.T) {
	b := NewTPBuf(8)
	b.Allocate(0) // older: the QUERYING instruction
	b.Allocate(1) // younger suspect WB access on another page
	b.SetSuspect(1, true)
	b.SetPPN(1, 0x300)
	b.SetWriteback(1)
	if !b.QuerySafe(0, 0x100) {
		t.Fatal("younger entries must not make an older access unsafe")
	}
}

func TestFreeClearsEntry(t *testing.T) {
	b := NewTPBuf(8)
	spatternSetup(b, 0x100, 0x200)
	b.Free(0) // A commits/squashes
	if !b.QuerySafe(1, 0x200) {
		t.Fatal("freed entries must stop matching")
	}
	a, v, w, s, ppn := b.Entry(0)
	if a || v || w || s || ppn != 0 {
		t.Fatal("Free must clear all bits")
	}
}

func TestMaskSnapshotsProgramOrder(t *testing.T) {
	b := NewTPBuf(4)
	b.Allocate(2)
	b.Allocate(0)
	b.Allocate(3)
	// Allocation order 2,0,3: entry 3 sees 2 and 0 as older; entry 0 sees
	// only 2; entry 2 sees none.
	if !b.Older(3, 2) || !b.Older(3, 0) {
		t.Fatal("entry 3 must see 2 and 0 as older")
	}
	if !b.Older(0, 2) || b.Older(0, 3) {
		t.Fatal("entry 0 must see only 2 as older")
	}
	if b.Older(2, 0) || b.Older(2, 3) {
		t.Fatal("entry 2 is oldest")
	}
}

// TestReallocationClearsStaleMaskBits is the circular-queue corner case:
// slot i is freed and reallocated to a YOUNGER instruction; other entries'
// masks must not keep treating slot i as older.
func TestReallocationClearsStaleMaskBits(t *testing.T) {
	b := NewTPBuf(4)
	b.Allocate(0) // oldest
	b.Allocate(1) // sees 0 as older
	if !b.Older(1, 0) {
		t.Fatal("precondition")
	}
	b.Free(0)
	b.Allocate(0) // slot reused by a younger instruction
	if b.Older(1, 0) {
		t.Fatal("stale mask bit survived reallocation")
	}
	if !b.Older(0, 1) {
		t.Fatal("the new occupant must see entry 1 as older")
	}
	// And the stale-direction hazard: make the reallocated (younger) slot 0
	// a suspect WB access on another page; querying older entry 1 stays safe.
	b.SetSuspect(0, true)
	b.SetPPN(0, 0x900)
	b.SetWriteback(0)
	if !b.QuerySafe(1, 0x100) {
		t.Fatal("younger reallocated entry must not flag an older access")
	}
}

func TestMultipleOlderEntriesAnyMatchBlocks(t *testing.T) {
	b := NewTPBuf(8)
	b.Allocate(0)
	b.SetSuspect(0, false)
	b.SetPPN(0, 0x500)
	b.SetWriteback(0)
	b.Allocate(1)
	b.SetSuspect(1, true)
	b.SetPPN(1, 0x600)
	b.SetWriteback(1)
	b.Allocate(2)
	// Entry 0 is benign, entry 1 is a suspect WB access on another page:
	// reduction-OR means one match suffices.
	if b.QuerySafe(2, 0x700) {
		t.Fatal("one S-Pattern source among many must block")
	}
}

func TestMismatchRate(t *testing.T) {
	var s TPBufStats
	if s.MismatchRate() != 0 {
		t.Fatal("no queries -> 0")
	}
	s = TPBufStats{Queries: 4, Safe: 3, Unsafe: 1}
	if s.MismatchRate() != 0.75 {
		t.Fatalf("mismatch rate %v", s.MismatchRate())
	}
}

func TestTPBufPanics(t *testing.T) {
	b := NewTPBuf(2)
	for _, f := range []func(){
		func() { b.Allocate(2) },
		func() { b.QuerySafe(-1, 0) },
		func() { NewTPBuf(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTPBufReset(t *testing.T) {
	b := NewTPBuf(4)
	spatternSetup(b, 1, 2)
	b.Reset()
	for i := 0; i < 4; i++ {
		a, v, w, s, _ := b.Entry(i)
		if a || v || w || s {
			t.Fatal("reset must clear all entries")
		}
	}
}

// refTPBuf is an obviously-correct reference: it tracks allocation order
// explicitly and evaluates Table II directly.
type refTPBuf struct {
	order []int // allocation order, oldest first
	state map[int]struct {
		v, w, s bool
		ppn     uint64
	}
}

func newRefTPBuf() *refTPBuf {
	return &refTPBuf{state: make(map[int]struct {
		v, w, s bool
		ppn     uint64
	})}
}

func (r *refTPBuf) alloc(i int) {
	r.free(i)
	r.order = append(r.order, i)
	r.state[i] = struct {
		v, w, s bool
		ppn     uint64
	}{}
}

func (r *refTPBuf) free(i int) {
	for k, v := range r.order {
		if v == i {
			r.order = append(r.order[:k], r.order[k+1:]...)
			break
		}
	}
	delete(r.state, i)
}

// older reports whether live entry j was allocated before entry i.
func (r *refTPBuf) older(i, j int) bool {
	for _, k := range r.order {
		switch k {
		case j:
			return true
		case i:
			return false
		}
	}
	return false
}

func (r *refTPBuf) safe(i int, ppn uint64) bool {
	for _, j := range r.order {
		if j == i {
			break // everything after is younger
		}
		st, ok := r.state[j]
		if ok && st.v && st.w && st.s && st.ppn != ppn {
			return false
		}
	}
	return true
}

// TestTPBufDifferential runs random operation sequences against the
// reference model. Allocate also hits live slots without a Free first (the
// slot's new occupant is then the youngest). After every operation Older
// must match the reference allocation order for every live pair,
// and on every query the auditor's readout must agree with QuerySafe.
func TestTPBufDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewTPBuf(n)
		ref := newRefTPBuf()
		live := map[int]bool{}
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				b.Allocate(i)
				ref.alloc(i)
				live[i] = true
			case 1:
				if live[i] {
					b.Free(i)
					ref.free(i)
					delete(live, i)
				}
			case 2:
				if live[i] {
					s := rng.Intn(2) == 0
					b.SetSuspect(i, s)
					st := ref.state[i]
					st.s = s
					ref.state[i] = st
				}
			case 3:
				if live[i] {
					ppn := uint64(rng.Intn(8))
					b.SetPPN(i, ppn)
					st := ref.state[i]
					st.v, st.ppn = true, ppn
					ref.state[i] = st
				}
			case 4:
				if live[i] {
					b.SetWriteback(i)
					st := ref.state[i]
					st.w = true
					ref.state[i] = st
				}
			case 5:
				if live[i] {
					ppn := uint64(rng.Intn(8))
					audit := b.AuditSafe(i, ppn)
					safe := b.QuerySafe(i, ppn)
					if safe != ref.safe(i, ppn) || audit != safe {
						t.Logf("seed %d step %d: entry %d page %d: QuerySafe %v, AuditSafe %v, reference %v",
							seed, step, i, ppn, safe, audit, ref.safe(i, ppn))
						return false
					}
				}
			}
			for i := range live {
				for j := range live {
					if want := i != j && ref.older(i, j); b.Older(i, j) != want {
						t.Logf("seed %d step %d: Older(%d, %d) = %v, reference %v", seed, step, i, j, !want, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMechanismPredicates checks every paper variant has a registry row,
// and so a name; the hooks those rows carry are pinned by
// TestHooksMatchReference.
func TestMechanismPredicates(t *testing.T) {
	for _, m := range Mechanisms {
		if m.String() == "" || m.String() == "mechanism(?)" {
			t.Errorf("%d has no name", m)
		}
	}
	if len(Mechanisms) != 4 {
		t.Fatal("four mechanisms expected")
	}
}

func TestFilterStatsRates(t *testing.T) {
	f := FilterStats{SuspectIssued: 10, SuspectL1Hits: 9,
		BlockedInsts: 2, CommittedMemInsts: 50}
	if f.SpecHitRate() != 0.9 {
		t.Fatalf("spec hit rate %v", f.SpecHitRate())
	}
	if f.BlockedRate() != 0.04 {
		t.Fatalf("blocked rate %v", f.BlockedRate())
	}
	var zero FilterStats
	if zero.SpecHitRate() != 0 || zero.BlockedRate() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

func TestTPBufVariantNoW(t *testing.T) {
	b := NewTPBuf(8).SetVariant(VariantNoW)
	if b.Variant() != VariantNoW {
		t.Fatal("variant not set")
	}
	// Older suspect entry with V but WITHOUT W: paper says safe, no-W
	// variant says unsafe.
	b.Allocate(0)
	b.SetSuspect(0, true)
	b.SetPPN(0, 0x100)
	b.Allocate(1)
	if b.QuerySafe(1, 0x200) {
		t.Fatal("no-W variant must match in-flight suspect producers")
	}
	// Same page still safe under every variant.
	if !b.QuerySafe(1, 0x100) {
		t.Fatal("same tag must stay safe")
	}
}

func TestTPBufVariantStrings(t *testing.T) {
	if VariantPaper.String() != "paper" || VariantNoW.String() != "no-W" ||
		VariantLine.String() != "line-granular" {
		t.Fatal("variant names changed")
	}
}

// TestTPBufVariantOrdering: across random states, the no-W variant never
// calls safe something the paper variant calls unsafe (strict subset).
func TestTPBufVariantConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		paper := NewTPBuf(8)
		now := NewTPBuf(8).SetVariant(VariantNoW)
		for i := 0; i < 6; i++ {
			paper.Allocate(i)
			now.Allocate(i)
			s := rng.Intn(2) == 0
			paper.SetSuspect(i, s)
			now.SetSuspect(i, s)
			ppn := uint64(rng.Intn(4))
			paper.SetPPN(i, ppn)
			now.SetPPN(i, ppn)
			if rng.Intn(2) == 0 {
				paper.SetWriteback(i)
				now.SetWriteback(i)
			}
		}
		q := uint64(rng.Intn(4))
		if !paper.QuerySafe(5, q) && now.QuerySafe(5, q) {
			t.Fatal("no-W variant must be at least as strict as the paper's")
		}
	}
}
