package core

import (
	"fmt"
	"math/bits"
)

// TPBuf is the Trusted Pages Buffer of §V.D: a small structure shadowing
// the load/store queue 1:1 that records, per in-flight speculative memory
// access, the physical page number (PPN) and four status bits:
//
//	A — entry allocated (tracks LSQ occupancy)
//	V — PPN valid (address translated through the TLB)
//	W — writeback: the entry's data became available to younger instructions
//	S — the access carried the suspect speculation flag
//
// plus a Mask identifying which entries are OLDER in program order
// (generated from the A bits at allocation time). The model keeps the Mask
// as a per-entry allocation stamp from a monotonic counter instead of a
// bit-vector: entry j is older than entry i iff j is allocated and was
// allocated before i. That is exactly the set the Mask snapshot holds (a
// slot reallocated since i's snapshot carries a newer stamp, which is the
// stale bit the hardware clears), and it makes Allocate O(1) rather than a
// sweep over every entry's mask. internal/hw's area model still counts the
// N×N Mask bits the hardware stores.
//
// Detection implements the paper's Table II: an incoming suspect L1D-miss
// request is UNSAFE iff at least one older valid entry is in Writeback
// status, is itself suspect, and accessed a DIFFERENT memory page — the
// S-Pattern's "A feeds B, B misses, A and B touch different pages" shape.
// That is eq. (1), safe = !( |(V & W & S & Match) ), with Match the
// page-differs comparator output.
// TPBufVariant selects the S-Pattern matching rule — a design-space
// ablation around the paper's eq. (1).
type TPBufVariant int

const (
	// VariantPaper is eq. (1) exactly: older & V & W & S & different page.
	VariantPaper TPBufVariant = iota
	// VariantNoW drops the Writeback condition: an older suspect access
	// matches even before its data is available. Strictly more
	// conservative (blocks a superset), closing the in-flight-producer
	// window at a performance cost.
	VariantNoW
	// VariantLine matches at LINE granularity instead of page granularity:
	// "different line" is almost always true, so nearly every suspect miss
	// with any older suspect activity blocks — it degenerates toward the
	// plain cache-hit filter and shows why the paper chose pages.
	VariantLine
)

// String names the variant.
func (v TPBufVariant) String() string {
	switch v {
	case VariantNoW:
		return "no-W"
	case VariantLine:
		return "line-granular"
	default:
		return "paper"
	}
}

type TPBuf struct {
	n       int
	variant TPBufVariant
	ppn     []uint64
	a       []bool
	v       []bool
	w       []bool
	s       []bool
	age     []uint64 // age[i] = allocation stamp of entry i
	clock   uint64   // stamp of the latest allocation
	aM      []uint64 // word mask of the A bits (QuerySafe walks its set bits)
	occ     int      // population count of the A bits
	Stats   TPBufStats
}

// TPBufStats counts filter events for Table V's S-Pattern mismatch rate.
type TPBufStats struct {
	Allocs  uint64
	Queries uint64 // suspect L1D misses checked against the buffer
	Unsafe  uint64 // queries matching the S-Pattern (blocked)
	Safe    uint64 // queries mismatching the S-Pattern (allowed)
}

// MismatchRate returns the fraction of queried suspect misses that did NOT
// match the S-Pattern — Table V's "S-Pattern Mismatch Rate".
func (s TPBufStats) MismatchRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Safe) / float64(s.Queries)
}

// SetVariant selects the S-Pattern matching rule (default VariantPaper).
func (t *TPBuf) SetVariant(v TPBufVariant) *TPBuf {
	t.variant = v
	return t
}

// Variant returns the active matching rule.
func (t *TPBuf) Variant() TPBufVariant { return t.variant }

// NewTPBuf builds a buffer with n entries (one per LSQ slot).
func NewTPBuf(n int) *TPBuf {
	if n <= 0 {
		panic(fmt.Sprintf("core: TPBuf size %d", n))
	}
	return &TPBuf{
		n:   n,
		ppn: make([]uint64, n),
		a:   make([]bool, n),
		v:   make([]bool, n),
		w:   make([]bool, n),
		s:   make([]bool, n),
		age: make([]uint64, n),
		aM:  make([]uint64, (n+wordBits-1)/wordBits),
	}
}

// Size returns the entry count.
func (t *TPBuf) Size() int { return t.n }

// Occupancy returns how many entries are currently allocated (the A-bit
// population count). Since the buffer shadows the LSQ 1:1, this is also the
// combined load/store queue occupancy — the obs layer samples it per cycle.
func (t *TPBuf) Occupancy() int { return t.occ }

func (t *TPBuf) checkIdx(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("core: TPBuf index %d out of range [0,%d)", i, t.n))
	}
}

// Allocate claims entry i for a newly dispatched memory instruction. The
// entry takes the next allocation stamp, so everything already in the
// buffer is older in program order, and entry i is older than nothing:
// whatever occupied this slot before has been freed, and its old stamp,
// the "older" bit a reallocation must clear, goes with it.
func (t *TPBuf) Allocate(i int) {
	t.checkIdx(i)
	t.Stats.Allocs++
	t.clock++
	t.age[i] = t.clock
	if !t.a[i] {
		t.occ++
	}
	t.a[i] = true
	t.aM[i/wordBits] |= 1 << (uint(i) % wordBits)
	t.v[i] = false
	t.w[i] = false
	t.s[i] = false
	t.ppn[i] = 0
}

// SetSuspect records the suspect speculation flag carried by the
// instruction occupying entry i (the S bit update of §V.D).
func (t *TPBuf) SetSuspect(i int, suspect bool) {
	t.checkIdx(i)
	t.s[i] = suspect
}

// SetPPN records the translated physical page number; the V bit is set —
// the paper requires the address to have passed TLB translation before the
// tag is trusted.
func (t *TPBuf) SetPPN(i int, ppn uint64) {
	t.checkIdx(i)
	t.ppn[i] = ppn
	t.v[i] = true
}

// SetWriteback marks entry i's data as available to younger instructions
// (the W bit): from this point on, a younger access's address may be
// data-dependent on this entry's result.
func (t *TPBuf) SetWriteback(i int) {
	t.checkIdx(i)
	t.w[i] = true
}

// Free releases entry i (commit or squash along with the LSQ).
func (t *TPBuf) Free(i int) {
	t.checkIdx(i)
	if t.a[i] {
		t.occ--
	}
	t.a[i] = false
	t.aM[i/wordBits] &^= 1 << (uint(i) % wordBits)
	t.v[i] = false
	t.w[i] = false
	t.s[i] = false
	t.ppn[i] = 0
}

// QuerySafe evaluates eq. (1) for the suspect L1D-missing request occupying
// entry i with physical page ppn: it is safe unless some OLDER (Mask),
// allocated, valid (V), written-back (W), suspect (S) entry accessed a
// different page. The result feeds the Cache-hit filter's block decision.
func (t *TPBuf) QuerySafe(i int, ppn uint64) bool {
	t.checkIdx(i)
	t.Stats.Queries++
	for w, word := range t.aM {
		for word != 0 {
			j := w*wordBits + bits.TrailingZeros64(word)
			word &= word - 1
			if t.age[j] < t.age[i] && t.matches(j, ppn) {
				t.Stats.Unsafe++
				return false
			}
		}
	}
	t.Stats.Safe++
	return true
}

// matches reports whether entry j is an S-Pattern source for an access to
// page ppn: valid, written back (unless the variant drops W), suspect, and
// on a different page. Whether j is older is the caller's test.
func (t *TPBuf) matches(j int, ppn uint64) bool {
	wOK := t.w[j] || t.variant == VariantNoW
	return t.v[j] && wOK && t.s[j] && t.ppn[j] != ppn
}

// CorruptBit inverts one status bit of entry i — 'V', 'W', 'S' — or the low
// bit of its page tag ('P'). This is a fault-injection hook: the real
// mechanism never toggles a bit in isolation, so every use models a
// single-event upset the audit layer must catch.
func (t *TPBuf) CorruptBit(i int, field byte) {
	t.checkIdx(i)
	switch field {
	case 'V':
		t.v[i] = !t.v[i]
	case 'W':
		t.w[i] = !t.w[i]
	case 'S':
		t.s[i] = !t.s[i]
	case 'P':
		t.ppn[i] ^= 1
	}
}

// AuditSafe evaluates eq. (1) for entry i exactly like QuerySafe but
// without recording statistics — a side-effect-free readout for the in-run
// invariant auditor, which must not perturb the counters it is checking.
func (t *TPBuf) AuditSafe(i int, ppn uint64) bool {
	t.checkIdx(i)
	for j := 0; j < t.n; j++ {
		if t.Older(i, j) && t.matches(j, ppn) {
			return false
		}
	}
	return true
}

// Older reports whether entry j is older than entry i: allocated, and
// allocated before i (the Mask bit j of entry i).
func (t *TPBuf) Older(i, j int) bool {
	t.checkIdx(i)
	t.checkIdx(j)
	return t.a[j] && t.age[j] < t.age[i]
}

// Entry returns the status bits of entry i (test hook).
func (t *TPBuf) Entry(i int) (a, v, w, s bool, ppn uint64) {
	t.checkIdx(i)
	return t.a[i], t.v[i], t.w[i], t.s[i], t.ppn[i]
}

// Reset clears the whole buffer between runs.
func (t *TPBuf) Reset() {
	for i := 0; i < t.n; i++ {
		t.Free(i)
		t.age[i] = 0
	}
	t.clock = 0
}
