package core

// Mechanism selects which Conditional Speculation variant the core runs —
// the four experiment environments of §VI.A.
type Mechanism uint8

const (
	// Origin is the unprotected out-of-order baseline: no security
	// dependence tracking at all.
	Origin Mechanism = iota
	// Baseline marks security-dependent memory accesses and blocks every
	// suspect one until its dependences clear (the conservative policy).
	Baseline
	// CacheHit additionally lets suspect loads that HIT the L1 DCache
	// proceed: they cannot change cache content (§V.C).
	CacheHit
	// CacheHitTPBuf further consults the Trusted Pages Buffer on suspect
	// L1D misses: misses that do not complete an S-Pattern are safe and may
	// refill (§V.D).
	CacheHitTPBuf
)

// InvisiSpec is NOT part of the paper's proposal: it is the related-work
// comparator (§VIII) reimplemented for head-to-head evaluation. Speculative
// loads fetch their data WITHOUT refilling any cache level (as if into a
// per-load speculative buffer); the real, cache-visible access happens at
// commit. No dependence matrix is needed — invisibility, not blocking, is
// the defense. It closes every cache-content channel (including the
// non-shared-memory rows TPBuf misses) at the cost of losing speculative
// refill reuse.
const InvisiSpec Mechanism = 100

// Fence models the software mitigation of inserting an LFENCE after every
// conditional/indirect branch: no instruction younger than an unresolved
// branch may issue. It is the most conservative comparison point — total
// serialization of speculation past branches — and needs no dependence
// matrix because nothing speculative ever reaches the memory system.
const Fence Mechanism = 101

// DelayOnMiss is the delay-based related-work point (SoK taxonomy): suspect
// loads that miss the L1D are parked in place until their security
// dependences clear, instead of being discarded and re-issued through the
// scheduler. Hits proceed as under the cache-hit filter.
const DelayOnMiss Mechanism = 102

// Mechanisms lists the paper's variants in evaluation order (InvisiSpec,
// the related-work comparator, is deliberately not included).
var Mechanisms = []Mechanism{Origin, Baseline, CacheHit, CacheHitTPBuf}

// String names the mechanism as the paper does: the title of its registry
// row.
func (m Mechanism) String() string {
	if d, ok := DefenseFor(m, false); ok {
		return d.title
	}
	return "mechanism(?)"
}

// FilterStats aggregates the per-run counters behind Table V.
type FilterStats struct {
	// SuspectIssued counts memory instructions that issued carrying the
	// suspect speculation flag.
	SuspectIssued uint64
	// SuspectL1Hits counts suspect issues that hit L1D (allowed by the
	// cache-hit filter).
	SuspectL1Hits uint64
	// SuspectL1Misses counts suspect issues that missed L1D.
	SuspectL1Misses uint64
	// BlockedEvents counts block decisions (a single instruction may be
	// blocked, re-issued and blocked again; each counts).
	BlockedEvents uint64
	// BlockedInsts counts distinct dynamic instructions blocked at least
	// once that later COMMITTED — the numerator of Table V's "Blocked Rate"
	// ("blocked speculative memory accesses in the correct execution path").
	BlockedInsts uint64
	// CommittedMemInsts is the denominator: memory instructions that
	// reached commit.
	CommittedMemInsts uint64
}

// SpecHitRate returns the cache hit rate of speculative (suspect) memory
// accesses — Table V's "Cache Hit Rate of Speculative Memory Access".
func (f FilterStats) SpecHitRate() float64 {
	if f.SuspectIssued == 0 {
		return 0
	}
	return float64(f.SuspectL1Hits) / float64(f.SuspectIssued)
}

// BlockedRate returns blocked committed memory instructions over all
// committed memory instructions — Table V's "Blocked Rate".
func (f FilterStats) BlockedRate() float64 {
	if f.CommittedMemInsts == 0 {
		return 0
	}
	return float64(f.BlockedInsts) / float64(f.CommittedMemInsts)
}
