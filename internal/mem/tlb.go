package mem

import "conspec/internal/isa"

// TLB models a fully-associative translation lookaside buffer with LRU
// replacement. The simulator uses identity mapping (PPN = VA >> PageBits),
// so the TLB only contributes timing (a page-walk penalty on miss) and the
// architectural requirement the paper leans on: "the access address must be
// checked and get physical page number (PPN) using TLB first" before a TPBuf
// entry's tag is valid.
type TLB struct {
	Name    string
	entries []line
	clock   uint64
	mru     int // index of the last entry that hit; checked first
	WalkLat int // page-walk penalty charged on a miss, in cycles
	Stats   CacheStats
}

// NewTLB returns a TLB with n entries and a walk latency.
func NewTLB(name string, n, walkLat int) *TLB {
	return &TLB{Name: name, entries: make([]line, n), WalkLat: walkLat}
}

// Translate returns the physical page number for addr and the extra latency
// (0 on a TLB hit, WalkLat on a miss). Misses refill the TLB.
func (t *TLB) Translate(addr uint64) (ppn uint64, extraLat int) {
	vpn := addr >> isa.PageBits
	tag := vpn | validBit
	t.Stats.Accesses++
	t.clock++
	if e := &t.entries[t.mru]; e.tag == tag {
		t.Stats.Hits++
		e.lru = t.clock
		return vpn, 0 // identity mapping
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.tag == tag {
			t.Stats.Hits++
			e.lru = t.clock
			t.mru = i
			return vpn, 0 // identity mapping
		}
	}
	// Miss: pick the victim — the last invalid entry if any, else min-LRU
	// (same preference order the combined hit/victim scan used to produce).
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.tag == 0 {
			victim = i
		} else if t.entries[victim].tag != 0 && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.Stats.Misses++
	t.Stats.Refills++
	if t.entries[victim].tag != 0 {
		t.Stats.Evictions++
	}
	t.entries[victim] = line{tag: tag, lru: t.clock}
	t.mru = victim
	return vpn, t.WalkLat
}

// Probe reports whether the translation is cached, without side effects.
func (t *TLB) Probe(addr uint64) bool {
	tag := addr>>isa.PageBits | validBit
	for i := range t.entries {
		if t.entries[i].tag == tag {
			return true
		}
	}
	return false
}

// InvalidateAll empties the TLB.
func (t *TLB) InvalidateAll() {
	clear(t.entries)
}
