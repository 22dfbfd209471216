package mem

import (
	"conspec/internal/isa"
	"conspec/internal/obs"
)

// HierarchyConfig sizes every level of the memory system. All byte sizes
// and associativities must be powers of two times the line size.
type HierarchyConfig struct {
	LineBytes int

	L1ISize, L1IWays, L1ILat int
	L1DSize, L1DWays, L1DLat int
	L2Size, L2Ways, L2Lat    int
	L3Size, L3Ways, L3Lat    int
	MemLat                   int

	ITLBEntries, DTLBEntries int
	PageWalkLat              int

	// L1DUpdate is the replacement-metadata update policy for suspect
	// speculative L1D hits (§VII.A). Deeper levels always update.
	L1DUpdate UpdatePolicy

	// Replacement selects the cache victim policy for every level (LRU is
	// the paper's configuration; tree-PLRU and random are ablations).
	Replacement ReplacementKind

	// NextLinePrefetch enables a simple next-line prefetcher on L1D misses
	// (ablation; the paper's gem5 configuration has no prefetcher). The
	// prefetched line fills the whole hierarchy. Note the security
	// interplay this exposes: only accesses the defense ALLOWS reach the
	// miss path, so blocked suspect misses never trigger prefetches — the
	// prefetcher cannot be used to resurrect the blocked refill.
	NextLinePrefetch bool
}

// Hierarchy is the full memory system: four cache levels, two TLBs, and the
// architectural backing store.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache
	ITLB, DTLB       *TLB
	MemLat           int
	Backing          *isa.FlatMem
	cfg              HierarchyConfig

	// Prefetches counts next-line prefetch fills (0 unless enabled).
	Prefetches uint64

	// DataLat, when non-nil, records the total latency of every refilling
	// data access (the obs layer attaches it; Observe on nil is a no-op).
	DataLat *obs.Histogram

	// peers are other cores' hierarchies sharing this L2/L3: stores and
	// flushes invalidate their private L1 lines (write-invalidate
	// coherence at line granularity).
	peers []*Hierarchy
}

// NewHierarchy builds a hierarchy over backing according to cfg.
func NewHierarchy(cfg HierarchyConfig, backing *isa.FlatMem) *Hierarchy {
	return &Hierarchy{
		L1I:     NewCache("L1I", cfg.L1ISize, cfg.L1IWays, cfg.LineBytes, cfg.L1ILat).SetReplacement(cfg.Replacement),
		L1D:     NewCache("L1D", cfg.L1DSize, cfg.L1DWays, cfg.LineBytes, cfg.L1DLat).SetReplacement(cfg.Replacement),
		L2:      NewCache("L2", cfg.L2Size, cfg.L2Ways, cfg.LineBytes, cfg.L2Lat).SetReplacement(cfg.Replacement),
		L3:      NewCache("L3", cfg.L3Size, cfg.L3Ways, cfg.LineBytes, cfg.L3Lat).SetReplacement(cfg.Replacement),
		ITLB:    NewTLB("ITLB", cfg.ITLBEntries, cfg.PageWalkLat),
		DTLB:    NewTLB("DTLB", cfg.DTLBEntries, cfg.PageWalkLat),
		MemLat:  cfg.MemLat,
		Backing: backing,
		cfg:     cfg,
	}
}

// Release hands the four caches back for reuse by later NewHierarchy calls
// of the same geometry (see Cache.Release) and drops the hierarchy's
// pointers to them, so a second Release is a no-op and any later access
// panics rather than reaching a cache another simulation now owns. A
// hierarchy with coherence peers shares its L2 and L3 and keeps its
// caches: Release does nothing there.
func (h *Hierarchy) Release() {
	if len(h.peers) > 0 {
		return
	}
	for _, c := range [...]*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		if c != nil {
			c.Release()
		}
	}
	h.L1I, h.L1D, h.L2, h.L3 = nil, nil, nil, nil
}

// NewSharedHierarchy builds a second core's hierarchy that shares the
// given hierarchy's L2, L3 and backing store but has private L1s and TLBs.
// The two are registered as coherence peers of each other.
func NewSharedHierarchy(cfg HierarchyConfig, with *Hierarchy) *Hierarchy {
	h := &Hierarchy{
		L1I:     NewCache("L1I", cfg.L1ISize, cfg.L1IWays, cfg.LineBytes, cfg.L1ILat).SetReplacement(cfg.Replacement),
		L1D:     NewCache("L1D", cfg.L1DSize, cfg.L1DWays, cfg.LineBytes, cfg.L1DLat).SetReplacement(cfg.Replacement),
		L2:      with.L2,
		L3:      with.L3,
		ITLB:    NewTLB("ITLB", cfg.ITLBEntries, cfg.PageWalkLat),
		DTLB:    NewTLB("DTLB", cfg.DTLBEntries, cfg.PageWalkLat),
		MemLat:  cfg.MemLat,
		Backing: with.Backing,
		cfg:     cfg,
	}
	with.peers = append(with.peers, h)
	h.peers = append(h.peers, with)
	return h
}

// StoreCommitted applies write-invalidate coherence for a committed store:
// every peer core's private L1 copy of the line is invalidated, so their
// next load observes the new value's timing (a miss to the shared levels).
func (h *Hierarchy) StoreCommitted(addr uint64) {
	for _, p := range h.peers {
		p.L1D.Flush(addr)
	}
}

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// AccessResult describes one data-side access.
type AccessResult struct {
	Latency int   // total cycles until data available
	Level   Level // where the access hit
	PPN     uint64
	// PendingTouch is set under the delayed-update policy when the L1D hit's
	// LRU refresh was deferred; the pipeline applies it via TouchL1D when the
	// access becomes non-speculative.
	PendingTouch bool
}

// AccessData performs a full data access: DTLB translation, L1D lookup, and
// on miss a walk down L2/L3/memory with refills into every level above the
// hit. suspect marks the access as carrying the paper's suspect-speculation
// flag; it selects the L1D replacement-update behaviour per the configured
// policy. Callers that must NOT refill on a miss (blocked suspect loads)
// should use ProbeL1D/AccessL1DHitOnly instead — a blocked miss never
// reaches this method.
func (h *Hierarchy) AccessData(addr uint64, suspect bool) AccessResult {
	ppn, tlbLat := h.DTLB.Translate(addr)
	res := AccessResult{PPN: ppn, Latency: tlbLat}

	touch := true
	if suspect {
		switch h.cfg.L1DUpdate {
		case UpdateNoSpec:
			touch = false
		case UpdateDelayed:
			touch = false
			res.PendingTouch = true
		}
	}
	if h.L1D.Access(addr, touch) {
		res.Latency += h.L1D.HitLat
		res.Level = LevelL1
		h.DataLat.Observe(uint64(res.Latency))
		return res
	}
	res.PendingTouch = false // refill below installs MRU anyway
	if h.L2.Access(addr, true) {
		res.Latency += h.L2.HitLat
		res.Level = LevelL2
	} else if h.L3.Access(addr, true) {
		res.Latency += h.L3.HitLat
		res.Level = LevelL3
	} else {
		res.Latency += h.MemLat
		res.Level = LevelMem
		h.L3.Refill(addr)
	}
	// Fill path: mem -> L3 -> L2 -> L1 (inclusive hierarchy).
	if res.Level == LevelL3 || res.Level == LevelMem {
		h.L2.Refill(addr)
	}
	h.L1D.Refill(addr)
	if h.cfg.NextLinePrefetch {
		h.prefetch(addr + uint64(h.cfg.LineBytes))
	}
	h.DataLat.Observe(uint64(res.Latency))
	return res
}

// prefetch installs addr's line at every data level if absent (no latency
// is charged: the fill happens off the critical path).
func (h *Hierarchy) prefetch(addr uint64) {
	if h.L1D.Probe(addr) {
		return
	}
	h.Prefetches++
	h.L3.Refill(addr)
	h.L2.Refill(addr)
	h.L1D.Refill(addr)
}

// AccessL1DHitOnly performs an L1D lookup that is forbidden from refilling:
// the cache-hit filter's probe. On a hit it behaves exactly like AccessData
// (latency, update policy); on a miss it returns ok=false having changed no
// cache content — the miss request is discarded, as §V.C requires.
func (h *Hierarchy) AccessL1DHitOnly(addr uint64, suspect bool) (AccessResult, bool) {
	ppn, tlbLat := h.DTLB.Translate(addr)
	res := AccessResult{PPN: ppn, Latency: tlbLat}

	touch := true
	if suspect {
		switch h.cfg.L1DUpdate {
		case UpdateNoSpec:
			touch = false
		case UpdateDelayed:
			touch = false
			res.PendingTouch = true
		}
	}
	if h.L1D.Access(addr, touch) {
		res.Latency += h.L1D.HitLat
		res.Level = LevelL1
		return res, true
	}
	return res, false
}

// AccessDataNoRefill performs a data access that is forbidden from
// refilling ANY level: the InvisiSpec-style invisible load. Latency and hit
// level reflect the current cache state; tags, LRU and content stay
// untouched below the DTLB (InvisiSpec hides cache state, not translations).
func (h *Hierarchy) AccessDataNoRefill(addr uint64) AccessResult {
	ppn, tlbLat := h.DTLB.Translate(addr)
	res := AccessResult{PPN: ppn, Latency: tlbLat}
	switch {
	case h.L1D.Probe(addr):
		res.Latency += h.L1D.HitLat
		res.Level = LevelL1
	case h.L2.Probe(addr):
		res.Latency += h.L2.HitLat
		res.Level = LevelL2
	case h.L3.Probe(addr):
		res.Latency += h.L3.HitLat
		res.Level = LevelL3
	default:
		res.Latency += h.MemLat
		res.Level = LevelMem
	}
	return res
}

// ProbeL1D reports L1D residency with no side effects at all.
func (h *Hierarchy) ProbeL1D(addr uint64) bool { return h.L1D.Probe(addr) }

// TouchL1D applies a deferred LRU refresh (delayed-update policy).
func (h *Hierarchy) TouchL1D(addr uint64) { h.L1D.Touch(addr) }

// AccessInst performs an instruction fetch lookup: ITLB plus L1I, refilling
// from L2/L3/memory on miss. Fetch is never blocked by the data-side
// defense; the §VII.B ICache-hit filter makes its own decision with
// ProbeL1I before calling this.
func (h *Hierarchy) AccessInst(addr uint64) AccessResult {
	_, tlbLat := h.ITLB.Translate(addr)
	res := AccessResult{Latency: tlbLat}
	if h.L1I.Access(addr, true) {
		res.Latency += h.L1I.HitLat
		res.Level = LevelL1
		return res
	}
	if h.L2.Access(addr, true) {
		res.Latency += h.L2.HitLat
		res.Level = LevelL2
	} else if h.L3.Access(addr, true) {
		res.Latency += h.L3.HitLat
		res.Level = LevelL3
	} else {
		res.Latency += h.MemLat
		res.Level = LevelMem
		h.L3.Refill(addr)
	}
	if res.Level == LevelL3 || res.Level == LevelMem {
		h.L2.Refill(addr)
	}
	h.L1I.Refill(addr)
	return res
}

// ProbeL1I reports L1I residency with no side effects.
func (h *Hierarchy) ProbeL1I(addr uint64) bool { return h.L1I.Probe(addr) }

// Flush removes addr's line from every cache level (CLFLUSH semantics).
// CLFLUSH is architecturally global: peer cores' private L1s are flushed
// too (shared levels are flushed once, through this hierarchy's pointers).
func (h *Hierarchy) Flush(addr uint64) {
	h.L1I.Flush(addr)
	h.L1D.Flush(addr)
	h.L2.Flush(addr)
	h.L3.Flush(addr)
	for _, p := range h.peers {
		p.L1I.Flush(addr)
		p.L1D.Flush(addr)
	}
}

// InvalidateAll empties all caches and TLBs.
func (h *Hierarchy) InvalidateAll() {
	h.L1I.InvalidateAll()
	h.L1D.InvalidateAll()
	h.L2.InvalidateAll()
	h.L3.InvalidateAll()
	h.ITLB.InvalidateAll()
	h.DTLB.InvalidateAll()
}

// ReadData reads architectural data (size bytes at addr) from backing store.
func (h *Hierarchy) ReadData(addr uint64, size int) uint64 {
	return h.Backing.Read(addr, size)
}

// WriteData writes architectural data to the backing store.
func (h *Hierarchy) WriteData(addr uint64, size int, val uint64) {
	h.Backing.Write(addr, size, val)
}
