// Package mem models the simulator's memory system: set-associative caches
// with true-LRU replacement, the secure replacement-update policies of the
// paper's §VII.A, TLBs, CLFLUSH, and a multi-level hierarchy (L1I/L1D/L2/L3
// plus main memory) with per-level hit latencies.
//
// The caches track tags and replacement state only; architectural data
// always lives in the backing isa.Memory. That split is exactly what the
// paper's threat model needs: the side channel is cache *content* (which
// lines are present) and access *timing*, both of which the tag arrays
// capture, while data correctness is the backing store's job.
package mem

import (
	"fmt"
	"sync"
)

// Level identifies where in the hierarchy an access hit.
type Level int

// Hierarchy levels, ordered nearest-first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
)

// String returns "L1", "L2", "L3" or "Mem".
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	default:
		return "Mem"
	}
}

// UpdatePolicy selects how a cache updates its replacement metadata on
// speculative (suspect) hits — the paper's §VII.A secure update policies.
type UpdatePolicy int

const (
	// UpdateAlways is the conventional policy: every hit refreshes LRU.
	UpdateAlways UpdatePolicy = iota
	// UpdateNoSpec skips the LRU refresh for suspect speculative hits
	// (the paper's "no update policy").
	UpdateNoSpec
	// UpdateDelayed tags suspect hits with a pending update that the
	// pipeline applies when the access becomes non-speculative
	// (the paper's "delayed update policy"). The cache exposes Touch for
	// the deferred refresh; the decision of *when* is the pipeline's.
	UpdateDelayed
)

// String names the policy.
func (p UpdatePolicy) String() string {
	switch p {
	case UpdateAlways:
		return "always"
	case UpdateNoSpec:
		return "no-update"
	case UpdateDelayed:
		return "delayed-update"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// line is one way of a set, 16 bytes. tag holds the address tag with
// validBit set, so zero is an invalid line and a lookup compares one word
// per way. A cache tag is addr >> (lineBits+setBits) with that shift at
// least 1 (NewCache enforces it) and a TLB tag is addr >> isa.PageBits, so
// no tag reaches bit 63 on its own.
type line struct {
	tag uint64
	lru uint64 // larger = more recently used
}

const validBit = 1 << 63

// CacheStats counts cache events. Hits+Misses == Accesses.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Refills   uint64
	Evictions uint64
	Flushes   uint64
}

// HitRate returns Hits/Accesses, or 0 when there were no accesses.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative tag array with true-LRU replacement.
//
// A cache records the sets its Refill makes valid (dirtyBits and
// dirtySets), which are the only sets any operation ever changes: lookups
// and Touch reach valid lines only, and Flush and InvalidateAll only clear.
// Release uses the record to reset the cache to the state NewCache returns
// without clearing the whole array, and pools it for the next NewCache of
// the same geometry.
type Cache struct {
	Name     string
	HitLat   int // total latency of a hit at this level, in cycles
	sets     int
	ways     int
	lineBits uint
	setBits  uint // log2(sets); sets is a power of two
	setMask  uint64
	lines    []line // sets*ways, set-major
	clock    uint64 // LRU timestamp source
	repl     ReplacementKind
	plru     *plruState
	rng      xorshift64
	Stats    CacheStats

	dirtyBits []uint64 // one bit per set Refill has made valid
	dirtySets []int32  // those sets, in first-refill order; capacity sets
}

// rngSeed is every cache's initial ReplRandom state.
const rngSeed = 0x9E3779B97F4A7C15

// geometry keys the pool of released caches: a cache is reusable by any
// NewCache call with the same size, associativity and line size, whatever
// its name, latency or replacement policy.
type geometry struct{ size, ways, lineBytes int }

// cachePools maps a geometry to the *sync.Pool of released caches of it.
var cachePools sync.Map

// NewCache builds a cache of size bytes, the given associativity and line
// size (both powers of two), with hit latency hitLat. It panics on invalid
// geometry; configurations are program constants, not user input. A cache
// of the same geometry that was released earlier is reused when the pool
// still holds one.
func NewCache(name string, size, ways, lineBytes, hitLat int) *Cache {
	// Only valid caches are ever released, so an invalid geometry finds no
	// pool and reaches newCache's checks.
	if p, ok := cachePools.Load(geometry{size, ways, lineBytes}); ok {
		if c, _ := p.(*sync.Pool).Get().(*Cache); c != nil {
			c.Name, c.HitLat = name, hitLat
			return c
		}
	}
	return newCache(name, size, ways, lineBytes, hitLat)
}

// newCache allocates a cache, bypassing the pool.
func newCache(name string, size, ways, lineBytes, hitLat int) *Cache {
	if size <= 0 || ways <= 0 || lineBytes <= 0 || size%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %s size=%d ways=%d line=%d",
			name, size, ways, lineBytes))
	}
	sets := size / (ways * lineBytes)
	if sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: %s sets (%d) and line size (%d) must be powers of two",
			name, sets, lineBytes))
	}
	if sets*lineBytes < 2 {
		// The tag shift would be 0, and a tag could then reach validBit.
		panic(fmt.Sprintf("mem: %s needs more than one byte per way", name))
	}
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	sb := uint(0)
	for 1<<sb < sets {
		sb++
	}
	return &Cache{
		Name:     name,
		HitLat:   hitLat,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		setBits:  sb,
		setMask:  uint64(sets - 1),
		lines:    make([]line, sets*ways),
		rng:      rngSeed,

		dirtyBits: make([]uint64, (sets+63)/64),
		dirtySets: make([]int32, 0, sets),
	}
}

// Release returns the cache to a pool for reuse by the next NewCache of
// the same geometry. It first resets the cache to the state NewCache
// produces: the lines and PLRU bits of every set Refill dirtied are
// cleared, and the clock, the ReplRandom state, the policy and Stats are
// reset. The caller must not use the cache afterwards, and must release it
// at most once.
func (c *Cache) Release() {
	for _, s := range c.dirtySets {
		clear(c.lines[int(s)*c.ways : (int(s)+1)*c.ways])
		if c.plru != nil {
			c.plru.bits[s] = 0
		}
		c.dirtyBits[s>>6] = 0
	}
	c.dirtySets = c.dirtySets[:0]
	c.clock = 0
	c.repl = ReplLRU
	c.rng = rngSeed
	c.Stats = CacheStats{}
	g := geometry{c.sets * c.ways << c.lineBits, c.ways, 1 << c.lineBits}
	p, ok := cachePools.Load(g)
	if !ok {
		p, _ = cachePools.LoadOrStore(g, new(sync.Pool))
	}
	p.(*sync.Pool).Put(c)
}

// SetReplacement selects the victim policy; call before first use. Tree
// PLRU requires power-of-two associativity.
func (c *Cache) SetReplacement(k ReplacementKind) *Cache {
	c.repl = k
	if k == ReplTreePLRU && c.plru == nil {
		c.plru = newPLRU(c.sets, c.ways) // a released cache keeps its cleared bits
	}
	return c
}

// Replacement returns the active victim policy.
func (c *Cache) Replacement() ReplacementKind { return c.repl }

// touchWay updates replacement metadata for a use of the given way.
func (c *Cache) touchWay(set, way int) {
	switch c.repl {
	case ReplTreePLRU:
		c.plru.touch(set, way)
	case ReplRandom:
		// Random keeps no use-ordering metadata.
	default:
		c.clock++
		c.lines[set*c.ways+way].lru = c.clock
	}
}

// victimWay picks the way to evict in a full set.
func (c *Cache) victimWay(set int) int {
	switch c.repl {
	case ReplTreePLRU:
		return c.plru.victim(set)
	case ReplRandom:
		return int(c.rng.next() % uint64(c.ways))
	default:
		base := set * c.ways
		victim := 0
		for i := 1; i < c.ways; i++ {
			if c.lines[base+i].lru < c.lines[base+victim].lru {
				victim = i
			}
		}
		return victim
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// SetIndex returns the set an address maps to; exposed so attack code can
// construct eviction sets the same way real attackers do.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.lineBits) & c.setMask)
}

func (c *Cache) set(addr uint64) []line {
	s := c.SetIndex(addr)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// tag extracts the tag bits above the set index, marked valid: the word a
// resident line of addr holds. sets is a power of two, so the division the
// formula calls for is a shift.
func (c *Cache) tag(addr uint64) uint64 {
	return addr>>(c.lineBits+c.setBits) | validBit
}

// Probe reports whether addr's line is present, without touching any state
// or statistics. Defense logic calls it on every suspect access decision,
// so the set is resolved once up front rather than per way.
func (c *Cache) Probe(addr uint64) bool {
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, counting the access. If the line is present it
// returns true, refreshing LRU metadata only when touch is true (touch=false
// models the §VII.A no-update / delayed-update paths). Missing lines are NOT
// refilled; callers decide whether the miss may refill (Refill) — that
// decision is the entire point of Conditional Speculation.
func (c *Cache) Access(addr uint64, touch bool) bool {
	c.Stats.Accesses++
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].tag == tag {
			c.Stats.Hits++
			if touch {
				c.touchWay(c.SetIndex(addr), i)
			}
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Touch refreshes LRU state for addr if present (the deferred half of the
// delayed-update policy). It does not count as an access.
func (c *Cache) Touch(addr uint64) {
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].tag == tag {
			c.touchWay(c.SetIndex(addr), i)
			return
		}
	}
}

// Refill inserts addr's line, evicting the LRU way if the set is full.
// It returns the evicted line's base address when an eviction happened.
// Refilling an already-present line just refreshes its LRU state.
func (c *Cache) Refill(addr uint64) (evicted uint64, didEvict bool) {
	tag := c.tag(addr)
	setIdx := c.SetIndex(addr)
	set := c.set(addr)
	victim := -1
	for i := range set {
		if set[i].tag == tag {
			c.touchWay(setIdx, i) // already present
			return 0, false
		}
		if set[i].tag == 0 && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = c.victimWay(setIdx)
	} else if w, b := setIdx>>6, uint64(1)<<(setIdx&63); c.dirtyBits[w]&b == 0 {
		// A free way means the set may never have been refilled: record
		// it. A full set is valid, so it is already recorded.
		c.dirtyBits[w] |= b
		c.dirtySets = append(c.dirtySets, int32(setIdx))
	}
	c.Stats.Refills++
	if old := set[victim].tag; old != 0 {
		c.Stats.Evictions++
		evicted = c.lineBase(addr, old)
		didEvict = true
	}
	c.clock++
	set[victim] = line{tag: tag, lru: c.clock}
	c.touchWay(setIdx, victim)
	return evicted, didEvict
}

// lineBase reconstructs a line base address from a line's tag word and the
// set index of a probe address mapping to the same set.
func (c *Cache) lineBase(probeAddr, tag uint64) uint64 {
	set := uint64(c.SetIndex(probeAddr))
	return ((tag&^validBit)*uint64(c.sets) + set) << c.lineBits
}

// Flush invalidates addr's line if present, returning whether it was.
func (c *Cache) Flush(addr uint64) bool {
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].tag == tag {
			set[i].tag = 0
			c.Stats.Flushes++
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (used between experiment phases). The
// dirtied-set record stays: PLRU bits keep their state, as they always
// have, so Release must still clear those sets.
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}

// Resident returns how many valid lines the cache currently holds.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].tag != 0 {
			n++
		}
	}
	return n
}
