package mem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"conspec/internal/isa"
)

// driveCache applies the next operation of a seeded random sequence to c
// and returns what the operation reported plus the statistics after it, so
// two caches driven in lockstep can be compared step by step.
func driveCache(c *Cache, rng *rand.Rand) [3]any {
	// A 64 KB address window over an 8 KB cache: hits, misses, evictions.
	addr := uint64(rng.Intn(64 * 1024))
	var r0, r1 any
	switch op := rng.Intn(100); {
	case op < 40:
		r0 = c.Access(addr, rng.Intn(4) != 0)
	case op < 75:
		r0, r1 = c.Refill(addr)
	case op < 85:
		c.Touch(addr)
	case op < 93:
		r0 = c.Flush(addr)
	case op < 99:
		r0 = c.Probe(addr)
	default:
		c.InvalidateAll()
	}
	return [3]any{r0, r1, c.Stats}
}

// TestReleasedCacheIsFresh pins Release's contract: a cache dirtied under
// any replacement policy, released and taken back by NewCache behaves
// exactly like a never-used cache, whatever policy it is given next.
func TestReleasedCacheIsFresh(t *testing.T) {
	const size, ways, lineBytes = 8 * 1024, 4, 64
	kinds := []ReplacementKind{ReplLRU, ReplTreePLRU, ReplRandom}
	for _, dirtyKind := range kinds {
		for _, k := range kinds {
			c := NewCache("used", size, ways, lineBytes, 1).SetReplacement(dirtyKind)
			rng := rand.New(rand.NewSource(int64(dirtyKind)))
			for i := 0; i < 5000; i++ {
				driveCache(c, rng)
			}
			if c.Resident() == 0 {
				t.Fatal("dirtying sequence left the cache empty")
			}
			c.Release()
			if n := c.Resident(); n != 0 {
				t.Fatalf("%v: %d lines resident after Release", dirtyKind, n)
			}
			// Stale LRU stamps and PLRU bits could not change a victim (a
			// set is full, and so rewritten, before one is chosen), so the
			// lockstep run below cannot see them: check them here.
			for i, l := range c.lines {
				if l != (line{}) {
					t.Fatalf("%v: line %d is %+v after Release", dirtyKind, i, l)
				}
			}
			if c.plru != nil && slices.ContainsFunc(c.plru.bits, func(b uint32) bool { return b != 0 }) {
				t.Fatalf("%v: PLRU bits left set after Release", dirtyKind)
			}
			if c.clock != 0 || c.rng != rngSeed || c.repl != ReplLRU || len(c.dirtySets) != 0 ||
				slices.ContainsFunc(c.dirtyBits, func(b uint64) bool { return b != 0 }) {
				t.Fatalf("%v: clock %d, rng %#x, policy %v, %d dirty sets after Release",
					dirtyKind, c.clock, c.rng, c.repl, len(c.dirtySets))
			}
			// sync.Pool may drop an item; when it does, NewCache builds a
			// fresh cache and the comparison below still holds.
			reused := NewCache("reused", size, ways, lineBytes, 1).SetReplacement(k)
			fresh := newCache("fresh", size, ways, lineBytes, 1).SetReplacement(k)
			if reused.Stats != (CacheStats{}) {
				t.Fatalf("reused cache starts with stats %+v", reused.Stats)
			}
			ra, rb := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
			for i := 0; i < 20000; i++ {
				if a, b := driveCache(reused, ra), driveCache(fresh, rb); a != b {
					t.Fatalf("dirtied under %v, run under %v: step %d: reused %v, fresh %v",
						dirtyKind, k, i, a, b)
				}
			}
			reused.Release()
		}
	}
}

// refTLB is the TLB as it was before tags carried the valid bit: a
// separate valid flag per entry. TestTLBMatchesReference holds the packed
// encoding to it.
type refTLB struct {
	valid    []bool
	tag, lru []uint64
	clock    uint64
	mru      int
	walkLat  int
	stats    CacheStats
}

func (t *refTLB) translate(addr uint64) (uint64, int) {
	vpn := addr >> isa.PageBits
	t.stats.Accesses++
	t.clock++
	if t.valid[t.mru] && t.tag[t.mru] == vpn {
		t.stats.Hits++
		t.lru[t.mru] = t.clock
		return vpn, 0
	}
	for i := range t.valid {
		if t.valid[i] && t.tag[i] == vpn {
			t.stats.Hits++
			t.lru[i] = t.clock
			t.mru = i
			return vpn, 0
		}
	}
	victim := 0
	for i := range t.valid {
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.stats.Misses++
	t.stats.Refills++
	if t.valid[victim] {
		t.stats.Evictions++
	}
	t.valid[victim], t.tag[victim], t.lru[victim] = true, vpn, t.clock
	t.mru = victim
	return vpn, t.walkLat
}

func TestTLBMatchesReference(t *testing.T) {
	const n = 8
	tlb := NewTLB("t", n, 30)
	ref := &refTLB{valid: make([]bool, n), tag: make([]uint64, n), lru: make([]uint64, n), walkLat: 30}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(24)) << isa.PageBits
		addr |= uint64(rng.Intn(1 << isa.PageBits))
		switch op := rng.Intn(100); {
		case op < 80:
			ppn, lat := tlb.Translate(addr)
			rppn, rlat := ref.translate(addr)
			if ppn != rppn || lat != rlat {
				t.Fatalf("step %d: Translate(%#x) = %d,%d; reference %d,%d", i, addr, ppn, lat, rppn, rlat)
			}
		case op < 99:
			want := false
			for j := range ref.valid {
				want = want || ref.valid[j] && ref.tag[j] == addr>>isa.PageBits
			}
			if got := tlb.Probe(addr); got != want {
				t.Fatalf("step %d: Probe(%#x) = %v; reference %v", i, addr, got, want)
			}
		default:
			tlb.InvalidateAll()
			clear(ref.valid)
			clear(ref.tag)
			clear(ref.lru)
		}
		if tlb.Stats != ref.stats {
			t.Fatalf("step %d: stats %+v; reference %+v", i, tlb.Stats, ref.stats)
		}
	}
}

// TestHierarchyDoubleRelease: a second Release must not hand the same
// caches to the pool twice, or two later simulations would share one tag
// array.
func TestHierarchyDoubleRelease(t *testing.T) {
	cfg := testConfig()
	cfg.L2Size = 64 * 1024 // a geometry no other test in the package releases
	h := NewHierarchy(cfg, isa.NewFlatMem())
	h.AccessData(0x4000, false)
	h.Release()
	h.Release()
	if h.L2 != nil {
		t.Fatal("Release must drop the hierarchy's cache pointers")
	}
	a := NewCache("a", cfg.L2Size, cfg.L2Ways, cfg.LineBytes, 1)
	b := NewCache("b", cfg.L2Size, cfg.L2Ways, cfg.LineBytes, 1)
	if a == b {
		t.Fatal("two NewCache calls returned the same cache")
	}
}

// TestSharedHierarchyKeepsCaches: hierarchies with coherence peers share
// their L2 and L3, so Release must leave them alone.
func TestSharedHierarchyKeepsCaches(t *testing.T) {
	cfg := testConfig()
	a := NewHierarchy(cfg, isa.NewFlatMem())
	b := NewSharedHierarchy(cfg, a)
	a.Release()
	b.Release()
	if a.L2 == nil || b.L1D == nil {
		t.Fatal("Release of a hierarchy with peers must keep its caches")
	}
}

// TestPoolConcurrentHierarchies builds, drives and releases hierarchies of
// two geometries from four goroutines (make race runs it under the race
// detector). Every pass over the same geometry and seed must report the
// same latencies: a cache shared between two live hierarchies, or one
// handed out dirty, would change them.
func TestPoolConcurrentHierarchies(t *testing.T) {
	configs := [2]HierarchyConfig{testConfig(), testConfig()}
	configs[1].L2Size, configs[1].L3Size = 16*1024, 256*1024
	run := func(cfg HierarchyConfig) uint64 {
		h := NewHierarchy(cfg, isa.NewFlatMem())
		rng := rand.New(rand.NewSource(3))
		var sum uint64
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(512 * 1024))
			switch rng.Intn(8) {
			case 0:
				sum = sum*31 + uint64(h.AccessInst(addr).Latency)
			case 1:
				h.Flush(addr)
			default:
				sum = sum*31 + uint64(h.AccessData(addr, rng.Intn(2) == 0).Latency)
			}
		}
		h.Release()
		return sum
	}
	want := [2]uint64{run(configs[0]), run(configs[1])}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % 2
				if got := run(configs[k]); got != want[k] {
					errs <- "latency digest changed across reuse"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
