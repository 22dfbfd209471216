package isa

import "encoding/binary"

// PageBits is the log2 of the simulated page size. Physical page numbers
// (PPNs) — the tags the paper's TPBuf compares — are addr >> PageBits.
const PageBits = 12

// PageSize is the simulated page size in bytes.
const PageSize = 1 << PageBits

// Memory is the architectural backing store seen by the reference
// interpreter and, behind the cache hierarchy, by the out-of-order core.
// Reads of never-written locations return zero. Accesses may straddle page
// boundaries; size must be 1..8.
type Memory interface {
	Read(addr uint64, size int) uint64
	Write(addr uint64, size int, val uint64)
}

// FlatMem is a sparse, page-granular implementation of Memory. The zero
// value is not usable; create one with NewFlatMem.
//
// A page becomes resident (4 KB allocated and zeroed) on its first write.
// Seed records an initial 8-byte word without doing so: reads of a
// non-resident page see its seeded words, or zero, and allocate nothing,
// and the write that makes the page resident copies them in first. A
// seeded word therefore behaves exactly like one written with Write, at
// the cost of a few bytes instead of a page.
type FlatMem struct {
	pages map[uint64]*[PageSize]byte

	// seeds holds the seeded words of non-resident pages, keyed by page
	// number, so making a page resident copies its own few words in
	// instead of probing all 512 word slots.
	seeds map[uint64][]seedWord

	// One-entry page cache: accesses are overwhelmingly sequential or
	// within a working page, so remembering the last resident page turns
	// the common case from a map lookup into one compare.
	lastPPN  uint64
	lastPage *[PageSize]byte

	// codePPN/codePage are Fetch's own one-entry cursor. Instruction and
	// data accesses interleave every cycle on different pages; with one
	// shared cursor they would evict each other and fall back to the map.
	// Both cursors hold resident pages only, and a resident page is never
	// freed or moved, so neither needs invalidating: a write lands in the
	// same array the cursor points at. Code that ever recycles pages must
	// clear both.
	codePPN  uint64
	codePage *[PageSize]byte
}

// seedWord is one seeded 8-byte word at an aligned offset within its page.
type seedWord struct {
	off uint16
	val uint64
}

// NewFlatMem returns an empty sparse memory.
func NewFlatMem() *FlatMem {
	return &FlatMem{
		pages: make(map[uint64]*[PageSize]byte),
		seeds: make(map[uint64][]seedWord),
	}
}

func (m *FlatMem) page(ppn uint64, alloc bool) *[PageSize]byte {
	if m.lastPage != nil && m.lastPPN == ppn {
		return m.lastPage
	}
	p := m.pages[ppn]
	if p == nil && alloc {
		p = new([PageSize]byte)
		for _, w := range m.seeds[ppn] {
			binary.LittleEndian.PutUint64(p[w.off:], w.val)
		}
		delete(m.seeds, ppn)
		m.pages[ppn] = p
	}
	if p != nil {
		m.lastPPN, m.lastPage = ppn, p
	}
	return p
}

// Seed sets the 8-byte word at addr, which must be 8-byte aligned, to val
// without making its page resident (see FlatMem). It is meant for sparse
// initial data — a pointer per page — where Write would allocate a whole
// page per word.
func (m *FlatMem) Seed(addr, val uint64) {
	if addr&7 != 0 {
		panic("isa: FlatMem.Seed address is not 8-byte aligned")
	}
	ppn := addr >> PageBits
	if m.page(ppn, false) != nil {
		m.Write(addr, 8, val)
		return
	}
	off := uint16(addr & (PageSize - 1))
	ws := m.seeds[ppn]
	for i := range ws {
		if ws[i].off == off {
			ws[i].val = val
			return
		}
	}
	m.seeds[ppn] = append(ws, seedWord{off, val})
}

// seededByte returns the byte at page offset off of a non-resident page
// whose seeded words are ws.
func seededByte(ws []seedWord, off uint64) byte {
	for _, w := range ws {
		if d := off - uint64(w.off); d < 8 {
			return byte(w.val >> (8 * d))
		}
	}
	return 0
}

// ByteAt returns the byte at addr (zero if the page was never written).
func (m *FlatMem) ByteAt(addr uint64) byte {
	off := addr & (PageSize - 1)
	p := m.page(addr>>PageBits, false)
	if p == nil {
		return seededByte(m.seeds[addr>>PageBits], off)
	}
	return p[off]
}

// SetByte stores one byte at addr.
func (m *FlatMem) SetByte(addr uint64, b byte) {
	m.page(addr>>PageBits, true)[addr&(PageSize-1)] = b
}

// Read returns size bytes at addr, little-endian, zero-extended to 64 bits.
func (m *FlatMem) Read(addr uint64, size int) uint64 {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize {
		var v uint64
		p := m.page(addr>>PageBits, false)
		if p != nil && off <= PageSize-8 {
			// One 8-byte load, masked down to size.
			v = binary.LittleEndian.Uint64(p[off : off+8])
			if size < 8 {
				v &= 1<<(8*size) - 1
			}
			return v
		}
		if p == nil {
			ws := m.seeds[addr>>PageBits]
			if len(ws) == 0 {
				return 0
			}
			for i := 0; i < size; i++ {
				v |= uint64(seededByte(ws, off+uint64(i))) << (8 * i)
			}
			return v
		}
		for i := 0; i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Fetch returns the 8-byte instruction word at pc; it equals Read(pc, 8).
// It reads through its own code-page cursor, so the fetch stream keeps its
// page while loads and stores move the data cursor. A non-resident page
// (seeded or never written) or a pc whose word straddles a page boundary
// takes Read's path, and the cursor never holds a nil page: the write
// that later makes the page resident is seen by the next Fetch.
func (m *FlatMem) Fetch(pc uint64) uint64 {
	off := pc & (PageSize - 1)
	if off > PageSize-8 {
		return m.Read(pc, 8)
	}
	if ppn := pc >> PageBits; m.codePage == nil || m.codePPN != ppn {
		p := m.pages[ppn]
		if p == nil {
			return m.Read(pc, 8)
		}
		m.codePPN, m.codePage = ppn, p
	}
	return binary.LittleEndian.Uint64(m.codePage[off : off+8])
}

// Write stores the low size bytes of val at addr, little-endian.
func (m *FlatMem) Write(addr uint64, size int, val uint64) {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize {
		p := m.page(addr>>PageBits, true)
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(val >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// SetBytes copies b into memory starting at addr.
func (m *FlatMem) SetBytes(addr uint64, b []byte) {
	for i, c := range b {
		m.SetByte(addr+uint64(i), c)
	}
}

// BytesAt copies n bytes starting at addr into a fresh slice.
func (m *FlatMem) BytesAt(addr uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.ByteAt(addr + uint64(i))
	}
	return b
}

// Pages returns the number of resident (written) pages; useful in tests.
// Seeded words on pages never written do not count.
func (m *FlatMem) Pages() int { return len(m.pages) }
