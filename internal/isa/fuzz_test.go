package isa

import "testing"

// FuzzDecode checks that any 64-bit word decodes without panicking and that
// valid instructions re-encode to the same word.
func FuzzDecode(f *testing.F) {
	f.Add(uint64(0))
	f.Add(Encode(Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, w uint64) {
		in := Decode(w)
		if Encode(in) != w {
			t.Fatalf("decode/encode mismatch for %#x", w)
		}
		_ = in.String()
		_, _ = in.Sources()
		_ = in.HasDest()
	})
}

// FuzzInterpStep runs the interpreter on arbitrary instruction words in a
// bounded arena: no input may panic it or drive memory usage unboundedly.
func FuzzInterpStep(f *testing.F) {
	f.Add(uint64(0x1122334455667788), uint64(0))
	f.Fuzz(func(t *testing.T, w1, w2 uint64) {
		m := NewFlatMem()
		m.Write(0, InstBytes, w1)
		m.Write(InstBytes, InstBytes, w2)
		in := NewInterp(m, 0)
		for i := 0; i < 4; i++ {
			if err := in.Step(); err != nil {
				return // undefined opcode is a legal outcome
			}
		}
	})
}

// FuzzFlatMemSeed is the differential check behind FlatMem.Seed: a memory
// whose initial words were seeded must be indistinguishable, through every
// accessor, from one where they were written eagerly. data is decoded by
// runSeedOps.
func FuzzFlatMemSeed(f *testing.F) {
	f.Add([]byte{0, 8, 0x10, 2, 8, 0x0c, 1, 0xf9, 0x0f, 3, 7, 0x0f})
	f.Add([]byte{0, 0xf8, 0x1f, 0, 0, 0x20, 2, 0xfc, 0x1f, 1, 0xfe, 0x1f, 4, 0xf0, 0x1f})
	f.Add([]byte{5, 0xfd, 0x0f, 0, 0, 0x10, 4, 0xf8, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) { runSeedOps(t, data) })
}
