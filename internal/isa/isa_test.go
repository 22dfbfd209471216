package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{Op: Op(op), Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	f := func(w uint64) bool { return Encode(Decode(w)) == w }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpClassesDisjoint(t *testing.T) {
	for o := Op(0); o < opCount; o++ {
		if o.IsLoad() && o.IsStore() {
			t.Errorf("%v is both load and store", o)
		}
		if o.IsMem() && o.IsBranch() {
			t.Errorf("%v is both mem and branch", o)
		}
		if (o.IsLoad() || o.IsStore()) && !o.IsMem() {
			t.Errorf("%v is load/store but not mem", o)
		}
		if o.IsCondBranch() && !o.IsBranch() {
			t.Errorf("%v cond branch must be branch", o)
		}
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := make(map[string]Op)
	for o := Op(0); o < opCount; o++ {
		s := o.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("opcodes %d and %d share mnemonic %q", prev, o, s)
		}
		seen[s] = o
	}
}

func TestMemBytes(t *testing.T) {
	cases := map[Op]int{OpLd: 8, OpSt: 8, OpLd1: 1, OpSt1: 1, OpAdd: 0, OpBeq: 0}
	for op, want := range cases {
		if got := op.MemBytes(); got != want {
			t.Errorf("%v.MemBytes() = %d, want %d", op, got, want)
		}
	}
}

func TestHasDest(t *testing.T) {
	if (Inst{Op: OpAdd, Rd: 0}).HasDest() {
		t.Error("write to x0 must not count as a destination")
	}
	if !(Inst{Op: OpAdd, Rd: 5}).HasDest() {
		t.Error("add with rd=x5 has a destination")
	}
	if (Inst{Op: OpSt, Rd: 5}).HasDest() {
		t.Error("store has no destination")
	}
	if !(Inst{Op: OpJal, Rd: 1}).HasDest() {
		t.Error("jal x1 links")
	}
	if (Inst{Op: OpBeq, Rd: 3}).HasDest() {
		t.Error("branch has no destination")
	}
}

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		in   Inst
		a, b uint64
		want uint64
	}{
		{Inst{Op: OpAdd}, 2, 3, 5},
		{Inst{Op: OpSub}, 2, 3, ^uint64(0)},
		{Inst{Op: OpAnd}, 0xF0, 0x3C, 0x30},
		{Inst{Op: OpOr}, 0xF0, 0x0C, 0xFC},
		{Inst{Op: OpXor}, 0xFF, 0x0F, 0xF0},
		{Inst{Op: OpShl}, 1, 12, 4096},
		{Inst{Op: OpShr}, 4096, 12, 1},
		{Inst{Op: OpSra}, ^uint64(7), 1, ^uint64(3)}, // -8 >> 1 == -4
		{Inst{Op: OpSlt}, ^uint64(0), 1, 1},          // -1 < 1 signed
		{Inst{Op: OpSltu}, ^uint64(0), 1, 0},
		{Inst{Op: OpAddi, Imm: -1}, 10, 0, 9},
		{Inst{Op: OpShli, Imm: 12}, 1, 0, 4096},
		{Inst{Op: OpLi, Imm: -5}, 0, 0, ^uint64(4)},
		{Inst{Op: OpMul}, 7, 6, 42},
		{Inst{Op: OpDiv}, 42, 6, 7},
		{Inst{Op: OpDiv}, 42, 0, ^uint64(0)},
		{Inst{Op: OpRem}, 43, 6, 1},
		{Inst{Op: OpRem}, 43, 0, 43},
	}
	for _, c := range cases {
		if got := EvalALU(c.in, c.a, c.b, 0); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d) = %d, want %d", c.in.Op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalALUDivOverflow(t *testing.T) {
	minInt := uint64(1) << 63
	if got := EvalALU(Inst{Op: OpDiv}, minInt, ^uint64(0), 0); got != minInt {
		t.Errorf("MinInt64 / -1 = %#x, want dividend %#x", got, minInt)
	}
	if got := EvalALU(Inst{Op: OpRem}, minInt, ^uint64(0), 0); got != 0 {
		t.Errorf("MinInt64 %% -1 = %#x, want 0", got)
	}
}

func TestBranchTaken(t *testing.T) {
	neg := ^uint64(0)
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{OpBeq, 5, 5, true}, {OpBeq, 5, 6, false},
		{OpBne, 5, 6, true}, {OpBne, 5, 5, false},
		{OpBlt, neg, 0, true}, {OpBlt, 0, neg, false},
		{OpBge, 0, neg, true}, {OpBge, neg, 0, false},
		{OpBltu, 0, neg, true}, {OpBltu, neg, 0, false},
		{OpBgeu, neg, 0, true}, {OpBgeu, 0, neg, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%v, %d, %d) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestFlatMemRoundTrip(t *testing.T) {
	f := func(addr uint64, val uint64, size uint8) bool {
		m := NewFlatMem()
		n := int(size%8) + 1
		addr &= (1 << 40) - 1 // keep page map small
		m.Write(addr, n, val)
		mask := ^uint64(0)
		if n < 8 {
			mask = (1 << (8 * n)) - 1
		}
		return m.Read(addr, n) == val&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlatMemCrossPage(t *testing.T) {
	m := NewFlatMem()
	addr := uint64(PageSize - 3)
	m.Write(addr, 8, 0x0807060504030201)
	if got := m.Read(addr, 8); got != 0x0807060504030201 {
		t.Fatalf("cross-page read = %#x", got)
	}
	if m.Pages() != 2 {
		t.Fatalf("expected 2 resident pages, got %d", m.Pages())
	}
}

func TestFlatMemZeroDefault(t *testing.T) {
	m := NewFlatMem()
	if got := m.Read(0xDEAD000, 8); got != 0 {
		t.Fatalf("unwritten memory reads %#x, want 0", got)
	}
	if m.Pages() != 0 {
		t.Fatal("read must not allocate pages")
	}
}

func TestFlatMemBytes(t *testing.T) {
	m := NewFlatMem()
	data := []byte{1, 2, 3, 4, 5}
	m.SetBytes(0x1000, data)
	got := m.BytesAt(0x1000, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

// TestFlatMemFetchMatchesRead: Fetch returns Read(pc, 8) at aligned,
// misaligned and page-straddling PCs, on resident and non-resident pages,
// while data reads and writes on other pages move the data cursor between
// fetches.
func TestFlatMemFetchMatchesRead(t *testing.T) {
	m := NewFlatMem()
	rng := rand.New(rand.NewSource(3))
	for pg := uint64(4); pg < 8; pg++ { // pages 4..7 resident, 8 not
		b := make([]byte, PageSize)
		rng.Read(b)
		m.SetBytes(pg*PageSize, b)
	}
	var pcs []uint64
	for pg := uint64(4); pg <= 8; pg++ {
		base := pg * PageSize
		for off := uint64(0); off < 16; off++ {
			pcs = append(pcs, base+off, base+0x800+off, base+PageSize-16+off)
		}
	}
	for i, pc := range pcs {
		if i%3 == 0 {
			m.Read(0x100000+uint64(i)*8, 8) // a data access elsewhere
			m.Write(6*PageSize+uint64(i), 1, uint64(i))
		}
		if got, want := m.Fetch(pc), m.Read(pc, 8); got != want {
			t.Fatalf("Fetch(%#x) = %#x, Read = %#x", pc, got, want)
		}
	}
}

// TestFlatMemFetchSeededPage: on a seeded, non-resident page Fetch sees the
// seeded words and leaves the page non-resident; once a Write makes the
// page resident, Fetch sees both the seeds and the write.
func TestFlatMemFetchSeededPage(t *testing.T) {
	m := NewFlatMem()
	m.Seed(0x3000, 0x1122334455667788)
	m.Seed(0x3ff8, 0x99AABBCCDDEEFF00)
	for _, pc := range []uint64{0x3000, 0x3004, 0x3ff8, 0x3ffc, 0x3100} {
		if got, want := m.Fetch(pc), m.Read(pc, 8); got != want {
			t.Fatalf("seeded Fetch(%#x) = %#x, Read = %#x", pc, got, want)
		}
	}
	if got := m.Fetch(0x3000); got != 0x1122334455667788 {
		t.Fatalf("seeded Fetch = %#x", got)
	}
	if m.Pages() != 0 {
		t.Fatalf("Fetch made %d pages resident", m.Pages())
	}
	m.Write(0x3008, 8, 0xCAFE)
	if m.Pages() != 1 {
		t.Fatalf("%d resident pages after the first write, want 1", m.Pages())
	}
	for pc, want := range map[uint64]uint64{
		0x3000: 0x1122334455667788,
		0x3008: 0xCAFE,
		0x3ff8: 0x99AABBCCDDEEFF00,
	} {
		if got := m.Fetch(pc); got != want {
			t.Fatalf("Fetch(%#x) after residency = %#x, want %#x", pc, got, want)
		}
	}
}

// TestFlatMemFetchSeesWrites: a Write or SetBytes to the page the fetch
// cursor holds is visible to the very next Fetch, also when another page's
// access moved the data cursor in between.
func TestFlatMemFetchSeesWrites(t *testing.T) {
	m := NewFlatMem()
	const pc = 0x5040
	m.Write(pc, 8, 1)
	if got := m.Fetch(pc); got != 1 {
		t.Fatalf("Fetch = %#x, want 1", got)
	}
	m.Write(pc, 8, 0x0102030405060708)
	if got := m.Fetch(pc); got != 0x0102030405060708 {
		t.Fatalf("Fetch after Write = %#x", got)
	}
	m.Write(0x9000, 8, 5) // the data cursor moves to another page
	m.Write(pc+1, 1, 0xEE)
	if got := m.Fetch(pc); got != 0x010203040506EE08 {
		t.Fatalf("Fetch after a byte Write = %#x", got)
	}
	m.SetBytes(pc+6, []byte{0xAA, 0xBB})
	if got := m.Fetch(pc); got != 0xBBAA03040506EE08 {
		t.Fatalf("Fetch after SetBytes = %#x", got)
	}
}

// seedSpan is the address window runSeedOps works in: three pages, so
// accesses straddle two page boundaries.
const (
	seedBase = 0x7000
	seedSpan = 3 * PageSize
)

// runSeedOps decodes data into a sequence of operations, each one opcode
// byte and two address bytes (value and size bytes follow where needed),
// and applies it to two memories: one that seeds words with Seed and one
// that writes them eagerly with Write. Every read must agree (a Fetch of
// the seeded memory with an 8-byte Read of the eager one), and the
// seeded memory may never hold more resident pages than the eager one.
func runSeedOps(t *testing.T, data []byte) {
	t.Helper()
	seeded, eager := NewFlatMem(), NewFlatMem()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func() uint64 {
		v := uint64(next())
		return v*0x0101_0101_0101_0101 ^ uint64(len(data))<<40
	}
	for step := 0; len(data) > 0; step++ {
		op := next() % 6
		addr := seedBase + (uint64(next())|uint64(next())<<8)%seedSpan
		size := int(next()%8) + 1
		switch op {
		case 0: // seed an aligned word
			addr &^= 7
			v := val()
			seeded.Seed(addr, v)
			eager.Write(addr, 8, v)
		case 1:
			v := val()
			seeded.Write(addr, size, v)
			eager.Write(addr, size, v)
		case 2:
			if s, e := seeded.Read(addr, size), eager.Read(addr, size); s != e {
				t.Fatalf("step %d: Read(%#x, %d) = %#x, eager %#x", step, addr, size, s, e)
			}
			if s, e := seeded.Fetch(addr), eager.Read(addr, 8); s != e {
				t.Fatalf("step %d: Fetch(%#x) = %#x, eager Read %#x", step, addr, s, e)
			}
		case 3:
			if s, e := seeded.ByteAt(addr), eager.ByteAt(addr); s != e {
				t.Fatalf("step %d: ByteAt(%#x) = %#x, eager %#x", step, addr, s, e)
			}
		case 4:
			if s, e := seeded.BytesAt(addr, 3*size), eager.BytesAt(addr, 3*size); string(s) != string(e) {
				t.Fatalf("step %d: BytesAt(%#x, %d) = %x, eager %x", step, addr, 3*size, s, e)
			}
		case 5:
			b := []byte{next(), next(), next()}
			seeded.SetBytes(addr, b)
			eager.SetBytes(addr, b)
		}
		if seeded.Pages() > eager.Pages() {
			t.Fatalf("step %d: %d resident pages, eager %d", step, seeded.Pages(), eager.Pages())
		}
	}
	if s, e := seeded.BytesAt(seedBase-8, seedSpan+16), eager.BytesAt(seedBase-8, seedSpan+16); string(s) != string(e) {
		t.Fatal("final contents differ")
	}
}

// TestFlatMemSeedDifferential runs the FuzzFlatMemSeed check over a fixed
// set of random operation sequences, so every test run covers it.
func TestFlatMemSeedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := make([]byte, 20+rng.Intn(400))
		rng.Read(data)
		runSeedOps(t, data)
	}
}

func TestFlatMemSeedIsLazy(t *testing.T) {
	m := NewFlatMem()
	m.Seed(0x2000, 0x1122334455667788)
	m.Seed(0x2ff8, 0xAABBCCDDEEFF0011)
	m.Seed(0x2000, 0x0102030405060708) // reseeding replaces the word
	if m.Pages() != 0 {
		t.Fatalf("seeding made %d pages resident", m.Pages())
	}
	if got := m.Read(0x2000, 8); got != 0x0102030405060708 {
		t.Fatalf("seeded read = %#x", got)
	}
	if got := m.Read(0x2ffc, 8); got != 0xAABBCCDD {
		t.Fatalf("straddling read = %#x, want the seeded high half and zero", got)
	}
	m.Write(0x2004, 1, 0xEE) // first write: the page's seeds are copied in
	if m.Pages() != 1 {
		t.Fatalf("%d resident pages after the first write, want 1", m.Pages())
	}
	if got := m.Read(0x2000, 8); got != 0x010203EE05060708 {
		t.Fatalf("read after partial write = %#x", got)
	}
	if got := m.Read(0x2ff8, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("second seeded word lost on residency: %#x", got)
	}
	m.Seed(0x2010, 7) // a resident page is written through
	if got := m.Read(0x2010, 8); got != 7 {
		t.Fatalf("seed on a resident page = %#x", got)
	}
}

func TestFlatMemSeedUnaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seed at an unaligned address did not panic")
		}
	}()
	NewFlatMem().Seed(0x1004, 1)
}

// TestFlatMemSeededReadsDoNotAllocate: reading a seeded, non-resident page
// — in page, straddling, byte-wise — allocates nothing and keeps it
// non-resident; the first write to it allocates exactly as the first write
// to a never-seeded page does.
func TestFlatMemSeededReadsDoNotAllocate(t *testing.T) {
	m := NewFlatMem()
	for pg := uint64(0); pg < 8; pg++ {
		m.Seed(pg*PageSize+0xff8, pg+1)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for pg := uint64(0); pg < 8; pg++ {
			sink += m.Read(pg*PageSize+0xff8, 8)
			sink += m.Read(pg*PageSize+0xffc, 8)
			sink += uint64(m.ByteAt(pg*PageSize + 0xff9))
			sink += m.Read(pg*PageSize+0x100, 4)
		}
	})
	if allocs != 0 {
		t.Fatalf("seeded reads: %v allocs/run, want 0", allocs)
	}
	if m.Pages() != 0 {
		t.Fatalf("seeded reads made %d pages resident", m.Pages())
	}
	if sink == 0 {
		t.Fatal("seeded reads returned zero")
	}

	const runs = 64
	firstWrites := func(seed bool) float64 {
		m := NewFlatMem()
		for pg := uint64(0); pg <= runs+1; pg++ {
			if seed {
				m.Seed(pg*PageSize+8, pg)
			}
		}
		pg := uint64(0)
		return testing.AllocsPerRun(runs, func() {
			m.Write(pg*PageSize, 8, 1)
			pg++
		})
	}
	if s, p := firstWrites(true), firstWrites(false); s != p {
		t.Fatalf("first write to a seeded page: %v allocs, to a fresh page: %v", s, p)
	}
}

// loadProgram writes instructions at base and returns an interpreter.
func loadProgram(insts []Inst, base uint64) *Interp {
	m := NewFlatMem()
	for i, in := range insts {
		m.Write(base+uint64(i)*InstBytes, InstBytes, Encode(in))
	}
	return NewInterp(m, base)
}

func TestInterpStraightLine(t *testing.T) {
	p := loadProgram([]Inst{
		{Op: OpLi, Rd: 1, Imm: 40},
		{Op: OpAddi, Rd: 2, Rs1: 1, Imm: 2},
		{Op: OpAdd, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: OpHalt},
	}, 0x1000)
	if _, err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	if p.Regs[3] != 82 {
		t.Fatalf("x3 = %d, want 82", p.Regs[3])
	}
	if !p.Halted {
		t.Fatal("program should have halted")
	}
	if p.InstRet != 4 {
		t.Fatalf("retired %d, want 4", p.InstRet)
	}
}

func TestInterpLoop(t *testing.T) {
	// Sum 1..10 with a backward branch.
	p := loadProgram([]Inst{
		{Op: OpLi, Rd: 1, Imm: 0},                        // 0x1000 sum
		{Op: OpLi, Rd: 2, Imm: 1},                        // 0x1008 i
		{Op: OpLi, Rd: 3, Imm: 10},                       // 0x1010 n
		{Op: OpAdd, Rd: 1, Rs1: 1, Rs2: 2},               // 0x1018 loop:
		{Op: OpAddi, Rd: 2, Rs1: 2, Imm: 1},              // 0x1020
		{Op: OpBge, Rs1: 3, Rs2: 2, Imm: -2 * InstBytes}, // 0x1028 -> loop
		{Op: OpHalt},
	}, 0x1000)
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if p.Regs[1] != 55 {
		t.Fatalf("sum = %d, want 55", p.Regs[1])
	}
}

func TestInterpMemoryAndX0(t *testing.T) {
	p := loadProgram([]Inst{
		{Op: OpLi, Rd: 1, Imm: 0x2000},
		{Op: OpLi, Rd: 2, Imm: 0x55},
		{Op: OpSt, Rs1: 1, Rs2: 2, Imm: 8},
		{Op: OpLd, Rd: 3, Rs1: 1, Imm: 8},
		{Op: OpSt1, Rs1: 1, Rs2: 3, Imm: 100},
		{Op: OpLd1, Rd: 4, Rs1: 1, Imm: 100},
		{Op: OpLi, Rd: 0, Imm: 99}, // write to x0 discarded
		{Op: OpAdd, Rd: 5, Rs1: 0, Rs2: 4},
		{Op: OpHalt},
	}, 0)
	if _, err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	if p.Regs[3] != 0x55 || p.Regs[4] != 0x55 || p.Regs[5] != 0x55 {
		t.Fatalf("x3=%#x x4=%#x x5=%#x, want all 0x55", p.Regs[3], p.Regs[4], p.Regs[5])
	}
	if p.Regs[0] != 0 {
		t.Fatal("x0 must stay zero")
	}
}

func TestInterpJalJalr(t *testing.T) {
	// call +3; target sets x5 and returns via jalr.
	p := loadProgram([]Inst{
		{Op: OpJal, Rd: 1, Imm: 3 * InstBytes}, // 0: call 24
		{Op: OpAddi, Rd: 6, Rs1: 5, Imm: 1},    // 8: after return
		{Op: OpHalt},                           // 16
		{Op: OpLi, Rd: 5, Imm: 41},             // 24: callee
		{Op: OpJalr, Rd: 0, Rs1: 1, Imm: 0},    // 32: ret
	}, 0)
	if _, err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	if p.Regs[6] != 42 {
		t.Fatalf("x6 = %d, want 42", p.Regs[6])
	}
	if p.Regs[1] != InstBytes {
		t.Fatalf("link = %#x, want %#x", p.Regs[1], uint64(InstBytes))
	}
}

func TestInterpBadOpcode(t *testing.T) {
	m := NewFlatMem()
	m.Write(0, InstBytes, Encode(Inst{Op: opCount + 5}))
	p := NewInterp(m, 0)
	if err := p.Step(); err == nil {
		t.Fatal("expected ErrBadOpcode")
	} else if _, ok := err.(ErrBadOpcode); !ok {
		t.Fatalf("got %T, want ErrBadOpcode", err)
	}
}

func TestInterpHaltedIsSticky(t *testing.T) {
	p := loadProgram([]Inst{{Op: OpHalt}}, 0)
	if _, err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	pc := p.PC
	if err := p.Step(); err != nil || p.PC != pc || p.InstRet != 1 {
		t.Fatal("Step after halt must be a no-op")
	}
}

func TestInterpRdcycleMonotonic(t *testing.T) {
	p := loadProgram([]Inst{
		{Op: OpRdcycle, Rd: 1},
		{Op: OpNop},
		{Op: OpRdcycle, Rd: 2},
		{Op: OpHalt},
	}, 0)
	if _, err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	if p.Regs[2] <= p.Regs[1] {
		t.Fatalf("rdcycle not monotonic: %d then %d", p.Regs[1], p.Regs[2])
	}
}

// TestInterpRandomProgramsTerminate generates random straight-line ALU
// programs (no control flow) and checks the interpreter never faults and
// always halts — a smoke property for EvalALU coverage.
func TestInterpRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	aluOps := []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSra,
		OpSlt, OpSltu, OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSrai,
		OpLi, OpMul, OpDiv, OpRem}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		insts := make([]Inst, 0, n+1)
		for i := 0; i < n; i++ {
			insts = append(insts, Inst{
				Op:  aluOps[rng.Intn(len(aluOps))],
				Rd:  uint8(rng.Intn(NumRegs)),
				Rs1: uint8(rng.Intn(NumRegs)),
				Rs2: uint8(rng.Intn(NumRegs)),
				Imm: int32(rng.Uint32()),
			})
		}
		insts = append(insts, Inst{Op: OpHalt})
		p := loadProgram(insts, 0x4000)
		ran, err := p.Run(uint64(n + 2))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !p.Halted {
			t.Fatalf("trial %d: did not halt after %d insts", trial, ran)
		}
		if p.Regs[0] != 0 {
			t.Fatalf("trial %d: x0 clobbered", trial)
		}
	}
}

func TestInstValidRejectsBadRegisters(t *testing.T) {
	if (Inst{Op: OpAdd, Rd: 32}).Valid() {
		t.Error("rd out of range must be invalid")
	}
	if (Inst{Op: OpAdd, Rs1: 200}).Valid() {
		t.Error("rs1 out of range must be invalid")
	}
	if (Inst{Op: opCount}).Valid() {
		t.Error("undefined opcode must be invalid")
	}
	if !(Inst{Op: OpAdd, Rd: 31, Rs1: 31, Rs2: 31}).Valid() {
		t.Error("maximal legal registers must be valid")
	}
}

func TestInterpRejectsBadRegisterEncoding(t *testing.T) {
	m := NewFlatMem()
	m.Write(0, InstBytes, Encode(Inst{Op: OpAdd, Rd: 40}))
	p := NewInterp(m, 0)
	if err := p.Step(); err == nil {
		t.Fatal("out-of-range register field must fault")
	}
}
