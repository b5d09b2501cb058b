package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
)

func run(t *testing.T, build func(b *asm.Builder)) *Machine {
	t.Helper()
	b := asm.New()
	build(b)
	b.Halt()
	m := New(b.MustBuild(), nil)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		b.Li(isa.R(1), 7)
		b.Li(isa.R(2), 5)
		b.Add(isa.R(3), isa.R(1), isa.R(2))  // 12
		b.Sub(isa.R(4), isa.R(1), isa.R(2))  // 2
		b.Mul(isa.R(5), isa.R(1), isa.R(2))  // 35
		b.Div(isa.R(6), isa.R(1), isa.R(2))  // 1
		b.Rem(isa.R(7), isa.R(1), isa.R(2))  // 2
		b.Xor(isa.R(8), isa.R(1), isa.R(2))  // 2
		b.And(isa.R(9), isa.R(1), isa.R(2))  // 5
		b.Or(isa.R(10), isa.R(1), isa.R(2))  // 7
		b.Shli(isa.R(11), isa.R(1), 3)       // 56
		b.Shri(isa.R(12), isa.R(11), 2)      // 14
		b.Slt(isa.R(13), isa.R(2), isa.R(1)) // 1
		b.Slt(isa.R(14), isa.R(1), isa.R(2)) // 0
	})
	want := map[int]uint64{3: 12, 4: 2, 5: 35, 6: 1, 7: 2, 8: 2, 9: 5,
		10: 7, 11: 56, 12: 14, 13: 1, 14: 0}
	for r, w := range want {
		if got := m.IntReg[r]; got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		b.Li(isa.R(1), 99)
		b.Div(isa.R(2), isa.R(1), isa.R0)
		b.Rem(isa.R(3), isa.R(1), isa.R0)
	})
	if m.IntReg[2] != 0 || m.IntReg[3] != 0 {
		t.Errorf("div/rem by zero = %d,%d, want 0,0", m.IntReg[2], m.IntReg[3])
	}
}

func TestR0AlwaysZero(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		b.Addi(isa.R0, isa.R0, 123)
		b.Add(isa.R(1), isa.R0, isa.R0)
	})
	if m.IntReg[0] != 0 || m.IntReg[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d, want 0,0", m.IntReg[0], m.IntReg[1])
	}
}

func TestNegativeImmediates(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		b.Li(isa.R(1), 10)
		b.Addi(isa.R(2), isa.R(1), -15)
	})
	if int64(m.IntReg[2]) != -5 {
		t.Errorf("r2 = %d, want -5", int64(m.IntReg[2]))
	}
}

func TestLi64RoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := asm.New()
		b.Li(isa.R(1), v)
		b.Halt()
		m := New(b.MustBuild(), nil)
		if _, err := m.Run(0); err != nil {
			return false
		}
		return int64(m.IntReg[1]) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Edge values.
	for _, v := range []int64{0, 1, -1, 1 << 15, -(1 << 15), 1<<31 - 1,
		-(1 << 31), 1 << 31, 1<<62 + 12345, -(1 << 62), 0x7FFFFFFFFFFFFFFF,
		-0x8000000000000000} {
		if !f(v) {
			t.Errorf("Li round trip failed for %d", v)
		}
	}
}

func TestLoadsAndStores(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		b.Li(isa.R(2), 0x1122334455667788)
		b.St(isa.R(2), isa.R(1), 0)
		b.Ld(isa.R(3), isa.R(1), 0)
		b.Lw(isa.R(4), isa.R(1), 0)
		b.Lb(isa.R(5), isa.R(1), 0)
		b.Lb(isa.R(6), isa.R(1), 7)
		b.Li(isa.R(7), 0xAB)
		b.Sb(isa.R(7), isa.R(1), 16)
		b.Lb(isa.R(8), isa.R(1), 16)
		b.Li(isa.R(9), 0xDEADBEEF)
		b.Sw(isa.R(9), isa.R(1), 24)
		b.Lw(isa.R(10), isa.R(1), 24)
	})
	want := map[int]uint64{
		3: 0x1122334455667788, 4: 0x55667788, 5: 0x88, 6: 0x11,
		8: 0xAB, 10: 0xDEADBEEF,
	}
	for r, w := range want {
		if got := m.IntReg[r]; got != w {
			t.Errorf("r%d = %#x, want %#x", r, got, w)
		}
	}
}

func TestFloatOps(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		b.Li(isa.R(1), 0x20000)
		b.Li(isa.R(2), 6)
		b.Fitof(isa.F(0), isa.R(2)) // 6.0
		b.Li(isa.R(3), 4)
		b.Fitof(isa.F(1), isa.R(3))          // 4.0
		b.Fadd(isa.F(2), isa.F(0), isa.F(1)) // 10
		b.Fsub(isa.F(3), isa.F(0), isa.F(1)) // 2
		b.Fmul(isa.F(4), isa.F(0), isa.F(1)) // 24
		b.Fdiv(isa.F(5), isa.F(0), isa.F(1)) // 1.5
		b.Fst(isa.F(5), isa.R(1), 0)
		b.Fld(isa.F(6), isa.R(1), 0)
		b.Fftoi(isa.R(4), isa.F(2)) // 10
	})
	wantF := map[int]float64{2: 10, 3: 2, 4: 24, 5: 1.5, 6: 1.5}
	for r, w := range wantF {
		if got := m.FPReg[r]; got != w {
			t.Errorf("f%d = %v, want %v", r, got, w)
		}
	}
	if m.IntReg[4] != 10 {
		t.Errorf("fftoi = %d, want 10", m.IntReg[4])
	}
}

func TestLoopSumsToN(t *testing.T) {
	// sum 1..100 via a backward branch.
	m := run(t, func(b *asm.Builder) {
		b.Li(isa.R(1), 100) // n
		b.Li(isa.R(2), 0)   // sum
		b.Li(isa.R(3), 1)   // i
		top := b.Here("top")
		b.Add(isa.R(2), isa.R(2), isa.R(3))
		b.Addi(isa.R(3), isa.R(3), 1)
		b.Bge(isa.R(1), isa.R(3), top)
	})
	if m.IntReg[2] != 5050 {
		t.Errorf("sum = %d, want 5050", m.IntReg[2])
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, func(b *asm.Builder) {
		fn := b.NewLabel("double")
		b.Li(isa.R(1), 21)
		b.Call(fn)
		b.Mov(isa.R(3), isa.R(2))
		done := b.NewLabel("done")
		b.Jmp(done)
		b.Bind(fn)
		b.Add(isa.R(2), isa.R(1), isa.R(1))
		b.Ret()
		b.Bind(done)
	})
	if m.IntReg[3] != 42 {
		t.Errorf("call result = %d, want 42", m.IntReg[3])
	}
}

func TestDynInstFields(t *testing.T) {
	b := asm.New()
	b.Li(isa.R(1), 0x7000) // small enough for a single addi
	b.Ld(isa.R(2), isa.R(1), 8)
	b.St(isa.R(2), isa.R(1), 16)
	skip := b.NewLabel("skip")
	b.Beq(isa.R0, isa.R0, skip)
	b.Nop()
	b.Bind(skip)
	b.Halt()
	m := New(b.MustBuild(), nil)

	d0, err := m.Step() // li
	if err != nil {
		t.Fatal(err)
	}
	if m.Executed() != 1 || d0.PC != m.TextBase || d0.Op != isa.ADDI {
		t.Errorf("first DynInst = %+v (executed %d)", d0, m.Executed())
	}

	d1, _ := m.Step() // ld
	if !d1.IsLoad() || d1.EffAddr != 0x7008 || d1.MemSize != 8 {
		t.Errorf("load DynInst = %+v", d1)
	}
	if d1.Rd != isa.R(2) || d1.Rs1 != isa.R(1) {
		t.Errorf("load regs = rd:%v rs1:%v", d1.Rd, d1.Rs1)
	}

	d2, _ := m.Step() // st
	if !d2.IsStore() || d2.EffAddr != 0x7010 {
		t.Errorf("store DynInst = %+v", d2)
	}
	if d2.Rd != isa.RegNone {
		t.Errorf("store has destination %v", d2.Rd)
	}

	d3, _ := m.Step() // taken beq
	if !d3.IsCTI() || !d3.Taken {
		t.Errorf("branch DynInst = %+v", d3)
	}
	if d3.NextPC != d3.PC+2*isa.InstBytes {
		t.Errorf("branch NextPC = %#x, want %#x", d3.NextPC, d3.PC+2*isa.InstBytes)
	}
}

// TestDynInstSize pins the record at 32 bytes. Trace memory (one
// record per recorded instruction) and every fetch-queue and ROB copy
// scale with this size, so a field that grows it must pay for itself.
func TestDynInstSize(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(DynInst{}) = %d, want 32", got)
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := asm.New()
	b.Halt()
	m := New(b.MustBuild(), nil)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("machine not halted after HALT")
	}
	if _, err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestPCOutsideText(t *testing.T) {
	b := asm.New()
	b.Jalr(isa.R0, isa.R(1)) // jump to r1 = 0
	b.Halt()
	m := New(b.MustBuild(), nil)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("expected error for PC outside text")
	}
}

func TestRunMaxInstructions(t *testing.T) {
	b := asm.New()
	top := b.Here("spin")
	b.Jmp(top)
	m := New(b.MustBuild(), nil)
	n, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("Run executed %d, want 1000", n)
	}
	if m.Executed() != 1000 {
		t.Errorf("Executed() = %d", m.Executed())
	}
}

func TestGuestMemZeroFill(t *testing.T) {
	m := NewGuestMem()
	if m.Read64(0x123456) != 0 {
		t.Error("untouched memory should read zero")
	}
	if m.Pages() != 0 {
		t.Error("read should not allocate pages")
	}
	m.Write64(0x8000, 1)
	if n := testing.AllocsPerRun(100, func() { m.Read64(0x123456 + recentPages*PageBytes) }); n != 0 {
		t.Errorf("a read of untouched memory allocated %v times", n)
	}
}

func TestGuestMemPageSplit(t *testing.T) {
	m := NewGuestMem()
	addr := uint64(PageBytes - 3) // straddles first page boundary
	m.Write64(addr, 0x0102030405060708)
	if got := m.Read64(addr); got != 0x0102030405060708 {
		t.Errorf("page-split read = %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
}

func TestGuestMemRoundTripRandom(t *testing.T) {
	m := NewGuestMem()
	r := rand.New(rand.NewSource(7))
	type wr struct {
		addr uint64
		val  uint64
	}
	// Non-overlapping 8-byte slots on three pages that share one entry
	// of the page cache, visited in turn.
	var writes []wr
	for i := 0; i < 200; i++ {
		writes = append(writes, wr{uint64(i)*8 + 0x4000 + uint64(i%3)*recentPages*PageBytes, r.Uint64()})
	}
	for _, w := range writes {
		m.Write64(w.addr, w.val)
	}
	for _, w := range writes {
		if got := m.Read64(w.addr); got != w.val {
			t.Fatalf("read(%#x) = %#x, want %#x", w.addr, got, w.val)
		}
	}
}

func TestGuestMemFloat(t *testing.T) {
	m := NewGuestMem()
	m.WriteFloat(0x8000, 3.14159)
	if got := m.ReadFloat(0x8000); got != 3.14159 {
		t.Errorf("ReadFloat = %v", got)
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(0x1003, 16)
	p1 := a.Alloc(24)
	p2 := a.Alloc(8)
	if p1%16 != 0 || p2%16 != 0 {
		t.Errorf("allocations not aligned: %#x %#x", p1, p2)
	}
	if p2 <= p1 || p2-p1 < 24 {
		t.Errorf("allocations overlap: %#x %#x", p1, p2)
	}
}

func TestAllocatorPadAndReset(t *testing.T) {
	a := NewAllocator(0x1000, 8)
	p1 := a.AllocPad(8, 32)
	p2 := a.Alloc(8)
	if p2-p1 < 40 {
		t.Errorf("pad not honored: %#x %#x", p1, p2)
	}
	a.Reset(0x1000)
	if got := a.Alloc(8); got != p1 {
		t.Errorf("after reset alloc = %#x, want %#x", got, p1)
	}
}

func TestAllocatorBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two alignment")
		}
	}()
	NewAllocator(0, 12)
}
