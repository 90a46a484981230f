package emu

import (
	"testing"
	"testing/quick"

	"specvec/internal/isa"
)

func r(i int) isa.Reg { return isa.IntReg(i) }
func f(i int) isa.Reg { return isa.FPReg(i) }

func runProg(t *testing.T, build func(b *isa.Builder)) *Machine {
	t.Helper()
	b := isa.NewBuilder("t")
	build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticLoop(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.Li(r(1), 0)  // sum
		b.Li(r(2), 1)  // i
		b.Li(r(3), 11) // bound
		b.Label("loop")
		b.Add(r(1), r(1), r(2))
		b.Addi(r(2), r(2), 1)
		b.Blt(r(2), r(3), "loop")
		b.Halt()
	})
	if got := m.IntReg(1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestZeroRegister(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.Li(r(0), 42) // must be discarded
		b.Add(r(1), r(0), r(0))
		b.Halt()
	})
	if got := m.IntReg(0); got != 0 {
		t.Errorf("r0 = %d, want 0", got)
	}
	if got := m.IntReg(1); got != 0 {
		t.Errorf("r1 = %d, want 0", got)
	}
}

func TestLoadStore(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.DataWords("arr", []uint64{10, 20, 30, 40})
		b.LoadAddr(r(1), "arr")
		b.Ld(r(2), r(1), 8)     // 20
		b.Ld(r(3), r(1), 24)    // 40
		b.Add(r(4), r(2), r(3)) // 60
		b.St(r(4), r(1), 0)
		b.Ld(r(5), r(1), 0)
		b.Halt()
	})
	if got := m.IntReg(5); got != 60 {
		t.Errorf("r5 = %d, want 60", got)
	}
}

func TestFPPipeline(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.DataFloats("v", []float64{1.5, 2.5})
		b.LoadAddr(r(1), "v")
		b.Ldf(f(1), r(1), 0)
		b.Ldf(f(2), r(1), 8)
		b.Fadd(f(3), f(1), f(2))
		b.Fmul(f(4), f(3), f(3))
		b.Fsub(f(5), f(4), f(1))
		b.Fdiv(f(6), f(5), f(2))
		b.Halt()
	})
	want := (4.0*4.0 - 1.5) / 2.5
	if got := m.FPReg(6); got != want {
		t.Errorf("f6 = %v, want %v", got, want)
	}
}

func TestBranchVariants(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *isa.Builder)
		want int64
	}{
		{"beq-taken", func(b *isa.Builder) { b.Beq(r(1), r(1), "yes") }, 1},
		{"bne-nottaken", func(b *isa.Builder) { b.Bne(r(1), r(1), "yes") }, 0},
		{"blt-signed", func(b *isa.Builder) { b.Li(r(2), -5); b.Blt(r(2), r(1), "yes") }, 1},
		{"bltu-unsigned", func(b *isa.Builder) { b.Li(r(2), -5); b.Bltu(r(2), r(1), "yes") }, 0},
		{"bge", func(b *isa.Builder) { b.Bge(r(1), r(1), "yes") }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := runProg(t, func(b *isa.Builder) {
				b.Li(r(1), 7)
				c.emit(b)
				b.Li(r(9), 0)
				b.Halt()
				b.Label("yes")
				b.Li(r(9), 1)
				b.Halt()
			})
			if got := m.IntReg(9); got != c.want {
				t.Errorf("r9 = %d, want %d", got, c.want)
			}
		})
	}
}

func TestJalJr(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.Li(r(5), 0)
		b.Jal(r(31), "fn")
		b.Addi(r(5), r(5), 100) // after return
		b.Halt()
		b.Label("fn")
		b.Addi(r(5), r(5), 1)
		b.Jr(r(31), 0)
	})
	if got := m.IntReg(5); got != 101 {
		t.Errorf("r5 = %d, want 101", got)
	}
}

func TestDivRemEdgeCases(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.Li(r(1), 7)
		b.Li(r(2), 0)
		b.Div(r(3), r(1), r(2)) // div by zero -> -1
		b.Rem(r(4), r(1), r(2)) // rem by zero -> rs1
		b.Li(r(5), -9223372036854775808)
		b.Li(r(6), -1)
		b.Div(r(7), r(5), r(6)) // overflow wraps
		b.Rem(r(8), r(5), r(6)) // 0
		b.Halt()
	})
	if got := m.IntReg(3); got != -1 {
		t.Errorf("div by zero = %d, want -1", got)
	}
	if got := m.IntReg(4); got != 7 {
		t.Errorf("rem by zero = %d, want 7", got)
	}
	if got := m.IntReg(7); got != -9223372036854775808 {
		t.Errorf("overflow div = %d", got)
	}
	if got := m.IntReg(8); got != 0 {
		t.Errorf("overflow rem = %d", got)
	}
}

func TestShiftSemantics(t *testing.T) {
	m := runProg(t, func(b *isa.Builder) {
		b.Li(r(1), -16)
		b.Srai(r(2), r(1), 2) // -4 arithmetic
		b.Srli(r(3), r(1), 60)
		b.Li(r(4), 1)
		b.Slli(r(5), r(4), 63)
		b.Halt()
	})
	if got := m.IntReg(2); got != -4 {
		t.Errorf("srai = %d, want -4", got)
	}
	if got := uint64(m.IntReg(3)); got != 0xf {
		t.Errorf("srli = %#x, want 0xf", got)
	}
	if got := uint64(m.IntReg(5)); got != 1<<63 {
		t.Errorf("slli = %#x", got)
	}
}

func TestRunLimit(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("loop")
	b.J("loop")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Run(1000)
	if err != ErrLimit {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if n != 1000 {
		t.Errorf("ran %d, want 1000", n)
	}
}

func TestDynInstRecords(t *testing.T) {
	b := isa.NewBuilder("t")
	b.DataWords("x", []uint64{99})
	b.LoadAddr(r(1), "x")
	b.Ld(r(2), r(1), 0)
	b.St(r(2), r(1), 8)
	b.Halt()
	p, _ := b.Build()
	m, _ := New(p)
	addr := p.DataSyms["x"]

	d := m.Step() // li
	if d.Seq != 0 || d.PC != 0 || d.NextPC != 1 {
		t.Errorf("li record = %+v", d)
	}
	d = m.Step() // ld
	if d.EffAddr != addr || d.Result != 99 {
		t.Errorf("ld record addr=%#x result=%d", d.EffAddr, d.Result)
	}
	d = m.Step() // st
	if d.EffAddr != addr+8 || d.StoreVal != 99 {
		t.Errorf("st record addr=%#x val=%d", d.EffAddr, d.StoreVal)
	}
	d = m.Step() // halt
	if !d.Halt || !m.Halted() {
		t.Error("halt not recorded")
	}
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000_0000, 1)
	m.Write64(0x7000_0000, 2)
	if m.PageCount() != 2 {
		t.Errorf("pages = %d, want 2", m.PageCount())
	}
	if m.Read64(0x5000_0000) != 0 {
		t.Error("unmapped read != 0")
	}
}

func TestMemoryStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // straddles the first page boundary
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("straddle read = %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("pages = %d, want 2", m.PageCount())
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	mem := NewMemory()
	fn := func(addr uint32, v uint64) bool {
		a := uint64(addr)
		mem.Write64(a, v)
		return mem.Read64(a) == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytesRoundTrip(t *testing.T) {
	mem := NewMemory()
	data := []byte("the quick brown fox jumps over the lazy dog")
	mem.WriteBytes(uint64(pageSize)-10, data) // straddle
	got := mem.ReadBytes(uint64(pageSize)-10, len(data))
	if string(got) != string(data) {
		t.Errorf("round trip = %q", got)
	}
}

// TestALUPropertyVsGo cross-checks emulated arithmetic against native Go
// semantics on random operands.
func TestALUPropertyVsGo(t *testing.T) {
	type alu struct {
		op   isa.Op
		gold func(a, b int64) int64
	}
	ops := []alu{
		{isa.OpAdd, func(a, b int64) int64 { return a + b }},
		{isa.OpSub, func(a, b int64) int64 { return a - b }},
		{isa.OpMul, func(a, b int64) int64 { return a * b }},
		{isa.OpAnd, func(a, b int64) int64 { return a & b }},
		{isa.OpOr, func(a, b int64) int64 { return a | b }},
		{isa.OpXor, func(a, b int64) int64 { return a ^ b }},
		{isa.OpSlt, func(a, b int64) int64 {
			if a < b {
				return 1
			}
			return 0
		}},
	}
	for _, c := range ops {
		c := c
		fn := func(a, b int64) bool {
			bld := isa.NewBuilder("t")
			bld.Li(r(1), a)
			bld.Li(r(2), b)
			bld.Emit(isa.Inst{Op: c.op, Rd: r(3), Rs1: r(1), Rs2: r(2)})
			bld.Halt()
			p, _ := bld.Build()
			m, _ := New(p)
			if _, err := m.Run(10); err != nil {
				return false
			}
			return m.IntReg(3) == c.gold(a, b)
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", c.op, err)
		}
	}
}
