package trace

import (
	"bytes"
	"testing"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// requireExact fails unless every record column of tr has cap == len and
// SizeBytes reports exactly 9 B per record plus 40 B per distinct tuple
// on top of the program text.
func requireExact(t *testing.T, name string, tr *Trace) {
	t.Helper()
	for _, c := range []struct {
		col      string
		len, cap int
	}{
		{"pcs", len(tr.pcs), cap(tr.pcs)},
		{"flags", len(tr.flags), cap(tr.flags)},
		{"tupleIdx", len(tr.tupleIdx), cap(tr.tupleIdx)},
		{"tuples", len(tr.tuples), cap(tr.tuples)},
	} {
		if c.cap != c.len {
			t.Errorf("%s: column %s has cap %d for len %d", name, c.col, c.cap, c.len)
		}
	}
	want := 9*tr.Len() + 8*tupleWords*tr.TupleCount() + 16*cap(tr.insts)
	if got := tr.SizeBytes(); got != want {
		t.Errorf("%s: SizeBytes %d, want %d", name, got, want)
	}
}

// TestFinishExactFootprint pins that a finished recording holds exactly
// its data: whether the program halts short of a reserved target, the
// recording is truncated with grown-on-demand columns, or the columns
// were reserved up front, Finish leaves no capacity slack and drops the
// interning table.
func TestFinishExactFootprint(t *testing.T) {
	cases := []struct {
		name    string
		prog    *isa.Program
		reserve int
		target  int
	}{
		{"halts-before-target", controlProgram(t), 1 << 16, 1 << 16},
		{"truncated", buildBench(t, "go", 50_000), 0, 5_000},
		{"reserved", buildBench(t, "swim", 50_000), 20_000, 20_000},
	}
	for _, c := range cases {
		rec, err := NewRecorder(newMachine(t, c.prog), c.prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.reserve > 0 {
			rec.Reserve(c.reserve)
		}
		tr, err := rec.Finish(c.target)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 || tr.TupleCount() == 0 {
			t.Fatalf("%s: empty recording (%d records, %d tuples)", c.name, tr.Len(), tr.TupleCount())
		}
		requireExact(t, c.name, tr)
		if rec.intern != nil {
			t.Errorf("%s: recorder kept its interning table after Finish", c.name)
		}
	}
}

// TestDecodeExactFootprint decodes a trace longer than the codec's
// initial-capacity clamp, so its columns grow by append, and requires the
// decoded trace to hold exactly its data. The trace is built in-package,
// without emulation: a two-instruction loop whose operand values cycle
// through a few hundred tuples.
func TestDecodeExactFootprint(t *testing.T) {
	const n = 1<<20 + 4099
	tr := &Trace{
		name: "synthetic",
		insts: []isa.Inst{
			{Op: isa.OpAddi, Rd: isa.IntReg(1), Rs1: isa.IntReg(1), Imm: 1},
			{Op: isa.OpJ, Imm: 0},
		},
		version: Version,
	}
	intern := make(map[[tupleWords]uint64]uint32)
	for i := range n {
		d := emu.DynInst{PC: uint64(i % 2), Taken: i%2 == 1, Result: uint64(i % 397), Src1Val: uint64(i % 396)}
		tr.append(&d, intern)
	}
	tr.truncated = true

	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != n || back.TupleCount() != tr.TupleCount() {
		t.Fatalf("decoded %d records, %d tuples; want %d, %d", back.Len(), back.TupleCount(), n, tr.TupleCount())
	}
	requireExact(t, "decoded", back)
	var a, b emu.DynInst
	for _, i := range []int{0, 1, 1 << 20, n - 1} {
		tr.Record(i, &a)
		back.Record(i, &b)
		if a != b {
			t.Fatalf("record %d differs after round-trip:\nin:  %+v\nout: %+v", i, a, b)
		}
	}
}
