package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// requireExact fails unless every column of tr has cap == len and
// SizeBytes is exactly the narrow layout: (wPC+wIdx) B per record, one
// taken bit per record in whole words, 16 B per distinct tuple and 16 B
// per static instruction.
func requireExact(t *testing.T, name string, tr *Trace) {
	t.Helper()
	for _, c := range []struct {
		col      string
		len, cap int
	}{
		{"pcs", len(tr.pcs.b), cap(tr.pcs.b)},
		{"tupleIdx", len(tr.tupleIdx.b), cap(tr.tupleIdx.b)},
		{"taken", len(tr.taken), cap(tr.taken)},
		{"tuples", len(tr.tuples), cap(tr.tuples)},
	} {
		if c.cap != c.len {
			t.Errorf("%s: column %s has cap %d for len %d", name, c.col, c.cap, c.len)
		}
	}
	n := tr.Len()
	if len(tr.pcs.b) != tr.pcs.w*n || len(tr.tupleIdx.b) != tr.tupleIdx.w*n || len(tr.taken) != (n+63)/64 {
		t.Errorf("%s: %d records in %d PC bytes (width %d), %d index bytes (width %d), %d taken words",
			name, n, len(tr.pcs.b), tr.pcs.w, len(tr.tupleIdx.b), tr.tupleIdx.w, len(tr.taken))
	}
	want := (tr.pcs.w+tr.tupleIdx.w)*n + 8*((n+63)/64) + 8*tupleWords*tr.TupleCount() + 16*cap(tr.insts)
	if got := tr.SizeBytes(); got != want {
		t.Errorf("%s: SizeBytes %d, want %d", name, got, want)
	}
}

// TestFinishExactFootprint pins that a finished recording holds exactly
// its data: whether the program halts short of a reserved target, the
// recording is truncated with grown-on-demand columns, or the columns
// were reserved up front, Finish leaves no capacity slack, and the
// recorder lets go of its columns and its interning table.
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
		rec, err := NewRecorder(newMachine(t, c.prog), c.prog, c.reserve)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Finish(c.target)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 || tr.TupleCount() == 0 {
			t.Fatalf("%s: empty recording (%d records, %d tuples)", c.name, tr.Len(), tr.TupleCount())
		}
		requireExact(t, c.name, tr)
		if rec.intern.slots != nil || rec.cols.pcs != nil || rec.cols.tuples != nil {
			t.Errorf("%s: recorder kept its columns or interning table after Finish", c.name)
		}
	}
}

// TestDecodeExactFootprint decodes a trace longer than the codec's
// initial-capacity clamp, so its columns grow by append, and requires the
// decoded trace to hold exactly its data. The trace is built in-package,
// without emulation: a two-instruction loop whose add source values cycle
// with coprime periods 397 and 396, so the add records hold 78,606
// distinct tuples and the tuple-index column needs 3 bytes.
func TestDecodeExactFootprint(t *testing.T) {
	const n = 1<<20 + 4099
	tr := synthetic(n, func(i int) emu.DynInst {
		return emu.DynInst{PC: uint64(i % 2), Taken: i%2 == 1, Src1Val: uint64(i % 397), Src2Val: uint64(i % 396)}
	})
	tr.truncated = true
	if tr.TupleCount() != 78_606 || tr.tupleIdx.w != 3 {
		t.Fatalf("synthetic trace has %d tuples in a %d-byte index column; want 78606 in 3 bytes",
			tr.TupleCount(), tr.tupleIdx.w)
	}

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
	if back.tupleIdx.w != 3 {
		t.Errorf("decoded tuple-index column is %d bytes wide, want 3", back.tupleIdx.w)
	}
	requireExact(t, "decoded", back)
	var a, b emu.Record
	for _, i := range []int{0, 1, 1 << 20, n - 1} {
		tr.Record(i, &a)
		back.Record(i, &b)
		if a != b {
			t.Fatalf("record %d differs after round-trip:\nin:  %+v\nout: %+v", i, a, b)
		}
	}
}

// synthetic builds an n-record trace in-package, without emulation, over
// a two-instruction loop text (add at PC 0, j at PC 1); rec(i) supplies
// record i's PC, branch outcome and operand values, of which the tuple
// keeps what emu.Project keeps for the instruction at that PC.
func synthetic(n int, rec func(i int) emu.DynInst) *Trace {
	tr := &Trace{
		name: "synthetic",
		insts: []isa.Inst{
			{Op: isa.OpAdd, Rd: isa.IntReg(1), Rs1: isa.IntReg(1), Rs2: isa.IntReg(2)},
			{Op: isa.OpJ, Imm: 0},
		},
	}
	var cols columns
	var in interner
	for i := range n {
		d := rec(i)
		d.Inst = tr.inst(d.PC)
		r := emu.Project(&d)
		cols.add(uint32(r.PC), r.Taken, in.intern(&cols.tuples, &r.Vals))
	}
	cols.build(tr)
	return tr
}

// TestColumnWidensInPlace appends batches whose largest values cross
// every byte boundary to a column with room for all of them: the column
// takes each new width without moving, and every value reads back.
func TestColumnWidensInPlace(t *testing.T) {
	c := column{b: make([]byte, 0, 4*16)}
	var want []uint32
	for _, batch := range [][]uint32{{0, 1, 2}, {255, 3}, {256, 7}, {1<<16 - 1}, {1 << 16, 9}, {1 << 24, 1<<32 - 1, 5}} {
		c.append(batch, 16)
		want = append(want, batch...)
		if hi := slices.Max(want); c.w != width(hi) || cap(c.b) != 4*16 {
			t.Fatalf("after %v: width %d, cap %d; want width %d in place (cap 64)", batch, c.w, cap(c.b), width(hi))
		}
	}
	if c.len() != len(want) {
		t.Fatalf("column holds %d values, want %d", c.len(), len(want))
	}
	for i, v := range want {
		if got := c.at(i); got != v {
			t.Errorf("value %d reads %#x, want %#x", i, got, v)
		}
	}
}

// TestRecordingsShareNoScratch records programs one after another, so
// each recorder works in the per-record columns the one before returned
// to the scratch pool, and requires every trace to survive the later
// recordings intact. Recorded to a reserved target past its halt, a
// program's trace gets copies of the columns and the scratch keeps them;
// recorded exactly to a reserved truncation point by a recorder that had
// to allocate its columns, the trace takes them, and the next recording
// of the same length must not write into them.
func TestRecordingsShareNoScratch(t *testing.T) {
	compress, swim := buildBench(t, "compress", 20_000), buildBench(t, "swim", 20_000)
	type recorded struct {
		prog *isa.Program
		tr   *Trace
	}
	var all []recorded
	record := func(p *isa.Program, n int) {
		rec, err := NewRecorder(newMachine(t, p), p, n)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Finish(n)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, p.Name, tr)
		all = append(all, recorded{p, tr})
	}
	for range 2 {
		record(compress, 1<<20)
		record(swim, 1<<20)
		// Two collections empty the pool, so the next recorder allocates
		// its columns at exactly 20,000 records.
		runtime.GC()
		runtime.GC()
		record(compress, 20_000)
		record(swim, 20_000)
	}
	for i, r := range all {
		sameSteps(t, fmt.Sprintf("recording %d (%s, %d records)", i, r.prog.Name, r.tr.Len()), newMachine(t, r.prog), r.tr)
	}
}

// TestColumnWidths pins the narrowing rule at each byte boundary: a
// column takes the fewest bytes that hold its largest value, whether
// that value is a PC or a tuple index (driven here by synthetic tuple
// counts), and every value reads back unchanged.
func TestColumnWidths(t *testing.T) {
	for _, c := range []struct {
		max  uint32
		want int
	}{
		{0, 1}, {1<<8 - 1, 1}, {1 << 8, 2}, {1<<16 - 1, 2}, {1 << 16, 3}, {1<<24 - 1, 3}, {1 << 24, 4}, {1<<32 - 1, 4},
	} {
		vals := []uint32{c.max, 0, c.max / 2, min(1, c.max), c.max}
		var col column
		col.append(vals, len(vals))
		if col.w != c.want || len(col.b) != c.want*len(vals) || cap(col.b) != len(col.b) {
			t.Errorf("max %#x: width %d, %d bytes (cap %d); want width %d", c.max, col.w, len(col.b), cap(col.b), c.want)
		}
		for i, v := range vals {
			if got := col.at(i); got != v {
				t.Errorf("max %#x: value %d reads %#x, want %#x", c.max, i, got, v)
			}
		}
	}

	// A recording with 2^8 or 2^16 tuples is the first to need a wider
	// index column once it gains one more (the largest index is
	// count-1). Each record is the add with a fresh first source value, so
	// count == records.
	// The 2^24 boundary is pinned on the column above: a pool of 2^24
	// tuples would hold 671 MB.
	for _, c := range []struct{ tuples, want int }{
		{1<<8 - 1, 1}, {1 << 8, 1}, {1<<8 + 1, 2},
		{1<<16 - 1, 2}, {1 << 16, 2}, {1<<16 + 1, 3},
	} {
		tr := synthetic(c.tuples, func(i int) emu.DynInst { return emu.DynInst{Src1Val: uint64(i)} })
		if tr.TupleCount() != c.tuples || tr.tupleIdx.w != c.want || tr.pcs.w != 1 {
			t.Errorf("%d tuples: index width %d, PC width %d, %d tuples; want index width %d, PC width 1",
				c.tuples, tr.tupleIdx.w, tr.pcs.w, tr.TupleCount(), c.want)
		}
		requireExact(t, "synthetic", tr)
		var d emu.Record
		tr.Record(c.tuples-1, &d)
		if d.Vals[0] != uint64(c.tuples-1) {
			t.Errorf("%d tuples: last record's tuple reads Vals[0] %d", c.tuples, d.Vals[0])
		}
	}
}
