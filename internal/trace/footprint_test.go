package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// requireExact fails unless tr holds exactly its data: every block but
// the last holds blockLen records, each block's tuple indexes are w bytes
// per record and its taken bits are whole words, every block and the
// block directory have cap == len, every tuple-pool chunk but the last
// is full at cap == len == poolChunk, the last chunk and the chunk
// directory have cap == len, and SizeBytes is exactly the sum of the
// index bytes, the block directory entries (checkpoints included), the
// taken words, 16 B per distinct tuple, 24 B per chunk directory entry
// and 16 B per static instruction.
func requireExact(t *testing.T, name string, tr *Trace) {
	t.Helper()
	chunks := tr.tuples.chunks
	if cap(tr.blocks) != len(tr.blocks) || cap(chunks) != len(chunks) {
		t.Errorf("%s: block directory cap %d for %d blocks, chunk directory cap %d for %d chunks",
			name, cap(tr.blocks), len(tr.blocks), cap(chunks), len(chunks))
	}
	if want := (tr.Len() + blockLen - 1) / blockLen; len(tr.blocks) != want {
		t.Errorf("%s: %d records in %d blocks, want %d", name, tr.Len(), len(tr.blocks), want)
	}
	if want := (tr.TupleCount() + poolChunk - 1) / poolChunk; len(chunks) != want {
		t.Errorf("%s: %d tuples in %d chunks, want %d", name, tr.TupleCount(), len(chunks), want)
	}
	for i, c := range chunks {
		n := min(poolChunk, tr.TupleCount()-i*poolChunk)
		if len(c) != n || cap(c) != n {
			t.Errorf("%s: tuple chunk %d of %d has len %d, cap %d; want %d", name, i, len(chunks), len(c), cap(c), n)
		}
	}
	want := len(tr.blocks)*int(unsafe.Sizeof(block{})) + 8*tupleWords*tr.TupleCount() + 24*len(chunks) + 16*cap(tr.insts)
	for i := range tr.blocks {
		b := &tr.blocks[i]
		n := min(blockLen, tr.Len()-i*blockLen)
		if b.w < 1 || b.w > 4 || len(b.idx) != int(b.w)*n || len(b.taken) != (n+63)/64 {
			t.Errorf("%s: block %d of %d records has %d index bytes at width %d and %d taken words",
				name, i, n, len(b.idx), b.w, len(b.taken))
		}
		if cap(b.idx) != len(b.idx) || cap(b.taken) != len(b.taken) {
			t.Errorf("%s: block %d has index cap %d for len %d, taken cap %d for len %d",
				name, i, cap(b.idx), len(b.idx), cap(b.taken), len(b.taken))
		}
		want += len(b.idx) + 8*len(b.taken)
	}
	if got := tr.SizeBytes(); got != want {
		t.Errorf("%s: SizeBytes %d, want %d", name, got, want)
	}
}

// TestFinishExactFootprint pins that a finished recording holds exactly
// its data: whether the program halts short of a reserved target, the
// recording is truncated without a reservation, or the block directory
// was reserved up front, Finish leaves no capacity slack, and the
// recorder lets go of its blocks, its tuple pool and its interning
// table.
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
		if rec.intern.slots != nil || rec.cols.blocks != nil || rec.cols.tuples.chunks != nil {
			t.Errorf("%s: recorder kept its blocks, tuple pool or interning table after Finish", c.name)
		}
	}
}

// TestDecodeExactFootprint decodes a trace longer than the codec's
// initial block-directory capacity, so its directory grows by append,
// and whose tuple pool spans 20 chunks, and requires the decoded trace
// to hold exactly its data and to equal the encoded one. The trace is
// built in-package, without emulation: a two-instruction loop whose add
// source values cycle with coprime periods 397 and 396, so the add
// records hold 78,606 distinct tuples and the blocks that first reach
// index 2^16 need 3 bytes.
func TestDecodeExactFootprint(t *testing.T) {
	const n = 1<<20 + 4099
	tr := synthetic(n, func(i int) emu.DynInst {
		return emu.DynInst{PC: uint64(i % 2), Taken: i%2 == 1, Src1Val: uint64(i % 397), Src2Val: uint64(i % 396)}
	})
	if tr.TupleCount() != 78_606 || widest(tr) != 3 {
		t.Fatalf("synthetic trace has %d tuples, widest block index %d bytes; want 78606 in 3 bytes",
			tr.TupleCount(), widest(tr))
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
	requireExact(t, "decoded", back)
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("trace changed across round-trip")
	}
	sameStream(t, "decoded", NewReplayer(tr), NewReplayer(back))
}

// TestPoolChunkBoundaries builds traces whose tuple pools end one short
// of a chunk boundary, on it, one past it and one past the second, and
// requires each to hold exactly its data, to replay its input stream
// record for record and to survive an Encode/Decode round trip
// unchanged.
func TestPoolChunkBoundaries(t *testing.T) {
	// The add at record 2k interns the new tuple (k+1, 0) and every jump
	// the tuple (0, 0), so 2(tuples-1) records intern tuples tuples.
	in := func(i int) emu.DynInst {
		return emu.DynInst{Seq: uint64(i), PC: uint64(i % 2), Taken: i%2 == 1, Src1Val: uint64(i/2 + 1)}
	}
	for _, tuples := range []int{poolChunk - 1, poolChunk, poolChunk + 1, 2*poolChunk + 1} {
		n := 2 * (tuples - 1)
		tr := synthetic(n, in)
		name := fmt.Sprintf("%d tuples", tuples)
		if tr.TupleCount() != tuples {
			t.Fatalf("%s: synthetic trace has %d tuples", name, tr.TupleCount())
		}
		back, err := DecodeBytes(encode(t, tr))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("%s: trace changed across round-trip", name)
		}
		for side, tr := range map[string]*Trace{"recorded": tr, "decoded": back} {
			requireExact(t, name+", "+side, tr)
			var got emu.Record
			r := NewReplayer(tr)
			for i := range n {
				d := in(i)
				d.Inst = tr.inst(d.PC)
				if want := emu.Project(&d); !r.Next(&got) || got != want {
					t.Fatalf("%s, %s: record %d reads %+v, want %+v", name, side, i, got, want)
				}
			}
			if r.Next(&got) {
				t.Fatalf("%s, %s: replay serves past record %d", name, side, n)
			}
		}
	}
}

// TestRecordingAllocations pins what a recording allocates from
// NewRecorder through Finish, as runtime.MemStats.TotalAlloc counts it
// (every byte allocated, live or not, so the count repeats exactly): the
// finished trace (SizeBytes), the interning table's doublings, and a
// fixed allowance for the recorder with its staged block (17 KiB), the
// last tuple chunk before its trim (64 KiB) and the chunk directory's
// growth. The table's doublings come to under 32 B per tuple: the final
// table has at most 4 slots of 4 B per tuple, and each doubling
// allocates twice the one before. turb3d and applu intern tens of
// thousands of tuples at 200k, so a pool that copied itself as it grew,
// or once more to finish, would exceed the bound by megabytes.
func TestRecordingAllocations(t *testing.T) {
	const scale, allowance = 200_000, 128 << 10
	for _, bench := range []string{"turb3d", "applu"} {
		prog := buildBench(t, bench, scale)
		m := newMachine(t, prog)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := NewRecorder(m, prog, scale+RecordSlack)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Finish(scale + RecordSlack)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if bound := uint64(tr.SizeBytes() + 32*tr.TupleCount() + allowance); got > bound {
			t.Errorf("%s at %d: recording allocated %d B, over %d B (SizeBytes %d, %d tuples)",
				bench, scale, got, bound, tr.SizeBytes(), tr.TupleCount())
		}
	}
}

// widest returns the widest block index width of tr.
func widest(tr *Trace) uint8 {
	var w uint8
	for _, b := range tr.blocks {
		w = max(w, b.w)
	}
	return w
}

// synthetic builds an n-record trace in-package, without emulation, over
// a two-instruction loop text (add at PC 0, j at PC 1); rec(i) supplies
// record i's PC, which must follow the text (i%2), its branch outcome and
// its operand values, of which the tuple keeps what emu.Project keeps for
// the instruction at that PC.
func synthetic(n int, rec func(i int) emu.DynInst) *Trace {
	tr := &Trace{name: "synthetic", insts: loopText()}
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

// loopText is synthetic's program text: an add at PC 0 and a jump back to
// it at PC 1.
func loopText() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpAdd, Rd: isa.IntReg(1), Rs1: isa.IntReg(1), Rs2: isa.IntReg(2)},
		{Op: isa.OpJ, Imm: 0},
	}
}

// TestRecordingsShareNoScratch records programs one after another and
// requires that no two traces share a block's or a tuple chunk's memory,
// and that every trace survives the later recordings intact: each
// recording seals its own exact-size blocks and fills its own chunks,
// so nothing a finished trace holds is reused.
func TestRecordingsShareNoScratch(t *testing.T) {
	compress, swim := buildBench(t, "compress", 20_000), buildBench(t, "swim", 20_000)
	type recorded struct {
		prog *isa.Program
		tr   *Trace
	}
	var all []recorded
	owner := map[unsafe.Pointer]string{}
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
		name := fmt.Sprintf("recording %d (%s)", len(all), p.Name)
		for i, b := range tr.blocks {
			for _, p := range []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(b.idx)), unsafe.Pointer(unsafe.SliceData(b.taken))} {
				if o, ok := owner[p]; ok {
					t.Fatalf("%s block %d shares memory with %s", name, i, o)
				}
				owner[p] = fmt.Sprintf("%s block %d", name, i)
			}
		}
		for i, c := range tr.tuples.chunks {
			p := unsafe.Pointer(unsafe.SliceData(c))
			if o, ok := owner[p]; ok {
				t.Fatalf("%s tuple chunk %d shares memory with %s", name, i, o)
			}
			owner[p] = fmt.Sprintf("%s tuple chunk %d", name, i)
		}
		all = append(all, recorded{p, tr})
	}
	for range 2 {
		record(compress, 1<<20)
		record(swim, 1<<20)
		record(compress, 20_000)
		record(swim, 20_000)
	}
	for i, r := range all {
		sameSteps(t, fmt.Sprintf("recording %d (%s, %d records)", i, r.prog.Name, r.tr.Len()), newMachine(t, r.prog), r.tr)
	}
}

// TestColumnWidths pins the narrowing rule. A sealed block takes the
// fewest bytes that hold its largest tuple index, at every byte
// boundary, and every index reads back unchanged. The width is chosen
// per block: in a trace whose one block reaches 2^8 or 2^16, that block
// widens while its neighbours stay 1 byte wide, and every record
// replays its own tuple, through Encode and Decode too.
func TestColumnWidths(t *testing.T) {
	for _, c := range []struct {
		max  uint32
		want uint8
	}{
		{0, 1}, {1<<8 - 1, 1}, {1 << 8, 2}, {1<<16 - 1, 2}, {1 << 16, 3}, {1<<24 - 1, 3}, {1 << 24, 4}, {1<<32 - 1, 4},
	} {
		vals := []uint32{c.max, 0, c.max / 2, min(1, c.max), c.max}
		var cols columns
		for _, v := range vals {
			cols.add(0, false, v)
		}
		cols.seal()
		b := &cols.blocks[0]
		if b.w != c.want || b.len() != len(vals) || cap(b.idx) != len(b.idx) {
			t.Errorf("max %#x: width %d, %d bytes (cap %d); want width %d", c.max, b.w, len(b.idx), cap(b.idx), c.want)
		}
		for j, v := range vals {
			if got := b.at(j); got != v {
				t.Errorf("max %#x: index %d reads %#x, want %#x", c.max, j, got, v)
			}
		}
	}

	// Four blocks: small indexes, the boundary less one, the boundary,
	// small indexes again. Tuple k is (k, k), so a record's Vals[0] is
	// its index.
	for _, bound := range []uint32{1 << 8, 1 << 16} {
		idx := func(i int) uint32 {
			switch i / blockLen {
			case 1:
				return bound - 1 - uint32(i%2)
			case 2:
				return bound - uint32(i%2)
			}
			return uint32(i % 200)
		}
		const n = 4 * blockLen
		tr := &Trace{name: "widths", insts: loopText()}
		var cols columns
		for k := range bound + 1 {
			cols.tuples.add(&[tupleWords]uint64{uint64(k), uint64(k)})
		}
		for i := range n {
			cols.add(uint32(i%2), false, idx(i))
		}
		cols.build(tr)
		requireExact(t, "widths", tr)
		var got []uint8
		for _, b := range tr.blocks {
			got = append(got, b.w)
		}
		if want := []uint8{1, uint8(width(bound - 1)), uint8(width(bound)), 1}; !slices.Equal(got, want) {
			t.Errorf("bound %#x: block widths %v, want %v", bound, got, want)
		}
		enc, err := tr.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]*Trace{"recorded": tr, "decoded": back} {
			var d emu.Record
			r := NewReplayer(tr)
			for i := 0; r.Next(&d); i++ {
				if d.Vals[0] != uint64(idx(i)) || d.PC != uint64(i%2) {
					t.Fatalf("bound %#x, %s: record %d reads PC %d, Vals[0] %d; want %d, %d",
						bound, name, i, d.PC, d.Vals[0], i%2, idx(i))
				}
			}
		}
	}
}
