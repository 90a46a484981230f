package trace

import (
	"bytes"
	"reflect"
	"testing"

	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/workload"
)

// controlProgram exercises every control-flow shape nextPC must re-derive:
// taken and not-taken branches, direct and indirect jumps, call/return and
// the final halt.
func controlProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("control")
	b.Li(isa.IntReg(1), 0)
	b.Li(isa.IntReg(2), 5)
	b.Label("loop")
	b.Addi(isa.IntReg(1), isa.IntReg(1), 1)
	b.Jal(isa.IntReg(10), "sub") // call
	b.Blt(isa.IntReg(1), isa.IntReg(2), "loop")
	b.Beq(isa.IntReg(1), isa.IntReg(2), "out") // taken
	b.Label("sub")
	b.Ld(isa.IntReg(3), isa.IntReg(0), int64(isa.HeapBase))
	b.St(isa.IntReg(1), isa.IntReg(0), int64(isa.HeapBase))
	b.Jr(isa.IntReg(10), 0) // return
	b.Label("out")
	b.J("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func buildBench(t testing.TB, name string, scale int) *isa.Program {
	t.Helper()
	b, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Build(scale, 1)
}

func newMachine(t testing.TB, prog *isa.Program) *emu.Machine {
	t.Helper()
	m, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// record runs prog to completion (or cap) through a Recorder and returns
// the trace.
func record(t testing.TB, prog *isa.Program, cap int) *Trace {
	t.Helper()
	rec, err := NewRecorder(newMachine(t, prog), prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(cap)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayerMatchesStream replays a finished recording against the
// records of a live machine.
func TestReplayerMatchesStream(t *testing.T) {
	for _, bench := range []string{"compress", "swim"} {
		prog := buildBench(t, bench, 4000)
		tr := record(t, prog, 1<<22)
		if tr.Truncated() {
			t.Fatalf("%s: recording truncated at %d records", bench, tr.Len())
		}
		sameStream(t, bench+"/replayer", newMachine(t, prog), NewReplayer(tr))
	}
}

// source is the forward-only face of emu.Machine, Replayer and Cursor
// (pipeline.Source).
type source interface {
	Next(d *emu.Record) bool
}

// sameStream drains both sources together and compares every record,
// demanding that they end together.
func sameStream(t *testing.T, name string, want, got source) {
	t.Helper()
	var w, g emu.Record
	for i := 0; ; i++ {
		wok, gok := want.Next(&w), got.Next(&g)
		if wok != gok {
			t.Fatalf("%s: record %d: ok %v vs %v", name, i, wok, gok)
		}
		if !wok {
			return
		}
		if w != g {
			t.Fatalf("%s: record %d mismatch\nwant: %+v\ngot:  %+v", name, i, w, g)
		}
	}
}

// sameSteps compares every record of tr with emu.Project of the machine's
// own Step, and each record's NextPC with the machine's.
func sameSteps(t *testing.T, name string, m *emu.Machine, tr *Trace) {
	t.Helper()
	var r emu.Record
	for i := 0; i < tr.Len(); i++ {
		d := m.Step()
		tr.Record(i, &r)
		if want := emu.Project(&d); r != want {
			t.Fatalf("%s: record %d:\nmachine: %+v\ntrace:   %+v", name, i, want, r)
		}
		if r.NextPC() != d.NextPC {
			t.Fatalf("%s: record %d (%v at pc %d): NextPC %d, machine %d", name, i, d.Inst.Op, d.PC, r.NextPC(), d.NextPC)
		}
	}
}

// TestNextPCDerivation checks every control-flow shape against the
// machine's own NextPC, including running off the end of the text, and
// every other field against the projection of the machine's record.
func TestNextPCDerivation(t *testing.T) {
	prog := controlProgram(t)
	tr := record(t, prog, 1<<20)
	sameSteps(t, "control", newMachine(t, prog), tr)
	if !tr.Halted() {
		t.Error("control program trace does not end in halt")
	}

	// Running off the end of the text must also round-trip: the machine
	// synthesizes a halt there.
	b := isa.NewBuilder("offend")
	b.Li(isa.IntReg(1), 7)
	b.Addi(isa.IntReg(1), isa.IntReg(1), 1)
	offend, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr = record(t, offend, 1<<20)
	sameSteps(t, "off-end", newMachine(t, offend), tr)
	if !tr.Halted() {
		t.Error("off-end trace does not end in halt")
	}
}

// TestRoundTripFarIndirectJump covers the regression where a trace whose
// jr lands far past the text end (the machine executes any off-text PC
// as a halt) was recordable but rejected by Decode's validation.
func TestRoundTripFarIndirectJump(t *testing.T) {
	prog := &isa.Program{Name: "jrfar", Insts: []isa.Inst{
		{Op: isa.OpLi, Rd: isa.IntReg(1), Imm: 100},
		{Op: isa.OpJr, Rs1: isa.IntReg(1)},
	}}
	tr := record(t, prog, 1<<20)
	if !tr.Halted() {
		t.Fatal("off-text jump did not record a halt")
	}

	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode rejected a legitimately recorded trace: %v", err)
	}
	sameSteps(t, "jrfar", newMachine(t, prog), back)
}

// TestRoundTripIndirectJumpOffset records jrs whose targets are rs1 plus
// a nonzero immediate, one negative (a loop's back edge) and one
// positive, and requires every record of the decoded trace to match the
// machine, NextPC included. Every other trace-test jr has immediate 0,
// which cannot tell rs1+imm from rs1 in the successor rule.
func TestRoundTripIndirectJumpOffset(t *testing.T) {
	r1, r2, r9 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(9)
	prog := &isa.Program{Name: "jroffset", Insts: []isa.Inst{
		{Op: isa.OpLi, Rd: r1, Imm: 0},
		{Op: isa.OpLi, Rd: r2, Imm: 3},
		{Op: isa.OpLi, Rd: r9, Imm: 7},
		{Op: isa.OpAddi, Rd: r1, Rs1: r1, Imm: 1}, // 3: loop
		{Op: isa.OpBge, Rs1: r1, Rs2: r2, Imm: 6},
		{Op: isa.OpJr, Rs1: r9, Imm: -4}, // back to 3
		{Op: isa.OpJr, Rs1: r2, Imm: 5},  // 6: on to 8
		{Op: isa.OpHalt},
		{Op: isa.OpAddi, Rd: r1, Rs1: r1, Imm: 1}, // 8
		{Op: isa.OpHalt},
	}}
	tr := record(t, prog, 1<<20)
	if !tr.Halted() || tr.Len() != 14 {
		t.Fatalf("test premise broken: %d records (halted %v), want 14 ending in the halt at 9", tr.Len(), tr.Halted())
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "jroffset", newMachine(t, prog), back)
}

// TestRoundTrip encodes a recorded trace and decodes it back, requiring
// identical metadata and records.
func TestRoundTrip(t *testing.T) {
	for _, bench := range []string{"compress", "fpppp"} {
		prog := buildBench(t, bench, 3000)
		tr := record(t, prog, 1<<22)

		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Name() != tr.Name() || back.Len() != tr.Len() ||
			back.StaticLen() != tr.StaticLen() || back.TupleCount() != tr.TupleCount() ||
			back.Truncated() != tr.Truncated() || back.Halted() != tr.Halted() {
			t.Fatalf("%s: metadata changed across round-trip:\nin:  %+v\nout: %+v", bench, tr, back)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("%s: trace changed across round-trip", bench)
		}
		var a, b emu.Record
		for i := 0; i < tr.Len(); i++ {
			tr.Record(i, &a)
			back.Record(i, &b)
			if a != b {
				t.Fatalf("%s: record %d differs after round-trip:\nin:  %+v\nout: %+v", bench, i, a, b)
			}
		}
	}
}

// TestDecodeRejectsCorruption flips bytes across the file and requires
// every corruption to be rejected (bad magic, bad version, checksum
// mismatch or structural error) — never silently accepted with different
// content.
func TestDecodeRejectsCorruption(t *testing.T) {
	tr := record(t, buildBench(t, "compress", 2000), 1<<22)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := Decode(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	// Deterministically corrupt one byte at a spread of offsets covering
	// the header, every section and the trailing checksum.
	for off := 0; off < len(good); off += 1 + len(good)/257 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at offset %d/%d accepted", off, len(good))
		}
	}

	// Truncations at every section boundary region must also fail.
	for _, n := range []int{len(good) - 1, len(good) - 4, len(good) / 2,
		len(good) / 4, len(good) / 16, 6, 0} {
		if _, err := Decode(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("truncated file (%d of %d bytes) accepted", n, len(good))
		}
	}

	// Wrong version specifically.
	bad := append([]byte(nil), good...)
	bad[4] = 0x7f
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("future format version accepted")
	}
}

// TestReplayerSteadyStateAllocs pins the replay hot path at zero
// allocations per served record.
func TestReplayerSteadyStateAllocs(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 4000), 1<<22)
	rep := NewReplayer(tr)
	var d emu.Record
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			if !rep.Next(&d) {
				*rep = Replayer{t: tr}
			}
		}
	})
	if avg != 0 {
		t.Errorf("replay steady state allocates %.2f allocs per 64-record batch, want 0", avg)
	}
}

// TestFinishTarget pins the bounded-recording contract: a long-running
// program is recorded only to the target, marked truncated, and a halting
// program records exactly through its halt.
func TestFinishTarget(t *testing.T) {
	prog := buildBench(t, "go", 50_000) // runs well past 1000 instructions
	rec, err := NewRecorder(newMachine(t, prog), prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated() || tr.Halted() {
		t.Errorf("bounded recording: truncated=%v halted=%v", tr.Truncated(), tr.Halted())
	}
	if tr.Len() != 1000 {
		t.Errorf("bounded recording length %d, want 1000", tr.Len())
	}

	tr = record(t, controlProgram(t), 1<<20)
	if tr.Truncated() || !tr.Halted() {
		t.Errorf("halting recording: truncated=%v halted=%v", tr.Truncated(), tr.Halted())
	}
}

// TestRecorderRequiresFreshMachine covers the constructor guard.
func TestRecorderRequiresFreshMachine(t *testing.T) {
	prog := controlProgram(t)
	m := newMachine(t, prog)
	m.Step()
	if _, err := NewRecorder(m, prog, 0); err == nil {
		t.Error("recorder accepted a machine with executed instructions")
	}
}
