package trace

import (
	"fmt"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// Record flag bits.
const (
	flagTaken uint8 = 1 << iota // branch outcome
	flagHalt                    // program terminated at this record
)

// tupleWords is the number of operand values interned per record:
// EffAddr, StoreVal, Result, Src1Val, Src2Val.
const tupleWords = 5

// Trace is the compact recorded form of a dynamic instruction stream. It
// is structure-of-arrays: per-record columns hold only what cannot be
// re-derived (PC, branch outcome, halt), the five data values of a record
// are interned as tuples (loops repeat operand patterns; distinct tuples
// are stored once and referenced by index), and the static instruction is
// looked up from the embedded program text. Seq is the record index and
// NextPC is derived from the instruction, the branch outcome and the
// source value, exactly mirroring emu.Machine.Step.
type Trace struct {
	name  string
	insts []isa.Inst // static program text, indexed by PC

	pcs      []uint32 // PC per record
	flags    []uint8  // flagTaken / flagHalt per record
	tupleIdx []uint32 // operand-tuple index per record
	tuples   []uint64 // interned tuples, flat (tupleWords values each)

	truncated bool   // recording hit its cap before the program halted
	version   uint16 // on-disk format this trace was decoded from (or Version)
}

// FormatVersion returns the on-disk format version the trace was decoded
// from; for traces recorded in memory it is the current Version (what
// Encode will write).
func (t *Trace) FormatVersion() uint16 { return t.version }

// Name returns the name of the traced program.
func (t *Trace) Name() string { return t.name }

// Len returns the number of recorded dynamic instructions.
func (t *Trace) Len() int { return len(t.pcs) }

// StaticLen returns the number of static instructions in the embedded
// program text.
func (t *Trace) StaticLen() int { return len(t.insts) }

// TupleCount returns the number of distinct interned operand tuples.
func (t *Trace) TupleCount() int { return len(t.tuples) / tupleWords }

// Truncated reports whether recording stopped (at its target length)
// before the program halted. A truncated trace replays exactly like the
// live stream for any simulation whose commit limit plus in-flight
// capacity fits within Len; past that the replayer runs dry instead of
// producing further records.
func (t *Trace) Truncated() bool { return t.truncated }

// Halted reports whether the trace ends with a halt record.
func (t *Trace) Halted() bool {
	n := len(t.flags)
	return n > 0 && t.flags[n-1]&flagHalt != 0
}

// SizeBytes returns the approximate in-memory footprint of the columns,
// counting their capacity rather than their length (the inspect tool
// reports it next to the equivalent array-of-structs size).
func (t *Trace) SizeBytes() int {
	return cap(t.pcs)*4 + cap(t.flags) + cap(t.tupleIdx)*4 + cap(t.tuples)*8 + cap(t.insts)*16
}

// inst returns the static instruction at pc, mirroring isa.Program.Inst:
// running off the end of the text executes as a halt.
func (t *Trace) inst(pc uint64) isa.Inst {
	if pc >= uint64(len(t.insts)) {
		return isa.Inst{Op: isa.OpHalt}
	}
	return t.insts[pc]
}

// Record materializes record i into d. It panics if i is out of range.
func (t *Trace) Record(i int, d *emu.DynInst) {
	pc := uint64(t.pcs[i])
	in := t.inst(pc)
	f := t.flags[i]
	tu := t.tuples[int(t.tupleIdx[i])*tupleWords:]
	*d = emu.DynInst{
		Seq:      uint64(i),
		PC:       pc,
		Inst:     in,
		Taken:    f&flagTaken != 0,
		Halt:     f&flagHalt != 0,
		EffAddr:  tu[0],
		StoreVal: tu[1],
		Result:   tu[2],
		Src1Val:  tu[3],
		Src2Val:  tu[4],
	}
	d.NextPC = emu.SuccessorPC(in, pc, d.Src1Val, d.Taken)
}

// append adds one machine-produced record. The caller guarantees records
// arrive in sequence order starting at 0.
func (t *Trace) append(d *emu.DynInst, intern map[[tupleWords]uint64]uint32) {
	t.pcs = append(t.pcs, uint32(d.PC))
	var f uint8
	if d.Taken {
		f |= flagTaken
	}
	if d.Halt {
		f |= flagHalt
	}
	t.flags = append(t.flags, f)
	key := [tupleWords]uint64{d.EffAddr, d.StoreVal, d.Result, d.Src1Val, d.Src2Val}
	idx, ok := intern[key]
	if !ok {
		idx = uint32(len(t.tuples) / tupleWords)
		t.tuples = append(t.tuples, key[:]...)
		intern[key] = idx
	}
	t.tupleIdx = append(t.tupleIdx, idx)
}

// compact trims the four record columns to their length, so a finished
// trace holds exactly its data: a recording's pre-sized columns and a
// decoded trace's append slack are released.
func (t *Trace) compact() {
	t.pcs = exact(t.pcs)
	t.flags = exact(t.flags)
	t.tupleIdx = exact(t.tupleIdx)
	t.tuples = exact(t.tuples)
}

// exact returns s with cap == len, copying only when there is slack.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// validate checks internal consistency (Decode calls it so a logically
// corrupt file cannot panic the replayer later).
func (t *Trace) validate() error {
	if len(t.flags) != len(t.pcs) || len(t.tupleIdx) != len(t.pcs) {
		return fmt.Errorf("trace: column lengths disagree (%d pcs, %d flags, %d tuple indexes)",
			len(t.pcs), len(t.flags), len(t.tupleIdx))
	}
	if len(t.tuples)%tupleWords != 0 {
		return fmt.Errorf("trace: tuple pool length %d not a multiple of %d", len(t.tuples), tupleWords)
	}
	n := uint32(len(t.tuples) / tupleWords)
	for i, idx := range t.tupleIdx {
		if idx >= n {
			return fmt.Errorf("trace: record %d references tuple %d of %d", i, idx, n)
		}
	}
	// PCs need no bounds check: any PC outside the text materializes as a
	// halt, exactly as the emulator executes it (a register-indirect jump
	// may legitimately land past the text end).
	return nil
}
