package trace

import (
	"fmt"
	"sort"

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

	ckpts []Checkpoint // optional checkpoints, ascending by Seq

	truncated bool   // recording hit its cap before the program halted
	version   uint16 // on-disk format this trace was decoded from (or Version)
}

// FormatVersion returns the on-disk format version the trace was decoded
// from; for traces recorded in memory it is the current Version (what
// Encode will write).
func (t *Trace) FormatVersion() uint16 { return t.version }

// Checkpoint is an architectural snapshot embedded in the trace at a
// record boundary: the machine state after Seq committed instructions
// (emu.Snapshot: registers, dirty pages, PC) plus the conditional-branch
// outcome history up to the boundary, which seeds the replaying
// pipeline's predictor. A checkpoint restores architectural state only —
// a run fast-forwarded to one resumes with empty pipelines and no
// wrong-path history, so timing near the boundary differs from a
// straight-line run until a warmup window has passed (the same caveat
// restored speculative state carries in ARCHITECTURE.md's
// "Speculative vs. architectural state").
type Checkpoint struct {
	emu.Snapshot
	BHR uint64 // last 64 conditional-branch outcomes, youngest in bit 0
}

// Checkpoints returns the embedded checkpoints, ascending by Seq. The
// slice is shared with the trace; callers must not mutate it.
func (t *Trace) Checkpoints() []Checkpoint { return t.ckpts }

// CheckpointBefore returns the latest checkpoint whose Seq is <= seq,
// or ok=false when no checkpoint precedes it (replay then starts at
// record zero).
func (t *Trace) CheckpointBefore(seq uint64) (*Checkpoint, bool) {
	i := sort.Search(len(t.ckpts), func(i int) bool { return t.ckpts[i].Seq > seq })
	if i == 0 {
		return nil, false
	}
	return &t.ckpts[i-1], true
}

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
	n := cap(t.pcs)*4 + cap(t.flags) + cap(t.tupleIdx)*4 + cap(t.tuples)*8 + cap(t.insts)*16
	for i := range t.ckpts {
		n += (3 + len(t.ckpts[i].Regs)) * 8
		n += len(t.ckpts[i].Pages) * (8 + emu.PageSize)
	}
	return n
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
	var prev uint64
	for i := range t.ckpts {
		c := &t.ckpts[i]
		if i > 0 && c.Seq <= prev {
			return fmt.Errorf("trace: checkpoint %d at seq %d not after %d", i, c.Seq, prev)
		}
		if c.Seq == 0 || c.Seq > uint64(len(t.pcs)) {
			return fmt.Errorf("trace: checkpoint %d at seq %d outside (0, %d]", i, c.Seq, len(t.pcs))
		}
		prev = c.Seq
		var prevBase uint64
		for j, pg := range c.Pages {
			if len(pg.Data) != emu.PageSize || pg.Base%emu.PageSize != 0 {
				return fmt.Errorf("trace: checkpoint %d page %d malformed (base %#x, %d bytes)",
					i, j, pg.Base, len(pg.Data))
			}
			if j > 0 && pg.Base <= prevBase {
				return fmt.Errorf("trace: checkpoint %d pages out of order at %d", i, j)
			}
			prevBase = pg.Base
		}
	}
	return nil
}
