package trace

import (
	"encoding/binary"
	"unsafe"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// tupleWords is the number of operand values interned per record: the
// Vals of an emu.Record.
const tupleWords = len(emu.Record{}.Vals)

// blockLen is the number of records in a block: the recorder stages this
// many records before it seals them into one, a Decoded trace decodes a
// block at a time, and a reader seeks by starting at a block's checkpoint.
const blockLen = 4096

// Trace is the compact recorded form of a dynamic instruction stream. It
// holds only what a forward walk cannot derive. The records are cut into
// blocks of blockLen (the last block may be shorter); each block holds
// its first record's PC (a checkpoint), its records' tuple indexes at the
// narrowest width (1 to 4 bytes) that holds the block's largest index,
// and their branch outcomes, one bit each. Every other PC is derived from
// the record before it (emu.Record.NextPC), so a Trace is read forward, by
// a Replayer. The operand values the timing model reads are interned as
// two-word tuples (emu.Record.Vals; loops repeat operand patterns, so
// distinct tuples are stored once and referenced by index), the static
// instruction is looked up from the embedded program text, and a halt —
// which only the last record can be — is one bool: a trace that does not
// end in a halt stopped at its recording target. Seq is the record
// index.
//
// A Trace is immutable once built: Recorder.Finish seals each block at
// its exact size as its records arrive (see columns), and Decode reads
// each block at its exact size.
type Trace struct {
	name  string
	insts []isa.Inst // static program text, indexed by PC

	n      int      // number of records
	blocks []block  // records [blockLen*i, blockLen*(i+1)) in blocks[i]
	tuples []uint64 // interned tuples, flat (tupleWords values each)
	halted bool     // the last record is a halt; else the recording was truncated
}

// block is up to blockLen consecutive records of a Trace.
type block struct {
	idx   []byte   // tuple index per record, little-endian at w bytes each
	taken []uint64 // branch outcome per record, one bit each
	pc    uint32   // the first record's PC
	w     uint8    // bytes per tuple index
}

// width returns the fewest bytes (1 to 4) that hold v.
func width(v uint32) int {
	w := 1
	for w < 4 && v>>(8*w) != 0 {
		w++
	}
	return w
}

// at returns the tuple index of the block's record j.
func (b *block) at(j int) uint32 {
	switch b.w {
	case 1:
		return uint32(b.idx[j])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b.idx[2*j:]))
	case 3:
		p := b.idx[3*j : 3*j+3]
		return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	default:
		return binary.LittleEndian.Uint32(b.idx[4*j:])
	}
}

// len returns the number of records in the block.
func (b *block) len() int { return len(b.idx) / int(b.w) }

// takenAt reports the branch outcome of the block's record j.
func (b *block) takenAt(j int) bool { return b.taken[j/64]&(1<<(j%64)) != 0 }

// exact returns s with cap == len, copying only when there is slack.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Name returns the name of the traced program.
func (t *Trace) Name() string { return t.name }

// Len returns the number of recorded dynamic instructions.
func (t *Trace) Len() int { return t.n }

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
func (t *Trace) Truncated() bool { return !t.halted }

// Halted reports whether the trace ends with a halt record.
func (t *Trace) Halted() bool { return t.halted }

// SizeBytes returns the in-memory footprint of the trace's data: the
// block directory (one entry per block, its checkpoint included), each
// block's tuple indexes and taken words, the tuple pool and the program
// text, counting capacity rather than length (the inspect tool reports
// it next to the equivalent array-of-structs size).
func (t *Trace) SizeBytes() int {
	n := cap(t.blocks)*int(unsafe.Sizeof(block{})) + cap(t.tuples)*8 + cap(t.insts)*16
	for i := range t.blocks {
		n += cap(t.blocks[i].idx) + cap(t.blocks[i].taken)*8
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
