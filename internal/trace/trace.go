package trace

import (
	"encoding/binary"
	"fmt"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// Record flag bits, as the on-disk flag byte carries them.
const (
	flagTaken uint8 = 1 << iota // branch outcome
	flagHalt                    // program terminated at this record
)

// tupleWords is the number of operand values interned per record: the
// Vals of an emu.Record.
const tupleWords = len(emu.Record{}.Vals)

// Trace is the compact recorded form of a dynamic instruction stream. It
// is structure-of-arrays: per-record columns hold only what cannot be
// re-derived (PC, branch outcome), the operand values the timing model
// reads are interned as two-word tuples (emu.Record.Vals; loops repeat
// operand patterns, so distinct tuples are stored once and referenced by
// index), and the static instruction is looked up from the embedded
// program text. The PC and tuple-index columns are each stored at the
// narrowest width (1 to 4 bytes) that holds their largest value, the
// branch outcomes are one bit per record, and a halt — which only the
// last record can be — is one bool. Seq is the record index.
//
// A Trace is immutable once built: Recorder.Finish and Decode fill
// full-width columns and narrow them once (see build).
type Trace struct {
	name  string
	insts []isa.Inst // static program text, indexed by PC

	n        int      // number of records
	pcs      column   // PC per record
	tupleIdx column   // operand-tuple index per record
	taken    []uint64 // branch outcome per record, one bit each
	tuples   []uint64 // interned tuples, flat (tupleWords values each)
	halted   bool     // the last record is a halt

	truncated bool // recording hit its cap before the program halted
}

// column is a per-record uint32 column stored little-endian at w bytes
// per value.
type column struct {
	w int
	b []byte
}

// width returns the fewest bytes (1 to 4) that hold v.
func width(v uint32) int {
	w := 1
	for w < 4 && v>>(8*w) != 0 {
		w++
	}
	return w
}

// len returns the number of values in c.
func (c *column) len() int {
	if c.w == 0 {
		return 0
	}
	return len(c.b) / c.w
}

// append adds vals to c, keeping c at the narrowest width that holds
// every value it has: when a value needs more bytes than c.w, c first
// re-encodes what it holds at the new width, in place when c.b has room
// for at least size values and into a new buffer with that room
// otherwise. A zero column takes the width of its first values.
func (c *column) append(vals []uint32, size int) {
	var hi uint32
	for _, v := range vals {
		hi = max(hi, v)
	}
	if w := width(hi); w > c.w {
		old, n := *c, c.len()
		if need := w * max(size, n+len(vals)); cap(c.b) < need {
			c.b = append(make([]byte, 0, need), c.b...)
			old.b = c.b
		}
		// Backwards, so a value is read before any wider one overwrites it.
		c.w, c.b = w, c.b[:w*n]
		for i := n - 1; i >= 0; i-- {
			v := old.at(i)
			c.b = appendAt(c.b[:w*i], w, v)
		}
		c.b = c.b[:w*n]
	}
	for _, v := range vals {
		c.b = appendAt(c.b, c.w, v)
	}
}

// appendAt appends v to b little-endian in w bytes.
func appendAt(b []byte, w int, v uint32) []byte {
	switch w {
	case 1:
		return append(b, uint8(v))
	case 2:
		return binary.LittleEndian.AppendUint16(b, uint16(v))
	case 3:
		return append(b, uint8(v), uint8(v>>8), uint8(v>>16))
	default:
		return binary.LittleEndian.AppendUint32(b, v)
	}
}

// at returns value i.
func (c column) at(i int) uint32 {
	switch c.w {
	case 1:
		return uint32(c.b[i])
	case 2:
		return uint32(binary.LittleEndian.Uint16(c.b[2*i:]))
	case 3:
		b := c.b[3*i : 3*i+3]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
	default:
		return binary.LittleEndian.Uint32(c.b[4*i:])
	}
}

// columns is a trace under construction. PCs and tuple indexes arrive at
// full width in pcs and tupleIdx, and flush narrows them into narrowPCs
// and narrowIdx: add flushes every stageLen records, so a recording holds
// its records at their final widths plus one small full-width stage,
// never a full-width copy of the trace. The decoder fills pcs and
// tupleIdx whole, and build narrows them once.
type columns struct {
	pcs      []uint32 // PCs not yet narrowed
	tupleIdx []uint32 // tuple indexes not yet narrowed
	taken    []uint64 // one bit per record
	tuples   []uint64
	halted   bool

	narrowPCs, narrowIdx column // the records flushed so far
	flushed              int    // how many
	size                 int    // expected record count (0 = unknown): room for the narrow columns
}

// stageLen is how many records add stages at full width before it
// narrows them.
const stageLen = 4096

// len returns the number of records added.
func (c *columns) len() int { return c.flushed + len(c.pcs) }

// add appends one record's PC, branch outcome and tuple index.
func (c *columns) add(pc uint32, taken bool, idx uint32) {
	c.taken = appendBit(c.taken, c.len(), taken)
	c.pcs = append(c.pcs, pc)
	c.tupleIdx = append(c.tupleIdx, idx)
	if len(c.pcs) == stageLen {
		c.flush()
	}
}

// flush narrows the staged records onto the narrow columns.
func (c *columns) flush() {
	c.narrowPCs.append(c.pcs, c.size)
	c.narrowIdx.append(c.tupleIdx, c.size)
	c.flushed += len(c.pcs)
	c.pcs, c.tupleIdx = c.pcs[:0], c.tupleIdx[:0]
}

// appendBit sets bit i of a bitset that holds bits [0, i), growing it by
// a word when i starts one.
func appendBit(bits []uint64, i int, b bool) []uint64 {
	if i%64 == 0 {
		bits = append(bits, 0)
	}
	if b {
		bits[i/64] |= 1 << (i % 64)
	}
	return bits
}

// build narrows the columns into t, leaving every column of t with
// cap == len.
func (c *columns) build(t *Trace) {
	c.flush()
	t.n = c.flushed
	t.pcs = column{w: c.narrowPCs.w, b: exact(c.narrowPCs.b)}
	t.tupleIdx = column{w: c.narrowIdx.w, b: exact(c.narrowIdx.b)}
	t.taken = exact(c.taken)
	t.tuples = exact(c.tuples)
	t.halted = c.halted
}

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
func (t *Trace) Truncated() bool { return t.truncated }

// Halted reports whether the trace ends with a halt record.
func (t *Trace) Halted() bool { return t.halted }

// SizeBytes returns the approximate in-memory footprint of the columns,
// counting their capacity rather than their length (the inspect tool
// reports it next to the equivalent array-of-structs size).
func (t *Trace) SizeBytes() int {
	return cap(t.pcs.b) + cap(t.tupleIdx.b) + cap(t.taken)*8 + cap(t.tuples)*8 + cap(t.insts)*16
}

// inst returns the static instruction at pc, mirroring isa.Program.Inst:
// running off the end of the text executes as a halt.
func (t *Trace) inst(pc uint64) isa.Inst {
	if pc >= uint64(len(t.insts)) {
		return isa.Inst{Op: isa.OpHalt}
	}
	return t.insts[pc]
}

// takenAt reports record i's branch outcome.
func (t *Trace) takenAt(i int) bool { return t.taken[i/64]&(1<<(i%64)) != 0 }

// Record writes record i into r, straight from the columns. It panics if
// i is out of range.
//
//sdv:hotpath
func (t *Trace) Record(i int, r *emu.Record) {
	pc := uint64(t.pcs.at(i))
	j := int(t.tupleIdx.at(i)) * tupleWords
	// Field by field, as in emu's project: a composite literal is copied
	// in 8+16+16+16-byte stores that split Inst, and the caller's next
	// read of Inst then waits for both stores to retire.
	r.Seq, r.PC, r.Inst = uint64(i), pc, t.inst(pc)
	r.Vals = [tupleWords]uint64(t.tuples[j : j+tupleWords])
	r.Taken, r.Halt = t.takenAt(i), t.halted && i == t.n-1
}

// validate checks internal consistency (Decode calls it so a logically
// corrupt file cannot panic the replayer later).
func (c *columns) validate() error {
	n := uint32(len(c.tuples) / tupleWords)
	for i, idx := range c.tupleIdx {
		if idx >= n {
			return fmt.Errorf("trace: record %d references tuple %d of %d", i, idx, n)
		}
	}
	// PCs need no bounds check: any PC outside the text materializes as a
	// halt, exactly as the emulator executes it (a register-indirect jump
	// may legitimately land past the text end).
	return nil
}
