package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// RecordSlack is how far past its commit limit a recording should extend
// (the Finish target is maxInsts + RecordSlack): a replaying pipeline can
// fetch at most its in-flight capacity — pipeline.SourceWindow(cfg) bounds
// it — beyond the last committed instruction, so the slack must exceed
// the source window of every configuration meant to replay the trace.
// TestRecordSlackCoversMatrix pins that against the experiment sweep.
const RecordSlack = 1 << 13

// Recorder wraps a fresh emu.Machine and records its dynamic stream:
// Finish runs the machine and stages every record, sealing each blockLen
// records into an exact-size block, then builds the blocks into a Trace.
// A simulation replays the finished trace through a Replayer.
type Recorder struct {
	m      *emu.Machine
	t      *Trace   // name and text; Finish builds the rest
	cols   columns  // the records so far
	intern interner // tuple -> index into cols.tuples

	ctx context.Context // polled by Finish; nil never cancels
}

// SetContext attaches ctx to the recorder: Finish polls it every few
// thousand records and returns its error early, so an abandoned service
// job does not emulate a long program to its record target. A cancelled
// Finish returns the context's error and no trace.
func (r *Recorder) SetContext(ctx context.Context) { r.ctx = ctx }

// NewRecorder wraps m, which must be freshly constructed (no instructions
// executed), with its block directory sized for about n records (none if
// n <= 0). Nothing per record is reserved up front: records are staged
// one block at a time and each block is allocated at its exact size when
// it is sealed, so a recording never holds spare or full-width capacity
// beyond one staged block. The tuple pool and the interning table grow
// on demand, and n does not size them: their size is the number of
// distinct operand tuples, which varies widely between programs
// (ARCHITECTURE.md, "The recorded form"), so an up-front guess mostly
// reserves memory the recording never uses. The pool grows a chunk of
// poolChunk tuples at a time and is never copied, so a recording peaks
// at about its finished size plus the interning table.
// prog must be the program loaded into m; its text is embedded in the
// trace so replay needs no program object.
func NewRecorder(m *emu.Machine, prog *isa.Program, n int) (*Recorder, error) {
	if m.InstCount() != 0 {
		return nil, fmt.Errorf("trace: recorder needs a fresh machine (%d instructions already executed)", m.InstCount())
	}
	r := &Recorder{m: m, t: &Trace{name: prog.Name, insts: prog.Insts}}
	if n > 0 {
		r.cols.blocks = make([]block, 0, (n+blockLen-1)/blockLen)
	}
	return r, nil
}

// Finish records the trace: the machine runs until it halts or until
// target records exist. A replaying pipeline never looks past its commit
// limit plus its in-flight capacity, so a target of
// maxInsts + SourceWindow(cfg) of the widest consuming configuration
// makes the recording exactly as long as any replay can observe — there
// is no need to emulate a long-running program to its halt. A trace that
// stops before halt is marked truncated; experiments.CheckCoverage says
// how far such a trace can feed a simulation. The error is non-nil only when the
// recording is unusable outright (an unrecordable PC was produced) or its
// context was cancelled.
//
// Finish ends the recording: it seals the last staged records and builds
// the blocks into the finished trace, which holds exactly its data (every
// block and the last tuple-pool chunk at its exact size, with no
// capacity slack), and drops its columns, tuple pool included, and the
// interning table, so the recorder must not be used afterwards. On error
// it returns no trace.
func (r *Recorder) Finish(target int) (*Trace, error) {
	const ctxPoll = 4096 // records between context cancellation checks
	poll := ctxPoll
	var rec emu.Record
	for r.cols.len() < target && r.m.Next(&rec) {
		if rec.PC > math.MaxUint32 {
			// A register-indirect jump far outside the text cannot be
			// held in a uint32 checkpoint or the on-disk entry PC.
			return nil, fmt.Errorf("trace: PC %#x exceeds the recordable range", rec.PC)
		}
		r.cols.add(uint32(rec.PC), rec.Taken, r.intern.intern(&r.cols.tuples, &rec.Vals))
		r.cols.halted = rec.Halt
		if poll--; poll <= 0 {
			poll = ctxPoll
			if r.ctx != nil {
				if err := r.ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
	}
	t := r.t
	r.cols.build(t)
	r.cols, r.intern = columns{}, interner{}
	return t, nil
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

// columns is a recording under construction: the blocks sealed so far, and
// one staged block whose tuple indexes are held at full width until
// blockLen records have arrived (or the trace ends), when seal narrows
// them into a block of exactly their size. So a recording never holds
// more than one block's worth of full-width indexes, and no block is
// copied when the trace is finished.
type columns struct {
	blocks []block
	tuples pool
	halted bool

	pc     uint32                // the staged block's first PC
	staged int                   // records staged
	idx    [blockLen]uint32      // their tuple indexes
	taken  [blockLen / 64]uint64 // their branch outcomes
}

// len returns the number of records added.
func (c *columns) len() int { return blockLen*len(c.blocks) + c.staged }

// add appends one record's PC, branch outcome and tuple index. Only a
// block's first PC is kept; the others are derived on replay.
func (c *columns) add(pc uint32, taken bool, idx uint32) {
	j := c.staged
	if j == 0 {
		c.pc = pc
	}
	c.idx[j] = idx
	if taken {
		c.taken[j/64] |= 1 << (j % 64)
	}
	if c.staged++; c.staged == blockLen {
		c.seal()
	}
}

// seal appends the staged records as one exact-size block.
func (c *columns) seal() {
	n := c.staged
	if n == 0 {
		return
	}
	idx := c.idx[:n]
	w := width(slices.Max(idx))
	b := block{pc: c.pc, w: uint8(w), idx: make([]byte, 0, w*n), taken: make([]uint64, (n+63)/64)}
	copy(b.taken, c.taken[:])
	for _, v := range idx {
		b.idx = appendAt(b.idx, w, v)
	}
	c.blocks = append(c.blocks, b)
	c.staged = 0
	clear(c.taken[:])
}

// build seals the staged records and the tuple pool and moves the
// columns into t, leaving the block directory with cap == len.
func (c *columns) build(t *Trace) {
	t.n = c.len()
	c.seal()
	c.tuples.seal()
	t.blocks = exact(c.blocks)
	t.tuples = c.tuples
	t.halted = c.halted
}
