package trace

import (
	"context"
	"fmt"
	"math"

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
// on demand: their size is the number of distinct operand tuples, which
// varies widely between programs (ARCHITECTURE.md, "The recorded form"),
// so an up-front guess mostly reserves memory the recording never uses.
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
// block at its exact size, with no capacity slack), and drops its
// columns and the interning table, so the recorder must not be used
// afterwards. On error it returns no trace.
func (r *Recorder) Finish(target int) (*Trace, error) {
	const ctxPoll = 4096 // records between context cancellation checks
	poll := ctxPoll
	var rec emu.Record
	for r.cols.len() < target && r.m.Next(&rec) {
		if rec.PC > math.MaxUint32 {
			// A register-indirect jump far outside the text cannot be
			// encoded in a uint32 checkpoint or the on-disk PC column.
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
	t.truncated = !r.cols.halted
	r.cols.build(t)
	r.cols, r.intern = columns{}, interner{}
	return t, nil
}
