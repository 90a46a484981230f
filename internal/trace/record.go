package trace

import (
	"context"
	"fmt"
	"math"
	"sync"

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
// Finish runs the machine and appends every record to columns that it
// narrows as it goes, then builds them into a Trace. A simulation
// replays the finished trace through a Replayer.
type Recorder struct {
	m      *emu.Machine
	t      *Trace   // name and text; Finish builds the rest
	cols   columns  // the records so far
	intern interner // tuple -> index into cols.tuples

	ctx context.Context // polled by Finish; nil never cancels
}

// scratchPool holds recorders' per-record columns between recordings:
// the full-width stage, the narrow PC and tuple-index columns and the
// taken bits, about 3 to 5 B per record. A recorder takes its columns
// from the pool and Finish gives back every buffer the trace did not
// keep (build hands over a column only when it has no slack, and copies
// it otherwise), so recordings made one after another reuse their
// working memory. A Runner that releases each recording after its one
// replay would otherwise allocate these columns as fast as it frees
// traces, and the collections that allocation paces slow the replays
// running beside the recordings. The tuple pool and the interning table
// are not kept: their size follows the program's distinct tuples, not
// its length.
var scratchPool = sync.Pool{New: func() any { return new(columns) }}

// SetContext attaches ctx to the recorder: Finish polls it every few
// thousand records and returns its error early, so an abandoned service
// job does not emulate a long program to its record target. A cancelled
// Finish returns the context's error and no trace.
func (r *Recorder) SetContext(ctx context.Context) { r.ctx = ctx }

// NewRecorder wraps m, which must be freshly constructed (no instructions
// executed), with its per-record columns pre-sized for about n records
// (none if n <= 0), sparing the recording hot path their incremental
// growth when the caller knows the Finish target up front. PCs and tuple
// indexes are narrowed every stageLen records, so the pre-sized columns
// are the narrow ones, widened (and re-encoded) only when a value needs
// more bytes: a recording never holds a full-width copy. The tuple pool
// and the interning table grow on demand: their size is the number of
// distinct operand tuples, which varies widely between programs
// (ARCHITECTURE.md, "The recorded form"), so an up-front guess mostly
// reserves memory the recording never uses. prog must be the program
// loaded into m; its text is embedded in the trace so replay needs no
// program object.
func NewRecorder(m *emu.Machine, prog *isa.Program, n int) (*Recorder, error) {
	if m.InstCount() != 0 {
		return nil, fmt.Errorf("trace: recorder needs a fresh machine (%d instructions already executed)", m.InstCount())
	}
	c := scratchPool.Get().(*columns)
	r := &Recorder{m: m, t: &Trace{name: prog.Name, insts: prog.Insts}, cols: columns{
		pcs: c.pcs[:0], tupleIdx: c.tupleIdx[:0], taken: c.taken[:0],
		narrowPCs: column{b: c.narrowPCs.b[:0]}, narrowIdx: column{b: c.narrowIdx.b[:0]},
	}}
	if cap(r.cols.pcs) < stageLen {
		r.cols.pcs = make([]uint32, 0, stageLen)
		r.cols.tupleIdx = make([]uint32, 0, stageLen)
	}
	if n > 0 {
		r.cols.size = n
		if cap(r.cols.taken) < (n+63)/64 {
			r.cols.taken = make([]uint64, 0, (n+63)/64)
		}
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
// Finish ends the recording: it builds the columns into the finished
// trace, which holds exactly its data (every column at its narrowest
// width, with no capacity slack), returns the per-record columns the
// trace did not keep to the scratch pool and drops the interning table,
// so the recorder must not be used afterwards. On error it returns no
// trace (and its columns go to the collector).
func (r *Recorder) Finish(target int) (*Trace, error) {
	const ctxPoll = 4096 // records between context cancellation checks
	poll := ctxPoll
	var rec emu.Record
	for r.cols.len() < target && r.m.Next(&rec) {
		if rec.PC > math.MaxUint32 {
			// A register-indirect jump far outside the text cannot be
			// encoded in the compact PC column.
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
	r.release(t)
	return t, nil
}

// release returns the per-record columns that t did not keep to the
// scratch pool, and drops the recorder's state.
func (r *Recorder) release(t *Trace) {
	kept := &columns{pcs: r.cols.pcs, tupleIdx: r.cols.tupleIdx}
	if !shares(t.taken, r.cols.taken) {
		kept.taken = r.cols.taken
	}
	if !shares(t.pcs.b, r.cols.narrowPCs.b) {
		kept.narrowPCs.b = r.cols.narrowPCs.b
	}
	if !shares(t.tupleIdx.b, r.cols.narrowIdx.b) {
		kept.narrowIdx.b = r.cols.narrowIdx.b
	}
	scratchPool.Put(kept)
	r.cols, r.intern = columns{}, interner{}
}

// shares reports whether a and b have the same backing array.
func shares[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}
