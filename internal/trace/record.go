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

// Recorder wraps a live emu.Machine: it serves the timing pipeline exactly
// like emu.Stream (bounded replay window, rewind on squash) while
// appending every newly produced record to full-width columns that Finish
// narrows into a Trace. After the recording simulation finishes, Finish
// runs the machine to completion so the trace covers the full dynamic
// stream — a wider configuration replaying it later may fetch further
// ahead of the commit limit than the recording one did.
type Recorder struct {
	m      *emu.Machine
	t      *Trace   // name and text; Finish builds the rest
	cols   columns  // the records so far, at full width
	intern interner // tuple -> index into cols.tuples

	window []emu.DynInst // ring buffer indexed by Seq % len, made by the first NextRef
	n      int           // window length
	pos    uint64        // next Seq to hand out
	err    error         // first recording fault (PC overflow)

	ctx context.Context // polled by Finish; nil never cancels
}

// SetContext attaches ctx to the recorder: Finish polls it every few
// thousand records and returns its error early, so an abandoned service
// job does not emulate a long program to its record target. A cancelled
// Finish returns the context's error and no trace; the recording
// simulation itself is cancelled through the pipeline's own context.
func (r *Recorder) SetContext(ctx context.Context) { r.ctx = ctx }

// NewRecorder wraps m, which must be freshly constructed (no instructions
// executed), with a replay window of n records (emu.DefaultWindow if
// n <= 0), allocated only once the recorder serves a record: a pure
// recording pass (Finish alone) needs none. prog must be the program
// loaded into m; its text is embedded in the trace so replay needs no
// program object.
func NewRecorder(m *emu.Machine, prog *isa.Program, n int) (*Recorder, error) {
	if m.InstCount() != 0 {
		return nil, fmt.Errorf("trace: recorder needs a fresh machine (%d instructions already executed)", m.InstCount())
	}
	if n <= 0 {
		n = emu.DefaultWindow
	}
	return &Recorder{
		m: m,
		t: &Trace{name: prog.Name, insts: prog.Insts},
		n: n,
	}, nil
}

// produce steps the machine once into d and appends the record to the
// trace columns. It reports whether the machine produced a halt.
func (r *Recorder) produce(d *emu.DynInst) bool {
	*d = r.m.Step()
	if d.PC > math.MaxUint32 && r.err == nil {
		// A register-indirect jump far outside the text cannot be encoded
		// in the compact PC column; the recording run still proceeds (the
		// window serves it), but the trace is unusable.
		r.err = fmt.Errorf("trace: PC %#x exceeds the recordable range", d.PC)
	}
	k := project(d)
	r.cols.add(uint32(d.PC), d.Taken, r.intern.intern(&r.cols.tuples, &k))
	r.cols.halted = d.Halt
	return d.Halt
}

// NextRef returns a pointer to the record at the current position,
// producing it from the machine into the replay window if it has not been
// generated yet. The pointer stays valid until the window wraps past its
// sequence number. ok is false once the stream is positioned past the
// halt record.
func (r *Recorder) NextRef() (*emu.DynInst, bool) {
	if r.window == nil {
		r.window = make([]emu.DynInst, r.n)
	}
	for r.pos >= uint64(len(r.cols.pcs)) {
		if r.cols.halted {
			return nil, false
		}
		seq := uint64(len(r.cols.pcs))
		r.produce(&r.window[seq%uint64(len(r.window))])
	}
	d := &r.window[r.pos%uint64(len(r.window))]
	r.pos++
	return d, true
}

// Next returns the current record by value.
func (r *Recorder) Next() (emu.DynInst, bool) {
	d, ok := r.NextRef()
	if !ok {
		return emu.DynInst{}, false
	}
	return *d, true
}

// Pos returns the sequence number of the next record NextRef will return.
func (r *Recorder) Pos() uint64 { return r.pos }

// Reserve pre-sizes the per-record columns for about n records, sparing
// the recording hot path their incremental growth (the caller usually
// knows the Finish target up front). The tuple pool and the interning
// table grow on demand: their size is the number of distinct operand
// tuples, which varies widely between programs (ARCHITECTURE.md, "The
// recorded form"), so an up-front guess mostly reserves memory the
// recording never uses.
func (r *Recorder) Reserve(n int) {
	c := &r.cols
	if n <= len(c.pcs) {
		return
	}
	c.pcs = append(make([]uint32, 0, n), c.pcs...)
	c.tupleIdx = append(make([]uint32, 0, n), c.tupleIdx...)
	c.taken = append(make([]uint64, 0, (n+63)/64), c.taken...)
}

// Rewind repositions the stream so that NextRef returns the record with
// sequence number seq again, with the same window contract as
// emu.Stream.Rewind.
func (r *Recorder) Rewind(seq uint64) {
	if seq > r.pos {
		panic(fmt.Sprintf("trace: rewind forward from %d to %d", r.pos, seq))
	}
	filled := uint64(len(r.cols.pcs))
	if filled > uint64(r.n) && seq < filled-uint64(r.n) {
		panic(fmt.Sprintf("trace: rewind to %d outside window (oldest %d)",
			seq, filled-uint64(r.n)))
	}
	r.pos = seq
}

// Finish completes the trace: the machine keeps running until it halts or
// until target records exist (the recording simulation usually stops at a
// commit limit short of either). A replaying pipeline never looks past
// its commit limit plus its in-flight capacity, so a target of
// maxInsts + SourceWindow(cfg) of the widest consuming configuration
// makes the recording exactly as long as any replay can observe — there
// is no need to emulate a long-running program to its halt. A trace that
// stops before halt is marked truncated; Replayer documents how far such
// a trace can feed a simulation. The error is non-nil only when the
// recording is unusable outright (an unrecordable PC was produced) or its
// context was cancelled.
//
// Finish ends the recording: it narrows the columns into the finished
// trace, which holds exactly its data (every column at its narrowest
// width, with no capacity slack), and drops the recorder's columns and
// interning table, so the recorder must not be used afterwards. On error
// it returns no trace.
func (r *Recorder) Finish(target int) (*Trace, error) {
	const ctxPoll = 4096 // records between context cancellation checks
	poll := ctxPoll
	var d emu.DynInst // no one reads the window past the recording run
	for !r.cols.halted && len(r.cols.pcs) < target {
		r.produce(&d)
		if poll--; poll <= 0 {
			poll = ctxPoll
			if r.ctx != nil {
				if err := r.ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	t := r.t
	t.truncated = !r.cols.halted
	r.cols.build(t)
	r.cols, r.intern = columns{}, interner{}
	return t, nil
}
