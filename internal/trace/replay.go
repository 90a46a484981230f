package trace

import (
	"fmt"

	"specvec/internal/emu"
)

// Replayer serves a recorded Trace to the timing pipeline with the same
// semantics emu.Stream gives fetch: records come out in sequence order,
// a bounded window of recent records stays addressable so a squash can
// rewind and replay, and the stream ends after the halt record. Replay
// needs no machine, memory image or per-instruction interpretation; its
// steady state allocates nothing.
type Replayer struct {
	t      *Trace
	window []emu.DynInst // ring buffer indexed by Seq % len
	filled uint64        // records materialized into the window so far
	pos    uint64        // next Seq to hand out
}

// NewReplayer wraps t with a replay window of n records (emu.DefaultWindow
// if n <= 0). The window must exceed the maximum number of in-flight
// instructions of the consuming pipeline, exactly as for emu.NewStream.
func NewReplayer(t *Trace, n int) *Replayer {
	if n <= 0 {
		n = emu.DefaultWindow
	}
	return &Replayer{t: t, window: make([]emu.DynInst, n)}
}

// Trace returns the trace being replayed.
func (r *Replayer) Trace() *Trace { return r.t }

// NextRef returns a pointer to the record at the current position,
// materializing it from the trace columns on first touch. The pointer
// stays valid until the window wraps past its sequence number. ok is
// false once the stream is positioned past the halt record — or, for a
// truncated trace, past the last recorded instruction.
//
//sdv:hotpath
func (r *Replayer) NextRef() (*emu.DynInst, bool) {
	if r.pos >= uint64(r.t.Len()) {
		return nil, false
	}
	for r.filled <= r.pos {
		r.t.Record(int(r.filled), &r.window[r.filled%uint64(len(r.window))])
		r.filled++
	}
	d := &r.window[r.pos%uint64(len(r.window))]
	r.pos++
	return d, true
}

// Next returns the current record by value.
func (r *Replayer) Next() (emu.DynInst, bool) {
	d, ok := r.NextRef()
	if !ok {
		return emu.DynInst{}, false
	}
	return *d, true
}

// Pos returns the sequence number of the next record NextRef will return.
func (r *Replayer) Pos() uint64 { return r.pos }

// Rewind repositions the stream so that NextRef returns the record with
// sequence number seq again, with the same window contract as
// emu.Stream.Rewind.
func (r *Replayer) Rewind(seq uint64) {
	if seq > r.pos {
		panic(fmt.Sprintf("trace: rewind forward from %d to %d", r.pos, seq))
	}
	if r.filled > uint64(len(r.window)) && seq < r.filled-uint64(len(r.window)) {
		panic(fmt.Sprintf("trace: rewind to %d outside window (oldest %d)",
			seq, r.filled-uint64(len(r.window))))
	}
	r.pos = seq
}

// Peek returns a previously materialized record without repositioning.
func (r *Replayer) Peek(seq uint64) (emu.DynInst, bool) {
	if seq >= r.filled {
		return emu.DynInst{}, false
	}
	if r.filled > uint64(len(r.window)) && seq < r.filled-uint64(len(r.window)) {
		return emu.DynInst{}, false
	}
	return r.window[seq%uint64(len(r.window))], true
}
