package trace

import "specvec/internal/emu"

// Replayer serves a recorded Trace to the timing pipeline as a
// forward-only pipeline.Source: records come out in sequence order and
// the stream ends after the halt record — or, for a truncated trace,
// after the last recorded instruction. Replay needs no machine, memory
// image or per-instruction interpretation; it allocates nothing.
type Replayer struct {
	t   *Trace
	pos int // next record to serve
}

// NewReplayer returns a Replayer positioned at the first record of t.
func NewReplayer(t *Trace) *Replayer { return &Replayer{t: t} }

// Next materializes the record at the current position into d and
// advances. It reports false, leaving d untouched, once every record has
// been served.
//
//sdv:hotpath
func (r *Replayer) Next(d *emu.Record) bool {
	if r.pos >= r.t.Len() {
		return false
	}
	r.t.Record(r.pos, d)
	r.pos++
	return true
}
