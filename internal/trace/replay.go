package trace

import "specvec/internal/emu"

// Replayer serves a recorded Trace to the timing pipeline as a
// forward-only pipeline.Source: records come out in sequence order and
// the stream ends after the halt record — or, for a truncated trace,
// after the last recorded instruction. It is the one reader of a Trace:
// it takes each block's first PC from the block's checkpoint and derives
// every other PC from the record before it. Replay needs no machine,
// memory image or per-instruction interpretation; it allocates nothing.
type Replayer struct {
	t   *Trace
	pos int    // next record to serve
	pc  uint64 // its PC, unless pos starts a block
}

// NewReplayer returns a Replayer positioned at the first record of t.
func NewReplayer(t *Trace) *Replayer { return &Replayer{t: t} }

// Seek positions r at record i (at most Len): it starts from the
// checkpoint of i's block and walks forward to i.
func (r *Replayer) Seek(i int) {
	i = min(i, r.t.n)
	r.pos = i - i%blockLen
	var d emu.Record
	for r.pos < i && r.Next(&d) {
	}
}

// Next materializes the record at the current position into d and
// advances. It reports false, leaving d untouched, once every record has
// been served.
//
//sdv:hotpath
func (r *Replayer) Next(d *emu.Record) bool {
	i := r.pos
	if i >= r.t.n {
		return false
	}
	b := &r.t.blocks[i/blockLen]
	j := i % blockLen
	if j == 0 {
		r.pc = uint64(b.pc)
	}
	// Field by field, as in emu's project: a composite literal is copied
	// in 8+16+16+16-byte stores that split Inst, and the caller's next
	// read of Inst then waits for both stores to retire.
	d.Seq, d.PC, d.Inst = uint64(i), r.pc, r.t.inst(r.pc)
	d.Vals = *r.t.tuples.at(b.at(j))
	d.Taken, d.Halt = b.takenAt(j), r.t.halted && i == r.t.n-1
	r.pc = d.NextPC()
	r.pos++
	return true
}
