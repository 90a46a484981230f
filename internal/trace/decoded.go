package trace

import (
	"sync/atomic"

	"specvec/internal/emu"
)

// Decoded is the shared, pre-decoded form of a Trace: records are
// materialized into immutable fixed-size blocks of emu.Record, each
// block decoded at most once (modulo a benign publication race) and then
// served by reference to any number of concurrent Cursors. A decoded
// block is one block of the Trace, walked forward from its checkpoint by
// a Replayer (tuple-index reads, tuple-pool lookups, static-instruction
// fetch, PC derivation), so a group of simulators replaying the same
// recording pays that walk once per block instead of once per simulator.
//
// Blocks decode lazily, on first touch by any cursor, so a short replay
// (a cancelled run) never pays for the whole trace. A decoded block holds
// 56 B per record (emu.Record) where the trace holds a few bytes, which
// is why experiments.Runner replays through a Replayer instead: Decoded
// is the bench ladder's shared-walk reader (cmd/sdvbench).
type Decoded struct {
	t      *Trace
	blocks []atomic.Pointer[[]emu.Record]

	decodes atomic.Int64 // blocks actually decoded (including lost races)
	loads   atomic.Int64 // block fetches by cursors (hits + decodes)
}

// NewDecoded wraps t. Decoding happens lazily, block by block (one
// decoded block per trace block, 224 KiB for blockLen records), as
// cursors reach into the trace; the wrapper itself allocates only the
// block directory.
func NewDecoded(t *Trace) *Decoded {
	return &Decoded{t: t, blocks: make([]atomic.Pointer[[]emu.Record], len(t.blocks))}
}

// BlockLoads returns how many block fetches cursors have performed
// (decodes plus shared hits). BlockLoads - BlockDecodes is the decode
// work the sharing saved.
func (d *Decoded) BlockLoads() int64 { return d.loads.Load() }

// BlockDecodes returns how many blocks were actually decoded. Concurrent
// first touches of one block may decode it twice (one result wins the
// publish; both are counted), so this can exceed the block count by the
// number of lost races — the counters stay honest about work done.
func (d *Decoded) BlockDecodes() int64 { return d.decodes.Load() }

// block returns decoded block i, decoding and publishing it if no
// cursor has touched it yet: a Replayer seeks to the trace block's
// checkpoint and walks it forward. The returned slice is immutable once
// published.
func (d *Decoded) block(i int) []emu.Record {
	d.loads.Add(1)
	if p := d.blocks[i].Load(); p != nil {
		return *p
	}
	blk := make([]emu.Record, d.t.blocks[i].len())
	r := Replayer{t: d.t}
	r.Seek(i * blockLen)
	for j := range blk {
		r.Next(&blk[j])
	}
	d.decodes.Add(1)
	if d.blocks[i].CompareAndSwap(nil, &blk) {
		return blk
	}
	return *d.blocks[i].Load()
}

// Cursor returns a new cursor positioned at record zero. Cursors are
// independent — each belongs to one simulator goroutine — while the
// decoded blocks they walk are shared.
func (d *Decoded) Cursor() *Cursor { return &Cursor{d: d} }

// Cursor walks a Decoded trace forward as a pipeline.Source, with the
// same contract as Replayer: records in sequence order, false past the
// halt (or, for a truncated trace, past the last record). NextRef hands
// out pointers into the shared immutable blocks, so the steady state does
// no allocation.
type Cursor struct {
	d   *Decoded
	pos uint64 // next Seq to hand out

	blk   []emu.Record // current block (fast path)
	blkLo uint64       // sequence number of blk[0]
	blkHi uint64       // blkLo + len(blk); 0 until the first load
}

// NextRef returns a pointer to the record at the current position and
// advances. The pointer aliases the shared decoded block and stays valid
// for the life of the Decoded; consumers treat records as read-only.
//
//sdv:hotpath
func (c *Cursor) NextRef() (*emu.Record, bool) {
	if c.pos >= c.blkHi {
		if c.pos >= uint64(c.d.t.Len()) {
			return nil, false
		}
		i := int(c.pos / blockLen)
		c.blk = c.d.block(i)
		c.blkLo = uint64(i) * blockLen
		c.blkHi = c.blkLo + uint64(len(c.blk))
	}
	rec := &c.blk[c.pos-c.blkLo]
	c.pos++
	return rec, true
}

// Next copies the record at the current position into d and advances,
// reporting false, with d untouched, past the last record.
func (c *Cursor) Next(d *emu.Record) bool {
	rec, ok := c.NextRef()
	if ok {
		*d = *rec
	}
	return ok
}
