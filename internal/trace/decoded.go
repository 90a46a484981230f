package trace

import (
	"fmt"
	"sync/atomic"

	"specvec/internal/emu"
)

// Decoded is the shared, pre-decoded form of a Trace: records are
// materialized into immutable fixed-size blocks of emu.DynInst, each
// block decoded at most once (modulo a benign publication race) and then
// served by reference to any number of concurrent Cursors. A group of
// simulators replaying the same recording pays the column decode —
// tuple-pool lookups, static-instruction fetch, successor-PC derivation —
// once per block instead of once per simulator, and a Cursor needs no
// replay window at all: every decoded record stays addressable, so Rewind
// is a pure position move.
//
// Blocks decode lazily, on first touch by any cursor, so a short replay
// (a sharded warmup interval, a cancelled run) never pays for the whole
// trace. The decoded form is about 5x the size of the column form
// (DynInst is ~100 bytes per record against ~20 compressed), which is
// why experiments.Runner replays through a windowed Replayer instead:
// Decoded is the bench ladder's shared-walk reader (cmd/sdvbench).
type Decoded struct {
	t      *Trace
	blocks []atomic.Pointer[[]emu.DynInst]

	decodes atomic.Int64 // blocks actually decoded (including lost races)
	loads   atomic.Int64 // block fetches by cursors (hits + decodes)
}

// decodedBlockShift sets the block granularity: 1<<12 = 4096 records
// (~400KB decoded) — coarse enough that the per-block bookkeeping
// disappears from the replay hot path, fine enough that lazy decoding
// tracks a cursor's actual reach.
const decodedBlockShift = 12

// NewDecoded wraps t. Decoding happens lazily, block by block, as
// cursors reach into the trace; the wrapper itself allocates only the
// block directory.
func NewDecoded(t *Trace) *Decoded {
	n := (t.Len() + (1 << decodedBlockShift) - 1) >> decodedBlockShift
	return &Decoded{t: t, blocks: make([]atomic.Pointer[[]emu.DynInst], n)}
}

// Trace returns the trace being decoded.
func (d *Decoded) Trace() *Trace { return d.t }

// Len returns the number of records, mirroring Trace.Len.
func (d *Decoded) Len() int { return d.t.Len() }

// BlockLoads returns how many block fetches cursors have performed
// (decodes plus shared hits). BlockLoads - BlockDecodes is the decode
// work the sharing saved.
func (d *Decoded) BlockLoads() int64 { return d.loads.Load() }

// BlockDecodes returns how many blocks were actually decoded. Concurrent
// first touches of one block may decode it twice (one result wins the
// publish; both are counted), so this can exceed the block count by the
// number of lost races — the counters stay honest about work done.
func (d *Decoded) BlockDecodes() int64 { return d.decodes.Load() }

// block returns the decoded block containing record seq, decoding and
// publishing it if no cursor has touched it yet. The returned slice is
// immutable once published.
func (d *Decoded) block(i int) []emu.DynInst {
	d.loads.Add(1)
	if p := d.blocks[i].Load(); p != nil {
		return *p
	}
	lo := i << decodedBlockShift
	hi := min(lo+(1<<decodedBlockShift), d.t.Len())
	blk := make([]emu.DynInst, hi-lo)
	for j := range blk {
		d.t.Record(lo+j, &blk[j])
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
func (d *Decoded) Cursor() *Cursor { return d.CursorAt(0) }

// CursorAt is Cursor positioned at record start: the first NextRef
// returns that record (with its original sequence number). Rewind cannot
// go below start, mirroring NewReplayerAt — checkpointed fast-forward
// starts each shard at a boundary the pipeline never fetched behind.
func (d *Decoded) CursorAt(start uint64) *Cursor {
	if start > uint64(d.t.Len()) {
		start = uint64(d.t.Len())
	}
	return &Cursor{d: d, base: start, pos: start}
}

// Cursor walks a Decoded trace as a pipeline.Source. It satisfies the
// same contract as Replayer — records in sequence order, ok=false past
// the halt (or, for a truncated trace, past the last record), Rewind to
// any previously served record — but with no materialization window:
// NextRef hands out pointers into the shared immutable blocks, so the
// steady state does no copying and no allocation, and a squash's Rewind
// is a position move that can never fall out of a window.
type Cursor struct {
	d    *Decoded
	base uint64 // first record this cursor serves; Rewind floor
	pos  uint64 // next Seq to hand out

	blk   []emu.DynInst // current block (fast path)
	blkLo uint64        // sequence number of blk[0]
	blkHi uint64        // blkLo + len(blk); 0 until the first load
}

// NextRef returns a pointer to the record at the current position. The
// pointer aliases the shared decoded block and stays valid for the life
// of the Decoded; consumers treat records as read-only (the pipeline
// copies what it keeps), exactly as with Replayer's window pointers.
//
//sdv:hotpath
func (c *Cursor) NextRef() (*emu.DynInst, bool) {
	if c.pos < c.blkLo || c.pos >= c.blkHi {
		if c.pos >= uint64(c.d.t.Len()) {
			return nil, false
		}
		i := int(c.pos >> decodedBlockShift)
		c.blk = c.d.block(i)
		c.blkLo = uint64(i) << decodedBlockShift
		c.blkHi = c.blkLo + uint64(len(c.blk))
	}
	rec := &c.blk[c.pos-c.blkLo]
	c.pos++
	return rec, true
}

// Next returns the current record by value.
func (c *Cursor) Next() (emu.DynInst, bool) {
	d, ok := c.NextRef()
	if !ok {
		return emu.DynInst{}, false
	}
	return *d, true
}

// Pos returns the sequence number of the next record NextRef will return.
func (c *Cursor) Pos() uint64 { return c.pos }

// Rewind repositions the stream so that NextRef returns the record with
// sequence number seq again. Unlike a windowed source there is no oldest
// reachable record — any seq in [base, pos] is valid.
func (c *Cursor) Rewind(seq uint64) {
	if seq > c.pos {
		panic(fmt.Sprintf("trace: rewind forward from %d to %d", c.pos, seq))
	}
	if seq < c.base {
		panic(fmt.Sprintf("trace: rewind to %d before replay base %d", seq, c.base))
	}
	c.pos = seq
}

// Peek returns a previously served record without repositioning,
// mirroring Replayer.Peek (a decoded block never expires, so any record
// in [base, pos) is available).
func (c *Cursor) Peek(seq uint64) (emu.DynInst, bool) {
	if seq >= c.pos || seq < c.base {
		return emu.DynInst{}, false
	}
	if seq >= c.blkLo && seq < c.blkHi {
		return c.blk[seq-c.blkLo], true
	}
	return *c.d.Record(seq), true
}

// Record returns a pointer to record seq, decoding its block if needed.
// It panics if seq is out of range (mirroring Trace.Record).
func (d *Decoded) Record(seq uint64) *emu.DynInst {
	blk := d.block(int(seq >> decodedBlockShift))
	return &blk[seq&(1<<decodedBlockShift-1)]
}
