package trace

import (
	"fmt"
	"sync"
	"testing"

	"specvec/internal/emu"
)

// TestCursorMatchesStream walks a Cursor against a live stream with the
// same randomized Next/Rewind schedule used for Recorder and Replayer,
// demanding identical records at every step.
func TestCursorMatchesStream(t *testing.T) {
	for _, bench := range []string{"compress", "swim"} {
		prog := buildBench(t, bench, 4000)
		tr := record(t, prog, 1<<22)
		if tr.Truncated() {
			t.Fatalf("%s: recording truncated at %d records", bench, tr.Len())
		}
		strm := emu.NewStream(newMachine(t, prog), 512)
		walk(t, bench+"/cursor", strm, NewDecoded(tr).Cursor(), 20_000)
	}
}

// TestCursorMatchesReplayer drives a Cursor and a Replayer over the same
// recording with the shared walk schedule: the decoded form must be
// record-for-record indistinguishable from the windowed one.
func TestCursorMatchesReplayer(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 4000), 1<<22)
	walk(t, "swim/cursor-vs-replayer", NewReplayer(tr, 512), NewDecoded(tr).Cursor(), 20_000)
}

// TestCursorAtMatchesReplayerAt starts both sources mid-trace (the
// checkpointed fast-forward shape) and walks them together, including a
// start beyond the trace end, which must clamp to an immediately-dry
// source on both.
func TestCursorAtMatchesReplayerAt(t *testing.T) {
	tr := record(t, buildBench(t, "compress", 4000), 1<<22)
	d := NewDecoded(tr)
	for _, start := range []uint64{0, 1, 4095, 4096, 5000, uint64(tr.Len()), uint64(tr.Len()) + 99} {
		rep := NewReplayerAt(tr, 512, start)
		cur := d.CursorAt(start)
		if rep.Pos() != cur.Pos() {
			t.Fatalf("start %d: pos %d vs %d", start, rep.Pos(), cur.Pos())
		}
		walkFrom(t, "compress/cursor-at", rep, cur, min(start, uint64(tr.Len())), 10_000)
	}
}

// walkFrom is walk with rewinds floored at base, for sources positioned
// mid-trace (rewinding below the replay base is a contract violation on
// both sides, not a comparison).
func walkFrom(t *testing.T, name string, want, got source, base uint64, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		if i%61 == 60 && want.Pos() > base {
			back := uint64(i%97) + 1
			if back > want.Pos()-base {
				back = want.Pos() - base
			}
			want.Rewind(want.Pos() - back)
			got.Rewind(got.Pos() - back)
		}
		w, wok := want.Next()
		g, gok := got.Next()
		if wok != gok {
			t.Fatalf("%s: step %d: ok %v vs %v", name, i, wok, gok)
		}
		if !wok {
			return
		}
		if w != g {
			t.Fatalf("%s: step %d: record mismatch\nwant: %+v\ngot:  %+v", name, i, w, g)
		}
	}
}

// TestCursorRewindContract pins the panic contract shared with Replayer:
// forward rewinds and rewinds below the base are programming errors.
func TestCursorRewindContract(t *testing.T) {
	tr := record(t, buildBench(t, "compress", 2000), 1<<22)
	d := NewDecoded(tr)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}

	c := d.CursorAt(100)
	for i := 0; i < 50; i++ {
		c.NextRef()
	}
	c.Rewind(100) // to base: fine
	for i := 0; i < 50; i++ {
		c.NextRef()
	}
	mustPanic("rewind forward", func() { c.Rewind(c.Pos() + 1) })
	mustPanic("rewind below base", func() { c.Rewind(99) })

	// Unlike a windowed source, any rewind within [base, pos] is valid —
	// even one reaching back past a block boundary far behind the window
	// a Replayer would keep.
	far := d.Cursor()
	for i := 0; i < 3*(1<<decodedBlockShift)/2; i++ {
		far.NextRef()
	}
	far.Rewind(0)
	if rec, ok := far.NextRef(); !ok || rec.Seq != 0 {
		t.Fatalf("deep rewind: got seq %v ok=%v, want 0 true", rec, ok)
	}
}

// TestCursorPeek mirrors Replayer.Peek: served records are peekable,
// unserved and below-base ones are not.
func TestCursorPeek(t *testing.T) {
	tr := record(t, buildBench(t, "compress", 2000), 1<<22)
	c := NewDecoded(tr).CursorAt(10)
	if _, ok := c.Peek(10); ok {
		t.Error("peek before first NextRef succeeded")
	}
	want, _ := c.Next()
	got, ok := c.Peek(10)
	if !ok || got != want {
		t.Fatalf("peek(10) = %+v ok=%v, want %+v true", got, ok, want)
	}
	if _, ok := c.Peek(9); ok {
		t.Error("peek below base succeeded")
	}
	if _, ok := c.Peek(c.Pos()); ok {
		t.Error("peek at unserved position succeeded")
	}
}

// TestDecodedBlocksDecodeOnce checks the sharing arithmetic: K sequential
// cursors over one Decoded trigger K block loads per block but only one
// decode per block, so BlockLoads - BlockDecodes is the decode work saved.
func TestDecodedBlocksDecodeOnce(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 6000), 1<<22)
	d := NewDecoded(tr)
	nblocks := int64((tr.Len() + (1 << decodedBlockShift) - 1) >> decodedBlockShift)
	const k = 4
	for i := 0; i < k; i++ {
		c := d.Cursor()
		for {
			if _, ok := c.NextRef(); !ok {
				break
			}
		}
	}
	if got := d.BlockDecodes(); got != nblocks {
		t.Errorf("BlockDecodes = %d, want %d (sequential cursors must share)", got, nblocks)
	}
	if got := d.BlockLoads(); got != k*nblocks {
		t.Errorf("BlockLoads = %d, want %d", got, k*nblocks)
	}
}

// TestDecodedConcurrentCursors runs many cursors over one Decoded at
// once — the shared-walk shape — and verifies every one observes the exact
// recorded stream. Run with -race this also proves the lazy block publish
// is sound under concurrent first touch.
func TestDecodedConcurrentCursors(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 6000), 1<<22)
	want := make([]emu.DynInst, tr.Len())
	for i := range want {
		tr.Record(i, &want[i])
	}
	d := NewDecoded(tr)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := d.Cursor()
			served := 0
			for i := 0; ; i++ {
				rec, ok := c.NextRef()
				if !ok {
					if i != len(want) {
						errc <- fmt.Errorf("cursor %d: stream ended at %d of %d", g, i, len(want))
					}
					return
				}
				if *rec != want[i] {
					errc <- fmt.Errorf("cursor %d: record %d mismatch", g, i)
					return
				}
				// Periodic squash-style rewinds stress shared blocks. The
				// trigger counts served records, not positions, so each
				// rewind's replayed stretch cannot re-trigger it.
				if served++; served%1777 == 0 && i > 32 {
					c.Rewind(uint64(i - 31))
					i -= 32
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCursorSteadyStateAllocs pins the shared-replay hot path at zero
// allocations per served record once its blocks are decoded, including
// across rewinds — the same discipline TestReplayerSteadyStateAllocs pins
// for the windowed form.
func TestCursorSteadyStateAllocs(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 4000), 1<<22)
	d := NewDecoded(tr)
	warm := d.Cursor()
	for {
		if _, ok := warm.NextRef(); !ok {
			break
		}
	}
	cur := d.Cursor()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			if _, ok := cur.NextRef(); !ok {
				cur.Rewind(0)
			}
		}
		cur.Rewind(cur.Pos() - 32) // squash-style replay
	})
	if avg != 0 {
		t.Errorf("cursor steady state allocates %.2f allocs per 64-record batch, want 0", avg)
	}
}
