package trace

import (
	"fmt"
	"sync"
	"testing"

	"specvec/internal/emu"
)

// TestCursorMatchesStream walks a Cursor against the records of a live
// machine, demanding identical records at every step.
func TestCursorMatchesStream(t *testing.T) {
	for _, bench := range []string{"compress", "swim"} {
		prog := buildBench(t, bench, 4000)
		tr := record(t, prog, 1<<22)
		if tr.Truncated() {
			t.Fatalf("%s: recording truncated at %d records", bench, tr.Len())
		}
		sameStream(t, bench+"/cursor", newMachine(t, prog), NewDecoded(tr).Cursor())
	}
}

// TestCursorMatchesReplayer drives a Cursor and a Replayer over the same
// recording: the decoded form must be record-for-record
// indistinguishable from the column form.
func TestCursorMatchesReplayer(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 4000), 1<<22)
	sameStream(t, "swim/cursor-vs-replayer", NewReplayer(tr), NewDecoded(tr).Cursor())
}

// TestDecodedBlocksDecodeOnce checks the sharing arithmetic: K sequential
// cursors over one Decoded trigger K block loads per block but only one
// decode per block, so BlockLoads - BlockDecodes is the decode work saved.
func TestDecodedBlocksDecodeOnce(t *testing.T) {
	tr := record(t, buildBench(t, "swim", 6000), 1<<22)
	d := NewDecoded(tr)
	nblocks := int64((tr.Len() + blockLen - 1) / blockLen)
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
	want := make([]emu.Record, tr.Len())
	rp := NewReplayer(tr)
	for i := range want {
		rp.Next(&want[i])
	}
	d := NewDecoded(tr)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := d.Cursor()
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
// allocations per served record once its blocks are decoded — the same
// discipline TestReplayerSteadyStateAllocs pins for the column form.
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
	var rec emu.Record
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			if !cur.Next(&rec) {
				*cur = Cursor{d: d}
			}
		}
	})
	if avg != 0 {
		t.Errorf("cursor steady state allocates %.2f allocs per 64-record batch, want 0", avg)
	}
}
