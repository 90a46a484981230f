package core

import "testing"

// TestJournalRewindOrder chains byte snapshots through one cell, so the
// cell's value after each rewind names the entry undone last: entries
// are undone newest first, down to and including the rewind's sequence.
func TestJournalRewindOrder(t *testing.T) {
	j := NewJournal()
	var b uint8
	for _, e := range []struct {
		seq uint64
		val uint8
	}{{1, 1}, {2, 2}, {2, 22}, {3, 3}} {
		j.PushU8(e.seq, &b)
		b = e.val
	}
	j.RewindTo(3)
	if b != 22 {
		t.Errorf("after rewind to 3: cell = %d, want 22", b)
	}
	j.RewindTo(2)
	// Both seq-2 entries undone, the older one last.
	if b != 1 {
		t.Errorf("after rewind to 2: cell = %d, want 1", b)
	}
	if j.Len() != 1 {
		t.Errorf("live entries = %d, want 1", j.Len())
	}
	// Entry for seq 1 untouched until now.
	j.RewindTo(0)
	if b != 0 || j.Len() != 0 {
		t.Errorf("final cell = %d with %d live entries, want 0 and 0", b, j.Len())
	}
}

func TestJournalPrune(t *testing.T) {
	j := NewJournal()
	var pruned, live uint8
	j.PushU8(1, &pruned)
	pruned = 1
	j.PushU8(5, &live)
	live = 5
	j.Prune(3)
	if j.Len() != 1 {
		t.Errorf("live = %d, want 1", j.Len())
	}
	// Rewinding cannot reach pruned entries.
	j.RewindTo(0)
	if pruned != 1 {
		t.Error("pruned undo executed")
	}
	if live != 0 {
		t.Error("live undo not executed")
	}
}

func TestJournalPruneCompaction(t *testing.T) {
	j := NewJournal()
	var count uint64
	for i := 0; i < 20000; i++ {
		count++
		j.PushDec(uint64(i), &count)
	}
	j.Prune(15000)
	if j.Len() != 5000 {
		t.Errorf("live = %d, want 5000", j.Len())
	}
	// Push/rewind still behave after compaction.
	var hit uint8 = 1
	j.PushU8(20000, &hit)
	hit = 2
	j.RewindTo(20000)
	if hit != 1 {
		t.Error("undo after compaction not executed")
	}
	j.RewindTo(0)
	if count != 15000 {
		t.Errorf("counter reads %d after rewinding the live entries, want 15000", count)
	}
}

// TestJournalCompactsToLive streams 10,000 instructions' entries (a byte
// snapshot and a counter decrement each) through the journal with at most
// eight instructions live, squashing the newest three every 97, and
// requires every rewind to undo exactly those three, newest first, and
// each log's capacity to stay within four times its live high-water mark
// instead of growing with what it has pruned. The snapshots chain through
// one cell holding the low byte of the newest sequence, so after a
// rewind it names the oldest entry undone.
func TestJournalCompactsToLive(t *testing.T) {
	j := NewJournal()
	var last uint8
	var count uint64
	squashes := 0
	for seq := uint64(0); seq < 10_000; seq++ {
		j.PushU8(seq, &last)
		last = uint8(seq)
		count++
		j.PushDec(seq, &count)
		if seq%97 == 96 {
			before := count
			j.RewindTo(seq - 2)
			if last != uint8(seq-3) || before-count != 3 {
				t.Fatalf("rewind to %d left cell %d after %d decrements, want %d after 3",
					seq-2, last, before-count, uint8(seq-3))
			}
			squashes++
		}
		j.Prune(max(seq, 7) - 7)
	}
	if want := uint64(10_000 - 3*squashes); count != want {
		t.Errorf("counter reads %d after %d squashes, want %d", count, squashes, want)
	}
	peak := map[string]int{"recs": 16, "u8s": 8, "decs": 8}
	for _, st := range j.StackSizes() {
		if st.Cap > 4*peak[st.Name] {
			t.Errorf("%s: capacity %d for at most %d live entries", st.Name, st.Cap, peak[st.Name])
		}
	}
}

func TestJournalEmptyRewind(t *testing.T) {
	j := NewJournal()
	j.RewindTo(0) // must not panic
	j.Prune(100)
	if j.Len() != 0 {
		t.Error("empty journal has entries")
	}
}
