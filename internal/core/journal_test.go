package core

import "testing"

func TestJournalRewindOrder(t *testing.T) {
	j := NewJournal()
	var log []int
	j.Push(1, func() { log = append(log, 1) })
	j.Push(2, func() { log = append(log, 2) })
	j.Push(2, func() { log = append(log, 22) })
	j.Push(3, func() { log = append(log, 3) })
	j.RewindTo(2)
	// Entries with seq >= 2 undone newest-first.
	if len(log) != 3 || log[0] != 3 || log[1] != 22 || log[2] != 2 {
		t.Errorf("undo order = %v", log)
	}
	if j.Len() != 1 {
		t.Errorf("live entries = %d, want 1", j.Len())
	}
	// Entry for seq 1 untouched.
	j.RewindTo(0)
	if len(log) != 4 || log[3] != 1 {
		t.Errorf("final log = %v", log)
	}
}

func TestJournalPrune(t *testing.T) {
	j := NewJournal()
	ran := false
	j.Push(1, func() { ran = true })
	j.Push(5, func() {})
	j.Prune(3)
	if j.Len() != 1 {
		t.Errorf("live = %d, want 1", j.Len())
	}
	// Rewinding cannot reach pruned entries.
	j.RewindTo(0)
	if ran {
		t.Error("pruned undo executed")
	}
}

func TestJournalPruneCompaction(t *testing.T) {
	j := NewJournal()
	for i := 0; i < 20000; i++ {
		j.Push(uint64(i), func() {})
	}
	j.Prune(15000)
	if j.Len() != 5000 {
		t.Errorf("live = %d, want 5000", j.Len())
	}
	// Push/rewind still behave after compaction.
	hit := false
	j.Push(20000, func() { hit = true })
	j.RewindTo(20000)
	if !hit {
		t.Error("undo after compaction not executed")
	}
}

// TestJournalCompactsToLive streams 10,000 instructions' entries (a
// closure and a counter decrement each) through the journal with at most
// eight instructions live, squashing the newest three every 97, and
// requires every rewind to undo exactly those three, newest first, and
// each log's capacity to stay within four times its live high-water mark
// instead of growing with what it has pruned.
func TestJournalCompactsToLive(t *testing.T) {
	j := NewJournal()
	var undone []uint64
	var count uint64
	squashes := 0
	for seq := uint64(0); seq < 10_000; seq++ {
		s := seq
		j.Push(s, func() { undone = append(undone, s) })
		count++
		j.PushDec(s, &count)
		if seq%97 == 96 {
			undone = undone[:0]
			j.RewindTo(seq - 2)
			if len(undone) != 3 || undone[0] != seq || undone[1] != seq-1 || undone[2] != seq-2 {
				t.Fatalf("rewind to %d undid %v, want [%d %d %d]", seq-2, undone, seq, seq-1, seq-2)
			}
			squashes++
		}
		j.Prune(max(seq, 7) - 7)
	}
	if want := uint64(10_000 - 3*squashes); count != want {
		t.Errorf("counter reads %d after %d squashes, want %d", count, squashes, want)
	}
	peak := map[string]int{"recs": 16, "closures": 8, "decs": 8}
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
