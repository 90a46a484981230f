package pipeline

import (
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/workload"
)

// checkPooledUopClean asserts a free-listed uop carries no state from its
// previous life besides the bumped generation and the retained waiter
// capacity.
func checkPooledUopClean(t *testing.T, u *uop) {
	t.Helper()
	if u.issued || u.kind != kindNormal || u.inLSQ || u.fellBack ||
		u.mispredicted || u.statsCounted || u.blockedCycles != 0 {
		t.Fatalf("pooled uop keeps flags: %+v", u)
	}
	if u.deps[0].u != nil || u.deps[1].u != nil || u.producer != nil {
		t.Fatalf("pooled uop keeps references: %+v", u)
	}
	if len(u.waiters) != 0 || u.pendingDeps != 0 || u.readyAt != 0 {
		t.Fatalf("pooled uop keeps scheduling state: %+v", u)
	}
	if (u.d != emu.Record{}) {
		t.Fatalf("pooled uop keeps its dynamic record: %+v", u.d)
	}
}

// checkPoolInvariants walks the simulator's windows and pools and fails on
// a uop that is simultaneously free and in flight, or a free uop with
// stale state.
func checkPoolInvariants(t *testing.T, s *Simulator) {
	t.Helper()
	inFlight := map[*uop]string{}
	for p := s.rob.head; p < s.rob.tail; p++ {
		inFlight[s.rob.at(p)] = "rob"
	}
	for p := s.fetchBuf.head; p < s.fetchBuf.tail; p++ {
		inFlight[s.fetchBuf.at(p)] = "fetchBuf"
	}
	for _, u := range s.iq {
		if _, ok := inFlight[u]; !ok {
			t.Fatalf("iq entry not in rob: seq %d", u.d.Seq)
		}
	}
	for p := s.lsq.head; p < s.lsq.tail; p++ {
		if _, ok := inFlight[s.lsq.at(p)]; !ok {
			t.Fatalf("lsq entry not in rob")
		}
	}
	for _, u := range s.uops.free {
		if where, ok := inFlight[u]; ok {
			t.Fatalf("uop in free list and %s at once (seq %d)", where, u.d.Seq)
		}
		checkPooledUopClean(t, u)
	}
	for _, v := range s.vops.free {
		for _, live := range s.viq {
			if v == live {
				t.Fatal("vop in free list and viq at once")
			}
		}
	}
}

// mispredictStoreMix interleaves data-dependent branches with stores into
// the loaded range, so both squash paths (store conflicts) and fetch
// stalls (mispredicts) hammer recycling.
func mispredictStoreMix(n int) *isa.Program {
	b := isa.NewBuilder("recyclemix")
	words := make([]uint64, n+8)
	for i := range words {
		words[i] = uint64(i * 7 % 13)
	}
	b.DataWords("a", words)
	b.LoadAddr(r(1), "a")
	b.Li(r(2), 0)
	b.Li(r(3), int64(n))
	b.Li(r(6), 0)
	b.Label("loop")
	b.Ld(r(5), r(1), 0)
	b.Andi(r(7), r(5), 3)
	b.Beq(r(7), r(0), "skip") // data-dependent: mispredicts often
	b.Addi(r(6), r(6), 1)
	b.Label("skip")
	b.St(r(5), r(1), 16) // lands in the prefetched vector range (§3.6)
	b.Addi(r(1), r(1), 8)
	b.Addi(r(2), r(2), 1)
	b.Blt(r(2), r(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// TestUopPoolRecycleNoStaleState hammers the squash and commit recycle
// paths and checks, throughout the run, that free-listed uops are fully
// reset and never aliased with in-flight ones — then that the architectural
// result still matches the functional oracle.
func TestUopPoolRecycleNoStaleState(t *testing.T) {
	for _, prog := range []*isa.Program{storeConflictLoop(400), mispredictStoreMix(400)} {
		gold, err := emu.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gold.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
		cfg := config.MustNamed(4, 1, config.ModeV)
		s, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		for !s.halted {
			s.step()
			if s.cycle%64 == 0 {
				checkPoolInvariants(t, s)
			}
			if s.cycle > 1<<22 {
				t.Fatalf("%s: runaway simulation", prog.Name)
			}
		}
		checkPoolInvariants(t, s)
		if s.sim.Squashed == 0 {
			t.Fatalf("%s: hammer produced no squashes", prog.Name)
		}
		if s.uops.recycles == 0 || s.vops.recycles == 0 {
			t.Fatalf("%s: pools never recycled (uop %d, vop %d)",
				prog.Name, s.uops.recycles, s.vops.recycles)
		}
		for i := 0; i < isa.NumIntRegs; i++ {
			if s.Machine().IntReg(i) != gold.IntReg(i) {
				t.Errorf("%s: r%d = %d, want %d", prog.Name, i, s.Machine().IntReg(i), gold.IntReg(i))
			}
		}
	}
}

// TestPoolHeapAllocationsBounded: after warm-up the pools stop hitting the
// heap — every uop/vop comes from the free lists, bounded by the in-flight
// window, not by the dynamic instruction count.
func TestPoolHeapAllocationsBounded(t *testing.T) {
	bench, err := workload.Get("swim")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(60_000, 1)
	s, err := New(config.MustNamed(4, 1, config.ModeV), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1 << 62); err != nil {
		t.Fatal(err)
	}
	h := s.HotStats()
	window := uint64(s.cfg.ROBSize + 3*s.cfg.FetchWidth)
	if h.UopNews > window {
		t.Errorf("uop heap allocations %d exceed the in-flight window %d", h.UopNews, window)
	}
	if h.VopNews > uint64(s.cfg.VIQSize) {
		t.Errorf("vop heap allocations %d exceed the vector queue %d", h.VopNews, s.cfg.VIQSize)
	}
	if h.UopRecycles < s.sim.Fetched-window {
		t.Errorf("uop recycles %d lag fetched %d", h.UopRecycles, s.sim.Fetched)
	}
}

// TestSteadyStateAllocsPerCycle is the allocation regression gate for the
// hot path: once warm, stepping the pipeline allocates (approximately)
// nothing per cycle.
func TestSteadyStateAllocsPerCycle(t *testing.T) {
	bench, err := workload.Get("swim")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(4_000_000, 1)
	s, err := New(config.MustNamed(4, 1, config.ModeV), prog)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: pools, journal stacks, rings and scratch reach their
	// steady-state high-water marks.
	for s.sim.Committed < 100_000 && !s.halted {
		s.step()
	}
	if s.halted {
		t.Fatal("program halted during warm-up")
	}
	const cyclesPerRound = 2048
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < cyclesPerRound && !s.halted; i++ {
			s.step()
		}
	})
	if perCycle := avg / cyclesPerRound; perCycle > 0.01 {
		t.Errorf("steady-state allocations: %.4f per cycle (want ~0)", perCycle)
	}
}

// TestJournalStacksFollowLivePeak: after a 200k-instruction V run, every
// log of the undo journal holds a buffer of at most four times the most
// entries it ever held live — a log compacts as soon as its pruned prefix
// outgrows its live entries, so pruning never lets a buffer creep. The
// journal grows only in decode, the last stage of a cycle to touch it, so
// its live counts after each cycle are its peaks.
func TestJournalStacksFollowLivePeak(t *testing.T) {
	bench, err := workload.Get("swim")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(config.MustNamed(4, 1, config.ModeV), bench.Build(400_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	peak := make([]int, len(s.jnl.StackSizes()))
	for !s.halted && s.sim.Committed < 200_000 {
		s.step()
		for i, st := range s.jnl.StackSizes() {
			peak[i] = max(peak[i], st.Live)
		}
	}
	if s.sim.Committed < 200_000 {
		t.Fatalf("committed %d instructions, want 200k", s.sim.Committed)
	}
	used := 0
	for i, st := range s.jnl.StackSizes() {
		if peak[i] > 0 {
			used++
		}
		if st.Cap > 4*peak[i] {
			t.Errorf("journal log %s: capacity %d for a peak of %d live entries", st.Name, st.Cap, peak[i])
		}
	}
	if used < 4 {
		t.Errorf("only %d journal logs held entries; the run exercised too little of the journal", used)
	}
}
