package pipeline

import (
	"context"
	"fmt"

	"specvec/internal/branch"
	"specvec/internal/config"
	"specvec/internal/core"
	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/mem"
	"specvec/internal/profile"
	"specvec/internal/stats"
)

// vref names a committed vector element mapping (for F-flag bookkeeping).
type vref struct {
	valid  bool
	vreg   int
	vepoch uint64
	elem   int
}

// Source feeds fetch with the dynamic instruction stream, strictly
// forward: Next writes the next record into d and reports true, or
// reports false — leaving d untouched — once the halt record or the last
// recorded record has been served. It is satisfied by emu.Machine (live
// functional emulation) and trace.Replayer (a recorded stream), keeping
// fetch agnostic to where records come from. Re-fetching after a squash
// never reaches the source: the simulator keeps its own replay window
// (see SourceWindow).
type Source interface {
	Next(d *emu.Record) bool
}

// SourceWindow returns the size (in records) of the replay window the
// simulator keeps under cfg: every in-flight instruction (ROB + fetch
// buffer + the record held across an I-cache miss) may be rewound to,
// doubled for slack and rounded to a power of two. It is also how far
// past its last commit a run may pull records from its source.
func SourceWindow(cfg config.Config) int {
	inFlight := cfg.ROBSize + 3*cfg.FetchWidth + 1
	n := 64
	for n < 2*inFlight {
		n <<= 1
	}
	return n
}

// Simulator is one configured processor running one program.
//
// The per-cycle loop is allocation-free in steady state: uops and vector
// instances come from free-list pools (recycled at commit, squash or
// drain), the program-ordered windows are fixed-capacity rings, the issue
// queue is scheduled through a ready bitset fed by wakeup lists, and all
// decode-side speculative state is journalled through typed undo records.
type Simulator struct {
	cfg  config.Config
	sim  *stats.Sim
	mach *emu.Machine // nil when running from an external Source
	src  Source

	// Replay window: the last len(ring) records pulled from src, indexed
	// by Seq & ringMask, so a squash can re-fetch in-flight instructions.
	ring     []emu.Record
	ringMask uint64
	pulled   uint64 // records pulled from src so far
	fetchSeq uint64 // Seq of the next record fetch takes

	hier  *mem.Hierarchy
	ports *mem.Ports
	pred  *branch.Predictor

	// SDV engine.
	tl    *core.TL
	vrmt  *core.VRMT
	vrf   *core.RegFile
	jnl   *core.Journal
	gmrbb uint64

	cycle  uint64
	halted bool

	// Pools: recycle-on-commit/squash free lists.
	uops uopPool
	vops vopPool

	// Windows. rob/lsq are program-ordered rings; iq holds not-yet-issued
	// entries in program order with a parallel ready bitset (issue.go);
	// viq holds vector instances.
	rob *uopRing
	iq  []*uop
	lsq *uopRing
	viq []*vop

	// storePos mirrors the LSQ: the absolute ring positions of in-flight
	// stores, ascending. Loads checking the §3.6 ordering rules walk this
	// list instead of scanning every older LSQ entry (issue.go).
	storePos []uint64

	// readyBits marks iq positions whose register sources all have known
	// completion times (pendingDeps == 0); issue scans only these.
	readyBits []uint64

	// Front end.
	fetchBuf      *uopRing
	fetchReadyAt  uint64
	fetchStall    *uop // unresolved mispredicted control instruction
	fetchHalted   bool
	maxFetchedSeq uint64 // high-water mark: replayed fetches skip stats
	hasFetched    bool

	// Functional units.
	pools  [isa.NumFUClasses]*fuPool
	vpools [isa.NumFUClasses]*fuPool

	// Rename-side state.
	lastWriter [isa.NumLogicalRegs]uopRef
	vs         [isa.NumLogicalRegs]core.VSEntry
	prevCommit [isa.NumLogicalRegs]vref

	// Outstanding wide-bus merge windows (MSHR secondary-miss merging),
	// in insertion order.
	merges mergeTable

	// Churn cooldown levels per PC slot (see decode.go).
	churn [churnSlots]uint8

	// Figure 10 window tracking.
	postMispredict int

	lastCommitCycle uint64

	// Service-layer observation hooks (SetContext/SetProgress). Neither
	// influences simulation results: the context is only polled, and
	// progress fires outside the per-cycle state machine.
	ctx           context.Context
	ctxCountdown  int
	progressEvery uint64
	nextProgress  uint64
	progressFn    func(committed uint64)
}

// mergeEntry is one outstanding wide-bus line access that later loads of
// the same line may merge into.
type mergeEntry struct {
	line   uint64
	loads  int
	at     uint64 // completion cycle of the access
	vector bool   // issued by a vector load (words accounted via LineUse)
	words  []uint64
}

// mergeTable holds the outstanding merge windows as a small ordered slice
// (bounded by the MSHR count), with pooled word-address scratch so lookups
// and retirement never allocate in steady state.
type mergeTable struct {
	entries []mergeEntry
	spare   [][]uint64
}

func (t *mergeTable) empty() bool { return len(t.entries) == 0 }

func (t *mergeTable) lookup(line uint64) *mergeEntry {
	for i := range t.entries {
		if t.entries[i].line == line {
			return &t.entries[i]
		}
	}
	return nil
}

// add opens a merge window for line. A still-outstanding window for the
// same line (its merge quota exhausted, forcing this new access) is
// replaced: its pending word accounting is discarded, exactly as the
// retired access never having entered the Figure 13 histogram.
func (t *mergeTable) add(line, at uint64, vector bool) *mergeEntry {
	m := t.lookup(line)
	if m == nil {
		var words []uint64
		if n := len(t.spare); n > 0 {
			words = t.spare[n-1][:0]
			t.spare = t.spare[:n-1]
		}
		t.entries = append(t.entries, mergeEntry{line: line, at: at, vector: vector, words: words})
		return &t.entries[len(t.entries)-1]
	}
	m.loads = 0
	m.at = at
	m.vector = vector
	m.words = m.words[:0]
	return m
}

// addWord records one distinct 8-byte word served by the access.
func (m *mergeEntry) addWord(addr uint64) {
	for _, w := range m.words {
		if w == addr {
			return
		}
	}
	m.words = append(m.words, addr)
}

// flush retires every window whose data has arrived, calling fn on each
// before removal; the remaining windows keep their insertion order.
func (t *mergeTable) flush(cycle uint64, fn func(*mergeEntry)) {
	live := t.entries[:0]
	for i := range t.entries {
		m := &t.entries[i]
		if m.at > cycle {
			live = append(live, *m)
			continue
		}
		fn(m)
		if m.words != nil {
			t.spare = append(t.spare, m.words[:0])
		}
	}
	t.entries = live
}

// New builds a simulator for prog under cfg, running live functional
// emulation (the machine is exposed through Machine for architectural
// comparison).
func New(cfg config.Config, prog *isa.Program) (*Simulator, error) {
	mach, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	s, err := NewFromSource(cfg, mach)
	if err != nil {
		return nil, err
	}
	s.mach = mach
	return s, nil
}

// NewFromSource builds a simulator for cfg fed by an external dynamic
// instruction source (e.g. a trace.Replayer). The simulator has no
// machine of its own: Machine returns nil, and the source must serve a
// stream recorded from — or equivalent to — a valid program.
func NewFromSource(cfg config.Config, src Source) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := stats.New()
	s := &Simulator{
		cfg:      cfg,
		sim:      sim,
		src:      src,
		ring:     make([]emu.Record, SourceWindow(cfg)),
		hier:     mem.NewHierarchy(cfg.Mem, sim),
		ports:    mem.NewPorts(cfg.MemPorts, cfg.WideBus, sim),
		pred:     branch.New(cfg.Branch),
		jnl:      core.NewJournal(),
		rob:      newUopRing(cfg.ROBSize),
		lsq:      newUopRing(cfg.LSQSize),
		fetchBuf: newUopRing(3 * cfg.FetchWidth),
		iq:       make([]*uop, 0, cfg.IQSize),
		viq:      make([]*vop, 0, cfg.VIQSize),
	}
	s.ringMask = uint64(len(s.ring) - 1)
	s.readyBits = make([]uint64, (cfg.IQSize+63)/64+1)
	tlSets, vrmtSets, vregs := cfg.TLSets, cfg.VRMTSets, cfg.VectorRegs
	if cfg.Unbounded {
		tlSets, vrmtSets, vregs = 0, 0, 0
	}
	s.tl = core.NewTL(tlSets, cfg.TLWays, cfg.ConfThreshold)
	s.vrmt = core.NewVRMT(vrmtSets, cfg.VRMTWays)
	s.vrf = core.NewRegFile(vregs, cfg.VectorLen, sim)

	s.pools[isa.FUIntALU] = newFUPool(cfg.SimpleInt)
	s.pools[isa.FUIntMulDiv] = newFUPool(cfg.IntMulDiv)
	s.pools[isa.FUFPALU] = newFUPool(cfg.SimpleFP)
	s.pools[isa.FUFPMulDiv] = newFUPool(cfg.FPMulDiv)
	s.vpools[isa.FUIntALU] = newFUPool(cfg.SimpleInt)
	s.vpools[isa.FUIntMulDiv] = newFUPool(cfg.IntMulDiv)
	s.vpools[isa.FUFPALU] = newFUPool(cfg.SimpleFP)
	s.vpools[isa.FUFPMulDiv] = newFUPool(cfg.FPMulDiv)
	return s, nil
}

// Stats returns the statistics collected so far.
func (s *Simulator) Stats() *stats.Sim { return s.sim }

// Machine exposes the architectural state (tests compare it against a
// pure functional run). It is nil for simulators built with
// NewFromSource: a replayed trace carries no architectural state.
func (s *Simulator) Machine() *emu.Machine { return s.mach }

// HotStats reports hot-path health counters: pool allocation misses vs
// recycles and the undo-journal depth. In steady state news stay flat
// while recycles grow.
func (s *Simulator) HotStats() profile.HotStats {
	return profile.HotStats{
		UopNews:      s.uops.news,
		UopRecycles:  s.uops.recycles,
		VopNews:      s.vops.news,
		VopRecycles:  s.vops.recycles,
		JournalDepth: uint64(s.jnl.Len()),
	}
}

// SetContext attaches ctx to the simulator: Run returns ctx's
// error shortly after it is cancelled, so an abandoned run stops burning
// its worker instead of simulating to the commit limit. The context is
// polled every few thousand cycles (cancellation latency is microseconds,
// cost on the cycle loop is unmeasurable) and never alters statistics — a
// run that completes before cancellation is byte-identical to one without
// a context. A nil context (the default) never cancels.
func (s *Simulator) SetContext(ctx context.Context) { s.ctx = ctx }

// SetProgress registers fn to be invoked — on the simulating goroutine —
// each time the committed-instruction count crosses a multiple of every.
// The scheduler layer uses it to stream per-interval completion; fn must
// not call back into the simulator. every == 0 or fn == nil disables
// reporting.
func (s *Simulator) SetProgress(every uint64, fn func(committed uint64)) {
	if every == 0 || fn == nil {
		s.progressFn = nil
		return
	}
	s.progressEvery, s.progressFn, s.nextProgress = every, fn, every
}

// Run simulates until the program halts or maxInsts instructions commit,
// then finalises statistics. It errors if the pipeline deadlocks.
func (s *Simulator) Run(maxInsts uint64) (*stats.Sim, error) {
	if err := s.runUntil(maxInsts); err != nil {
		return s.sim, err
	}
	s.vrf.Finalize()
	return s.sim, nil
}

// runUntil steps cycles until the program halts or target instructions
// have committed, erroring if the pipeline deadlocks.
func (s *Simulator) runUntil(target uint64) error {
	const stallGuard = 200_000 // cycles without a commit = deadlock
	const ctxPoll = 4096       // cycles between context cancellation checks
	for !s.halted && s.sim.Committed < target {
		s.step()
		if s.cycle-s.lastCommitCycle > stallGuard {
			return fmt.Errorf("pipeline: no commit in %d cycles at cycle %d (%s)",
				stallGuard, s.cycle, s.cfg.Name)
		}
		if s.progressFn != nil && s.sim.Committed >= s.nextProgress {
			s.progressFn(s.sim.Committed)
			for s.nextProgress <= s.sim.Committed {
				s.nextProgress += s.progressEvery
			}
		}
		if s.ctxCountdown--; s.ctxCountdown <= 0 {
			s.ctxCountdown = ctxPoll
			if s.ctx != nil {
				if err := s.ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// step advances one cycle: commit → issue → decode → fetch, so that a
// result produced in cycle N wakes consumers no earlier than N+1 and port
// arbitration gives committing stores priority over loads.
//
//sdv:hotpath
func (s *Simulator) step() {
	s.ports.BeginCycle(s.cycle)
	s.flushMerges()
	s.commit()
	if !s.halted {
		s.issueScalar()
		s.issueVector()
		s.decode()
		s.fetch()
	}
	s.cycle++
	s.sim.Cycles = s.cycle
}

// robFull reports whether dispatch must stall.
func (s *Simulator) robFull() bool { return s.rob.len() >= s.cfg.ROBSize }

// squash flushes every in-flight instruction with sequence >= fromSeq:
// decode-side SDV/rename state is rewound through the journal, fetch is
// repositioned in the replay window, and the front end restarts after a
// redirect penalty. Vector instances are not squashed (§3.5, §3.6)
// unless their destination register allocation itself was rewound (epoch
// bump aborts them). Flushed uops return to the pool; their generation
// bump invalidates every surviving reference.
func (s *Simulator) squash(fromSeq uint64) {
	flushed := 0
	for p := s.rob.head; p < s.rob.tail; p++ {
		if s.rob.at(p).d.Seq >= fromSeq {
			flushed++
		}
	}
	s.sim.Squashed += uint64(flushed) + uint64(s.fetchBuf.len())

	s.jnl.RewindTo(fromSeq)
	s.rewind(fromSeq)

	for s.rob.len() > 0 {
		s.uops.put(s.rob.popFront())
	}
	for s.fetchBuf.len() > 0 {
		s.uops.put(s.fetchBuf.popFront())
	}
	s.rob.clear()
	s.lsq.clear()
	s.storePos = s.storePos[:0]
	s.fetchBuf.clear()
	s.iq = s.iq[:0]
	clear(s.readyBits)
	for i := range s.lastWriter {
		s.lastWriter[i] = uopRef{}
	}

	// Abort vector instances whose destination allocation was rewound.
	live := s.viq[:0]
	for _, v := range s.viq {
		if !s.vrf.ValidRef(v.vreg, v.vepoch) {
			v.aborted = true
			s.unpinSources(v)
			s.vops.put(v)
			continue
		}
		live = append(live, v)
	}
	s.viq = live

	s.fetchStall = nil
	s.fetchHalted = false
	if at := s.cycle + uint64(s.cfg.MispredictPenalty); at > s.fetchReadyAt {
		s.fetchReadyAt = at
	}
}

// next returns the record fetch takes next — from the replay window if it
// was pulled before, else pulled from the source into the window — and
// advances past it. The pointer stays valid until the window wraps past
// its sequence number. ok is false once the source is exhausted.
//
//sdv:hotpath
func (s *Simulator) next() (*emu.Record, bool) {
	d := &s.ring[s.fetchSeq&s.ringMask]
	if s.fetchSeq == s.pulled {
		if !s.src.Next(d) {
			return nil, false
		}
		s.pulled++
	}
	s.fetchSeq++
	return d, true
}

// rewind repositions fetch so that next returns the record with sequence
// number seq again. It panics if seq is ahead of fetch or has fallen out
// of the replay window: either is a pipeline bug (squashing something
// not yet fetched, or older than the machine's in-flight capacity).
func (s *Simulator) rewind(seq uint64) {
	if seq > s.fetchSeq {
		panic(fmt.Sprintf("pipeline: rewind forward from %d to %d", s.fetchSeq, seq))
	}
	if n := uint64(len(s.ring)); s.pulled > n && seq < s.pulled-n {
		panic(fmt.Sprintf("pipeline: rewind to %d outside the replay window (oldest %d)", seq, s.pulled-n))
	}
	s.fetchSeq = seq
}

// flushMerges retires completed wide-bus transactions: a line access stays
// mergeable while it is outstanding (MSHR secondary-miss merging), and its
// words-used count enters the Figure 13 histogram when the data arrives.
func (s *Simulator) flushMerges() {
	if s.merges.empty() {
		return
	}
	wide := s.ports.Wide()
	s.merges.flush(s.cycle, func(m *mergeEntry) {
		if wide && !m.vector {
			s.sim.WideBusWords.Add(len(m.words))
		}
	})
}

func (s *Simulator) unpinSources(v *vop) {
	for _, src := range v.srcs {
		if src.kind == srcVector {
			s.vrf.Unpin(src.vreg, src.vepoch)
		}
	}
}
