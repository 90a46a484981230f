package pipeline

import (
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/stats"
)

func r(i int) isa.Reg { return isa.IntReg(i) }
func f(i int) isa.Reg { return isa.FPReg(i) }

// sumLoop builds: for i in 0..n-1 { sum += a[i] } with a stride-1 walk —
// the canonical vectorizable kernel.
func sumLoop(n int) *isa.Program {
	b := isa.NewBuilder("sumloop")
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(i + 1)
	}
	b.DataWords("a", words)
	b.LoadAddr(r(1), "a") // cursor
	b.Li(r(2), 0)         // i
	b.Li(r(3), int64(n))  // n
	b.Li(r(4), 0)         // sum
	b.Label("loop")
	b.Ld(r(5), r(1), 0)
	b.Add(r(4), r(4), r(5))
	b.Addi(r(1), r(1), 8)
	b.Addi(r(2), r(2), 1)
	b.Blt(r(2), r(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// storeConflictLoop loads a[i] and stores to a[i+2]: stores repeatedly
// land inside the prefetched vector range, exercising §3.6 squashes.
func storeConflictLoop(n int) *isa.Program {
	b := isa.NewBuilder("conflict")
	words := make([]uint64, n+8)
	for i := range words {
		words[i] = uint64(i)
	}
	b.DataWords("a", words)
	b.LoadAddr(r(1), "a")
	b.Li(r(2), 0)
	b.Li(r(3), int64(n))
	b.Label("loop")
	b.Ld(r(5), r(1), 0)
	b.Addi(r(5), r(5), 3)
	b.St(r(5), r(1), 16)
	b.Addi(r(1), r(1), 8)
	b.Addi(r(2), r(2), 1)
	b.Blt(r(2), r(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// noisyBranchLoop has a data-dependent branch pattern the gshare predictor
// cannot learn perfectly, plus vectorizable work after the join point
// (control independence).
func noisyBranchLoop(n int) *isa.Program {
	b := isa.NewBuilder("noisy")
	words := make([]uint64, n)
	x := uint64(12345)
	for i := range words {
		x = x*6364136223846793005 + 1442695040888963407
		words[i] = x >> 60 // pseudo-random 0..15
	}
	b.DataWords("a", words)
	b.DataZero("out", n)
	b.LoadAddr(r(1), "a")
	b.LoadAddr(r(9), "out")
	b.Li(r(2), 0)
	b.Li(r(3), int64(n))
	b.Li(r(4), 0)
	b.Li(r(10), 7)
	b.Label("loop")
	b.Ld(r(5), r(1), 0)
	b.Blt(r(5), r(10), "small") // data-dependent, hard to predict
	b.Addi(r(4), r(4), 2)
	b.J("join")
	b.Label("small")
	b.Addi(r(4), r(4), 1)
	b.Label("join")
	// Control-independent strided work.
	b.Ld(r(6), r(9), 0)
	b.Addi(r(6), r(6), 5)
	b.Addi(r(1), r(1), 8)
	b.Addi(r(9), r(9), 8)
	b.Addi(r(2), r(2), 1)
	b.Blt(r(2), r(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// fpStencil is an FP kernel: c[i] = (a[i] + b[i]) * a[i].
func fpStencil(n int) *isa.Program {
	b := isa.NewBuilder("fpstencil")
	av := make([]float64, n)
	bv := make([]float64, n)
	for i := range av {
		av[i] = float64(i) * 0.5
		bv[i] = float64(i) * 0.25
	}
	b.DataFloats("a", av)
	b.DataFloats("b", bv)
	b.DataZero("c", n)
	b.LoadAddr(r(1), "a")
	b.LoadAddr(r(2), "b")
	b.LoadAddr(r(3), "c")
	b.Li(r(4), 0)
	b.Li(r(5), int64(n))
	b.Label("loop")
	b.Ldf(f(1), r(1), 0)
	b.Ldf(f(2), r(2), 0)
	b.Fadd(f(3), f(1), f(2))
	b.Fmul(f(4), f(3), f(1))
	b.Stf(f(4), r(3), 0)
	b.Addi(r(1), r(1), 8)
	b.Addi(r(2), r(2), 8)
	b.Addi(r(3), r(3), 8)
	b.Addi(r(4), r(4), 1)
	b.Blt(r(4), r(5), "loop")
	b.Halt()
	return b.MustBuild()
}

func run(t *testing.T, cfg config.Config, prog *isa.Program) *stats.Sim {
	t.Helper()
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(1 << 62)
	if err != nil {
		t.Fatalf("%s on %s: %v", cfg.Name, prog.Name, err)
	}
	return st
}

func TestScalarBaselineRuns(t *testing.T) {
	st := run(t, config.FourWay(), sumLoop(200))
	if st.Committed == 0 || st.Cycles == 0 {
		t.Fatalf("no progress: %+v", st)
	}
	if st.IPC() <= 0.3 || st.IPC() > 4 {
		t.Errorf("implausible IPC %.2f", st.IPC())
	}
	if st.LoadValidations != 0 {
		t.Error("validations on a non-vectorizing config")
	}
}

func TestVectorizationFires(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	st := run(t, cfg, sumLoop(400))
	if st.VectorLoadInstances == 0 {
		t.Fatal("no vector load instances on a stride-1 loop")
	}
	if st.LoadValidations == 0 {
		t.Fatal("no load validations")
	}
	if st.ArithValidations == 0 {
		t.Fatal("no arithmetic validations (propagation failed)")
	}
	if st.ValidationFraction() < 0.10 {
		t.Errorf("validation fraction %.3f too low for a pure loop", st.ValidationFraction())
	}
}

func TestVectorizationReducesMemoryRequests(t *testing.T) {
	// On a simple kernel MSHR merging can already be perfect for the IM
	// baseline, so require only that V never increases requests here; the
	// strict suite-level reduction is asserted by the headline experiment.
	prog := sumLoop(600)
	im := run(t, config.MustNamed(4, 1, config.ModeIM), prog)
	v := run(t, config.MustNamed(4, 1, config.ModeV), prog)
	if v.MemRequestsPerInst() > im.MemRequestsPerInst()*1.01 {
		t.Errorf("vectorization increased memory requests: V=%.3f IM=%.3f",
			v.MemRequestsPerInst(), im.MemRequestsPerInst())
	}
	if v.VectorAccesses == 0 {
		t.Error("no vector accesses")
	}
}

func TestWideBusHelpsBandwidthBoundLoop(t *testing.T) {
	prog := fpStencil(500)
	noim := run(t, config.MustNamed(4, 1, config.ModeNoIM), prog)
	im := run(t, config.MustNamed(4, 1, config.ModeIM), prog)
	if im.IPC() < noim.IPC()*0.98 {
		t.Errorf("wide bus slower than scalar bus: IM=%.3f noIM=%.3f", im.IPC(), noim.IPC())
	}
	if im.LoadsMerged == 0 {
		t.Error("no wide-bus merges on a two-stream FP loop")
	}
}

func TestStoreConflictSquashes(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	st := run(t, cfg, storeConflictLoop(300))
	if st.StoreConflicts == 0 {
		t.Fatal("no store conflicts on an overlapping read/write loop")
	}
	if st.Squashed == 0 {
		t.Fatal("conflicts squashed nothing")
	}
}

func TestControlIndependenceReuse(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	st := run(t, cfg, noisyBranchLoop(800))
	if st.BranchMispredicts == 0 {
		t.Fatal("predictor learned an LCG-random pattern perfectly?")
	}
	if st.PostMispredictInsts == 0 {
		t.Fatal("post-mispredict window never tracked")
	}
	if st.ControlIndepFraction() == 0 {
		t.Error("no reuse after mispredictions despite vectorized join-point code")
	}
}

func TestFPBenchmarkVectorizes(t *testing.T) {
	cfg := config.MustNamed(8, 1, config.ModeV)
	st := run(t, cfg, fpStencil(400))
	if st.VectorArithInstances == 0 {
		t.Fatal("FP arithmetic never vectorized")
	}
	u, _, _ := st.ElemAverages()
	if u == 0 {
		t.Error("no elements validated")
	}
}

// TestArchitecturalOracle verifies the timing simulator commits exactly
// the functional emulator's execution: after a full run the architectural
// state matches a pure emulation, for every mode.
func TestArchitecturalOracle(t *testing.T) {
	progs := []*isa.Program{sumLoop(300), storeConflictLoop(250), noisyBranchLoop(300), fpStencil(200)}
	for _, prog := range progs {
		// Golden run.
		gold, err := emu.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gold.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
			cfg := config.MustNamed(4, 2, mode)
			s, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(1 << 62); err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, cfg.Name, err)
			}
			if s.Stats().Committed != gold.InstCount()-1 { // halt not counted
				t.Errorf("%s/%s: committed %d, emulator executed %d (incl. halt)",
					prog.Name, cfg.Name, s.Stats().Committed, gold.InstCount())
			}
			for i := 0; i < isa.NumIntRegs; i++ {
				if s.Machine().IntReg(i) != gold.IntReg(i) {
					t.Errorf("%s/%s: r%d = %d, want %d", prog.Name, cfg.Name,
						i, s.Machine().IntReg(i), gold.IntReg(i))
				}
			}
		}
	}
}

// TestDeterminism: identical runs produce identical cycle counts.
func TestDeterminism(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	a := run(t, cfg, noisyBranchLoop(400))
	b := run(t, cfg, noisyBranchLoop(400))
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.Validations() != b.Validations() {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/committed",
			a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
}

// TestAllMatrixConfigsComplete runs the full Figure 11 configuration
// matrix on a small kernel.
func TestAllMatrixConfigsComplete(t *testing.T) {
	prog := sumLoop(150)
	for _, cfg := range config.Matrix() {
		st := run(t, cfg, prog)
		if st.Committed == 0 {
			t.Errorf("%s: nothing committed", cfg.Name)
		}
	}
}

func TestMorePortsNeverSlower(t *testing.T) {
	prog := fpStencil(400)
	ipc1 := run(t, config.MustNamed(4, 1, config.ModeNoIM), prog).IPC()
	ipc4 := run(t, config.MustNamed(4, 4, config.ModeNoIM), prog).IPC()
	if ipc4 < ipc1*0.98 {
		t.Errorf("4 ports (%.3f) slower than 1 port (%.3f)", ipc4, ipc1)
	}
}

func TestMaxInstsCutoff(t *testing.T) {
	s, err := New(config.FourWay(), sumLoop(10000))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed < 500 || st.Committed > 500+uint64(config.FourWay().CommitWidth) {
		t.Errorf("committed %d, want ~500", st.Committed)
	}
}

func TestUnboundedResourcesVectorizeMore(t *testing.T) {
	prog := fpStencil(600)
	bounded := config.MustNamed(8, 1, config.ModeV)
	unbounded := bounded
	unbounded.Unbounded = true
	b := run(t, bounded, prog)
	u := run(t, unbounded, prog)
	if u.ValidationFraction() < b.ValidationFraction()-1e-9 {
		t.Errorf("unbounded (%.3f) vectorizes less than bounded (%.3f)",
			u.ValidationFraction(), b.ValidationFraction())
	}
}

func TestScalarOperandBlockingCostsCycles(t *testing.T) {
	// A loop where a vectorized op consumes a scalar register produced by
	// a long-latency instruction (division) each iteration.
	b := isa.NewBuilder("blocky")
	words := make([]uint64, 600)
	for i := range words {
		words[i] = uint64(i + 2)
	}
	b.DataWords("a", words)
	b.LoadAddr(r(1), "a")
	b.Li(r(2), 0)
	b.Li(r(3), 500)
	b.Li(r(7), 3)
	b.Label("loop")
	b.Ld(r(5), r(1), 0)
	b.Div(r(6), r(2), r(7)) // slow scalar producer
	b.Add(r(8), r(5), r(6)) // vector x scalar
	b.Addi(r(1), r(1), 8)
	b.Addi(r(2), r(2), 1)
	b.Blt(r(2), r(3), "loop")
	b.Halt()
	prog := b.MustBuild()

	real := config.MustNamed(4, 1, config.ModeV)
	ideal := real
	ideal.BlockScalarOperand = false
	rs := run(t, real, prog)
	is := run(t, ideal, prog)
	if rs.DecodeBlockCycles == 0 {
		t.Error("blocking config never blocked decode")
	}
	if is.DecodeBlockCycles != 0 {
		t.Error("ideal config blocked decode")
	}
	if is.IPC() < rs.IPC()-1e-9 {
		t.Errorf("ideal IPC %.3f below real %.3f", is.IPC(), rs.IPC())
	}
}

// TestRemoveLSQRequiresOldest: commit retires in program order, so a
// memory op leaving the load/store queue must be its oldest entry. Any
// other removal is a broken invariant and panics rather than being
// repaired.
func TestRemoveLSQRequiresOldest(t *testing.T) {
	s, err := New(config.MustNamed(4, 1, config.ModeV), sumLoop(8))
	if err != nil {
		t.Fatal(err)
	}
	older, younger := s.uops.get(), s.uops.get()
	for _, u := range []*uop{older, younger} {
		u.lsqPos = s.lsq.push(u)
		u.inLSQ = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("removing the younger of two LSQ entries did not panic")
		}
		if s.lsq.len() != 2 {
			t.Errorf("LSQ holds %d entries after the refused removal, want 2", s.lsq.len())
		}
	}()
	s.removeLSQ(younger)
}
