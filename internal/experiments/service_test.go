package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// memTraceStore is a TraceStore over a plain map, for tests: a miss
// records through compute and keeps a successful recording.
type memTraceStore struct {
	mu sync.Mutex
	m  map[string]*trace.Trace
}

func newMemTraceStore() *memTraceStore { return &memTraceStore{m: map[string]*trace.Trace{}} }

func (s *memTraceStore) GetOrCompute(_ context.Context, bench string, compute func() (*trace.Trace, error)) (*trace.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.m[bench]; ok {
		return tr, nil
	}
	tr, err := compute()
	if err == nil {
		s.m[bench] = tr
	}
	return tr, err
}

// traceStoreFunc adapts a function to a TraceStore, for tests.
type traceStoreFunc func(bench string, compute func() (*trace.Trace, error)) (*trace.Trace, error)

func (f traceStoreFunc) GetOrCompute(_ context.Context, bench string, compute func() (*trace.Trace, error)) (*trace.Trace, error) {
	return f(bench, compute)
}

// TestRunnerCancellation cancels a runner mid-run (from a progress event)
// and checks that Run returns the context's error quickly, and that the
// memo entry is evicted rather than poisoned.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r := NewRunner(Options{
		Scale: 200_000, Seed: 1, Workers: 2, Context: ctx,
		Progress: func(ev ProgressEvent) {
			if ev.Kind == RunProgress {
				once.Do(cancel)
			}
		},
	})
	cfg := config.MustNamed(4, 1, config.ModeV)
	_, err := r.Run(cfg, "compress")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := r.runs.Len(); n != 0 {
		t.Errorf("cancelled run left %d memo entries", n)
	}

	// A fresh runner with a live context recomputes successfully.
	fresh := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 2})
	if _, err := fresh.Run(cfg, "compress"); err != nil {
		t.Fatalf("recompute after cancellation: %v", err)
	}
}

// TestRunAllCancellationEvicts cancels a sweep mid-run and checks the
// eviction contract: once RunAll returns, the memos hold exactly the
// runs and recordings that succeeded — none in flight, none carrying the
// cancellation — and a fresh runner recomputes the sweep successfully:
// a cancelled sweep must not poison the next one.
func TestRunAllCancellationEvicts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	var simulated atomic.Int64 // runs that simulated to success
	r := NewRunner(Options{
		Scale: 200_000, Seed: 1, Workers: 2, Context: ctx,
		Progress: func(ev ProgressEvent) {
			switch {
			case ev.Kind == RunProgress:
				once.Do(cancel)
			case ev.Kind == RunDone && ev.Err == nil && !ev.Cached:
				simulated.Add(1)
			}
		},
	})
	specs := sweepSpecs()
	_, err := r.RunAll(specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// RunAll returns after every run settled, and a failed computation is
	// forgotten before it resolves, so the memos are final here.
	if runs, want := int64(r.runs.Len()), simulated.Load(); runs != want {
		t.Errorf("cancelled sweep left %d run entries for %d successful runs", runs, want)
	}
	if traces, want := int64(r.traces.Len()), r.TraceRecordings(); traces != want {
		t.Errorf("cancelled sweep left %d trace entries for %d recordings", traces, want)
	}

	// The next sweep — a fresh runner with a live context, as the service
	// layer would construct — recomputes from scratch.
	fresh := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 2})
	if _, err := fresh.RunAll(specs); err != nil {
		t.Fatalf("recompute after cancelled sweep: %v", err)
	}
	if fresh.Simulations() != int64(len(specs)) {
		t.Errorf("fresh runner executed %d of %d sweeps", fresh.Simulations(), len(specs))
	}
}

// TestRunnerCancelledBeforeStart asserts an already-cancelled context
// rejects work without simulating.
func TestRunnerCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1, Context: ctx})
	_, err := r.RunAll(suiteSpecs(config.MustNamed(4, 1, config.ModeV)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if r.Simulations() != 0 {
		t.Errorf("cancelled runner executed %d simulations", r.Simulations())
	}
}

// TestRunnerProgressEvents runs a tiny sweep and checks the event stream:
// every executed run brackets with RunStarted/RunDone, memoised requests
// emit RunDone with Cached, and at least one RunProgress fires.
func TestRunnerProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[ProgressKind]int{}
	cached := 0
	r := NewRunner(Options{
		Scale: 20_000, Seed: 1, Workers: 2,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			counts[ev.Kind]++
			if ev.Kind == RunDone && ev.Cached {
				cached++
			}
		},
	})
	cfg := config.MustNamed(4, 1, config.ModeV)
	if _, err := r.Run(cfg, "compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg, "compress"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[RunStarted] != 1 {
		t.Errorf("RunStarted fired %d times, want 1", counts[RunStarted])
	}
	if counts[RunDone] != 2 {
		t.Errorf("RunDone fired %d times, want 2", counts[RunDone])
	}
	if cached != 1 {
		t.Errorf("cached RunDone fired %d times, want 1", cached)
	}
	if counts[RunProgress] == 0 {
		t.Error("no RunProgress events over a 20k-instruction run")
	}
}

// TestTraceStoreReuse proves recordings cross Runner instances through a
// TraceStore: runner A records and stores, runner B loads instead of
// re-recording, and both produce identical statistics.
func TestTraceStoreReuse(t *testing.T) {
	store := newMemTraceStore()
	opts := Options{Scale: 10_000, Seed: 1, Workers: 2, Traces: store}
	cfg := config.MustNamed(4, 1, config.ModeV)

	a := NewRunner(opts)
	stA, err := a.Run(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceRecordings() != 1 || a.TraceLoads() != 0 {
		t.Fatalf("runner A: recordings=%d loads=%d, want 1/0", a.TraceRecordings(), a.TraceLoads())
	}

	b := NewRunner(opts)
	stB, err := b.Run(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if b.TraceRecordings() != 0 || b.TraceLoads() != 1 {
		t.Fatalf("runner B: recordings=%d loads=%d, want 0/1", b.TraceRecordings(), b.TraceLoads())
	}
	if stA.String() != stB.String() {
		t.Fatalf("stored-trace run diverged:\n%s\nvs\n%s", stA, stB)
	}
}

// TestTraceStoreRejectsShort ensures a stored trace that is truncated
// short of the runner's record target is ignored and re-recorded rather
// than starving replay.
func TestTraceStoreRejectsShort(t *testing.T) {
	const scale = 20_000
	b, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(scale, 1)
	mach, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	short, err := rec.Finish(1_000) // truncated far short of the target
	if err != nil {
		t.Fatal(err)
	}
	if !short.Truncated() {
		t.Fatal("test premise broken: trace not truncated")
	}
	store := newMemTraceStore()
	store.m["compress"] = short

	r := NewRunner(Options{Scale: scale, Seed: 1, Workers: 1, Traces: store})
	if _, err := r.Run(config.MustNamed(4, 1, config.ModeV), "compress"); err != nil {
		t.Fatal(err)
	}
	if r.TraceLoads() != 0 {
		t.Error("a too-short stored trace was loaded")
	}
	if r.TraceRecordings() != 1 {
		t.Errorf("recordings=%d, want a fresh recording", r.TraceRecordings())
	}
}

// TestRunnerHotStats checks hot-path counters aggregate across runs.
func TestRunnerHotStats(t *testing.T) {
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1})
	cfg := config.MustNamed(4, 1, config.ModeV)
	if _, err := r.Run(cfg, "compress"); err != nil {
		t.Fatal(err)
	}
	h := r.HotStats()
	if h.UopRecycles == 0 {
		t.Error("no uop recycles aggregated after a run")
	}
}
