package experiments

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specvec/internal/config"
	"specvec/internal/obs"
	"specvec/internal/stats"
	"specvec/internal/workload"
)

// TestOneUseRecordingsReleased: in a one-configuration batch each
// recording has one reader, so it is released when its run finishes.
// Sampled at every RunStarted and RunProgress event, the memo never holds
// more recordings than Workers (a run holds its own recording while it
// replays, so the samples see at least one), and the batch leaves none
// behind. A second batch over the same benchmarks is each benchmark's
// second consumer: it records again, and keeps what it records.
func TestOneUseRecordingsReleased(t *testing.T) {
	const workers = 2
	var r *Runner
	var peak atomic.Int64
	r = NewRunner(Options{Scale: 5_000, Seed: 1, Workers: workers,
		Progress: func(ev ProgressEvent) {
			if ev.Kind == RunDone {
				return
			}
			n := int64(r.traces.Len())
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
		}})
	specs := suiteSpecs(config.MustNamed(4, 1, config.ModeV))
	if _, err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if n := r.traces.Len(); n != 0 {
		t.Errorf("a one-configuration batch left %d recordings", n)
	}
	if p := peak.Load(); p < 1 || p > workers {
		t.Errorf("peak live recordings %d, want 1..%d", p, workers)
	}
	nbench := len(specs)
	if got := r.TraceRecordings(); got != int64(nbench) {
		t.Errorf("recorded %d traces for %d runs", got, nbench)
	}

	if _, err := r.RunAll(suiteSpecs(config.MustNamed(4, 1, config.ModeIM))); err != nil {
		t.Fatal(err)
	}
	if got := r.TraceRecordings(); got != int64(2*nbench) {
		t.Errorf("after a second batch: recorded %d traces, want %d", got, 2*nbench)
	}
	if n := r.traces.Len(); n != nbench {
		t.Errorf("after a second batch: %d recordings kept, want %d", n, nbench)
	}
}

// TestSharedRecordingsKept: a benchmark a batch asks for twice keeps its
// recording for the Runner's life. A two-configuration batch records each
// benchmark once and keeps every recording; a later batch of new
// configurations replays them without recording again.
func TestSharedRecordingsKept(t *testing.T) {
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 2})
	nbench := len(workload.Names())
	if _, err := r.RunAll(suiteSpecs(config.MustNamed(4, 1, config.ModeV), config.MustNamed(4, 1, config.ModeIM))); err != nil {
		t.Fatal(err)
	}
	if got := r.TraceRecordings(); got != int64(nbench) {
		t.Errorf("two-configuration batch recorded %d traces for %d benchmarks", got, nbench)
	}
	if n := r.traces.Len(); n != nbench {
		t.Errorf("two-configuration batch kept %d of %d recordings", n, nbench)
	}
	if _, err := r.RunAll(suiteSpecs(config.MustNamed(8, 1, config.ModeV), config.MustNamed(4, 2, config.ModeV))); err != nil {
		t.Fatal(err)
	}
	if got := r.TraceRecordings(); got != int64(nbench) {
		t.Errorf("a batch of new configurations recorded again: %d recordings, want %d", got, nbench)
	}
}

// TestStreamBesideRunsOneWorker pins the slot contract at Workers: 1: a
// stream pass (VecLen) and a batch of runs over the same benchmarks,
// submitted together, each lead some of the recordings and read the
// others' — every consumer holding the one slot while it gets its
// recording — and both finish with the results each has alone.
func TestStreamBesideRunsOneWorker(t *testing.T) {
	opts := Options{Scale: 5_000, Seed: 1, Workers: 1}
	specs := suiteSpecs(config.MustNamed(4, 1, config.ModeV))
	wantTabs, err := VecLen(NewRunner(opts))
	if err != nil {
		t.Fatal(err)
	}
	wantSims, err := NewRunner(opts).RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	// A "record" span sits under its leader's span: a run span when a
	// run led the recording, the job's root when the stream pass did.
	for attempt := 1; ; attempt++ {
		spans := obs.NewTrace("t", obs.RealClock(), "job")
		opts.Context = obs.ContextWith(context.Background(), obs.SpanContext{T: spans, Span: obs.RootSpan})
		r := NewRunner(opts)
		var tabs []*Table
		var sims []*stats.Sim
		var errStream, errRuns error
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); tabs, errStream = VecLen(r) }()
			go func() { defer wg.Done(); sims, errRuns = r.RunAll(specs) }()
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatal("VecLen beside RunAll at Workers: 1 did not finish")
		}
		if errStream != nil || errRuns != nil {
			t.Fatalf("VecLen: %v; RunAll: %v", errStream, errRuns)
		}
		if got, want := renderTables(tabs), renderTables(wantTabs); got != want {
			t.Errorf("VecLen beside RunAll:\n%s\nalone:\n%s", got, want)
		}
		for i := range sims {
			if sims[i].String() != wantSims[i].String() {
				t.Errorf("%s: run beside VecLen differs from the run alone", specs[i].Bench)
			}
		}
		if got, want := r.TraceRecordings(), int64(len(specs)); got != want {
			t.Errorf("recorded %d traces for %d benchmarks", got, want)
		}

		var byRuns, byStream int
		snap := spans.Snapshot()
		for _, s := range snap {
			if s.Name != "record" {
				continue
			}
			if snap[s.Parent].Name == "run" {
				byRuns++
			} else {
				byStream++
			}
		}
		if byRuns > 0 && byStream > 0 {
			t.Logf("attempt %d: runs led %d recordings, the stream pass %d", attempt, byRuns, byStream)
			return
		}
		if attempt == 20 {
			t.Fatalf("in %d attempts one side led every recording (runs %d, stream %d)", attempt, byRuns, byStream)
		}
	}
}

func renderTables(tabs []*Table) string {
	var sb strings.Builder
	for _, tab := range tabs {
		sb.WriteString(tab.Render())
	}
	return sb.String()
}
