package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// renderSuite runs the full benchmark suite under cfgs and concatenates
// the rendered statistics.
func renderSuite(t *testing.T, opts Options, cfgs ...config.Config) (string, *Runner) {
	t.Helper()
	r := NewRunner(opts)
	var sb strings.Builder
	for _, cfg := range cfgs {
		sims, err := r.RunAll(suiteSpecs(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sims {
			sb.WriteString(st.String())
		}
	}
	return sb.String(), r
}

// TestNilRecordingUnusable: a recording that resolves to no trace and no
// error — here, a store that returns nothing without recording — never
// reaches a replay as such: the run fails with ErrRecordingUnusable and
// nothing is counted as recorded.
func TestNilRecordingUnusable(t *testing.T) {
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1,
		Traces: traceStoreFunc(func(string, func() (*trace.Trace, error)) (*trace.Trace, error) { return nil, nil })})
	if _, err := r.Run(config.MustNamed(4, 1, config.ModeV), "compress"); !errors.Is(err, ErrRecordingUnusable) {
		t.Errorf("nil-trace/nil-error recording resolved with err=%v, want ErrRecordingUnusable", err)
	}
	if r.TraceRecordings() != 0 {
		t.Error("a failed recording was counted as recorded")
	}
}

// TestRecordingFailureFailsRuns gives a runner a recording that fails
// (no trace, ErrRecordingUnusable) and checks that timing runs and the
// stream pass (VecLen's eachRecord) both fail with a one-line error
// wrapping it, while a runner whose recording succeeds matches a direct
// live-emulation run of the same program.
func TestRecordingFailureFailsRuns(t *testing.T) {
	const bench = "compress"
	opts := Options{Scale: 10_000, Seed: 1, Workers: 2}
	cfg := config.MustNamed(4, 1, config.ModeV)

	failing := opts
	failing.Traces = traceStoreFunc(func(string, func() (*trace.Trace, error)) (*trace.Trace, error) {
		return nil, fmt.Errorf("%w: indirect jump target out of range", ErrRecordingUnusable)
	})
	seeded := NewRunner(failing)

	_, err := seeded.Run(cfg, bench)
	if !errors.Is(err, ErrRecordingUnusable) {
		t.Fatalf("run over a failed recording: want ErrRecordingUnusable, got %v", err)
	}
	if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, cfg.Name) || !strings.Contains(msg, bench) {
		t.Errorf("error %q is not one line naming %s and %s", msg, cfg.Name, bench)
	}
	if err := seeded.eachRecord(bench, 1000, func(*emu.Record) {}); !errors.Is(err, ErrRecordingUnusable) {
		t.Errorf("stream pass over a failed recording: want ErrRecordingUnusable, got %v", err)
	}

	b, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewRunner(opts).Run(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	if st.String() != liveRun(t, cfg, b.Build(opts.Scale, opts.Seed), opts.Scale).String() {
		t.Error("replayed run differs from a direct live-emulation run")
	}
}

// TestReplayRejectsShortRecording pins the Runner's coverage check: a
// run whose recording stops short of the halt without holding the commit
// limit plus the configuration's fetch window fails before simulating,
// with a one-line error wrapping ErrIntervalOutOfRange that names the
// configuration, the benchmark and both lengths — not as a pipeline
// deadlock 200000 cycles later. A run inside the recording still replays.
func TestReplayRejectsShortRecording(t *testing.T) {
	const bench, records = "compress", 20_000
	cfg := config.MustNamed(4, 1, config.ModeV)
	tr := recordTrace(t, 2*records, records)
	if !tr.Truncated() || tr.Len() != records {
		t.Fatalf("test premise broken: want a truncated %d-record trace, got %d records (truncated=%v)",
			records, tr.Len(), tr.Truncated())
	}
	// runner returns a runner at scale whose recording of bench is tr,
	// seeded into its memo.
	runner := func(scale int) *Runner {
		r := NewRunner(Options{Scale: scale, Seed: 1, Workers: 1})
		if _, _, err := r.traces.Do(r.ctx, bench, func() (*trace.Trace, error) { return tr, nil }); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, scale := range []int{records - 1, records, 1 << 40} {
		t.Run(strconv.Itoa(scale), func(t *testing.T) {
			r := runner(scale)
			_, err := r.Run(cfg, bench)
			if !errors.Is(err, ErrIntervalOutOfRange) {
				t.Fatalf("want ErrIntervalOutOfRange, got %v", err)
			}
			msg := err.Error()
			if strings.Contains(msg, "\n") {
				t.Errorf("error spans lines: %q", msg)
			}
			for _, want := range []string{cfg.Name, bench, strconv.Itoa(scale), strconv.Itoa(records)} {
				if !strings.Contains(msg, want) {
					t.Errorf("error %q does not name %q", msg, want)
				}
			}
			if hot := r.HotStats(); hot.UopNews != 0 {
				t.Errorf("a rejected run simulated (%d uops allocated)", hot.UopNews)
			}
		})
	}
	st, err := runner(1_000).Run(cfg, bench)
	if err != nil {
		t.Fatalf("in-range run: %v", err)
	}
	if st.Committed < 1_000 {
		t.Errorf("in-range run committed %d instructions, want >= 1000", st.Committed)
	}
}

// recordTrace records compress built at scale, finishing the recording
// at target records.
func recordTrace(t *testing.T, scale, target int) *trace.Trace {
	t.Helper()
	prog, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Build(scale, 1)
	mach, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(target)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
