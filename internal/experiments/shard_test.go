package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// TestShardedK1ByteIdentical pins exact mode: Shards=1 (with or without
// checkpoint recording) must keep the single-pass path and produce
// byte-identical figures.
func TestShardedK1ByteIdentical(t *testing.T) {
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeV),
	}
	plain, _ := renderSuite(t, Options{Scale: 15_000, Seed: 1, Workers: 4}, cfgs...)
	k1, _ := renderSuite(t, Options{Scale: 15_000, Seed: 1, Workers: 4, Shards: 1, CheckpointEvery: 2000}, cfgs...)
	if plain != k1 {
		t.Error("Shards=1 with checkpoint recording changed simulation statistics")
	}
}

// TestShardedDeterministic requires sharded results to be byte-identical
// across worker counts: shard boundaries are fixed and merging happens
// in shard order, so scheduling must never show through.
func TestShardedDeterministic(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	opts := Options{Scale: 20_000, Seed: 1, Shards: 4}
	opts.Workers = 1
	seq, _ := renderSuite(t, opts, cfg)
	opts.Workers = 8
	par, _ := renderSuite(t, opts, cfg)
	if seq != par {
		t.Error("sharded results differ between Workers=1 and Workers=8")
	}
}

// TestShardedMatchesExact is the warmup-tolerance acceptance test:
// sharded figures must track single-pass figures closely — the
// instruction mix is identical by construction, and IPC agrees within a
// small tolerance because each shard re-warms state before measuring.
func TestShardedMatchesExact(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	const scale = 40_000
	for _, bench := range []string{"compress", "swim", "gcc"} {
		exact := NewRunner(Options{Scale: scale, Seed: 1})
		sharded := NewRunner(Options{Scale: scale, Seed: 1, Shards: 4})
		e, err := exact.Run(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sharded.Run(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		// Interval boundaries are observed at commit-width granularity, so
		// each of the 4 shards may shift up to CommitWidth-1 instructions
		// between warmup and measurement; totals and the per-class mix
		// must agree within that slack.
		slack := int64(4 * cfg.CommitWidth)
		within := func(what string, a, b uint64) {
			if d := int64(a) - int64(b); d < -slack || d > slack {
				t.Errorf("%s: sharded %s %d vs exact %d (beyond per-shard commit-width slack)", bench, what, a, b)
			}
		}
		within("committed", s.Committed, e.Committed)
		within("loads", s.CommittedLoads, e.CommittedLoads)
		within("stores", s.CommittedStores, e.CommittedStores)
		within("branches", s.CommittedBranches, e.CommittedBranches)
		if rel := math.Abs(s.IPC()-e.IPC()) / e.IPC(); rel > 0.05 {
			t.Errorf("%s: sharded IPC %.4f vs exact %.4f (%.1f%% off, tolerance 5%%)",
				bench, s.IPC(), e.IPC(), 100*rel)
		}
	}
}

// TestShardPlan pins the fast-forward geometry: intervals tile [0,
// total), each shard fast-forwards to a checkpoint at least warmup
// records before its interval, and shard 0 starts cold at record zero.
func TestShardPlan(t *testing.T) {
	prog, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Build(40_000, 1)
	mach, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableCheckpoints(5000); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(40_000 + trace.RecordSlack)
	if err != nil {
		t.Fatal(err)
	}

	const total, warmup = 40_000, 4096
	plan := shardPlan(tr, total, 4, warmup)
	if len(plan) != 4 {
		t.Fatalf("plan has %d shards, want 4", len(plan))
	}
	var covered uint64
	for i, sp := range plan {
		start := sp.replayFrom + sp.warmup
		if start != covered {
			t.Errorf("shard %d starts at %d, want %d (gap or overlap)", i, start, covered)
		}
		covered += sp.measure
		if i == 0 {
			if sp.replayFrom != 0 || sp.seedBHR {
				t.Errorf("shard 0 must start cold at record 0, got replayFrom=%d seed=%v", sp.replayFrom, sp.seedBHR)
			}
			continue
		}
		if sp.warmup < warmup {
			t.Errorf("shard %d warmup %d below the %d minimum", i, sp.warmup, warmup)
		}
		if sp.replayFrom%5000 != 0 || sp.replayFrom == 0 {
			t.Errorf("shard %d replays from %d, not a checkpoint boundary", i, sp.replayFrom)
		}
		if !sp.seedBHR {
			t.Errorf("shard %d does not seed the branch history", i)
		}
	}
	if covered != total {
		t.Errorf("plan measures %d instructions, want %d", covered, total)
	}
}

// TestPublishTraceNeverNilNil is the ISSUE 4 regression pin: resolving a
// trace entry with a nil trace and a nil error must never reach the
// followers as such — the guard substitutes ErrRecordingUnusable.
func TestPublishTraceNeverNilNil(t *testing.T) {
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1})
	tc := &traceCall{done: make(chan struct{})}
	r.publishTrace(tc, "stub", nil, nil)
	<-tc.done
	if !errors.Is(tc.err, ErrRecordingUnusable) {
		t.Errorf("nil-trace/nil-error publish resolved with err=%v, want ErrRecordingUnusable", tc.err)
	}
	if r.TraceRecordings() != 0 {
		t.Error("a failed recording was counted as recorded")
	}
}

// TestRecordingFailureFailsRuns seeds a shared-trace entry in the failed
// state (no trace, ErrRecordingUnusable) and checks that timing runs and
// the stream pass (VecLen's eachRecord) both fail with a one-line error
// wrapping it, while a runner whose recording succeeds matches a direct
// live-emulation run of the same program.
func TestRecordingFailureFailsRuns(t *testing.T) {
	const bench = "compress"
	opts := Options{Scale: 10_000, Seed: 1, Workers: 2}
	cfg := config.MustNamed(4, 1, config.ModeV)

	seeded := NewRunner(opts)
	tc := &traceCall{done: make(chan struct{})}
	seeded.publishTrace(tc, bench, nil, fmt.Errorf("%w: indirect jump target out of range", ErrRecordingUnusable))
	seeded.traces[bench] = tc

	_, err := seeded.Run(cfg, bench)
	if !errors.Is(err, ErrRecordingUnusable) {
		t.Fatalf("run over a failed recording: want ErrRecordingUnusable, got %v", err)
	}
	if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, cfg.Name) || !strings.Contains(msg, bench) {
		t.Errorf("error %q is not one line naming %s and %s", msg, cfg.Name, bench)
	}
	if err := seeded.eachRecord(bench, 1000, func(*emu.DynInst) {}); !errors.Is(err, ErrRecordingUnusable) {
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

// TestRunShardRejectsOutOfRange pins the interval check: an interval a
// recording cannot feed fails before simulating, with a one-line error
// wrapping ErrIntervalOutOfRange that names the configuration, the
// benchmark and both lengths — not as a pipeline deadlock 200000 cycles
// later. An interval inside the recording still runs.
func TestRunShardRejectsOutOfRange(t *testing.T) {
	const records = 5_000
	cfg := config.MustNamed(4, 1, config.ModeV)
	tr := recordTrace(t, 20_000, records)
	if !tr.Truncated() || tr.Len() != records {
		t.Fatalf("test premise broken: want a truncated %d-record trace, got %d records (truncated=%v)",
			records, tr.Len(), tr.Truncated())
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		sp   shardSpec
	}{
		{"measure past the end", shardSpec{measure: 6_000}},
		{"replay from past the end", shardSpec{replayFrom: 1 << 40, measure: 100}},
		{"warmup past the end", shardSpec{warmup: 1 << 62, measure: 100}},
		{"overflowing interval", shardSpec{warmup: 1 << 63, measure: 1 << 63}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runShard(ctx, cfg, "compress", tr, tc.sp, nil)
			if !errors.Is(err, ErrIntervalOutOfRange) {
				t.Fatalf("want ErrIntervalOutOfRange, got %v", err)
			}
			msg := err.Error()
			if strings.Contains(msg, "\n") {
				t.Errorf("error spans lines: %q", msg)
			}
			for _, want := range []string{cfg.Name, "compress", strconv.Itoa(records)} {
				if !strings.Contains(msg, want) {
					t.Errorf("error %q does not name %q", msg, want)
				}
			}
		})
	}
	st, _, err := runShard(ctx, cfg, "compress", tr, shardSpec{measure: 1_000}, nil)
	if err != nil {
		t.Fatalf("in-range interval: %v", err)
	}
	if st.Committed < 1_000 {
		t.Errorf("in-range interval committed %d instructions, want >= 1000", st.Committed)
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
