package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// wireExecutor is a RemoteShards that executes every task through
// ExecuteShardTask after a JSON round trip of both the task and the
// result — exactly the transformation a real worker dispatch performs,
// minus the network.
type wireExecutor struct {
	tasks atomic.Int64
}

func (e *wireExecutor) RunShard(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error) {
	e.tasks.Add(1)
	b, err := json.Marshal(task)
	if err != nil {
		return nil, err
	}
	var back ShardTask
	if err := json.Unmarshal(b, &back); err != nil {
		return nil, err
	}
	st, err := ExecuteShardTask(ctx, back, tr)
	if err != nil {
		return nil, err
	}
	rb, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	out := stats.New()
	if err := json.Unmarshal(rb, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestRemoteReplayByteIdentical is the cluster acceptance pin at the
// experiments layer: with Options.Remote set — whole runs (Shards
// unset) and sharded runs alike — the rendered statistics must be
// byte-identical to a local runner at the same execution shape. Remote
// dispatch changes where replay runs, never what it computes.
func TestRemoteReplayByteIdentical(t *testing.T) {
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeV),
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"whole runs", Options{Scale: 15_000, Seed: 1, Workers: 4}},
		{"sharded", Options{Scale: 15_000, Seed: 1, Workers: 4, Shards: 4}},
		{"sharded, two workers", Options{Scale: 15_000, Seed: 1, Workers: 2, Shards: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := renderSuite(t, tc.opts, cfgs...)
			exec := &wireExecutor{}
			tc.opts.Remote = exec
			got, _ := renderSuite(t, tc.opts, cfgs...)
			if got != want {
				t.Error("remote-dispatched statistics diverge from the local runner")
			}
			if exec.tasks.Load() == 0 {
				t.Error("no tasks reached the remote executor")
			}
		})
	}
}

// TestRemoteTaskCounts pins the dispatch arithmetic: a sharded sweep
// sends one task per shard interval, a whole-run sweep one task per
// (config, benchmark) replay.
func TestRemoteTaskCounts(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	exec := &wireExecutor{}
	r := NewRunner(Options{Scale: 12_000, Seed: 1, Workers: 2, Shards: 3, Remote: exec})
	sims, err := r.RunAll(suiteSpecs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	benches := int64(len(sims))
	if got := exec.tasks.Load(); got != 3*benches {
		t.Errorf("sharded sweep dispatched %d tasks, want %d (3 shards × %d benchmarks)", got, 3*benches, benches)
	}
}

// TestExecuteShardTaskValidates pins the worker-side entry point's
// error paths: a nil trace and an invalid configuration fail with a
// clear error instead of replaying garbage.
func TestExecuteShardTaskValidates(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	if _, err := ExecuteShardTask(context.Background(), ShardTask{Cfg: cfg, Bench: "x"}, nil); err == nil {
		t.Error("nil trace accepted")
	}
	bad := cfg
	bad.FetchWidth = -1
	tr := recordSmallTrace(t)
	if _, err := ExecuteShardTask(context.Background(), ShardTask{Cfg: bad, Bench: "x", Measure: 100}, tr); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestExecuteShardTaskRejectsOutOfRange pins the interval check at the
// trust boundary: a task whose interval a recording cannot feed fails
// before simulating, with a one-line error wrapping
// ErrIntervalOutOfRange that names the configuration, the benchmark and
// both lengths — not as a pipeline deadlock 200000 cycles later. A task
// inside the recording still runs.
func TestExecuteShardTaskRejectsOutOfRange(t *testing.T) {
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
		task ShardTask
	}{
		{"measure past the end", ShardTask{Measure: 6_000}},
		{"replay from past the end", ShardTask{ReplayFrom: 1 << 40, Measure: 100}},
		{"warmup past the end", ShardTask{Warmup: 1 << 62, Measure: 100}},
		{"overflowing interval", ShardTask{Warmup: 1 << 63, Measure: 1 << 63}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			task := tc.task
			task.Cfg, task.Bench = cfg, "compress"
			_, err := ExecuteShardTask(ctx, task, tr)
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
	st, err := ExecuteShardTask(ctx, ShardTask{Cfg: cfg, Bench: "compress", Measure: 1_000}, tr)
	if err != nil {
		t.Fatalf("in-range task: %v", err)
	}
	if st.Committed < 1_000 {
		t.Errorf("in-range task committed %d instructions, want >= 1000", st.Committed)
	}
}

// recordSmallTrace produces a tiny recording to exercise task
// validation against.
func recordSmallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return recordTrace(t, 2_000, 2_000+trace.RecordSlack)
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
