package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"specvec/internal/config"
	"specvec/internal/obs"
	"specvec/internal/pipeline"
	"specvec/internal/profile"
	"specvec/internal/stats"
	"specvec/internal/trace"
)

// Checkpointed fast-forward: a recorded trace with embedded checkpoints
// lets one (configuration, benchmark) simulation split into K measured
// intervals that run concurrently. Each shard starts its replay at the
// latest checkpoint comfortably before its interval, seeds the branch
// predictor with the recorded outcome history, re-warms
// microarchitectural state across the warmup window, and measures only
// its own interval; the per-interval statistics are merged in shard
// order, so results are deterministic regardless of scheduling.

// DefaultShardWarmup is the minimum number of instructions a shard
// replays before measurement begins. Restored checkpoints carry
// architectural state only — caches, predictor tables and the SDV
// structures start cold — so the warmup window exists to re-train them;
// 4096 instructions cover the deepest configuration's in-flight capacity
// several times over.
const DefaultShardWarmup = 4096

// shardSpec is one fast-forwarded interval of a sharded run.
type shardSpec struct {
	replayFrom uint64 // source offset replay starts at (checkpoint boundary or 0)
	bhr        uint64 // branch-outcome history recorded at that boundary
	seedBHR    bool
	warmup     uint64 // commits before measurement (replayFrom..start)
	measure    uint64 // measured commits (start..end)
}

// shardPlan splits [0, total) committed instructions into shards
// intervals. Each interval fast-forwards to the latest checkpoint at
// least warmup records before its start, so its warmup is within
// [warmup, warmup+checkpoint interval); with no usable checkpoint the
// shard replays from record zero (correct, just a longer warmup). A
// halted trace shorter than total clamps the plan to what was recorded.
// The plan always holds at least one interval.
func shardPlan(tr *trace.Trace, total uint64, shards int, warmup uint64) []shardSpec {
	if n := uint64(tr.Len()); tr.Halted() && n < total {
		total = n
	}
	if shards < 1 {
		shards = 1
	}
	if uint64(shards) > total && total > 0 {
		shards = int(total)
	}
	step := total / uint64(shards)
	plan := make([]shardSpec, 0, shards)
	for i := 0; i < shards; i++ {
		start := uint64(i) * step
		end := start + step
		if i == shards-1 {
			end = total
		}
		sp := shardSpec{measure: end - start}
		var warmStart uint64
		if start > warmup {
			warmStart = start - warmup
		}
		if ck, ok := tr.CheckpointBefore(warmStart); ok {
			sp.replayFrom = ck.Seq
			sp.bhr = ck.BHR
			sp.seedBHR = true
		}
		sp.warmup = start - sp.replayFrom
		plan = append(plan, sp)
	}
	return plan
}

// ErrIntervalOutOfRange marks a replay interval the recording cannot
// feed: it ends past the last record or, for a recording that stops
// short of the program's halt, leaves the pipeline fewer records past
// its end than the configuration can fetch ahead.
var ErrIntervalOutOfRange = errors.New("experiments: replay interval exceeds recording")

// checkInterval is the one check every interval passes before it is
// simulated, locally or for a peer (ExecuteShardTask): replayFrom +
// warmup + measure must not overflow and must lie within the recording,
// and a recording that does not end in a halt must extend at least
// pipeline.SourceWindow(cfg) records past that end. Without it a bad
// interval surfaces only as a pipeline deadlock.
func checkInterval(cfg config.Config, bench string, tr *trace.Trace, sp shardSpec) error {
	end, c1 := bits.Add64(sp.replayFrom, sp.warmup, 0)
	end, c2 := bits.Add64(end, sp.measure, 0)
	need, c3 := end, uint64(0)
	if !tr.Halted() {
		need, c3 = bits.Add64(end, uint64(pipeline.SourceWindow(cfg)), 0)
	}
	if c1|c2|c3 != 0 {
		return fmt.Errorf("%w: %s/%s: interval @%d+%d+%d overflows, recording has %d records",
			ErrIntervalOutOfRange, cfg.Name, bench, sp.replayFrom, sp.warmup, sp.measure, tr.Len())
	}
	if need > uint64(tr.Len()) {
		return fmt.Errorf("%w: %s/%s: interval needs %d records, recording has %d",
			ErrIntervalOutOfRange, cfg.Name, bench, need, tr.Len())
	}
	return nil
}

// runShard checks and executes one interval on the calling goroutine,
// replaying it through a windowed trace.Replayer from its checkpoint. A
// non-nil ctx cancels the interval; a non-nil prepare sees the
// simulator before it runs (progress reporting). The returned hot-path
// counters are the interval simulator's.
func runShard(ctx context.Context, cfg config.Config, bench string, tr *trace.Trace, sp shardSpec, prepare func(*pipeline.Simulator)) (*stats.Sim, profile.HotStats, error) {
	if err := checkInterval(cfg, bench, tr, sp); err != nil {
		return nil, profile.HotStats{}, err
	}
	sim, err := pipeline.NewFromSource(cfg, trace.NewReplayerAt(tr, pipeline.SourceWindow(cfg), sp.replayFrom))
	if err != nil {
		return nil, profile.HotStats{}, err
	}
	if ctx != nil {
		sim.SetContext(ctx)
	}
	if sp.seedBHR {
		sim.SeedBranchHistory(sp.bhr)
	}
	if prepare != nil {
		prepare(sim)
	}
	st, err := sim.RunInterval(sp.warmup, sp.measure)
	return st, sim.HotStats(), err
}

// ShardedReplay simulates total committed instructions of a recorded
// trace under cfg as shards checkpoint-fast-forwarded intervals running
// on up to workers goroutines, and merges the per-interval statistics
// (sdvsim -trace-replay -shards). It is the Runner's executor without
// the Runner's memo: shards <= 1 is exact mode, one interval covering
// the whole run. warmup <= 0 uses DefaultShardWarmup; workers <= 0 uses
// every core. A trace without checkpoints still shards correctly, but
// every shard then replays from record zero, serializing most of the
// win.
func ShardedReplay(cfg config.Config, tr *trace.Trace, total uint64, shards, warmup, workers int) (*stats.Sim, error) {
	if warmup <= 0 {
		warmup = DefaultShardWarmup
	}
	r := NewRunner(Options{Workers: workers})
	return r.execute(cfg, tr.Name(), tr, shardPlan(tr, total, shards, uint64(warmup)), obs.SpanContext{})
}
