package experiments

import (
	"context"
	"fmt"

	"specvec/internal/config"
	"specvec/internal/stats"
	"specvec/internal/trace"
)

// Remote shard dispatch: with Options.Remote set, every trace-replay
// simulation — whole (configuration, benchmark) runs and checkpointed
// shards alike — is handed to a RemoteShards executor instead of the
// local worker pool. The unit of work is a ShardTask: one replay
// interval of a recorded trace, fully described by plain data. Replay
// is deterministic — (recording, configuration, interval) fixes every
// statistic — so a task is relocatable: any node produces the same
// bytes, a failed node's task re-runs elsewhere without changing the
// result, and the per-interval statistics merge with the same
// stats.Sim Merge path sharded local runs use (order-independent,
// pinned by stats' TestMergeOrderIndependent). Recording itself stays
// local: it needs functional emulation of the built program, and it
// happens once per benchmark.

// ShardTask is one replay interval of a recorded trace, the unit of
// remote execution. Warmup == 0 && ReplayFrom == 0 describes a whole
// run (RunInterval(0, n) produces exactly Run(n)'s figures). The Trace
// field is the content address of the recording; the runner leaves it
// empty and the executor fills it when it publishes the recording to
// its artifact store.
type ShardTask struct {
	Cfg        config.Config `json:"cfg"`
	Bench      string        `json:"bench"`
	Trace      string        `json:"trace,omitempty"` // content address, set by the executor
	ReplayFrom uint64        `json:"replayFrom"`      // record offset replay starts at
	BHR        uint64        `json:"bhr,omitempty"`   // branch history recorded at that boundary
	SeedBHR    bool          `json:"seedBHR,omitempty"`
	Warmup     uint64        `json:"warmup"`  // commits before measurement begins
	Measure    uint64        `json:"measure"` // measured commits
}

// RemoteShards places replay intervals on cluster nodes. tr is the live
// recording task addresses; implementations publish it by content
// address for workers to pull and keep it for local fallback, so a
// RunShard only fails on context cancellation or a genuine simulation
// error — never because no worker was available. Implementations must
// be safe for concurrent use and must preserve byte-identity: the
// statistics returned for a task are exactly what ExecuteShardTask
// produces locally (the determinism guarantee failover relies on).
type RemoteShards interface {
	RunShard(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error)
}

// ExecuteShardTask replays one task interval from tr — the recording
// the task's Trace field addresses; the caller resolves it — and
// returns the interval's statistics. It is the worker-side entry point
// of remote dispatch and the executor's local fallback; determinism
// makes the result byte-identical wherever it runs. A task is a peer's
// input, so it passes the same interval check as a local interval
// (ErrIntervalOutOfRange) before anything is simulated.
func ExecuteShardTask(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error) {
	if tr == nil {
		return nil, fmt.Errorf("experiments: shard task %s/%s: nil trace", task.Cfg.Name, task.Bench)
	}
	if err := task.Cfg.Validate(); err != nil {
		return nil, err
	}
	sp := shardSpec{
		replayFrom: task.ReplayFrom,
		bhr:        task.BHR,
		seedBHR:    task.SeedBHR,
		warmup:     task.Warmup,
		measure:    task.Measure,
	}
	st, _, err := runShard(ctx, task.Cfg, task.Bench, tr, sp, nil)
	return st, err
}
