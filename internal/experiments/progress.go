package experiments

import (
	"specvec/internal/trace"
)

// ProgressKind names one Runner lifecycle event.
type ProgressKind int

const (
	// RunStarted: a (configuration, benchmark) simulation began executing
	// (a memo miss; joined and memoised requests emit only RunDone).
	RunStarted ProgressKind = iota
	// RunProgress: the simulation's committed-instruction count crossed a
	// reporting threshold (Committed / Target carry the position).
	RunProgress
	// ShardDone: one interval of a sharded simulation finished
	// (Shard / Shards carry the 1-based index and the plan size).
	ShardDone
	// RunDone: a Run call resolved. Cached marks results served from the
	// memo or Options.Results without simulating; Err carries the run's
	// error, if any.
	RunDone
)

// String renders the event kind for logs and streamed job events.
func (k ProgressKind) String() string {
	switch k {
	case RunStarted:
		return "run-started"
	case RunProgress:
		return "run-progress"
	case ShardDone:
		return "shard-done"
	case RunDone:
		return "run-done"
	default:
		return "unknown"
	}
}

// ProgressEvent is one observation of a Runner's work, delivered to
// Options.Progress. Events for different runs arrive concurrently and
// unordered relative to each other; events for one run are ordered
// (RunStarted, then RunProgress/ShardDone, then RunDone).
type ProgressEvent struct {
	Kind       ProgressKind
	Cfg, Bench string
	// Committed/Target position a RunProgress event within the run.
	Committed, Target uint64
	// Shard/Shards identify a ShardDone interval (1-based / plan size).
	Shard, Shards int
	// Cached marks a RunDone resolved from the memo or Options.Results
	// without simulating.
	Cached bool
	// Err is the run's error on RunDone (nil on success).
	Err error
}

// TraceStore persists recorded benchmark traces across Runner instances
// (the service layer's content-addressed artifact store implements it; a
// warm daemon hands every new Runner the recordings of earlier jobs).
// Implementations must be safe for concurrent use and MUST be scoped to
// one (scale, seed, checkpoint spacing) triple — the Runner addresses the
// store by bare benchmark name and trusts that a returned trace was
// recorded under its own options. Load misses and Store failures are
// silent: the store is an optimisation, never a correctness dependency.
type TraceStore interface {
	// Load returns the stored recording for bench, or ok=false.
	Load(bench string) (tr *trace.Trace, ok bool)
	// Store persists bench's recording, best effort.
	Store(bench string, tr *trace.Trace)
}
