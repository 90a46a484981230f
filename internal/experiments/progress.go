package experiments

// ProgressKind names one Runner lifecycle event.
type ProgressKind int

const (
	// RunStarted: a (configuration, benchmark) simulation began executing
	// on its pool slot (a memo miss; joined and memoised requests emit
	// only RunDone).
	RunStarted ProgressKind = iota
	// RunProgress: the simulation's committed-instruction count crossed a
	// reporting threshold (Committed / Target carry the position).
	RunProgress
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
	case RunDone:
		return "run-done"
	default:
		return "unknown"
	}
}

// ProgressEvent is one observation of a Runner's work, delivered to
// Options.Progress. Events for different runs arrive concurrently and
// unordered relative to each other; events for one run are ordered
// (RunStarted, then RunProgress, then RunDone).
type ProgressEvent struct {
	Kind       ProgressKind
	Cfg, Bench string
	// Committed/Target position a RunProgress event within the run.
	Committed, Target uint64
	// Cached marks a RunDone resolved from the memo or Options.Results
	// without simulating.
	Cached bool
	// Err is the run's error on RunDone (nil on success).
	Err error
}
