// Package experiments regenerates every figure and table of the paper's
// evaluation (§4) plus the headline numbers quoted in the abstract and
// conclusions. Each experiment returns a Table whose rows are benchmarks
// (with INT / FP / Spec95 aggregate rows) so the output can be compared
// against the published charts shape-for-shape.
//
// The Runner executes (configuration, benchmark) pairs on a worker pool
// with single-flight memoisation (a flight.Memo): figures that share
// simulations (e.g. the Figure 11/12 sweep) run each one once, and
// -parallel N fans independent runs across cores with output identical
// to a sequential run. A second memo shares work across the
// configurations of a sweep: a benchmark's dynamic instruction stream is
// recorded (internal/trace) by a functional pass, and every
// configuration replays the recording. A recording is kept while a
// consumer may still read it: one that a single run or stream pass was
// ever submitted for is released when that consumer finishes, and one
// asked for twice is kept for the Runner's life, so a one-configuration
// sweep holds about Workers recordings at a time.
// A simulation has one execution path, all on one pool slot: get the
// recording (record it, or load it), check that it covers the run, and
// replay it through one trace.Replayer. The Replayer only steps forward;
// the pipeline keeps the window a squash re-fetches from, so a recording
// must extend pipeline.SourceWindow(cfg) past the commit limit
// (CheckCoverage).
// Both memos are content-addressed: RunKey (results.go) names a run's
// statistics, and Options.Results and Options.Traces — two instances of
// the Store get-or-compute interface — extend the memos across Runners:
// the service layer shares every run and every recording between jobs
// through them.
// See EXPERIMENTS.md for paper-vs-measured results and the performance
// methodology, and ARCHITECTURE.md for the figure → code map and the
// trace subsystem.
package experiments
