// Package experiments regenerates every figure and table of the paper's
// evaluation (§4) plus the headline numbers quoted in the abstract and
// conclusions. Each experiment returns a Table whose rows are benchmarks
// (with INT / FP / Spec95 aggregate rows) so the output can be compared
// against the published charts shape-for-shape.
//
// The Runner executes (configuration, benchmark) pairs on a worker pool
// with single-flight memoisation: figures that share simulations (e.g. the
// Figure 11/12 sweep) run each one once, and -parallel N fans independent
// runs across cores with output identical to a sequential run. A second
// memo layer shares work across the configurations of a sweep: each
// benchmark's dynamic instruction stream is recorded once (internal/trace)
// by a functional pass, and every configuration replays the recording.
// A simulation has one execution path: record once, plan max(Shards, 1)
// checkpoint-fast-forwarded intervals (shard.go), execute each on the
// local pool or Options.Remote (remote.go), and merge their statistics
// in plan order — Shards <= 1 is one interval covering the whole run.
// Both memo layers are content-addressed: RunKey (results.go) names a
// run's statistics, and Options.Results and Options.Traces extend the
// memos across Runners — the service layer shares every run and every
// recording between jobs through them.
// See EXPERIMENTS.md for paper-vs-measured results and the performance
// methodology, and ARCHITECTURE.md for the figure → code map, the trace
// subsystem and the sharding accuracy contract.
package experiments
