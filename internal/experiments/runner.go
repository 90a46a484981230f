package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/flight"
	"specvec/internal/obs"
	"specvec/internal/pipeline"
	"specvec/internal/profile"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// Options control the scale of all experiment runs.
type Options struct {
	// Scale is the approximate dynamic instruction count per run. The
	// paper simulates 100M instructions per benchmark; the default here is
	// laptop-sized and can be raised with -scale.
	Scale int
	// Seed perturbs the generated workload data.
	Seed int64
	// Workers bounds the number of simulations executing concurrently.
	// <= 0 means runtime.GOMAXPROCS(0); 1 is strictly sequential. Results
	// are byte-identical regardless of Workers: every simulation is an
	// independent deterministic run and tables are assembled in a fixed
	// order.
	//
	//sdv:shape
	Workers int
	// Context, when non-nil, cancels the runner: in-flight simulations
	// abort within a few thousand cycles, queued work is not started, and
	// Run/RunAll return the context's error. The service layer hands each
	// job its own context so abandoned requests stop burning workers. A
	// cancelled run or recording is never memoised, so cancellation never
	// poisons the memo for a later requester. Results are unaffected: a
	// run that completes before cancellation is byte-identical to one
	// without a context.
	//
	//sdv:shape
	Context context.Context
	// Progress, when non-nil, receives run lifecycle events (see
	// ProgressEvent). It is called concurrently from worker goroutines —
	// it must be safe for concurrent use and must not call back into the
	// Runner. Observation only: results are byte-identical with or
	// without it.
	//
	//sdv:shape
	Progress func(ProgressEvent)
	// Traces, when non-nil, persists recorded benchmark traces across
	// Runner instances (see TraceStore). A recording's leader asks it for
	// the benchmark's recording, and it records through the leader on a
	// miss.
	Traces TraceStore
	// Results, when non-nil, persists per-run statistics across Runner
	// instances (see ResultStore). Run consults it on a memo miss, before
	// recording, and stores what it simulates; a hit costs no recording
	// and no pool slot.
	Results ResultStore
	// Workloads, when non-nil, resolves benchmark names instead of the
	// global workload registry. The service layer threads a per-job
	// resolver built from the job's workload-spec payload through here,
	// so concurrent jobs carrying different spec files never observe each
	// other's generated workloads. Nil means workload.Get: built-ins plus
	// whatever the process registered at startup (CLI -spec flags).
	Workloads func(name string) (workload.Benchmark, error)
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Scale: 300_000, Seed: 1, Workers: runtime.GOMAXPROCS(0)}
}

// WithDefaults returns o with every defaulted field resolved — the exact
// options a Runner built from o will report via Opts(). The service layer
// uses it to scope trace artifact stores by effective (scale, seed)
// before the Runner exists.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = DefaultOptions().Scale
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RunSpec names one (configuration, benchmark) simulation.
type RunSpec struct {
	Cfg   config.Config
	Bench string
}

// ErrRecordingUnusable marks a benchmark whose program was built but whose
// recording failed: every run of the benchmark fails with it, since every
// run replays the recording.
var ErrRecordingUnusable = errors.New("experiments: benchmark recording unusable")

// Runner executes (configuration, benchmark) pairs on a bounded worker
// pool with two memos: per-run statistics keyed by RunKey (backed by
// Options.Results when set), so experiments that overlap (e.g. Figures
// 11 and 12) pay for each run once even when submitted concurrently; and
// per-benchmark recorded traces (backed by Options.Traces), shared by
// every consumer of a benchmark — each configuration's run and the
// stream pass. A recording lives only while a consumer may still read
// it: one that a single consumer was ever submitted for is released when
// that consumer finishes, and one asked for twice is kept for the
// Runner's life (see admit). It is safe for concurrent use by multiple
// goroutines.
type Runner struct {
	opts Options
	ctx  context.Context // Options.Context or Background; never nil
	sem  chan struct{}   // the worker pool: one token per consumer (see slot)

	runs   flight.Memo[*stats.Sim]   // by RunKey
	traces flight.Memo[*trace.Trace] // by benchmark; see admit and release

	usesMu sync.Mutex
	uses   map[string]int // consumers ever submitted, by benchmark

	sims     atomic.Int64 // simulations actually executed (cache misses)
	recorded atomic.Int64 // benchmark traces recorded (trace-cache misses)
	loaded   atomic.Int64 // benchmark traces loaded from Options.Traces

	// Aggregated pipeline hot-path counters across every simulation the
	// runner executed (service /metrics). Folded via profile.HotStats.Add
	// under hotMu — one fold per finished simulator, far off any hot path.
	hotMu sync.Mutex
	hot   profile.HotStats
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{
		opts:   opts,
		ctx:    ctx,
		sem:    make(chan struct{}, opts.Workers),
		runs:   flight.Memo[*stats.Sim]{Keep: true},
		traces: flight.Memo[*trace.Trace]{Keep: true},
		uses:   map[string]int{},
	}
}

// admit counts one more consumer of bench's recording: a run or a
// stream pass that will read it. Batches admit every consumer before
// starting any, so a benchmark a batch asks for twice is kept from its
// first consumer on.
func (r *Runner) admit(bench string) {
	r.usesMu.Lock()
	r.uses[bench]++
	r.usesMu.Unlock()
}

// release ends a consumer of bench's recording, inside its pool slot. A
// recording only one consumer was ever admitted for has no later reader,
// so it is forgotten; one asked for twice stays for the Runner's life.
// A consumer admitted after the forget records afresh.
func (r *Runner) release(bench string) {
	r.usesMu.Lock()
	defer r.usesMu.Unlock()
	if r.uses[bench] == 1 {
		r.traces.Forget(bench)
	}
}

// emit delivers a progress event to Options.Progress, if any.
func (r *Runner) emit(ev ProgressEvent) {
	if r.opts.Progress != nil {
		r.opts.Progress(ev)
	}
}

// collectHot folds one finished simulator's hot-path counters into the
// runner's aggregate.
func (r *Runner) collectHot(h profile.HotStats) {
	r.hotMu.Lock()
	r.hot.Add(h)
	r.hotMu.Unlock()
}

// HotStats returns pool-traffic counters aggregated over every simulation
// the runner executed. JournalDepth is zero: it is per-simulator state,
// not a sum (see profile.HotStats.Add).
func (r *Runner) HotStats() profile.HotStats {
	r.hotMu.Lock()
	defer r.hotMu.Unlock()
	return r.hot
}

// Opts returns the runner's options.
func (r *Runner) Opts() Options { return r.opts }

// Simulations returns how many simulations the runner has actually
// executed — i.e. cache misses; singleflight-shared and memoised requests
// do not count.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// TraceRecordings returns how many benchmark traces have been recorded:
// at most two per benchmark, since a benchmark whose only consumer
// released its recording records again for the next one, which keeps it
// (see admit).
func (r *Runner) TraceRecordings() int64 { return r.recorded.Load() }

// TraceLoads returns how many benchmark traces were served by
// Options.Traces instead of being recorded.
func (r *Runner) TraceLoads() int64 { return r.loaded.Load() }

// Run simulates benchmark bench under cfg and returns its statistics.
// Results are memoised on RunKey; an in-flight run for the same key is
// joined rather than duplicated.
func (r *Runner) Run(cfg config.Config, bench string) (*stats.Sim, error) {
	r.admit(bench)
	return r.run(cfg, bench)
}

// run is Run for a consumer already admitted.
func (r *Runner) run(cfg config.Config, bench string) (*stats.Sim, error) {
	key := RunKey(r.opts, cfg, bench)
	stored := false
	st, led, err := r.runs.Do(r.ctx, key, func() (*stats.Sim, error) {
		if err := r.ctx.Err(); err != nil {
			return nil, err // a cancelled runner starts no new simulations
		}
		st, ok, err := r.result(cfg, bench, key)
		stored = ok
		return st, err
	})
	r.emit(ProgressEvent{Kind: RunDone, Cfg: cfg.Name, Bench: bench, Cached: !led || stored, Err: err})
	return st, err
}

// result produces one memo entry's statistics under a "run" span: from
// Options.Results when it holds them (stored reports that), by simulating
// otherwise — and then the store keeps what was simulated.
func (r *Runner) result(cfg config.Config, bench, key string) (st *stats.Sim, stored bool, err error) {
	run := obs.FromContext(r.ctx).StartRun("run", cfg.Name, bench)
	defer run.End()
	if r.opts.Results == nil {
		st, err = r.simulate(cfg, bench, run)
		return st, false, err
	}
	stored = true
	st, err = r.opts.Results.GetOrCompute(obs.ContextWith(r.ctx, run), key, func() (*stats.Sim, error) {
		stored = false
		return r.simulate(cfg, bench, run)
	})
	return st, stored && err == nil, err
}

// simulate is one uncached simulation and the runner's only way to run
// one: on one pool slot, get the benchmark's recording, check that it
// covers the run, replay it and release it. run is the run's span.
func (r *Runner) simulate(cfg config.Config, bench string, run obs.SpanContext) (*stats.Sim, error) {
	r.sims.Add(1)
	var st *stats.Sim
	err := r.slot(func() error {
		r.emit(ProgressEvent{Kind: RunStarted, Cfg: cfg.Name, Bench: bench, Target: uint64(r.opts.Scale)})
		tr, err := r.recording(bench, run)
		if err != nil {
			return err
		}
		defer r.release(bench)
		st, err = r.replay(cfg, bench, tr, run)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", cfg.Name, bench, err)
	}
	return st, nil
}

// ErrIntervalOutOfRange marks a replay the recording cannot feed: a
// recording that stops short of the program's halt leaves the pipeline
// fewer records past the commit limit than the configuration can fetch
// ahead, or a stream pass asks for more records than were recorded.
var ErrIntervalOutOfRange = errors.New("experiments: replay exceeds recording")

// CheckCoverage is the one check a replay of tr under cfg passes before
// it simulates up to commits instructions: a recording that does not end
// in a halt must hold at least commits + pipeline.SourceWindow(cfg)
// records. Without it a short recording surfaces only as a pipeline
// deadlock. A halted recording feeds any limit: the run ends at the halt.
func CheckCoverage(cfg config.Config, tr *trace.Trace, commits uint64) error {
	have, window := uint64(tr.Len()), uint64(pipeline.SourceWindow(cfg))
	if tr.Halted() || (have >= window && commits <= have-window) {
		return nil
	}
	return fmt.Errorf("%w: %d commits under %s need %d more records past them, recording has %d",
		ErrIntervalOutOfRange, commits, cfg.Name, window, have)
}

// replay checks that tr covers the run and simulates it through one
// trace.Replayer, under a "replay" span of sc, reporting RunProgress
// events as it commits.
func (r *Runner) replay(cfg config.Config, bench string, tr *trace.Trace, sc obs.SpanContext) (*stats.Sim, error) {
	commits := uint64(r.opts.Scale)
	if err := CheckCoverage(cfg, tr, commits); err != nil {
		return nil, err
	}
	span := sc.Start("replay")
	defer span.End()
	sim, err := pipeline.NewFromSource(cfg, trace.NewReplayer(tr))
	if err != nil {
		return nil, err
	}
	sim.SetContext(r.ctx)
	if r.opts.Progress != nil {
		sim.SetProgress(r.progressStride(), func(committed uint64) {
			r.emit(ProgressEvent{Kind: RunProgress, Cfg: cfg.Name, Bench: bench,
				Committed: committed, Target: commits})
		})
	}
	st, err := sim.Run(commits)
	r.collectHot(sim.HotStats())
	return st, err
}

// slot runs fn on one worker-pool slot. It is the pool's only point of
// acquisition, and each consumer of a recording — a run's simulation, a
// stream pass — takes one slot and holds it while it gets the recording
// and reads it; nothing called from fn takes a second. A consumer that
// finds its recording in flight waits for the leader inside its own
// slot. That cannot deadlock, even at Workers: 1: the leader got there
// first from inside a slot of its own, and records or loads without
// waiting for another.
func (r *Runner) slot(fn func() error) error {
	// Check the context first: select picks randomly when both a free
	// slot and a cancelled context are ready.
	if err := r.ctx.Err(); err != nil {
		return err
	}
	select {
	case r.sem <- struct{}{}:
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
	defer func() { <-r.sem }()
	return fn()
}

// recordTarget is the length a recording is extended to when the program
// has not halted by then: the commit limit (Scale) plus more than the
// in-flight capacity of the widest configuration. No replay can observe
// records past that point, so longer-running programs need not be
// emulated to their halt.
func (r *Runner) recordTarget() int { return r.opts.Scale + trace.RecordSlack }

// recording returns bench's recording: the one entry point through which
// every run and the stream pass get their input, called from inside the
// consumer's pool slot. The first requester leads — it takes the
// recording from Options.Traces, which records through it on a miss, or
// records it itself with a functional pass — and every later requester
// waits for the leader in its own slot. sc, when active, receives the
// leader's "trace-load" and "record" spans. A recording that resolves to
// nothing fails with ErrRecordingUnusable.
func (r *Runner) recording(bench string, sc obs.SpanContext) (*trace.Trace, error) {
	tr, _, err := r.traces.Do(r.ctx, bench, func() (*trace.Trace, error) {
		if r.opts.Traces == nil {
			return r.record(bench, sc)
		}
		return r.fromStore(bench, sc)
	})
	if errors.Is(err, flight.ErrNoValue) {
		err = fmt.Errorf("%w: %w", ErrRecordingUnusable, err)
	}
	return tr, err
}

// fromStore gets bench's recording from Options.Traces, which records on
// a miss. A stored recording that stops short of this runner's record
// target (and of a halt) is never replayed: the leader records afresh.
func (r *Runner) fromStore(bench string, sc obs.SpanContext) (*trace.Trace, error) {
	load := sc.Start("trace-load")
	fresh := false
	tr, err := r.opts.Traces.GetOrCompute(r.ctx, bench, func() (*trace.Trace, error) {
		load.End()
		fresh = true
		return r.record(bench, sc)
	})
	load.End()
	if err != nil || fresh || tr == nil {
		return tr, err
	}
	if !tr.Halted() && tr.Len() < r.recordTarget() {
		return r.record(bench, sc)
	}
	r.loaded.Add(1)
	return tr, nil
}

// record builds bench's program and records its dynamic stream with a
// pure functional pass (no timing simulation), in the leader's slot.
func (r *Runner) record(bench string, sc obs.SpanContext) (*trace.Trace, error) {
	rsc := sc.StartRun("record", "", bench)
	defer rsc.End()
	b, err := r.opts.Resolve(bench)
	if err != nil {
		return nil, err
	}
	prog := b.Build(r.opts.Scale, r.opts.Seed)
	mach, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	rec, err := trace.NewRecorder(mach, prog, r.recordTarget())
	var tr *trace.Trace
	if err == nil {
		rec.SetContext(r.ctx)
		tr, err = rec.Finish(r.recordTarget())
	}
	if err != nil && !flight.Cancelled(err) {
		return nil, fmt.Errorf("%w: %v", ErrRecordingUnusable, err)
	}
	if err == nil {
		r.recorded.Add(1)
	}
	return tr, err
}

// progressStride is the committed-instruction spacing of RunProgress
// events: coarse enough to stay off the cycle loop's hot path, fine
// enough that a streaming client sees motion.
func (r *Runner) progressStride() uint64 {
	return uint64(max(r.opts.Scale/8, 4096))
}

// RunAll submits every spec to the worker pool at once and returns the
// statistics in spec order. The first error (in spec order) is returned
// after all runs settle, so a failed batch leaves no simulation in
// flight. The whole batch is admitted before any run starts.
func (r *Runner) RunAll(specs []RunSpec) ([]*stats.Sim, error) {
	out := make([]*stats.Sim, len(specs))
	errs := make([]error, len(specs))
	for _, s := range specs {
		r.admit(s.Bench)
	}
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s RunSpec) {
			defer wg.Done()
			out[i], errs[i] = r.run(s.Cfg, s.Bench)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Prefetch begins computing the given runs in the background without
// waiting for them. Submission fans out over at most Workers feeder
// goroutines that pull specs from a shared cursor, so a large sweep does
// not spawn one goroutine per spec ahead of the pool. Errors are not
// reported here; they resurface from the memo when Run or RunAll later
// requests the same key. Cancelling the runner's context stops the
// feeders from starting further specs; runs already executing abort
// through their own context polling. Like RunAll, it admits the whole
// batch before any run starts.
func (r *Runner) Prefetch(specs []RunSpec) {
	if len(specs) == 0 {
		return
	}
	specs = append([]RunSpec(nil), specs...)
	for _, s := range specs {
		r.admit(s.Bench)
	}
	next := new(atomic.Int64)
	for n := min(len(specs), r.opts.Workers); n > 0; n-- {
		go func() {
			for r.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				_, _ = r.run(specs[i].Cfg, specs[i].Bench)
			}
		}()
	}
}

// each runs fn(0..n-1) concurrently and returns the first error in index
// order. It is used for per-benchmark work that does not go through the
// simulation cache (the stream pass of VecLen); fn takes its pool slot
// through the runner's own entry point (eachRecord), so the work shares
// the simulations' concurrency bound.
func (r *Runner) each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// suiteSpecs returns the full (cfg × benchmark) fan-out for each config,
// in presentation order.
func suiteSpecs(cfgs ...config.Config) []RunSpec {
	names := workload.Names()
	specs := make([]RunSpec, 0, len(cfgs)*len(names))
	for _, cfg := range cfgs {
		for _, n := range names {
			specs = append(specs, RunSpec{Cfg: cfg, Bench: n})
		}
	}
	return specs
}

// perBenchmark runs every benchmark under cfg (submitting the whole suite
// to the pool at once) and invokes get to extract one row of values; INT,
// FP and Spec95 aggregate rows (arithmetic means, matching the paper's
// bar charts) are appended. get is called sequentially in presentation
// order, so it need not be safe for concurrent use.
func (r *Runner) perBenchmark(cfg config.Config, get func(*stats.Sim) []float64) ([]Row, error) {
	names := workload.Names()
	sims, err := r.RunAll(suiteSpecs(cfg))
	if err != nil {
		return nil, err
	}
	var rows []Row
	var intAgg, fpAgg, allAgg [][]float64
	for i, name := range names {
		vals := get(sims[i])
		rows = append(rows, Row{Name: name, Cells: vals})
		b, _ := workload.Get(name)
		if b.FP {
			fpAgg = append(fpAgg, vals)
		} else {
			intAgg = append(intAgg, vals)
		}
		allAgg = append(allAgg, vals)
	}
	return appendAggregates(rows, intAgg, fpAgg, allAgg), nil
}

// appendAggregates appends the INT / FP / Spec95 mean rows. A benchmark
// class with no members contributes no row at all: meanRows(nil) is nil,
// and a named row with nil cells would make downstream consumers
// (sweepTable's Cells[0], Table.Render) index past the slice.
func appendAggregates(rows []Row, intAgg, fpAgg, allAgg [][]float64) []Row {
	for _, agg := range []struct {
		name string
		vals [][]float64
	}{{"INT", intAgg}, {"FP", fpAgg}, {"Spec95", allAgg}} {
		if len(agg.vals) == 0 {
			continue
		}
		rows = append(rows, Row{Name: agg.name, Cells: meanRows(agg.vals)})
	}
	return rows
}

func meanRows(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for _, r := range rows {
		for i, v := range r {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(rows))
	}
	return out
}
