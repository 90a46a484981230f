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
	// Shards splits every (configuration, benchmark) simulation into this
	// many measured intervals, each fast-forwarded to a trace checkpoint
	// and dispatched to the worker pool, with per-interval statistics
	// merged in a fixed order. <= 1 is exact mode: one interval covering
	// the whole run. Sharded (K > 1) figures agree with exact ones within
	// the warmup tolerance (see ShardWarmup); a single large benchmark
	// stops being a sequential wall because its intervals run
	// concurrently.
	Shards int
	// CheckpointEvery is the interval, in committed instructions, between
	// architectural checkpoints embedded in recorded traces. <= 0
	// defaults to twice ShardWarmup when sharding is enabled — spacing is
	// warmup-relative, not Scale-relative, so the duplicated warmup work
	// per shard stays small — and records no checkpoints otherwise.
	CheckpointEvery int
	// ShardWarmup is the minimum number of instructions a shard replays
	// before its measured interval begins, re-warming caches, the branch
	// predictor and the SDV structures from the restored boundary. <= 0
	// defaults to DefaultShardWarmup when sharding is enabled.
	ShardWarmup int
	// Context, when non-nil, cancels the runner: in-flight simulations
	// abort within a few thousand cycles, queued work is not started, and
	// Run/RunAll return the context's error. The service layer hands each
	// job its own context so abandoned requests stop burning workers. A
	// memo entry whose run was cancelled is evicted, so cancellation never
	// poisons the cache for a later requester. Results are unaffected: a
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
	// Runner instances (see TraceStore). A leader checks the store before
	// recording and publishes successful recordings back to it.
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
	// Remote, when non-nil, executes every replay interval — whole runs
	// and shards alike — on cluster workers (see RemoteShards) instead of
	// the local pool. Recording stays local. Execution shape only: replay
	// is deterministic, so results are byte-identical with and without
	// it, at any worker count, and across worker failures (the executor
	// requeues a dead node's tasks).
	//
	//sdv:shape
	Remote RemoteShards
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Scale: 300_000, Seed: 1, Workers: runtime.GOMAXPROCS(0)}
}

// WithDefaults returns o with every defaulted field resolved — the exact
// options a Runner built from o will report via Opts(). The service layer
// uses it to scope trace artifact stores by effective (scale, seed,
// checkpoint spacing) before the Runner exists.
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
	if o.Shards > 1 {
		if o.ShardWarmup <= 0 {
			o.ShardWarmup = DefaultShardWarmup
		}
		if o.CheckpointEvery <= 0 {
			// A shard's warmup is ShardWarmup plus up to one checkpoint
			// interval of slack (it fast-forwards to the latest boundary at
			// least ShardWarmup before its interval), so checkpoints are
			// spaced relative to the warmup — not the interval — to keep
			// the duplicated work per shard small.
			o.CheckpointEvery = max(1024, 2*o.ShardWarmup)
		}
	}
	return o
}

// RunSpec names one (configuration, benchmark) simulation.
type RunSpec struct {
	Cfg   config.Config
	Bench string
}

// call is one memoised simulation. The first requester of a key becomes
// the leader and computes; every later requester blocks on done and
// shares the leader's result (singleflight), so experiments that overlap
// (e.g. Figures 11 and 12) pay for each run once even when submitted
// concurrently.
type call struct {
	done chan struct{}
	st   *stats.Sim
	err  error
}

// traceCall is one memoised (benchmark, scale, seed) recording, shared by
// every configuration that simulates the benchmark and by the stream
// pass. Exactly one of tr and err is set once done is closed.
type traceCall struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// ErrRecordingUnusable marks a benchmark whose program was built but whose
// recording failed: every run of the benchmark fails with it, since every
// run replays the recording.
var ErrRecordingUnusable = errors.New("experiments: benchmark recording unusable")

// Runner executes (configuration, benchmark) pairs on a bounded worker
// pool with two memo layers: per-run statistics keyed by RunKey (backed
// by Options.Results when set), and per-benchmark recorded traces shared
// across every configuration of a sweep (backed by Options.Traces). It is
// safe for concurrent use by multiple goroutines.
type Runner struct {
	opts Options
	ctx  context.Context // Options.Context or Background; never nil
	sem  chan struct{}   // the worker pool: one token per executing pass (see slot)

	mu     sync.Mutex
	cache  map[string]*call // by RunKey
	traces map[string]*traceCall

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
		cache:  map[string]*call{},
		traces: map[string]*traceCall{},
	}
}

// emit delivers a progress event to Options.Progress, if any.
func (r *Runner) emit(ev ProgressEvent) {
	if r.opts.Progress != nil {
		r.opts.Progress(ev)
	}
}

// cancelled reports whether err is a context cancellation (the runner's
// own or a deadline).
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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

// TraceRecordings returns how many benchmark traces have been recorded
// (at most one per benchmark).
func (r *Runner) TraceRecordings() int64 { return r.recorded.Load() }

// TraceLoads returns how many benchmark traces were served by
// Options.Traces instead of being recorded.
func (r *Runner) TraceLoads() int64 { return r.loaded.Load() }

// Run simulates benchmark bench under cfg and returns its statistics.
// Results are memoised on RunKey; an in-flight run for the same key is
// joined rather than duplicated.
func (r *Runner) Run(cfg config.Config, bench string) (*stats.Sim, error) {
	key := RunKey(r.opts, cfg, bench)
	r.mu.Lock()
	if c, ok := r.cache[key]; ok {
		r.mu.Unlock()
		select {
		case <-c.done:
		case <-r.ctx.Done():
			return nil, r.ctx.Err()
		}
		r.emit(ProgressEvent{Kind: RunDone, Cfg: cfg.Name, Bench: bench, Cached: true, Err: c.err})
		return c.st, c.err
	}
	c := &call{done: make(chan struct{})}
	r.cache[key] = c
	r.mu.Unlock()

	stored := false
	if err := r.ctx.Err(); err != nil {
		// A cancelled runner must not start new simulations.
		c.err = err
	} else {
		c.st, stored, c.err = r.result(cfg, bench, key)
	}
	if c.err != nil && cancelled(c.err) {
		// A cancelled run must not poison the memo: evict the entry before
		// waking followers so the next requester (with a live context)
		// recomputes. Followers already waiting still observe the error.
		r.mu.Lock()
		if r.cache[key] == c {
			delete(r.cache, key)
		}
		r.mu.Unlock()
	}
	close(c.done)
	r.emit(ProgressEvent{Kind: RunDone, Cfg: cfg.Name, Bench: bench, Cached: stored, Err: c.err})
	return c.st, c.err
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
// one: get the benchmark's recording, plan Shards intervals over it,
// execute every interval, merge the statistics in plan order. run is the
// run's span.
func (r *Runner) simulate(cfg config.Config, bench string, run obs.SpanContext) (*stats.Sim, error) {
	r.sims.Add(1)
	r.emit(ProgressEvent{Kind: RunStarted, Cfg: cfg.Name, Bench: bench, Target: uint64(r.opts.Scale)})
	tr, err := r.recording(bench, run)
	var st *stats.Sim
	if err == nil {
		plan := shardPlan(tr, uint64(r.opts.Scale), r.opts.Shards, uint64(r.opts.ShardWarmup))
		st, err = r.execute(cfg, bench, tr, plan, run)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", cfg.Name, bench, err)
	}
	return st, nil
}

// slot runs fn on one worker-pool slot. It is the pool's only point of
// acquisition, and its callers — a recording pass, a local interval, a
// stream walk — never call anything from fn that takes another slot, so
// no goroutine waits for a slot while holding one (which at Workers: 1
// would deadlock). A run waiting for its recording holds none.
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
// every run and the stream pass get their input. The first requester
// leads — it loads the recording from Options.Traces or records it with
// a functional pass — and every later requester waits for the leader,
// holding no pool slot. sc, when active, receives the leader's
// "trace-load" and "record" spans.
func (r *Runner) recording(bench string, sc obs.SpanContext) (*trace.Trace, error) {
	r.mu.Lock()
	tc, ok := r.traces[bench]
	if !ok {
		tc = &traceCall{done: make(chan struct{})}
		r.traces[bench] = tc
	}
	r.mu.Unlock()
	if !ok {
		r.lead(bench, tc, sc)
	}
	select {
	case <-tc.done:
	case <-r.ctx.Done():
		return nil, r.ctx.Err()
	}
	return tc.tr, tc.err
}

// lead resolves a new trace entry: from Options.Traces when it holds a
// usable recording, from a fresh functional recording otherwise. A
// cancelled recording evicts the entry, so cancellation never sticks to
// the benchmark for a later requester.
func (r *Runner) lead(bench string, tc *traceCall, sc obs.SpanContext) {
	if r.opts.Traces != nil {
		load := sc.Start("trace-load")
		tr, ok := r.loadStoredTrace(bench)
		load.End()
		if ok {
			tc.tr = tr
			r.loaded.Add(1)
			close(tc.done)
			return
		}
	}
	tr, err := r.record(bench, sc)
	if cancelled(err) {
		r.mu.Lock()
		if r.traces[bench] == tc {
			delete(r.traces, bench)
		}
		r.mu.Unlock()
	}
	r.publishTrace(tc, bench, tr, err)
}

// record builds bench's program and records its dynamic stream with a
// pure functional pass (no timing simulation) on one pool slot,
// embedding checkpoints when the runner is configured for them.
func (r *Runner) record(bench string, sc obs.SpanContext) (*trace.Trace, error) {
	var tr *trace.Trace
	err := r.slot(func() error {
		rsc := sc.StartRun("record", "", bench)
		defer rsc.End()
		b, err := r.opts.Resolve(bench)
		if err != nil {
			return err
		}
		prog := b.Build(r.opts.Scale, r.opts.Seed)
		mach, err := emu.New(prog)
		if err != nil {
			return err
		}
		rec, err := trace.NewRecorder(mach, prog, 0)
		if err == nil && r.opts.CheckpointEvery > 0 {
			err = rec.EnableCheckpoints(r.opts.CheckpointEvery)
		}
		if err == nil {
			rec.SetContext(r.ctx)
			rec.Reserve(r.recordTarget())
			tr, err = rec.Finish(r.recordTarget())
		}
		if err != nil && !cancelled(err) {
			return fmt.Errorf("%w: %v", ErrRecordingUnusable, err)
		}
		return err
	})
	return tr, err
}

// publishTrace resolves a leader's trace entry and wakes the followers.
// An entry without a trace must carry the reason: a nil trace published
// with a nil error would leave followers replaying nothing, so such a
// call is coerced to ErrRecordingUnusable. A freshly recorded trace is
// persisted to Options.Traces, if configured — after the followers are
// woken: the store's disk tier encodes and writes megabytes, and the
// in-memory trace is already complete, so the sweep's critical path must
// not wait out the persistence of an optimisation.
func (r *Runner) publishTrace(tc *traceCall, bench string, tr *trace.Trace, err error) {
	if tr == nil && err == nil {
		err = ErrRecordingUnusable
	}
	tc.tr, tc.err = tr, err
	if tr != nil {
		r.recorded.Add(1)
	}
	close(tc.done)
	if tr != nil && r.opts.Traces != nil {
		r.opts.Traces.Store(bench, tr)
	}
}

// loadStoredTrace asks Options.Traces for a usable recording of bench: it
// must cover this runner's record target (or end in a halt) and, for
// sharded runs, carry checkpoints to fast-forward to. An unusable stored
// trace is ignored — the leader records afresh.
func (r *Runner) loadStoredTrace(bench string) (*trace.Trace, bool) {
	tr, ok := r.opts.Traces.Load(bench)
	if !ok || tr == nil {
		return nil, false
	}
	if !tr.Halted() && tr.Len() < r.recordTarget() {
		return nil, false
	}
	if r.opts.Shards > 1 && len(tr.Checkpoints()) == 0 {
		return nil, false
	}
	return tr, true
}

// execute hands every interval of plan to the executor —
// Options.Remote.RunShard when set, a local pool slot otherwise — and
// merges the statistics in plan order, so scheduling never shows through.
// sc, when active, receives a "shard-fanout" span with one "shard" child
// per interval (a remote executor grafts its worker's spans under it)
// and a "merge" span.
func (r *Runner) execute(cfg config.Config, bench string, tr *trace.Trace, plan []shardSpec, sc obs.SpanContext) (*stats.Sim, error) {
	results := make([]*stats.Sim, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	var finished atomic.Int32
	fan := sc.Start("shard-fanout")
	for i, sp := range plan {
		wg.Add(1)
		go func(i int, sp shardSpec) {
			defer wg.Done()
			tsc := fan.Start("shard")
			defer tsc.End()
			if r.opts.Remote != nil {
				task := ShardTask{
					Cfg: cfg, Bench: bench,
					ReplayFrom: sp.replayFrom, BHR: sp.bhr, SeedBHR: sp.seedBHR,
					Warmup: sp.warmup, Measure: sp.measure,
				}
				results[i], errs[i] = r.opts.Remote.RunShard(obs.ContextWith(r.ctx, tsc), task, tr)
			} else {
				results[i], errs[i] = r.runLocal(cfg, bench, tr, sp, len(plan) == 1)
			}
			if errs[i] == nil && len(plan) > 1 {
				r.emit(ProgressEvent{Kind: ShardDone, Cfg: cfg.Name, Bench: bench,
					Shard: int(finished.Add(1)), Shards: len(plan)})
			}
		}(i, sp)
	}
	wg.Wait()
	fan.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merge := sc.Start("merge")
	defer merge.End()
	merged := results[0]
	for _, st := range results[1:] {
		merged.Merge(st)
	}
	return merged, nil
}

// runLocal executes one interval on a pool slot. A whole run (a
// one-interval plan) reports RunProgress events as it commits; the
// intervals of a sharded run report ShardDone instead (see execute).
func (r *Runner) runLocal(cfg config.Config, bench string, tr *trace.Trace, sp shardSpec, whole bool) (*stats.Sim, error) {
	var prepare func(*pipeline.Simulator)
	if whole && r.opts.Progress != nil {
		target := uint64(r.opts.Scale)
		prepare = func(sim *pipeline.Simulator) {
			sim.SetProgress(r.progressStride(), func(committed uint64) {
				r.emit(ProgressEvent{Kind: RunProgress, Cfg: cfg.Name, Bench: bench,
					Committed: committed, Target: target})
			})
		}
	}
	var st *stats.Sim
	err := r.slot(func() error {
		var hot profile.HotStats
		var err error
		st, hot, err = runShard(r.ctx, cfg, bench, tr, sp, prepare)
		r.collectHot(hot)
		return err
	})
	return st, err
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
// flight.
func (r *Runner) RunAll(specs []RunSpec) ([]*stats.Sim, error) {
	out := make([]*stats.Sim, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s RunSpec) {
			defer wg.Done()
			out[i], errs[i] = r.Run(s.Cfg, s.Bench)
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
// through their own context polling.
func (r *Runner) Prefetch(specs []RunSpec) {
	if len(specs) == 0 {
		return
	}
	specs = append([]RunSpec(nil), specs...)
	next := new(atomic.Int64)
	for n := min(len(specs), r.opts.Workers); n > 0; n-- {
		go func() {
			for r.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				_, _ = r.Run(specs[i].Cfg, specs[i].Bench)
			}
		}()
	}
}

// each runs fn(0..n-1) concurrently and returns the first error in index
// order. It is used for per-benchmark work that does not go through the
// simulation cache (the stream pass of VecLen); fn takes pool slots
// through the runner's own entry points (recording, slot), so the work
// shares the simulations' concurrency bound.
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
