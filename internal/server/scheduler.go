package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"specvec/internal/experiments"
	"specvec/internal/obs"
	"specvec/internal/profile"
)

// ErrQueueFull rejects submissions when the bounded job queue is at
// capacity; clients should retry with backoff (the HTTP layer maps it to
// 503 + Retry-After).
var ErrQueueFull = errors.New("server: job queue full")

// ErrShutdown rejects submissions after Close.
var ErrShutdown = errors.New("server: shutting down")

// scheduler owns the bounded job queue and the worker pool that drains
// it. Each job executes on its own experiments.Runner (bounded to
// SimWorkers concurrent simulations) with its own cancellable context.
// Every run the job needs flows through the content-addressed cache, so
// a simulation shared by any jobs — concurrent or repeated — runs at
// most once, and a job whose runs are all cached is only a render.
type scheduler struct {
	cache   *Cache
	traces  *traceCache
	workers int // per-job simulation workers
	history int // terminal jobs retained in the registry
	logf    func(format string, args ...any)

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool // set by Close under mu; rejects further submissions
	jobs   map[string]*Job
	order  []string // submission order, for listing
	seq    int64
	// terminal counts the registry's terminal jobs that went through
	// prune, so pruning touches only the jobs it evicts.
	terminal int

	// clock times jobs (queue wait, phase spans); tests inject a manual
	// one. The obs counters below carry their final /metrics names and
	// are registered by Server.buildRegistry.
	clock     obs.Clock
	metrics   *serverMetrics
	timelines *obs.TimelineStore // completed job span trees

	submitted, completed, failed, cancelled *obs.Counter
	running                                 *obs.Gauge

	// Runner counters aggregated across every job.
	sims, recorded, traceLoads *obs.Counter
	hotMu                      sync.Mutex
	hot                        profile.HotStats
}

func newScheduler(jobWorkers, queueDepth, simWorkers, history int, cache *Cache, traces *traceCache, logf func(string, ...any)) *scheduler {
	if jobWorkers <= 0 {
		jobWorkers = 2
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	if simWorkers <= 0 {
		simWorkers = runtime.GOMAXPROCS(0)
	}
	if history <= 0 {
		history = 512
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &scheduler{
		cache:     cache,
		traces:    traces,
		workers:   simWorkers,
		history:   history,
		logf:      logf,
		baseCtx:   ctx,
		stop:      stop,
		queue:     make(chan *Job, queueDepth),
		jobs:      map[string]*Job{},
		clock:     obs.RealClock(),
		metrics:   newServerMetrics(),
		timelines: obs.NewTimelineStore(history),

		submitted: obs.NewCounter("sdvd_jobs_submitted_total"),
		completed: obs.NewCounter("sdvd_jobs_completed_total"),
		failed:    obs.NewCounter("sdvd_jobs_failed_total"),
		cancelled: obs.NewCounter("sdvd_jobs_cancelled_total"),
		running:   obs.NewGauge("sdvd_jobs_running"),

		sims:       obs.NewCounter("sdvd_sims_total"),
		recorded:   obs.NewCounter("sdvd_trace_recordings_total"),
		traceLoads: obs.NewCounter("sdvd_runner_trace_loads_total"),
	}
	for i := 0; i < jobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the workers. Queued jobs resolve as cancelled; the running
// ones abort through their contexts. The closed flag is flipped under
// the same mutex Submit enqueues under, and the queue is drained again
// after the workers exit, so no job can slip in unresolved — a ?wait=1
// client never blocks on a job nobody will run.
func (s *scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	for {
		select {
		case job := <-s.queue:
			job.finish(nil, SourceComputed, ErrShutdown, true)
		default:
			return
		}
	}
}

// Submit queues a normalized spec. tied, when non-nil, is a request
// context the job is additionally bound to (an abandoned synchronous
// request cancels its job). Returns ErrQueueFull when the queue is at
// capacity.
func (s *scheduler) Submit(spec JobSpec, tied context.Context) (*Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	job := newJob(id, spec)
	job.tied = tied
	// The job's trace opens at submission: the root span is the job's
	// whole lifetime and queue-wait measures submission to pickup.
	job.trace = obs.NewTrace(id, s.clock, "job")
	job.queueSpan = job.trace.Start(obs.RootSpan, "queue-wait")
	// The job's context exists from submission so cancelling a queued job
	// works; the worker that eventually picks it up observes the
	// already-cancelled context and resolves it without simulating.
	job.ctx, job.cancel = context.WithCancel(s.baseCtx)
	// Enqueue under the mutex: the send never blocks (bounded channel,
	// non-blocking select) and holding mu here is what makes Close's
	// closed-then-drain sequence airtight.
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		job.cancel() // release the context before dropping the job
		return nil, ErrQueueFull
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.submitted.Add(1)
	s.logf("job %s queued: %s", id, spec.Title())
	return job, nil
}

// Job returns a job by id.
func (s *scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *scheduler) QueueDepth() int { return len(s.queue) }

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case job := <-s.queue:
			s.run(job)
		case <-s.baseCtx.Done():
			// Drain whatever is left so queued jobs resolve instead of
			// dangling.
			for {
				select {
				case job := <-s.queue:
					job.finish(nil, SourceComputed, ErrShutdown, true)
				default:
					return
				}
			}
		}
	}
}

// run executes one job to a terminal state.
func (s *scheduler) run(job *Job) {
	ctx := job.ctx
	defer job.cancel()
	if job.tied != nil {
		// A job submitted synchronously dies with its request: when the
		// client abandons the wait, the simulations stop burning workers.
		stop := context.AfterFunc(job.tied, job.cancel)
		defer stop()
	}

	job.setRunning()
	s.running.Add(1)
	defer s.running.Add(-1)

	tr := job.trace
	tr.End(job.queueSpan)
	s.metrics.queueWait.Observe(tr.Duration(job.queueSpan).Seconds())

	// Every job renders: compute runs the spec on a Runner whose runs
	// come from the cache when it holds them (see jobRuns).
	runs := &jobRuns{cache: s.cache, lookup: s.metrics.cacheLookup}
	comp := tr.Start(obs.RootSpan, "compute")
	val, err := s.compute(obs.ContextWith(ctx, obs.SpanContext{T: tr, Span: comp}), job, runs)
	tr.End(comp)
	src := runs.source()

	cancelledErr := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	switch {
	case err == nil:
		s.completed.Add(1)
		s.logf("job %s %s (%s, %d bytes)", job.ID, StateDone, src, len(val))
	case cancelledErr:
		s.cancelled.Add(1)
		s.logf("job %s cancelled", job.ID)
	default:
		s.failed.Add(1)
		s.logf("job %s failed: %v", job.ID, err)
	}
	// The timeline is published before the job resolves: finish closes
	// job.done, which wakes synchronous submitters, and a client that
	// then GETs the timeline immediately must find it.
	state := StateDone
	switch {
	case cancelledErr:
		state = StateCancelled
	case err != nil:
		state = StateFailed
	}
	s.finishTimeline(job, state)
	// Prune between turning terminal and waking the waiters: a client
	// that lists the jobs as soon as its ?wait=1 returns must already
	// find the retention bound holding.
	resolved := job.resolve(val, src, err, cancelledErr)
	s.prune()
	job.wake(resolved)
}

// finishTimeline closes the job's trace, feeds the duration histograms
// and publishes the span tree to the timeline ring. The job then drops
// its trace: the published tree is the only form read from here on, and
// a retained job would otherwise keep its whole span array.
func (s *scheduler) finishTimeline(job *Job, state JobState) {
	tr := job.trace
	tr.Finish()
	kind := job.Spec.Kind
	s.metrics.jobDuration.With(kind, "total").Observe(tr.Duration(obs.RootSpan).Seconds())
	for _, sp := range tr.Snapshot() {
		if sp.Parent == obs.RootSpan && sp.End >= 0 {
			s.metrics.jobDuration.With(kind, sp.Name).Observe((sp.End - sp.Start).Seconds())
		}
	}
	s.timelines.Add(obs.NewTimeline(job.ID, kind, string(state), tr, s.clock.Now()))
	job.trace = nil
}

// prune counts one more job as terminal — run calls it once per job,
// after the job's state turns terminal — and evicts the oldest terminal
// jobs past the retention bound, so a long-running daemon's registry —
// jobs carry their result bytes and event history — stays bounded by
// history + queue depth + workers (queued and running jobs are never
// evicted). It runs before the job wakes its waiters, so it walks the
// registry only as far as the first terminal job in submission order,
// usually its head. Evicted job ids answer 404; resubmitting the spec
// renders the result again from cached runs.
func (s *scheduler) prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.terminal++
	for i := 0; s.terminal > s.history && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].State().Terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.terminal--
	}
}

// compute runs the spec on a fresh Runner, whose runs come from and go
// to the result cache through runs, and encodes the Result. The runner's
// counters fold into the scheduler aggregates even on failure.
func (s *scheduler) compute(ctx context.Context, job *Job, runs *jobRuns) ([]byte, error) {
	spec := job.Spec
	// A job carrying a workload-spec payload resolves its generated
	// workloads through a per-job resolver (runOptions), so concurrent
	// jobs with different spec files never observe each other's
	// definitions, and run and trace keys carry each definition's digest.
	opts, specFile, err := spec.runOptions()
	if err != nil {
		return nil, err
	}
	opts.Workers = s.workers
	opts.Context = ctx
	opts.Progress = job.progressHook
	opts.Results = runs
	if s.traces != nil {
		opts.Traces = s.traces.forOptions(opts)
	}
	runner := experiments.NewRunner(opts)
	defer s.collect(runner)

	res := Result{Spec: spec}
	switch spec.Kind {
	case KindExperiment:
		exp, err := experiments.Get(spec.Exp)
		if err != nil {
			return nil, err
		}
		tables, err := exp.Run(runner)
		if err != nil {
			return nil, err
		}
		res.Tables = tables
	case KindSim:
		cfg, err := configByName(spec.Config)
		if err != nil {
			return nil, err
		}
		st, err := runner.Run(cfg, spec.Workload)
		if err != nil {
			return nil, err
		}
		res.Stats = st
	case KindSweep:
		tables, err := experiments.SpecSweep(runner, specFile.Names())
		if err != nil {
			return nil, err
		}
		res.Tables = tables
	default:
		return nil, fmt.Errorf("server: unknown spec kind %q", spec.Kind)
	}
	return json.Marshal(res)
}

// collect folds a finished runner's counters into the scheduler
// aggregates (served at /metrics).
func (s *scheduler) collect(r *experiments.Runner) {
	s.sims.Add(r.Simulations())
	s.recorded.Add(r.TraceRecordings())
	s.traceLoads.Add(r.TraceLoads())
	s.hotMu.Lock()
	s.hot.Add(r.HotStats())
	s.hotMu.Unlock()
}

// hotStats returns the aggregated pipeline pool counters.
func (s *scheduler) hotStats() profile.HotStats {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	return s.hot
}
