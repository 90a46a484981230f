package server

import (
	"context"
	"time"

	"specvec/internal/obs"
	"specvec/internal/profile"
)

// serverMetrics holds the daemon's latency histograms. The counters and
// gauges live with the components that own them (scheduler, result
// cache, trace store) as obs types; this struct adds the timing
// families the span layer feeds, and buildRegistry assembles everything
// into one registry for /metrics.
type serverMetrics struct {
	// jobDuration is sdvd_job_duration_seconds{kind,phase}: phase
	// "total" is the job's wall time, the other phases are the root
	// span's direct children (queue-wait, compute).
	jobDuration *obs.HistogramVec
	// queueWait is sdvd_queue_wait_seconds: submission to worker pickup.
	queueWait *obs.Histogram
	// cacheLookup is sdvd_cache_lookup_seconds: one run's result-cache
	// check (memory, disk, or joining an in-flight computation) before
	// its simulation starts — one observation per run a job looks up.
	cacheLookup *obs.Histogram
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		jobDuration: obs.NewHistogramVec("sdvd_job_duration_seconds", []string{"kind", "phase"}, obs.DefaultLatencyBuckets),
		queueWait:   obs.NewHistogram("sdvd_queue_wait_seconds", obs.DefaultLatencyBuckets),
		cacheLookup: obs.NewHistogram("sdvd_cache_lookup_seconds", obs.DefaultLatencyBuckets),
	}
}

// runtimeGauges are the sdvd_go_* process gauges. They are sampled into
// the registry — once at construction and then by StartRuntimeSampler's
// ticker — rather than computed at scrape time, so a scrape never pays
// a runtime.ReadMemStats and the documented staleness bound is the
// sampling interval.
type runtimeGauges struct {
	goroutines *obs.Gauge
	heapAlloc  *obs.Gauge
	totalAlloc *obs.Gauge
	mallocs    *obs.Gauge
	frees      *obs.Gauge
	gcs        *obs.Gauge
}

func newRuntimeGauges() *runtimeGauges {
	return &runtimeGauges{
		goroutines: obs.NewGauge("sdvd_go_goroutines"),
		heapAlloc:  obs.NewGauge("sdvd_go_heap_alloc_bytes"),
		totalAlloc: obs.NewGauge("sdvd_go_total_alloc_bytes"),
		mallocs:    obs.NewGauge("sdvd_go_mallocs_total"),
		frees:      obs.NewGauge("sdvd_go_frees_total"),
		gcs:        obs.NewGauge("sdvd_go_gc_total"),
	}
}

// sample reads the Go runtime into the gauges.
func (g *runtimeGauges) sample() {
	rt := profile.ReadRuntime()
	g.goroutines.Set(int64(rt.Goroutines))
	g.heapAlloc.Set(int64(rt.HeapAllocBytes))
	g.totalAlloc.Set(int64(rt.TotalAllocBytes))
	g.mallocs.Set(int64(rt.Mallocs))
	g.frees.Set(int64(rt.Frees))
	g.gcs.Set(int64(rt.NumGC))
}

// runtimeSampleEvery is how often StartRuntimeSampler refreshes the
// runtime gauges: /metrics reports runtime state at most this stale.
const runtimeSampleEvery = 10 * time.Second

// StartRuntimeSampler refreshes the runtime gauges every
// runtimeSampleEvery until ctx is cancelled.
func (s *Server) StartRuntimeSampler(ctx context.Context) {
	go func() {
		t := time.NewTicker(runtimeSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.runtime.sample()
			}
		}
	}()
}

// buildRegistry assembles the /metrics registry. Registration order is
// render order and every pre-registry metric name is preserved
// byte-for-byte; the histogram families are appended after them.
func (s *Server) buildRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	sc := s.sched
	reg.Register(obs.NewFunc("sdvd_uptime_seconds", func() int64 {
		return int64(s.clock.Now().Sub(s.started).Seconds())
	}))
	reg.Register(
		sc.submitted, sc.completed, sc.failed, sc.cancelled, sc.running,
		obs.NewFunc("sdvd_jobs_queued", func() int64 { return int64(sc.QueueDepth()) }),
	)
	reg.Register(
		s.cache.served[SourceMemory], s.cache.served[SourceComputed], s.cache.served[SourceDisk],
		s.cache.served[SourceCoalesced], s.cache.evictions,
		obs.NewFunc("sdvd_cache_entries", func() int64 { return int64(s.cache.Len()) }),
		obs.NewFunc("sdvd_cache_bytes", s.cache.Bytes),
	)
	if s.traces != nil {
		tc := s.traces
		reg.Register(tc.served[SourceMemory], tc.served[SourceDisk], tc.served[SourceComputed], tc.evictions)
	}
	reg.Register(sc.sims, sc.recorded, sc.traceLoads)
	reg.Register(
		obs.NewFunc("sdvd_hotpath_uop_news_total", func() int64 { return int64(sc.hotStats().UopNews) }),
		obs.NewFunc("sdvd_hotpath_uop_recycles_total", func() int64 { return int64(sc.hotStats().UopRecycles) }),
		obs.NewFunc("sdvd_hotpath_vop_news_total", func() int64 { return int64(sc.hotStats().VopNews) }),
		obs.NewFunc("sdvd_hotpath_vop_recycles_total", func() int64 { return int64(sc.hotStats().VopRecycles) }),
	)
	reg.Register(
		s.runtime.goroutines, s.runtime.heapAlloc, s.runtime.totalAlloc,
		s.runtime.mallocs, s.runtime.frees, s.runtime.gcs,
	)
	m := sc.metrics
	reg.Register(m.jobDuration, m.queueWait, m.cacheLookup)
	return reg
}
