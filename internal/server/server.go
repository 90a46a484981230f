package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"specvec/internal/obs"
)

// Options configure a daemon instance. Zero values mean the documented
// defaults.
type Options struct {
	// CacheDir enables disk persistence of results and trace artifacts
	// under this directory ("" = memory only).
	CacheDir string
	// CacheEntries / CacheBytes bound the in-memory result LRU: one entry
	// per simulation run, bytes counted in encoded form (defaults 512
	// entries / 256 MiB).
	CacheEntries int
	CacheBytes   int64
	// TraceEntries bounds the in-memory trace artifact LRU (default 16 —
	// recordings are the big artifacts).
	TraceEntries int
	// QueueDepth bounds the job queue; submissions beyond it are rejected
	// with 503 (default 64).
	QueueDepth int
	// Jobs is the number of jobs executing concurrently (default 2).
	Jobs int
	// JobHistory bounds how many terminal jobs the registry retains
	// (default 512). Older ones are evicted — their ids answer 404, but
	// resubmitting renders them again from the cached runs.
	JobHistory int
	// SimWorkers bounds concurrent simulations per job (default
	// GOMAXPROCS).
	SimWorkers int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the sdvd daemon: the scheduler, the result cache and the
// HTTP API in front of them.
type Server struct {
	opts    Options
	cache   *Cache
	traces  *traceCache
	sched   *scheduler
	mux     http.Handler
	clock   obs.Clock
	started time.Time
	reg     *obs.Registry  // everything /metrics renders
	runtime *runtimeGauges // sdvd_go_* (sampled, not scrape-time)
}

// New assembles a Server from opts.
func New(opts Options) *Server {
	clock := obs.RealClock()
	s := &Server{
		opts:    opts,
		cache:   NewCache(opts.CacheEntries, opts.CacheBytes, opts.CacheDir),
		traces:  newTraceCache(opts.TraceEntries, opts.CacheDir),
		clock:   clock,
		started: clock.Now(),
		runtime: newRuntimeGauges(),
	}
	s.sched = newScheduler(opts.Jobs, opts.QueueDepth, opts.SimWorkers, opts.JobHistory, s.cache, s.traces, opts.Logf)
	s.runtime.sample() // a scrape before the sampler's first tick still sees real values
	s.reg = s.buildRegistry()
	s.mux = s.handler()
	return s
}

// Handler returns the daemon's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool; in-flight jobs abort.
func (s *Server) Close() { s.sched.Close() }

// ListenAndServe serves the API on addr until ctx is cancelled, then
// shuts down gracefully (draining handlers for up to 5 seconds) and
// closes the scheduler. The listener is bound before returning control
// to the serve loop, so callers that need the bound address should use
// Serve with their own listener.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve runs the API on ln with the lifecycle described at
// ListenAndServe.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if s.opts.Logf != nil {
		s.opts.Logf("sdvd serving on http://%s", ln.Addr())
	}
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	s.Close()
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}
