// Command sdvd is the long-running simulation daemon: it serves the
// experiment/simulation engine over an HTTP JSON API with a bounded job
// scheduler, a content-addressed per-run result cache and streaming
// progress.
//
// Usage:
//
//	sdvd -addr 127.0.0.1:8077
//	sdvd -addr :8077 -cache-dir /var/lib/sdvd -jobs 4
//
// Submit work and read results:
//
//	curl -s localhost:8077/v1/experiments
//	curl -s -X POST localhost:8077/v1/jobs -d '{"exp":"fig11","scale":50000}'
//	curl -s localhost:8077/v1/jobs/j000001
//	curl -N localhost:8077/v1/jobs/j000001/events      # SSE progress
//	curl -s localhost:8077/metrics
//
// The existing CLI runs against a warm daemon with byte-identical
// output: sdvexp -exp fig11 -server http://localhost:8077.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"specvec/internal/cliutil"
	"specvec/internal/server"
	"specvec/internal/wspec"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8077", "listen address")
		cacheDir      = flag.String("cache-dir", "", "persist results and trace artifacts under this directory (empty = memory only)")
		cacheEntries  = flag.Int("cache-entries", 512, "in-memory result cache entry bound (one entry per simulation run)")
		cacheBytes    = flag.Int64("cache-bytes", 256<<20, "in-memory result cache bound on encoded bytes")
		traceEntries  = flag.Int("trace-entries", 16, "in-memory trace artifact cache entry bound")
		queueDepth    = flag.Int("queue", 64, "job queue depth (submissions beyond it get 503)")
		jobs          = flag.Int("jobs", 2, "jobs executing concurrently")
		jobHistory    = flag.Int("job-history", 512, "terminal jobs retained in the registry (older ids answer 404; their runs stay in the cache)")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations per job (0 = all cores)")
		specArg       = flag.String("spec", "", "workload-spec file(s) (YAML/JSON, comma-separated): register their generated workloads for /v1/workloads discovery and by-name sim jobs")
		quiet         = flag.Bool("quiet", false, "suppress operational logging")
		coordinator   = flag.Bool("coordinator", false, "accept cluster workers (-join) and place replay work across them; results stay byte-identical to a single process")
		workerRole    = flag.Bool("worker", false, "join a coordinator (-join) and execute shards for it")
		joinURL       = flag.String("join", "", "coordinator base URL a -worker registers with (e.g. http://127.0.0.1:8077)")
		advertise     = flag.String("advertise", "", "URL a -worker advertises to the coordinator (default: derived from -addr)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (opt-in; empty = disabled)")
		metricsSample = flag.Duration("metrics-sample", 10*time.Second, "how often the sdvd_go_* runtime gauges are refreshed; /metrics reports them at most one interval stale")
	)
	flag.Parse()

	if *specArg != "" {
		paths, err := cliutil.SplitSpecPaths(*specArg)
		if err != nil {
			cliutil.Fatal("sdvd", err)
		}
		for _, p := range paths {
			if _, err := wspec.LoadAndRegister(p); err != nil {
				cliutil.Fatal("sdvd", err)
			}
		}
	}

	for _, f := range []struct {
		name string
		v    int
		min  int
	}{
		{"cache-entries", *cacheEntries, 1},
		{"trace-entries", *traceEntries, 1},
		{"queue", *queueDepth, 1},
		{"jobs", *jobs, 1},
		{"job-history", *jobHistory, 1},
		{"workers", *workers, 0},
	} {
		if f.v < f.min {
			cliutil.Fatal("sdvd", cliutil.FlagError(f.name, f.v, ">= "+strconv.Itoa(f.min)))
		}
	}
	if *cacheBytes < 1 {
		cliutil.Fatal("sdvd", cliutil.FlagError("cache-bytes", *cacheBytes, ">= 1"))
	}
	if err := cliutil.ValidateClusterFlags(*coordinator, *workerRole, *joinURL, *advertise); err != nil {
		cliutil.Fatal("sdvd", err)
	}
	if *pprofAddr != "" {
		if err := cliutil.ValidateListenAddr("pprof", *pprofAddr); err != nil {
			cliutil.Fatal("sdvd", err)
		}
	}
	if *metricsSample <= 0 {
		cliutil.Fatal("sdvd", cliutil.FlagError("metrics-sample", *metricsSample, "> 0"))
	}

	logf := log.New(os.Stderr, "sdvd: ", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	srv := server.New(server.Options{
		CacheDir:     *cacheDir,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		TraceEntries: *traceEntries,
		QueueDepth:   *queueDepth,
		Jobs:         *jobs,
		JobHistory:   *jobHistory,
		SimWorkers:   *workers,
		Logf:         logf,
		Coordinator:  *coordinator,
		Worker:       *workerRole,
		JoinURL:      *joinURL,
		AdvertiseURL: *advertise,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.StartRuntimeSampler(ctx, *metricsSample)
	if *pprofAddr != "" {
		// Profiling binds its own listener so the API surface never carries
		// /debug/pprof by accident; failures are fatal (an explicitly
		// requested profiler that silently isn't there is worse than an
		// early exit).
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			cliutil.Fatal("sdvd", err)
		}
		if logf != nil {
			logf("pprof serving on http://%s/debug/pprof/", ln.Addr())
		}
		go func() { _ = http.Serve(ln, server.PprofHandler()) }()
	}
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		cliutil.Fatal("sdvd", err)
	}
}
