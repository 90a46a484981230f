package server

import (
	"context"
	"fmt"

	"specvec/internal/experiments"
	"specvec/internal/obs"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// traceCache is the daemon's recording tier: decoded benchmark
// recordings shared across jobs, in an LRU bounded by entry count only
// (recordings are the big artifacts — SizeBytes of a full-scale trace
// runs to megabytes), persisted in the trace codec, whose checksum makes
// every file verify itself. Entries are keyed by benchmark plus the
// effective (scale, seed) scope and, for a generated workload, its
// definition digest, so a runner never sees a recording made under
// different options or of a different program (the
// experiments.TraceStore contract). One traceCache serves every scope;
// scopedTraces is the per-job view handed to a Runner.
type traceCache = tier[*trace.Trace]

// traceCodec persists a recording in the trace codec.
var traceCodec = codec[*trace.Trace]{sub: "traces", ext: ".sdvt", write: (*trace.Trace).Encode, read: trace.ReadFile}

func newTraceCache(maxEntries int, dir string) *traceCache {
	if maxEntries <= 0 {
		maxEntries = 16
	}
	tc := newTier(traceCodec, maxEntries, 0, dir)
	tc.served[SourceMemory] = obs.NewCounter("sdvd_trace_store_loads_total")
	tc.served[SourceDisk] = obs.NewCounter("sdvd_trace_store_disk_loads_total")
	tc.served[SourceComputed] = obs.NewCounter("sdvd_trace_store_stores_total")
	tc.evictions = obs.NewCounter("sdvd_trace_store_evictions_total")
	return tc
}

// scope renders the option pair a recording is only valid under.
//
//sdv:cachekey
func traceScope(o experiments.Options) string {
	return fmt.Sprintf("s%d-d%d", o.Scale, o.Seed)
}

// scopedTraces is the experiments.TraceStore view of a traceCache for one
// effective option set.
type scopedTraces struct {
	tc      *traceCache
	scope   string
	resolve func(bench string) (workload.Benchmark, error) // the Runner's resolver
}

// scopeTraces returns the store view a Runner built with o may use. o
// must already have its defaults resolved (Options.WithDefaults) so the
// scope reflects the effective scale and seed, and must carry the
// Runner's workload resolver, through which key finds generated
// definitions.
func scopeTraces(tc *traceCache, o experiments.Options) experiments.TraceStore {
	return scopedTraces{tc: tc, scope: traceScope(o), resolve: o.Resolve}
}

// key names bench's recording: the benchmark, the option scope and, for
// a generated workload, the digest of its definition — a name
// redefined by a job payload or a -spec file is a different recording.
//
//sdv:cachekey
func (s scopedTraces) key(bench string) string {
	key := bench + "-" + s.scope
	if b, err := s.resolve(bench); err == nil && b.Digest != "" {
		key += "-" + b.Digest
	}
	return key
}

// GetOrCompute implements experiments.TraceStore: concurrent jobs
// needing one recording make it once.
func (s scopedTraces) GetOrCompute(ctx context.Context, bench string, record func() (*trace.Trace, error)) (*trace.Trace, error) {
	tr, _, err := s.tc.getOrCompute(ctx, s.key(bench), record)
	return tr, err
}
