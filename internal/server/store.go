package server

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"specvec/internal/experiments"
	"specvec/internal/obs"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// traceCache holds decoded benchmark recordings across jobs: an LRU
// bounded by entry count (recordings are the big artifacts — SizeBytes of
// a full-scale trace runs to megabytes) with optional disk persistence of
// the encoded form. Entries are keyed by benchmark plus the effective
// (scale, seed) scope and, for a generated workload,
// its definition digest, so a runner never sees a recording made under
// different options or of a different program (the
// experiments.TraceStore contract). One traceCache serves every scope;
// scopedTraces is the per-job view handed to a Runner.
type traceCache struct {
	maxEntries int
	dir        string // "" = memory only

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	loads, diskLoads, stores, evictions *obs.Counter
}

type traceEntry struct {
	key string
	tr  *trace.Trace
}

func newTraceCache(maxEntries int, dir string) *traceCache {
	if maxEntries <= 0 {
		maxEntries = 16
	}
	return &traceCache{
		maxEntries: maxEntries,
		dir:        dir,
		entries:    map[string]*list.Element{},
		order:      list.New(),
		loads:      obs.NewCounter("sdvd_trace_store_loads_total"),
		diskLoads:  obs.NewCounter("sdvd_trace_store_disk_loads_total"),
		stores:     obs.NewCounter("sdvd_trace_store_stores_total"),
		evictions:  obs.NewCounter("sdvd_trace_store_evictions_total"),
	}
}

func (tc *traceCache) lookup(key string) (*trace.Trace, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	el, ok := tc.entries[key]
	if !ok {
		return nil, false
	}
	tc.order.MoveToFront(el)
	return el.Value.(*traceEntry).tr, true
}

func (tc *traceCache) put(key string, tr *trace.Trace) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if el, ok := tc.entries[key]; ok {
		el.Value.(*traceEntry).tr = tr
		tc.order.MoveToFront(el)
		return
	}
	tc.entries[key] = tc.order.PushFront(&traceEntry{key: key, tr: tr})
	for tc.order.Len() > tc.maxEntries {
		tail := tc.order.Back()
		e := tail.Value.(*traceEntry)
		tc.order.Remove(tail)
		delete(tc.entries, e.key)
		tc.evictions.Add(1)
	}
}

func (tc *traceCache) diskPath(key string) string {
	return filepath.Join(tc.dir, "traces", key+".sdvt")
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

// forOptions returns the store view a Runner built with o may use. o must
// already have its defaults resolved (Options.WithDefaults) so the scope
// reflects the effective scale and seed, and must carry the Runner's
// workload resolver, through which key finds generated definitions.
func (tc *traceCache) forOptions(o experiments.Options) experiments.TraceStore {
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

// Load implements experiments.TraceStore: memory first, then the disk
// tier (promoting a disk hit to memory). A file the trace codec rejects
// (checksum mismatch, truncation) is a miss and is removed, so the next
// recording of the benchmark replaces it.
func (s scopedTraces) Load(bench string) (*trace.Trace, bool) {
	key := s.key(bench)
	if tr, ok := s.tc.lookup(key); ok {
		s.tc.loads.Add(1)
		return tr, true
	}
	if s.tc.dir == "" {
		return nil, false
	}
	path := s.tc.diskPath(key)
	tr, err := trace.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			_ = os.Remove(path) // best effort: a file that stays is re-verified, never served
		}
		return nil, false
	}
	s.tc.diskLoads.Add(1)
	s.tc.put(key, tr)
	return tr, true
}

// Store implements experiments.TraceStore, best effort on the disk tier.
func (s scopedTraces) Store(bench string, tr *trace.Trace) {
	key := s.key(bench)
	s.tc.put(key, tr)
	s.tc.stores.Add(1)
	if s.tc.dir == "" {
		return
	}
	_ = writeDurable(s.tc.diskPath(key), tr.Encode)
}
