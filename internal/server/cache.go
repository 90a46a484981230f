package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"specvec/internal/obs"
	"specvec/internal/stats"
)

// Source says where the cache found a value.
type Source int

const (
	// SourceComputed: this call ran the compute function (a true miss).
	SourceComputed Source = iota
	// SourceMemory: served from the in-memory LRU.
	SourceMemory
	// SourceDisk: served from the persistence directory (and promoted to
	// memory).
	SourceDisk
	// SourceCoalesced: joined an identical in-flight computation
	// (singleflight) and shared its result.
	SourceCoalesced
)

// String names the source for job views and metrics.
func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourceCoalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// Hit reports whether the value was served without computing.
func (s Source) Hit() bool { return s != SourceComputed }

// Cache is the daemon's content-addressed result store: an in-memory LRU
// bounded by entry count and total encoded bytes, singleflight
// deduplication of identical in-flight computations, and optional disk
// persistence (one self-verifying file per key; the disk tier survives
// restarts and is not bounded by the memory limits). The scheduler keeps
// one statistics entry per simulation run in it (GetOrComputeRun, keyed
// by experiments.RunKey), so every job on the daemon shares every run.
// Safe for concurrent use.
type Cache struct {
	maxEntries int
	maxBytes   int64
	dir        string // "" = memory only

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> element in order
	order    *list.List               // front = most recently used
	bytes    int64
	inflight map[string]*flight

	// obs counters carrying their final /metrics names; registered by
	// Server.buildRegistry.
	hits, misses, diskHits, coalesced, evictions *obs.Counter
}

// value is one cached run: its encoding — the disk form, and what the
// byte bound counts — and the decoded statistics that every memory hit
// shares without decoding. Neither is ever mutated.
type value struct {
	enc []byte
	sim *stats.Sim
}

type cacheEntry struct {
	key string
	val value
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	val  value
	err  error
}

// NewCache returns a cache bounded to maxEntries values and maxBytes
// total encoded size (<= 0 for the defaults: 512 entries, which hold the
// 348 distinct runs of one sdvexp -exp all sweep without eviction, and
// 256 MiB). dir enables disk persistence when non-empty; it is created
// on first write.
func NewCache(maxEntries int, maxBytes int64, dir string) *Cache {
	if maxEntries <= 0 {
		maxEntries = 512
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		dir:        dir,
		entries:    map[string]*list.Element{},
		order:      list.New(),
		inflight:   map[string]*flight{},
		hits:       obs.NewCounter("sdvd_cache_hits_total"),
		misses:     obs.NewCounter("sdvd_cache_misses_total"),
		diskHits:   obs.NewCounter("sdvd_cache_disk_hits_total"),
		coalesced:  obs.NewCounter("sdvd_cache_coalesced_total"),
		evictions:  obs.NewCounter("sdvd_cache_evictions_total"),
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the total encoded size of the in-memory entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counters returns the lifetime hit/miss/disk/coalesced/eviction counts.
func (c *Cache) Counters() (hits, misses, diskHits, coalesced, evictions int64) {
	return c.hits.Value(), c.misses.Value(), c.diskHits.Value(), c.coalesced.Value(), c.evictions.Value()
}

// lookup returns the in-memory value for key, refreshing its recency.
func (c *Cache) lookup(key string) (value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return value{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts val under key and evicts from the LRU tail until both
// bounds hold. A value larger than maxBytes is not cached at all (it
// would evict everything and still not fit).
func (c *Cache) put(key string, val value) {
	if int64(len(val.enc)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.bytes += int64(len(val.enc)) - int64(len(el.Value.(*cacheEntry).val.enc))
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val.enc))
	}
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.order.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val.enc))
		c.evictions.Add(1)
	}
}

// diskPath maps a key to its persistence file. A file holds the SHA-256
// of the value followed by the value, so every entry verifies itself.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, "results", key+".res")
}

// loadDisk reads a persisted value, if the disk tier is enabled. A file
// too short to hold its digest, or whose value does not match it (a torn
// write, bit rot), is a miss and is removed, so the next computation of
// the key writes it afresh.
func (c *Cache) loadDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.diskPath(key)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(b) < sha256.Size || sha256.Sum256(b[sha256.Size:]) != [sha256.Size]byte(b[:sha256.Size]) {
		_ = os.Remove(path) // best effort: a file that stays is re-verified, never served
		return nil, false
	}
	return b[sha256.Size:], true
}

// storeDisk persists a value behind its digest, best effort (an
// unwritable directory degrades to memory-only caching rather than
// failing the job).
func (c *Cache) storeDisk(key string, val []byte) {
	if c.dir == "" {
		return
	}
	sum := sha256.Sum256(val)
	_ = writeDurable(c.diskPath(key), func(w io.Writer) error {
		_, err := w.Write(append(sum[:], val...))
		return err
	})
}

// writeDurable publishes a disk-tier file: write a temporary file next to
// path, fsync it, rename it over path, fsync the directory. Readers never
// see a torn file (the rename is atomic), and once writeDurable returns
// the entry survives a crash or power loss. Both disk tiers write through
// it.
func writeDurable(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write error is the one worth surfacing
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// errFlightAbandoned marks a singleflight whose leader was cancelled; a
// follower with a live context retries the computation itself.
var errFlightAbandoned = errors.New("server: in-flight computation abandoned")

// GetOrComputeRun returns one run's statistics under key (an
// experiments.RunKey), from (in order) the in-memory LRU, the disk tier,
// an identical in-flight computation, or by running compute. A memory
// hit returns the shared, decoded statistics, which callers must not
// mutate. The disk tier holds their stats.Sim JSON, decoded once when a
// disk hit is promoted to memory; a file that does not decode is a miss
// and is removed. A computed result is encoded once, for the byte bound
// and the disk tier.
//
// Concurrent calls for the same key run compute once (singleflight);
// followers share the leader's result. A leader whose compute fails
// caches nothing. If the leader is cancelled, waiting followers whose own
// context is still live retry the computation instead of inheriting the
// cancellation.
func (c *Cache) GetOrComputeRun(ctx context.Context, key string, compute func() (*stats.Sim, error)) (*stats.Sim, Source, error) {
	for {
		if val, ok := c.lookup(key); ok {
			c.hits.Add(1)
			return val.sim, SourceMemory, nil
		}
		if enc, ok := c.loadDisk(key); ok {
			st := new(stats.Sim)
			if err := json.Unmarshal(enc, st); err == nil {
				c.diskHits.Add(1)
				c.put(key, value{enc: enc, sim: st})
				return st, SourceDisk, nil
			}
			_ = os.Remove(c.diskPath(key)) // verified but undecodable: recompute and rewrite it
		}

		c.mu.Lock()
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, SourceCoalesced, ctx.Err()
			}
			if f.err == nil {
				c.coalesced.Add(1)
				return f.val.sim, SourceCoalesced, nil
			}
			if errors.Is(f.err, errFlightAbandoned) && ctx.Err() == nil {
				continue // the leader was cancelled, not the work: retry
			}
			return nil, SourceCoalesced, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.misses.Add(1)
		st, err := compute()
		var enc []byte
		if err == nil {
			enc, err = json.Marshal(st)
		}
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			f.err = fmt.Errorf("%w: %w", errFlightAbandoned, err)
		} else {
			f.val, f.err = value{enc: enc, sim: st}, err
		}
		if f.err == nil {
			c.put(key, f.val)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, SourceComputed, err
		}
		// Persist after waking the followers: they need the value, not
		// its durability.
		c.storeDisk(key, enc)
		return st, SourceComputed, nil
	}
}

// jobRuns is one job's view of the Cache: the experiments.ResultStore its
// Runner consults for every run. Each lookup is a "cache-lookup" span
// under the run's span, observed in sdvd_cache_lookup_seconds, and the
// view tallies where the job's runs came from (see source).
type jobRuns struct {
	cache  *Cache
	lookup *obs.Histogram

	mu   sync.Mutex
	from [SourceCoalesced + 1]int // successful runs per Source
}

// GetOrCompute implements experiments.ResultStore. The lookup span
// covers the time before any computation: the memory and disk checks or,
// for a coalesced follower, the whole wait on the in-flight leader. A
// miss ends it the moment compute starts.
func (j *jobRuns) GetOrCompute(ctx context.Context, key string, compute func() (*stats.Sim, error)) (*stats.Sim, error) {
	sc := obs.FromContext(ctx).Start("cache-lookup")
	looking := true
	endLookup := func() {
		if looking {
			looking = false
			sc.End()
			j.lookup.Observe(sc.T.Duration(sc.Span).Seconds())
		}
	}
	st, src, err := j.cache.GetOrComputeRun(ctx, key, func() (*stats.Sim, error) {
		endLookup()
		return compute()
	})
	endLookup()
	if err == nil {
		j.mu.Lock()
		j.from[src]++
		j.mu.Unlock()
	}
	return st, err
}

// source summarises where the job's runs came from: computed if any run
// was, else disk if any run was read from disk, else coalesced if any
// joined another job's computation, else memory.
func (j *jobRuns) source() Source {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, src := range []Source{SourceComputed, SourceDisk, SourceCoalesced} {
		if j.from[src] > 0 {
			return src
		}
	}
	return SourceMemory
}
