package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"specvec/internal/obs"
)

// Source says where GetOrCompute found a value.
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

// Cache is a content-addressed result cache: an in-memory LRU bounded by
// entry count and total value bytes, singleflight deduplication of
// identical in-flight computations, and optional disk persistence (one
// self-verifying file per key; the disk tier survives restarts and is not
// bounded by the memory limits). Values are opaque byte slices — callers
// must not mutate a returned slice. Safe for concurrent use.
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

type cacheEntry struct {
	key string
	val []byte
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// NewCache returns a cache bounded to maxEntries values and maxBytes
// total value size (<= 0 for the defaults: 512 entries, 256 MiB). dir
// enables disk persistence when non-empty; it is created on first write.
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

// Bytes returns the total in-memory value size.
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
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts val under key and evicts from the LRU tail until both
// bounds hold. A value larger than maxBytes is not cached at all (it
// would evict everything and still not fit).
func (c *Cache) put(key string, val []byte) {
	if int64(len(val)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.bytes += int64(len(val)) - int64(len(el.Value.(*cacheEntry).val))
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.order.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val))
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
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	sum := sha256.Sum256(val)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(sum[:], val...), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, path) // atomic publish: readers never see a torn file
}

// errFlightAbandoned marks a singleflight whose leader was cancelled; a
// follower with a live context retries the computation itself.
var errFlightAbandoned = errors.New("server: in-flight computation abandoned")

// GetOrCompute returns the value for key, from (in order) the in-memory
// LRU, the disk tier, an identical in-flight computation, or by running
// compute. Concurrent calls for the same key run compute once
// (singleflight); followers share the leader's result. A leader whose
// compute fails caches nothing. If the leader is cancelled, waiting
// followers whose own context is still live retry the computation instead
// of inheriting the cancellation.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	for {
		if val, ok := c.lookup(key); ok {
			c.hits.Add(1)
			return val, SourceMemory, nil
		}
		if val, ok := c.loadDisk(key); ok {
			c.diskHits.Add(1)
			c.put(key, val)
			return val, SourceDisk, nil
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
				return f.val, SourceCoalesced, nil
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
		val, err := compute()
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			f.err = fmt.Errorf("%w: %w", errFlightAbandoned, err)
		} else {
			f.val, f.err = val, err
		}
		if f.err == nil {
			c.put(key, val)
			c.storeDisk(key, val)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		if f.err != nil && errors.Is(f.err, errFlightAbandoned) {
			return nil, SourceComputed, err
		}
		return val, SourceComputed, f.err
	}
}
