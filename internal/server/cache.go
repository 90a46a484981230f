package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"specvec/internal/flight"
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

// tier is one of the daemon's two content-addressed stores: an
// in-memory LRU bounded by entry count and, optionally, by bytes; an
// optional disk tier of one self-verifying file per key, written through
// writeDurable, which survives restarts and is not bounded by the memory
// limits; and the shared memo, so concurrent computations of one key run
// once. Results (Cache) and recordings (traceCache) differ only in their
// codec and bounds. Safe for concurrent use.
type tier[V comparable] struct {
	codec[V]
	maxEntries int
	maxBytes   int64  // 0 = entries only
	dir        string // "" = memory only

	memo flight.Memo[V]

	mu      sync.Mutex
	entries map[string]*list.Element // key -> element in order
	order   *list.List               // front = most recently used; of *tierEntry[V]
	bytes   int64

	// served counts successful lookups by Source (nil: not counted) and
	// evictions the LRU's; both carry their final /metrics names and
	// are registered by Server.buildRegistry.
	served    [SourceCoalesced + 1]*obs.Counter
	evictions *obs.Counter
}

// codec is how a tier sizes and persists its values.
type codec[V any] struct {
	sub, ext string                       // files live at <dir>/<sub>/<key><ext>
	write    func(v V, w io.Writer) error // a file's contents
	read     func(path string) (V, error) // rejects a torn or corrupted file
	size     func(v V) int64              // what the byte bound counts; nil = 0
}

type tierEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newTier[V comparable](c codec[V], maxEntries int, maxBytes int64, dir string) *tier[V] {
	return &tier[V]{
		codec:      c,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		dir:        dir,
		entries:    map[string]*list.Element{},
		order:      list.New(),
	}
}

// Len returns the number of in-memory entries.
func (t *tier[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// Bytes returns the total size of the in-memory entries.
func (t *tier[V]) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// lookup returns the in-memory value for key, refreshing its recency.
func (t *tier[V]) lookup(key string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*tierEntry[V]).val, true
}

// put inserts val under key and evicts from the LRU tail until both
// bounds hold. A value larger than the byte bound is not cached at all
// (it would evict everything and still not fit).
func (t *tier[V]) put(key string, val V) {
	var size int64
	if t.size != nil {
		size = t.size(val)
	}
	if size > t.maxBytes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		e := el.Value.(*tierEntry[V])
		t.bytes += size - e.size
		e.val, e.size = val, size
		t.order.MoveToFront(el)
	} else {
		t.entries[key] = t.order.PushFront(&tierEntry[V]{key: key, val: val, size: size})
		t.bytes += size
	}
	for t.order.Len() > t.maxEntries || t.bytes > t.maxBytes {
		e := t.order.Remove(t.order.Back()).(*tierEntry[V])
		delete(t.entries, e.key)
		t.bytes -= e.size
		t.evictions.Add(1)
	}
}

// diskPath maps a key to its persistence file.
func (t *tier[V]) diskPath(key string) string {
	return filepath.Join(t.dir, t.sub, key+t.ext)
}

// loadDisk reads a persisted value, if the disk tier is enabled. A file
// the codec rejects (a torn write, bit rot, a retired format) is a miss
// and is removed, so the next computation of the key writes it afresh.
func (t *tier[V]) loadDisk(key string) (V, bool) {
	var zero V
	if t.dir == "" {
		return zero, false
	}
	path := t.diskPath(key)
	v, err := t.read(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			_ = os.Remove(path) // best effort: a file that stays is re-verified, never served
		}
		return zero, false
	}
	return v, true
}

// storeDisk persists a value, best effort (an unwritable directory
// degrades to memory-only caching rather than failing the job).
func (t *tier[V]) storeDisk(key string, v V) {
	if t.dir == "" {
		return
	}
	_ = writeDurable(t.diskPath(key), func(w io.Writer) error { return t.write(v, w) })
}

// getOrCompute returns key's value from (in order) the in-memory LRU,
// an identical in-flight computation, the disk tier (promoting a hit to
// memory), or by running compute. The memo's rules hold: a computation
// that fails or is cancelled caches nothing, and a waiting caller whose
// leader was cancelled computes itself if its own context is live. A
// computed value is persisted after the waiting callers are woken: they
// need the value, not its durability.
func (t *tier[V]) getOrCompute(ctx context.Context, key string, compute func() (V, error)) (V, Source, error) {
	v, ok := t.lookup(key)
	src := SourceMemory
	if !ok {
		var led bool
		var err error
		src = SourceCoalesced
		v, led, err = t.memo.Do(ctx, key, func() (V, error) {
			// Look again: the previous leader may have filled memory
			// between this caller's lookup and its joining the memo.
			if v, ok := t.lookup(key); ok {
				src = SourceMemory
				return v, nil
			}
			if v, ok := t.loadDisk(key); ok {
				src = SourceDisk
				t.put(key, v)
				return v, nil
			}
			src = SourceComputed
			v, err := compute()
			var zero V
			if err == nil && v != zero {
				t.put(key, v)
			}
			return v, err
		})
		if err != nil {
			return v, src, err
		}
		if led && src == SourceComputed {
			t.storeDisk(key, v)
		}
	}
	if c := t.served[src]; c != nil {
		c.Add(1)
	}
	return v, src, nil
}

// Cache is the daemon's result tier. The scheduler keeps one statistics
// entry per simulation run in it (keyed by experiments.RunKey, see
// jobRuns), so every job on the daemon shares every run. A value holds
// the decoded statistics, which every memory hit shares without
// decoding, and their JSON encoding, which the byte bound counts and a
// disk file holds behind its SHA-256.
type Cache = tier[*value]

// value is one cached run; neither field is ever mutated.
type value struct {
	enc []byte
	sim *stats.Sim
}

// errDigest rejects a result file whose value does not match its digest.
var errDigest = errors.New("server: result file fails its digest")

// runCodec persists a run's statistics behind the SHA-256 of their JSON,
// so every file verifies itself.
var runCodec = codec[*value]{
	sub: "results",
	ext: ".res",
	write: func(v *value, w io.Writer) error {
		sum := sha256.Sum256(v.enc)
		_, err := w.Write(append(sum[:], v.enc...))
		return err
	},
	read: func(path string) (*value, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if len(b) < sha256.Size || sha256.Sum256(b[sha256.Size:]) != [sha256.Size]byte(b[:sha256.Size]) {
			return nil, errDigest
		}
		v := &value{enc: b[sha256.Size:], sim: new(stats.Sim)}
		return v, json.Unmarshal(v.enc, v.sim)
	},
	size: func(v *value) int64 { return int64(len(v.enc)) },
}

// NewCache returns a result tier bounded to maxEntries values and
// maxBytes total encoded size (<= 0 for the defaults: 512 entries, which
// hold the 348 distinct runs of one sdvexp -exp all sweep without
// eviction, and 256 MiB). dir enables disk persistence when non-empty;
// it is created on first write.
func NewCache(maxEntries int, maxBytes int64, dir string) *Cache {
	if maxEntries <= 0 {
		maxEntries = 512
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	c := newTier(runCodec, maxEntries, maxBytes, dir)
	c.served = [...]*obs.Counter{
		SourceComputed:  obs.NewCounter("sdvd_cache_misses_total"),
		SourceMemory:    obs.NewCounter("sdvd_cache_hits_total"),
		SourceDisk:      obs.NewCounter("sdvd_cache_disk_hits_total"),
		SourceCoalesced: obs.NewCounter("sdvd_cache_coalesced_total"),
	}
	c.evictions = obs.NewCounter("sdvd_cache_evictions_total")
	return c
}

// getRun is the result tier's get-or-compute over statistics: a memory
// hit returns the shared, decoded statistics, which callers must not
// mutate; a computed result is encoded once, for the byte bound and the
// disk tier.
func getRun(c *Cache, ctx context.Context, key string, compute func() (*stats.Sim, error)) (*stats.Sim, Source, error) {
	v, src, err := c.getOrCompute(ctx, key, func() (*value, error) {
		st, err := compute()
		if err != nil || st == nil {
			return nil, err
		}
		enc, err := json.Marshal(st)
		if err != nil {
			return nil, err
		}
		return &value{enc: enc, sim: st}, nil
	})
	if err != nil {
		return nil, src, err
	}
	return v.sim, src, nil
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
	st, src, err := getRun(j.cache, ctx, key, func() (*stats.Sim, error) {
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
