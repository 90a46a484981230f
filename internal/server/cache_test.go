package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specvec/internal/config"
	"specvec/internal/experiments"
	"specvec/internal/stats"
)

// simOf is a small distinguishable run result: committed instructions in
// twice as many cycles.
func simOf(committed uint64) *stats.Sim {
	st := stats.New()
	st.Committed = committed
	st.Cycles = 2 * committed
	return st
}

// sameSim reports whether got renders exactly like want (nil-safe).
func sameSim(got, want *stats.Sim) bool {
	return got != nil && got.String() == want.String()
}

func mustNorm(t *testing.T, s JobSpec) JobSpec {
	t.Helper()
	norm, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestCacheLRUEntryBound fills the cache past its entry bound and checks
// the oldest entries were evicted, the newest retained, and the bound
// never exceeded.
func TestCacheLRUEntryBound(t *testing.T) {
	c := NewCache(4, 1<<20, "")
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%d", i), &value{enc: []byte{byte(i)}})
	}
	if c.Len() != 4 {
		t.Fatalf("entries = %d, want 4", c.Len())
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.lookup(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d survived past the entry bound", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := c.lookup(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d (recent) was evicted", i)
		}
	}
	if ev := c.evictions.Value(); ev != 6 {
		t.Errorf("evictions = %d, want 6", ev)
	}
}

// TestCacheLRUByteBound checks the byte bound evicts independently of the
// entry bound, and that recency (lookup) protects an entry.
func TestCacheLRUByteBound(t *testing.T) {
	c := NewCache(100, 100, "")
	c.put("a", &value{enc: make([]byte, 40)})
	c.put("b", &value{enc: make([]byte, 40)})
	c.lookup("a") // refresh a: b becomes the LRU victim
	c.put("c", &value{enc: make([]byte, 40)})
	if c.Bytes() > 100 {
		t.Fatalf("bytes = %d, want <= 100", c.Bytes())
	}
	if _, ok := c.lookup("b"); ok {
		t.Error("b (least recently used) survived")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("a (refreshed) was evicted")
	}
	// A value larger than the whole bound must not wipe the cache.
	c.put("huge", &value{enc: make([]byte, 200)})
	if _, ok := c.lookup("huge"); ok {
		t.Error("over-bound value was cached")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("over-bound put evicted existing entries")
	}
}

// TestCacheSingleflight hammers one key from many goroutines and checks
// the compute function ran exactly once, with every caller sharing the
// leader's statistics. Run under -race in CI.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(16, 1<<20, "")
	var computes atomic.Int32
	var onceEnter sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	want := simOf(42)
	vals := make([]*stats.Sim, callers)
	srcs := make([]Source, callers)
	call := func(i int) {
		defer wg.Done()
		v, src, err := getRun(c, context.Background(), "shared", func() (*stats.Sim, error) {
			computes.Add(1)
			onceEnter.Do(func() { close(entered) })
			<-release // hold the leader so followers pile into the flight
			return want, nil
		})
		if err != nil {
			t.Error(err)
		}
		vals[i], srcs[i] = v, src
	}
	wg.Add(1)
	go call(0)
	<-entered // the leader is inside compute; now add the followers
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call(i)
	}
	time.Sleep(50 * time.Millisecond) // let the followers reach the flight
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
	computed, coalesced := 0, 0
	for i := range vals {
		if vals[i] != want {
			t.Fatalf("caller %d saw %v, want the leader's statistics", i, vals[i])
		}
		switch srcs[i] {
		case SourceComputed:
			computed++
		case SourceCoalesced:
			coalesced++
		case SourceDisk:
			t.Errorf("caller %d hit disk in a memory-only cache", i)
		}
	}
	if computed != 1 {
		t.Errorf("%d callers computed, want exactly 1", computed)
	}
	if coalesced == 0 {
		t.Error("no caller joined the in-flight computation")
	}
}

// TestCacheFlightAbandoned: a follower with a live context retries when
// the leader is cancelled, instead of inheriting the cancellation.
func TestCacheFlightAbandoned(t *testing.T) {
	c := NewCache(16, 1<<20, "")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := getRun(c, leaderCtx, "k", func() (*stats.Sim, error) {
			once.Do(func() { close(entered) })
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader: want context.Canceled, got %v", err)
		}
	}()

	<-entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		retried := simOf(7)
		v, _, err := getRun(c, context.Background(), "k", func() (*stats.Sim, error) {
			return retried, nil
		})
		if err != nil || v != retried {
			t.Errorf("follower: got %v, %v; want its own retried statistics", v, err)
		}
	}()
	cancelLeader()
	wg.Wait()
	<-done
}

// TestCacheKeySensitivity: a spec's runs are addressed by its scale and
// seed, so changing either moves every run; normalization makes explicit defaults and
// omitted fields the same address, and an experiment and a sim job over
// the same (configuration, benchmark) share the run.
func TestCacheKeySensitivity(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	key := func(s JobSpec) string {
		t.Helper()
		opts, _, err := mustNorm(t, s).runOptions()
		if err != nil {
			t.Fatal(err)
		}
		return experiments.RunKey(opts, cfg, "swim")
	}
	base := key(JobSpec{Exp: "fig11", Scale: 50_000, Seed: 1})
	variants := []JobSpec{
		{Exp: "fig11", Scale: 50_000, Seed: 2},
		{Exp: "fig11", Scale: 60_000, Seed: 1},
	}
	seen := map[string]string{base: "base"}
	for _, v := range variants {
		k := key(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("spec %+v collides with %s", v, prev)
		}
		seen[k] = mustNorm(t, v).Title()
	}
	for _, same := range []JobSpec{
		{Exp: "fig11", Scale: 50_000},                       // omitted defaults
		{Exp: "fig12", Scale: 50_000},                       // another figure
		{Workload: "swim", Config: "4w-1pV", Scale: 50_000}, // a sim job
	} {
		if key(same) != base {
			t.Errorf("spec %+v does not share the base run", same)
		}
	}
}

// TestCacheDiskPersistence: a run survives into a fresh Cache over the
// same directory, and is promoted back into memory on first read.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	want := simOf(99)
	a := NewCache(8, 1<<20, dir)
	v, src, err := getRun(a, context.Background(), "k", func() (*stats.Sim, error) {
		return want, nil
	})
	if err != nil || src != SourceComputed || v != want {
		t.Fatalf("compute: %v %v %v", v, src, err)
	}

	b := NewCache(8, 1<<20, dir)
	v, src, err = getRun(b, context.Background(), "k", func() (*stats.Sim, error) {
		t.Fatal("disk hit must not recompute")
		return nil, nil
	})
	if err != nil || src != SourceDisk || !sameSim(v, want) {
		t.Fatalf("disk read: %v %v %v", v, src, err)
	}
	if v, src, _ = getRun(b, context.Background(), "k", nil); src != SourceMemory || !sameSim(v, want) {
		t.Fatalf("promotion: %v %v", v, src)
	}
}

// TestCacheComputeErrorNotCached: a failed computation caches nothing and
// the next call retries.
func TestCacheComputeErrorNotCached(t *testing.T) {
	c := NewCache(8, 1<<20, "")
	boom := errors.New("boom")
	if _, _, err := getRun(c, context.Background(), "k", func() (*stats.Sim, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	ok := simOf(5)
	v, src, err := getRun(c, context.Background(), "k", func() (*stats.Sim, error) {
		return ok, nil
	})
	if err != nil || src != SourceComputed || v != ok {
		t.Fatalf("retry after error: %v %v %v", v, src, err)
	}
}
