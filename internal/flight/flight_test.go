package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflight hammers one key from many goroutines while the leader
// is held inside compute: compute runs once, exactly one caller leads,
// and every caller shares the leader's value. Run under -race in CI.
func TestSingleflight(t *testing.T) {
	m := Memo[*int]{Keep: true} // a caller arriving after the release reads the kept value
	var computes atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	want := new(int)
	const callers = 32
	vals := make([]*int, callers)
	leds := make([]bool, callers)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		v, led, err := m.Do(context.Background(), "shared", func() (*int, error) {
			if computes.Add(1) == 1 {
				close(entered)
			}
			<-release // hold the leader so followers pile in
			return want, nil
		})
		if err != nil {
			t.Error(err)
		}
		vals[i], leds[i] = v, led
	}
	wg.Add(1)
	go call(0)
	<-entered
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call(i)
	}
	time.Sleep(50 * time.Millisecond) // most followers reach the call in flight; none must
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	led := 0
	for i, v := range vals {
		if v != want {
			t.Fatalf("caller %d saw %p, want the leader's value %p", i, v, want)
		}
		if leds[i] {
			led++
		}
	}
	if led != 1 {
		t.Errorf("%d callers led, want exactly 1", led)
	}
}

// TestKeep: with Keep, a computed value serves every later call without
// computing; without it, the next call computes again.
func TestKeep(t *testing.T) {
	for _, keep := range []bool{true, false} {
		m := Memo[*int]{Keep: keep}
		computes := 0
		compute := func() (*int, error) { computes++; return new(int), nil }
		first, _, _ := m.Do(context.Background(), "k", compute)
		second, led, err := m.Do(context.Background(), "k", compute)
		if err != nil {
			t.Fatal(err)
		}
		if keep && (computes != 1 || led || second != first || m.Len() != 1) {
			t.Errorf("Keep: %d computes, led=%v, same=%v, %d keys; want 1, false, true, 1",
				computes, led, second == first, m.Len())
		}
		if !keep && (computes != 2 || !led || m.Len() != 0) {
			t.Errorf("no Keep: %d computes, led=%v, %d keys; want 2, true, 0", computes, led, m.Len())
		}
	}
}

// TestAbandonedLeaderRetry: a follower with a live context computes the
// value itself when the leader is cancelled, instead of inheriting the
// cancellation; a follower whose own context ends returns its own error.
func TestAbandonedLeaderRetry(t *testing.T) {
	m := Memo[*int]{Keep: true}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := m.Do(leaderCtx, "k", func() (*int, error) {
			close(entered)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader: want context.Canceled, got %v", err)
		}
	}()
	<-entered

	deadCtx, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, led, err := m.Do(deadCtx, "k", func() (*int, error) {
		t.Error("a follower with a dead context computed")
		return nil, nil
	}); led || !errors.Is(err, context.Canceled) {
		t.Errorf("dead follower: led=%v err=%v, want its own context.Canceled", led, err)
	}

	done := make(chan struct{})
	retried := new(int)
	go func() {
		defer close(done)
		v, led, err := m.Do(context.Background(), "k", func() (*int, error) { return retried, nil })
		if err != nil || v != retried || !led {
			t.Errorf("live follower: got %p, led=%v, %v; want its own value, computed", v, led, err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the live follower wait on the leader
	cancelLeader()
	wg.Wait()
	<-done
	if v, led, _ := m.Do(context.Background(), "k", nil); v != retried || led {
		t.Errorf("after the retry: got %p (led=%v), want the retried value kept", v, led)
	}
}

// TestErrorsNotRetained: a failed computation is forgotten, even with
// Keep: the next call computes again.
func TestErrorsNotRetained(t *testing.T) {
	m := Memo[*int]{Keep: true}
	boom := errors.New("boom")
	if _, _, err := m.Do(context.Background(), "k", func() (*int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if m.Len() != 0 {
		t.Errorf("a failed computation left %d keys", m.Len())
	}
	ok := new(int)
	v, led, err := m.Do(context.Background(), "k", func() (*int, error) { return ok, nil })
	if err != nil || v != ok || !led {
		t.Fatalf("retry after error: %p, led=%v, %v", v, led, err)
	}
}

// TestNilValueRefused: a computation that returns the zero value with a
// nil error resolves to ErrNoValue and is not retained.
func TestNilValueRefused(t *testing.T) {
	m := Memo[*int]{Keep: true}
	if _, _, err := m.Do(context.Background(), "k", func() (*int, error) { return nil, nil }); !errors.Is(err, ErrNoValue) {
		t.Errorf("nil value with nil error: got %v, want ErrNoValue", err)
	}
	if m.Len() != 0 {
		t.Error("a refused value was retained")
	}
}

// TestForget: Forget drops a kept value, so the next call computes
// afresh, and leaves a computation in flight to the callers sharing it.
func TestForget(t *testing.T) {
	m := Memo[*int]{Keep: true}
	first, _, _ := m.Do(context.Background(), "k", func() (*int, error) { return new(int), nil })
	m.Forget("k")
	m.Forget("absent")
	if m.Len() != 0 {
		t.Fatalf("Forget left %d keys", m.Len())
	}
	second, led, err := m.Do(context.Background(), "k", func() (*int, error) { return new(int), nil })
	if err != nil || !led || second == first {
		t.Fatalf("after Forget: led=%v, same=%v, %v; want a fresh computation", led, second == first, err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan *int)
	go func() {
		v, _, _ := m.Do(context.Background(), "busy", func() (*int, error) {
			close(entered)
			<-release
			return new(int), nil
		})
		done <- v
	}()
	<-entered
	m.Forget("busy")
	if m.Len() != 2 {
		t.Errorf("Forget dropped a computation in flight: %d keys, want 2", m.Len())
	}
	close(release)
	v := <-done
	if kept, led, _ := m.Do(context.Background(), "busy", nil); kept != v || led {
		t.Errorf("the computation Forget left in flight was not kept")
	}
}
