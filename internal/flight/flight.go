// Package flight is the module's one get-or-compute memo. The Runner
// memoises runs and recordings with it, and the daemon's result and
// trace tiers coalesce concurrent computations through it, so "compute
// once, with concurrent callers waiting and cancellation never
// sticking" is decided in one place.
package flight

import (
	"context"
	"errors"
	"sync"
)

// ErrNoValue is the outcome of a computation that returned the zero
// value with a nil error: a missing value must carry its reason, or
// every caller would go on with nothing.
var ErrNoValue = errors.New("flight: computation returned no value and no error")

// Cancelled reports whether err is a context cancellation or deadline.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Memo computes each key's value once for all its concurrent callers.
// The first caller of a key leads and runs compute on its own goroutine;
// later callers wait for it, holding nothing, and share its outcome.
// Three rules keep an outcome from outliving its cause:
//
//   - a failed or cancelled computation is never retained: it is
//     forgotten before its followers wake, and the next caller computes
//     afresh;
//   - a follower whose leader was cancelled computes the value itself if
//     its own context is still live, instead of inheriting the
//     cancellation;
//   - the zero value with a nil error resolves to ErrNoValue.
//
// With Keep, every computed value serves all later calls until Forget
// drops it; without it the memo only joins concurrent callers, and the
// caller keeps values where it likes (the daemon's tiers keep them in an
// LRU). The zero Memo is ready to use and safe for concurrent use.
type Memo[V comparable] struct {
	Keep bool

	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one key's computation; v and err are set before done closes.
type call[V comparable] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns key's value: a kept one, an in-flight computation's, or
// compute's, in which case led is true. ctx bounds only the wait for
// another caller's computation; compute observes its own cancellation.
func (m *Memo[V]) Do(ctx context.Context, key string, compute func() (V, error)) (v V, led bool, err error) {
	for {
		m.mu.Lock()
		c, ok := m.calls[key]
		if !ok {
			if m.calls == nil {
				m.calls = map[string]*call[V]{}
			}
			c = &call[V]{done: make(chan struct{})}
			m.calls[key] = c
		}
		m.mu.Unlock()
		if !ok {
			m.lead(key, c, compute)
			return c.v, true, c.err
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if !Cancelled(c.err) || ctx.Err() != nil {
			return c.v, false, c.err
		}
		// The leader was cancelled, not the work: compute it here.
	}
}

// lead runs compute for c and settles it. An error, or any value
// without Keep, is forgotten before the followers wake; the entry is
// c's, since a key is only added while absent.
func (m *Memo[V]) lead(key string, c *call[V], compute func() (V, error)) {
	var zero V
	c.v, c.err = compute()
	if c.err == nil && c.v == zero {
		c.err = ErrNoValue
	}
	if c.err != nil || !m.Keep {
		m.mu.Lock()
		delete(m.calls, key)
		m.mu.Unlock()
	}
	close(c.done)
}

// Forget drops key's kept value, so the next caller computes it afresh.
// A computation in flight is left alone: its callers still share it.
func (m *Memo[V]) Forget(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.calls[key]; ok {
		select {
		case <-c.done:
			delete(m.calls, key)
		default:
		}
	}
}

// Len returns the number of keys the memo holds: kept values and
// computations in flight.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}
