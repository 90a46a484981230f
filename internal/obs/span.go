package obs

import (
	"context"
	"sync"
	"time"
)

// Spans: one Trace per job, holding a preallocated flat array of spans.
// A span identifier is its index in that array — allocation-free to
// hand out and to end, no maps, no fmt — and parents are always created
// before children, which BuildTree exploits. All methods are safe for
// concurrent use and nil-receiver safe, so instrumented code never
// guards "is tracing on".

// SpanID indexes a span within its Trace. The root span is 0.
type SpanID int32

// NoSpan marks "no span": the parent of the root, a dropped span, or
// any operation on a nil Trace.
const NoSpan SpanID = -1

// RootSpan is the identifier of a trace's root span.
const RootSpan SpanID = 0

// Span is one timed phase. Start/End are offsets from the trace start
// on the trace's monotonic clock; End < 0 means still open.
type Span struct {
	Parent SpanID
	Name   string // phase name, a static string
	Cfg    string // configuration label, "" when not a per-run span
	Bench  string // benchmark label, "" when not a per-run span
	Start  time.Duration
	End    time.Duration
}

// maxSpans bounds a trace's span array: a runaway sweep drops spans
// (counted in Dropped) instead of growing a terabyte timeline.
const maxSpans = 4096

// defaultSpanCap is the preallocation; typical jobs stay under it, so
// recording never allocates after NewTrace.
const defaultSpanCap = 256

// Trace is one job's span tree plus the clock its offsets are measured
// on.
type Trace struct {
	id    string
	clock Clock
	base  time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTrace starts a trace: the root span (named root) opens at offset
// zero. A nil clock means RealClock.
func NewTrace(id string, clock Clock, root string) *Trace {
	if clock == nil {
		clock = RealClock()
	}
	t := &Trace{id: id, clock: clock, base: clock.Now()}
	t.spans = make([]Span, 1, defaultSpanCap)
	t.spans[0] = Span{Parent: NoSpan, Name: root, End: -1}
	return t
}

// ID returns the trace identifier.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a child span under parent.
func (t *Trace) Start(parent SpanID, name string) SpanID {
	return t.StartRun(parent, name, "", "")
}

// StartRun opens a child span carrying (configuration, benchmark)
// labels. The labels are stored by reference — no formatting, no
// concatenation — so recording stays allocation-free under the
// preallocated span bound.
//
//sdv:hotpath
func (t *Trace) StartRun(parent SpanID, name, cfg, bench string) SpanID {
	if t == nil {
		return NoSpan
	}
	off := t.clock.Now().Sub(t.base)
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return NoSpan
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{Parent: parent, Name: name, Cfg: cfg, Bench: bench, Start: off, End: -1})
	t.mu.Unlock()
	return id
}

// End closes a span. Ending an already-ended span (the cache-hit /
// cache-miss convergence in the scheduler) is a no-op, as is NoSpan.
//
//sdv:hotpath
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	off := t.clock.Now().Sub(t.base)
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].End < 0 {
		t.spans[id].End = off
	}
	t.mu.Unlock()
}

// Duration returns a span's elapsed time: End-Start when closed, time
// since Start when still open.
func (t *Trace) Duration(id SpanID) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := t.clock.Now().Sub(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return 0
	}
	sp := t.spans[id]
	if sp.End < 0 {
		return now - sp.Start
	}
	return sp.End - sp.Start
}

// Finish closes the root span.
func (t *Trace) Finish() { t.End(RootSpan) }

// Snapshot copies the spans (index order; parents before children).
func (t *Trace) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans were discarded at the span bound.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanContext names one span of one trace — the unit instrumented code
// passes around (and through context.Context). The zero value is
// inactive and every method on it is a no-op, so tracing is optional at
// every call site.
type SpanContext struct {
	T    *Trace
	Span SpanID
}

// Active reports whether the context names a live trace.
func (c SpanContext) Active() bool { return c.T != nil && c.Span >= 0 }

// Start opens a child span and returns its context.
func (c SpanContext) Start(name string) SpanContext {
	if !c.Active() {
		return SpanContext{}
	}
	return SpanContext{T: c.T, Span: c.T.Start(c.Span, name)}
}

// StartRun opens a labeled child span and returns its context.
func (c SpanContext) StartRun(name, cfg, bench string) SpanContext {
	if !c.Active() {
		return SpanContext{}
	}
	return SpanContext{T: c.T, Span: c.T.StartRun(c.Span, name, cfg, bench)}
}

// End closes the context's span.
func (c SpanContext) End() {
	if c.Active() {
		c.T.End(c.Span)
	}
}

type ctxKey struct{}

// ContextWith returns ctx carrying sc.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the span context carried by ctx, or an inactive
// one.
func FromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
