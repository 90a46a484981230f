package obs

import (
	"context"
	"testing"
	"time"
)

func TestTraceSpanLifecycle(t *testing.T) {
	clk := NewManualClock(time.Unix(100, 0))
	tr := NewTrace("t1", clk, "job")
	if tr.ID() != "t1" {
		t.Fatalf("ID = %q, want t1", tr.ID())
	}

	clk.Advance(10 * time.Millisecond)
	queue := tr.Start(RootSpan, "queue-wait")
	clk.Advance(40 * time.Millisecond)
	tr.End(queue)

	run := tr.StartRun(RootSpan, "run", "fig1", "dotp")
	clk.Advance(100 * time.Millisecond)
	tr.End(run)
	tr.End(run) // idempotent: second End must not move the end time
	clk.Advance(time.Millisecond)
	tr.End(run)
	tr.Finish()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	root, q, r := spans[0], spans[1], spans[2]
	if root.Parent != NoSpan || root.Start != 0 || root.End != 151*time.Millisecond {
		t.Fatalf("root = %+v", root)
	}
	if q.Parent != RootSpan || q.Start != 10*time.Millisecond || q.End != 50*time.Millisecond {
		t.Fatalf("queue span = %+v", q)
	}
	if r.Cfg != "fig1" || r.Bench != "dotp" || r.End-r.Start != 100*time.Millisecond {
		t.Fatalf("run span = %+v", r)
	}
	if d := tr.Duration(queue); d != 40*time.Millisecond {
		t.Fatalf("Duration(queue) = %v, want 40ms", d)
	}
}

func TestTraceOpenSpanDuration(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tr := NewTrace("t", clk, "job")
	sp := tr.Start(RootSpan, "work")
	clk.Advance(7 * time.Millisecond)
	if d := tr.Duration(sp); d != 7*time.Millisecond {
		t.Fatalf("open span Duration = %v, want 7ms", d)
	}
}

func TestTraceDropsAtBound(t *testing.T) {
	tr := NewTrace("t", NewManualClock(time.Unix(0, 0)), "job")
	for i := 0; i < maxSpans+10; i++ {
		tr.Start(RootSpan, "s")
	}
	if n := len(tr.Snapshot()); n != maxSpans {
		t.Fatalf("kept %d spans, want %d", n, maxSpans)
	}
	// The root occupies one slot, so 11 starts past the bound dropped.
	if tr.Dropped() != 11 {
		t.Fatalf("Dropped = %d, want 11", tr.Dropped())
	}
	if id := tr.Start(RootSpan, "s"); id != NoSpan {
		t.Fatalf("start past bound returned %d, want NoSpan", id)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if id := tr.StartRun(RootSpan, "x", "", ""); id != NoSpan {
		t.Fatalf("nil StartRun = %d", id)
	}
	tr.End(RootSpan)
	tr.Finish()
	if tr.ID() != "" || tr.Snapshot() != nil || tr.Dropped() != 0 || tr.Duration(0) != 0 {
		t.Fatal("nil trace accessors not zero")
	}
}

func TestSpanContextAndContext(t *testing.T) {
	var zero SpanContext
	if zero.Active() {
		t.Fatal("zero SpanContext active")
	}
	if c := zero.Start("x"); c.Active() {
		t.Fatal("child of inactive context active")
	}
	zero.End() // must not panic

	clk := NewManualClock(time.Unix(0, 0))
	tr := NewTrace("abc", clk, "job")
	sc := SpanContext{T: tr, Span: RootSpan}
	ctx := ContextWith(context.Background(), sc)
	got := FromContext(ctx)
	if got.T != tr || got.Span != RootSpan {
		t.Fatalf("FromContext = %+v", got)
	}
	if FromContext(context.Background()).Active() {
		t.Fatal("bare context yielded an active span context")
	}
	if FromContext(nil).Active() { //nolint:staticcheck // nil ctx is the documented degenerate case
		t.Fatal("nil context yielded an active span context")
	}

	child := got.StartRun("run", "cfg", "b")
	clk.Advance(time.Millisecond)
	child.End()
	sp := tr.Snapshot()[child.Span]
	if sp.Cfg != "cfg" || sp.End-sp.Start != time.Millisecond {
		t.Fatalf("child span = %+v", sp)
	}
}

func TestBuildTreeAndTimeline(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tr := NewTrace("t", clk, "job")
	a := tr.Start(RootSpan, "a")
	clk.Advance(5 * time.Millisecond)
	b := tr.Start(a, "b")
	clk.Advance(5 * time.Millisecond)
	tr.End(b)
	tr.End(a)
	tr.Start(RootSpan, "open") // failure path: never ended
	clk.Advance(5 * time.Millisecond)
	tr.Finish()

	root := BuildTree(tr.Snapshot())
	if root.Name != "job" || root.Spans() != 4 {
		t.Fatalf("root = %+v spans=%d", root, root.Spans())
	}
	if len(root.Children) != 2 || root.Children[0].Name != "a" {
		t.Fatalf("root children = %+v", root.Children)
	}
	if got := root.Children[0].Children[0]; got.Name != "b" || got.StartUs != 5000 || got.DurationUs != 5000 {
		t.Fatalf("nested child = %+v", got)
	}
	// The open span is clamped to the max end seen in the trace.
	open := root.Children[1]
	if open.StartUs != 10000 || open.DurationUs != 5000 {
		t.Fatalf("open span clamp = %+v", open)
	}
	if root.DurationUs != 15000 {
		t.Fatalf("root duration = %d", root.DurationUs)
	}

	tl := NewTimeline("j000001", "experiment", "done", tr, clk.Now())
	if tl.ID != "j000001" || tl.Trace != "t" || tl.Spans != 4 || tl.DurationUs != 15000 {
		t.Fatalf("timeline = %+v", tl)
	}
	if BuildTree(nil) != nil {
		t.Fatal("BuildTree(nil) != nil")
	}
	if (*TreeNode)(nil).Spans() != 0 {
		t.Fatal("nil TreeNode Spans != 0")
	}
}

func TestTimelineStoreRing(t *testing.T) {
	s := NewTimelineStore(2)
	mk := func(id string) Timeline { return Timeline{ID: id} }
	s.Add(mk("a"))
	s.Add(mk("b"))
	s.Add(mk("c")) // evicts a
	if _, ok := s.Get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("entry %q missing", id)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Replacement by id does not evict.
	s.Add(Timeline{ID: "b", Kind: "sim"})
	if tl, _ := s.Get("b"); tl.Kind != "sim" {
		t.Fatalf("replaced entry = %+v", tl)
	}
	if _, ok := s.Get("c"); !ok {
		t.Fatal("replace evicted a different entry")
	}
}

// TestSpanRecordingAllocs backs the //sdv:hotpath annotations on
// Trace.StartRun and Trace.End: under the preallocated span capacity,
// recording a span allocates nothing.
func TestSpanRecordingAllocs(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	tr := NewTrace("t", clk, "job")
	allocs := testing.AllocsPerRun(100, func() {
		id := tr.StartRun(RootSpan, "run", "cfg", "bench")
		tr.End(id)
	})
	if allocs != 0 {
		t.Fatalf("span recording allocates %v per op, want 0", allocs)
	}
}
