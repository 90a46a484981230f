package obs

import (
	"sync"
	"time"
)

// Timeline surfacing: completed job traces are snapshotted into a
// fixed-capacity ring buffer keyed by job id and served as a JSON span
// tree (GET /v1/jobs/{id}/timeline, rendered by `sdvtrace timeline`).

// TreeNode is the wire form of one span and its children. Offsets and
// durations are microseconds from the trace (root) start.
type TreeNode struct {
	Name       string      `json:"name"`
	Cfg        string      `json:"cfg,omitempty"`
	Bench      string      `json:"bench,omitempty"`
	StartUs    int64       `json:"startUs"`
	DurationUs int64       `json:"durationUs"`
	Children   []*TreeNode `json:"children,omitempty"`
}

// Spans counts the tree's nodes.
func (n *TreeNode) Spans() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.Spans()
	}
	return total
}

// BuildTree assembles the span tree from a Snapshot. Spans still open
// in the snapshot (a failure path that never reached End) are clamped
// to the latest end observed anywhere in the trace, so durations are
// always non-negative and bounded by the root.
func BuildTree(spans []Span) *TreeNode {
	if len(spans) == 0 {
		return nil
	}
	var maxEnd time.Duration
	for i := range spans {
		if spans[i].End > maxEnd {
			maxEnd = spans[i].End
		}
		if spans[i].Start > maxEnd {
			maxEnd = spans[i].Start
		}
	}
	nodes := make([]*TreeNode, len(spans))
	for i := range spans {
		sp := &spans[i]
		end := sp.End
		if end < 0 {
			end = maxEnd
		}
		nodes[i] = &TreeNode{
			Name:       sp.Name,
			Cfg:        sp.Cfg,
			Bench:      sp.Bench,
			StartUs:    sp.Start.Microseconds(),
			DurationUs: (end - sp.Start).Microseconds(),
		}
		// Parents precede children in the span array (Start requires an
		// existing parent), so the parent node is already built.
		if p := sp.Parent; p >= 0 && int(p) < i {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		}
	}
	return nodes[0]
}

// Timeline is one completed job's span tree plus identity and summary.
type Timeline struct {
	ID           string    `json:"id"`    // job id
	Trace        string    `json:"trace"` // trace id
	Kind         string    `json:"kind,omitempty"`
	State        string    `json:"state,omitempty"`
	Spans        int       `json:"spans"`
	DroppedSpans int       `json:"droppedSpans,omitempty"`
	DurationUs   int64     `json:"durationUs"`
	Completed    time.Time `json:"completed,omitzero"`
	Root         *TreeNode `json:"root"`
}

// NewTimeline snapshots a finished trace into its wire form.
func NewTimeline(id, kind, state string, tr *Trace, completed time.Time) Timeline {
	root := BuildTree(tr.Snapshot())
	tl := Timeline{
		ID:           id,
		Trace:        tr.ID(),
		Kind:         kind,
		State:        state,
		Spans:        root.Spans(),
		DroppedSpans: tr.Dropped(),
		Completed:    completed,
		Root:         root,
	}
	if root != nil {
		tl.DurationUs = root.DurationUs
	}
	return tl
}

// TimelineStore is a fixed-capacity ring of completed timelines keyed
// by job id. When full, adding overwrites the oldest entry.
type TimelineStore struct {
	mu   sync.Mutex
	cap  int
	ring []Timeline
	next int
	byID map[string]int // job id -> ring slot
}

// NewTimelineStore returns a store retaining up to capacity timelines
// (<= 0 means 512).
func NewTimelineStore(capacity int) *TimelineStore {
	if capacity <= 0 {
		capacity = 512
	}
	return &TimelineStore{cap: capacity, byID: map[string]int{}}
}

// Add inserts (or replaces) a timeline, evicting the oldest when full.
func (s *TimelineStore) Add(tl Timeline) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.byID[tl.ID]; ok {
		s.ring[slot] = tl
		return
	}
	if len(s.ring) < s.cap {
		s.byID[tl.ID] = len(s.ring)
		s.ring = append(s.ring, tl)
		return
	}
	old := s.ring[s.next]
	delete(s.byID, old.ID)
	s.ring[s.next] = tl
	s.byID[tl.ID] = s.next
	s.next = (s.next + 1) % s.cap
}

// Get returns the timeline for a job id.
func (s *TimelineStore) Get(id string) (Timeline, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.byID[id]
	if !ok {
		return Timeline{}, false
	}
	return s.ring[slot], true
}

// Len returns how many timelines are retained.
func (s *TimelineStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}
