package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"specvec/internal/obs"
)

// getTimeline fetches a job's timeline, returning the decoded body on
// 200 and the error text otherwise.
func getTimeline(t *testing.T, base, id string) (obs.Timeline, int, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var tl obs.Timeline
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &tl); err != nil {
			t.Fatalf("decoding timeline: %v\n%s", err, payload)
		}
	}
	return tl, resp.StatusCode, string(payload)
}

// findSpans collects every node named name in the tree.
func findSpans(n *obs.TreeNode, name string) []*obs.TreeNode {
	if n == nil {
		return nil
	}
	var out []*obs.TreeNode
	if n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// TestJobTimelineAcceptance is the timeline acceptance pin: a computed
// job's span tree covers its wall time — the root duration matches the
// job view's created→finished interval, and the top-level phases
// (queue-wait, compute) account for the root within 10% — and the
// compute subtree carries the runner's per-run phase spans, each run
// opening with its cache lookup.
func TestJobTimelineAcceptance(t *testing.T) {
	const scale = 20_000
	_, ts := testServer(t, Options{})

	view, code := postJob(t, ts.URL, JobSpec{Exp: "fig1", Scale: scale}, true)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	decodeResult(t, view)

	tl, code, body := getTimeline(t, ts.URL, view.ID)
	if code != http.StatusOK {
		t.Fatalf("timeline: HTTP %d: %s", code, body)
	}
	if tl.ID != view.ID || tl.Kind != KindExperiment || tl.State != string(StateDone) {
		t.Errorf("timeline identity: id=%s kind=%s state=%s", tl.ID, tl.Kind, tl.State)
	}
	if tl.Root == nil || tl.Root.Name != "job" {
		t.Fatalf("timeline root: %+v", tl.Root)
	}
	if tl.Spans != tl.Root.Spans() {
		t.Errorf("span count %d != tree size %d", tl.Spans, tl.Root.Spans())
	}
	if tl.DroppedSpans != 0 {
		t.Errorf("dropped %d spans", tl.DroppedSpans)
	}

	// Root duration ≈ job wall time. The trace opens at submission and
	// closes just after the job resolves, so allow 10% plus a small
	// absolute slop for the publish step itself.
	wall := view.Finished.Sub(view.Created).Microseconds()
	slop := wall/10 + (20 * time.Millisecond).Microseconds()
	if diff := tl.DurationUs - wall; diff < -slop || diff > slop {
		t.Errorf("root duration %dus vs job wall time %dus (slop %dus)", tl.DurationUs, wall, slop)
	}

	// The top-level phases partition the job: queue-wait and compute are
	// sequential and must sum to the root within 10%.
	var phases int64
	seen := map[string]int{}
	for _, c := range tl.Root.Children {
		phases += c.DurationUs
		seen[c.Name]++
	}
	for _, want := range []string{"queue-wait", "compute"} {
		if seen[want] != 1 {
			t.Errorf("root has %d %q children, want 1 (children: %v)", seen[want], want, seen)
		}
	}
	if lo := tl.DurationUs * 9 / 10; phases < lo || phases > tl.DurationUs+slop {
		t.Errorf("phase spans sum to %dus, root is %dus", phases, tl.DurationUs)
	}

	// The compute subtree carries the runner's spans: fig1 simulates the
	// 12-benchmark suite, so 12 per-run spans, each leader recording.
	runs := findSpans(tl.Root, "run")
	if len(runs) != 12 {
		t.Errorf("timeline has %d run spans, want 12", len(runs))
	}
	for _, run := range runs {
		if run.Cfg == "" || run.Bench == "" {
			t.Errorf("run span missing labels: cfg=%q bench=%q", run.Cfg, run.Bench)
		}
		if n := len(childSpans(run, "cache-lookup")); n != 1 {
			t.Errorf("run %s/%s has %d cache-lookup children, want 1", run.Cfg, run.Bench, n)
		}
	}
	if n := len(findSpans(tl.Root, "cache-lookup")); n != len(runs) {
		t.Errorf("timeline has %d cache-lookup spans for %d runs", n, len(runs))
	}
	if rec := findSpans(tl.Root, "record"); len(rec) == 0 {
		t.Error("timeline has no record spans")
	}
}

// TestJobTimelineCacheHit pins the warm shape: a resubmitted job still
// renders under a compute span, but every run is one cache lookup — no
// recording, no trace load, no replayed interval.
func TestJobTimelineCacheHit(t *testing.T) {
	const scale = 12_000
	_, ts := testServer(t, Options{})

	first, _ := postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: scale}, true)
	decodeResult(t, first)
	second, _ := postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: scale}, true)
	if !second.CacheHit {
		t.Fatalf("second submission missed the cache (source %s)", second.Source)
	}

	tl, code, body := getTimeline(t, ts.URL, second.ID)
	if code != http.StatusOK {
		t.Fatalf("timeline: HTTP %d: %s", code, body)
	}
	for _, name := range []string{"record", "trace-load", "replay"} {
		if n := findSpans(tl.Root, name); len(n) != 0 {
			t.Errorf("warm timeline has %d %s spans", len(n), name)
		}
	}
	runs := findSpans(tl.Root, "run")
	if len(runs) == 0 {
		t.Fatal("warm timeline has no run spans")
	}
	for _, run := range runs {
		if n := len(childSpans(run, "cache-lookup")); n != 1 || len(run.Children) != 1 {
			t.Errorf("warm run %s/%s has %d cache-lookup of %d children, want exactly one lookup",
				run.Cfg, run.Bench, n, len(run.Children))
		}
	}
	if n := len(findSpans(tl.Root, "cache-lookup")); n != len(runs) {
		t.Errorf("warm timeline has %d cache-lookup spans for %d runs", n, len(runs))
	}
}

// childSpans returns n's direct children named name.
func childSpans(n *obs.TreeNode, name string) []*obs.TreeNode {
	var out []*obs.TreeNode
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// TestJobTimelineNotFound pins the two 404 shapes: an unknown id, and a
// job that exists but has not resolved yet.
func TestJobTimelineNotFound(t *testing.T) {
	_, ts := testServer(t, Options{Jobs: 1})

	if _, code, body := getTimeline(t, ts.URL, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d: %s", code, body)
	} else if want := `unknown job \"nope\"`; !strings.Contains(body, want) {
		t.Errorf("unknown id: body %q missing %q", body, want)
	}

	// With one worker slot, a second submission stays queued behind the
	// first — long enough to observe its no-timeline-yet answer.
	running, code := postJob(t, ts.URL, JobSpec{Exp: "fig1", Scale: 60_000}, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	queued, code := postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: 60_000}, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	_, code, body := getTimeline(t, ts.URL, queued.ID)
	if code != http.StatusNotFound || !strings.Contains(body, "no timeline yet") {
		t.Errorf("queued job: HTTP %d: %s", code, body)
	}
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
}
