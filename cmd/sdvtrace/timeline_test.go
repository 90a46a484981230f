package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specvec/internal/obs"
)

// buildTimeline assembles a deterministic three-phase job timeline on a
// manual clock: 1ms queue wait, 2ms lookup, 40ms compute holding one
// run with one 35ms replay.
func buildTimeline() obs.Timeline {
	clk := obs.NewManualClock(time.Unix(100, 0))
	tr := obs.NewTrace("t01", clk, "job")
	q := tr.Start(obs.RootSpan, "queue-wait")
	clk.Advance(time.Millisecond)
	tr.End(q)
	l := tr.Start(obs.RootSpan, "cache-lookup")
	clk.Advance(2 * time.Millisecond)
	tr.End(l)
	comp := tr.Start(obs.RootSpan, "compute")
	run := tr.StartRun(comp, "run", "sdv", "swim")
	clk.Advance(5 * time.Millisecond)
	replay := tr.Start(run, "replay")
	clk.Advance(35 * time.Millisecond)
	tr.End(replay)
	tr.End(run)
	tr.End(comp)
	tr.Finish()
	return obs.NewTimeline("j000007", "experiment", "done", tr, clk.Now())
}

func TestRenderTimeline(t *testing.T) {
	var sb strings.Builder
	renderTimeline(&sb, buildTimeline(), 20)
	out := sb.String()

	for _, want := range []string{
		"job j000007 (experiment, done): 6 spans, 43ms",
		"queue-wait",
		"cache-lookup",
		"compute",
		"run sdv/swim",
		"|====================|  job",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered timeline missing %q:\n%s", want, out)
		}
	}
	// Depth is conveyed by indentation: the run nests two levels under
	// the root, its replay three.
	if !strings.Contains(out, "|      run sdv/swim") {
		t.Errorf("run span not indented two levels:\n%s", out)
	}
	if !strings.Contains(out, "|        replay") {
		t.Errorf("replay span not indented three levels:\n%s", out)
	}
}

func TestFetchTimeline(t *testing.T) {
	tl := buildTimeline()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "j000007" {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
			return
		}
		_ = json.NewEncoder(w).Encode(tl)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	got, err := fetchTimeline(ts.URL, "j000007")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != tl.ID || got.Spans != tl.Spans || got.Root == nil {
		t.Errorf("fetched timeline diverges: %+v", got)
	}
	if _, err := fetchTimeline(ts.URL, "nope"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("missing job: err = %v, want the daemon's message", err)
	}
}
