package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"specvec/internal/config"
	"specvec/internal/experiments"
)

// testServer boots a Server over httptest with small bounds.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.SimWorkers == 0 {
		opts.SimWorkers = 2
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, base string, spec JobSpec, wait bool) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	url := base + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(payload, &view); err != nil {
			t.Fatalf("decoding job view: %v\n%s", err, payload)
		}
	}
	return view, resp.StatusCode
}

func decodeResult(t *testing.T, view JobView) Result {
	t.Helper()
	if view.State != StateDone {
		t.Fatalf("job %s state %s (%s)", view.ID, view.State, view.Error)
	}
	var res Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServedExperimentByteIdentical is the acceptance pin: tables served
// by the daemon, rendered client-side, are byte-identical to a local
// runner at the same scale/seed — and a repeated submission is served
// from the cache without re-simulating.
func TestServedExperimentByteIdentical(t *testing.T) {
	const scale = 20_000
	s, ts := testServer(t, Options{})

	view, code := postJob(t, ts.URL, JobSpec{Exp: "fig1", Scale: scale}, true)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	res := decodeResult(t, view)
	if view.CacheHit {
		t.Error("first submission claims a cache hit")
	}

	local, err := experiments.Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := local.Run(experiments.NewRunner(experiments.Options{Scale: scale, Seed: 1, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(tables)
	got := renderAll(res.Tables)
	if want != got {
		t.Fatalf("served tables diverge from local run:\n--- local ---\n%s\n--- served ---\n%s", want, got)
	}

	// Resubmit: same spec, different job — served from cache.
	again, _ := postJob(t, ts.URL, JobSpec{Exp: "fig1", Scale: scale}, true)
	res2 := decodeResult(t, again)
	if !again.CacheHit || again.Source != "memory" {
		t.Errorf("resubmission not served from cache: hit=%v source=%s", again.CacheHit, again.Source)
	}
	if renderAll(res2.Tables) != want {
		t.Error("cached tables diverge")
	}
	if got := s.sched.sims.Value(); got != 12 {
		// fig1 runs the 12-benchmark suite once; the resubmission must not
		// have simulated anything.
		t.Errorf("daemon executed %d simulations, want 12", got)
	}
}

func renderAll(tables []*experiments.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestServedSimMatchesLocal pins the sim kind against a direct runner.
func TestServedSimMatchesLocal(t *testing.T) {
	_, ts := testServer(t, Options{})
	view, _ := postJob(t, ts.URL, JobSpec{Workload: "compress", Config: "4w-1pV", Scale: 10_000}, true)
	res := decodeResult(t, view)

	r := experiments.NewRunner(experiments.Options{Scale: 10_000, Seed: 1, Workers: 1})
	want, err := r.Run(config.MustNamed(4, 1, config.ModeV), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.String() != want.String() {
		t.Fatalf("served stats diverge:\n%v\nvs\n%s", res.Stats, want)
	}
}

// TestJobEventsSSE submits asynchronously and reads the SSE stream to the
// terminal state, checking ordering and progress presence.
func TestJobEventsSSE(t *testing.T) {
	_, ts := testServer(t, Options{})
	view, code := postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: 20_000}, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var states []JobState
	progress := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Kind {
		case "state":
			states = append(states, ev.State)
		case "progress":
			progress++
		}
		if ev.Kind == "state" && ev.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wantStates := []JobState{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(wantStates) {
		t.Errorf("states %v, want %v", states, wantStates)
	}
	if progress == 0 {
		t.Error("no progress events streamed")
	}
}

// readEvents streams /v1/jobs/{id}/events until the terminal state
// event, returning every event in arrival order. firstProgress, if
// non-nil, is closed when the first run-progress event arrives.
func readEvents(t *testing.T, base, id string, firstProgress chan<- struct{}) []Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []Event
	signalled := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Errorf("bad event %q: %v", line, err)
			return evs
		}
		evs = append(evs, ev)
		if firstProgress != nil && !signalled && ev.Phase == "run-progress" {
			signalled = true
			close(firstProgress)
		}
		if ev.Kind == "state" && ev.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Error(err)
	}
	if firstProgress != nil && !signalled {
		close(firstProgress)
	}
	return evs
}

// checkEventStream asserts the per-subscriber SSE invariants: sequence
// numbers strictly increasing and gap-free across the history→live
// handoff, run-started preceding every run-progress and run-done of the
// same (cfg,bench) run, each run's committed count strictly increasing
// across its run-progress events, and the stream ending in exactly one
// terminal state event.
func checkEventStream(t *testing.T, who string, evs []Event) {
	t.Helper()
	if len(evs) == 0 {
		t.Errorf("%s: empty event stream", who)
		return
	}
	if evs[0].Seq != 0 {
		t.Errorf("%s: history replay starts at seq %d, want 0", who, evs[0].Seq)
	}
	started := map[string]bool{}
	committed := map[string]uint64{}
	for i, ev := range evs {
		if i > 0 && ev.Seq != evs[i-1].Seq+1 {
			t.Errorf("%s: seq %d follows %d (gap or duplicate at the history→live handoff)", who, ev.Seq, evs[i-1].Seq)
		}
		run := ev.Cfg + "/" + ev.Bench
		switch ev.Phase {
		case "run-started":
			if started[run] {
				t.Errorf("%s: duplicate run-started for %s", who, run)
			}
			started[run] = true
		case "run-progress":
			if !started[run] {
				t.Errorf("%s: run-progress at %d for %s before its run-started", who, ev.Committed, run)
			}
			if ev.Committed <= committed[run] {
				t.Errorf("%s: %s progressed to %d after %d", who, run, ev.Committed, committed[run])
			}
			committed[run] = ev.Committed
		case "run-done":
			if !ev.Cached && !started[run] {
				t.Errorf("%s: run-done for %s before its run-started", who, run)
			}
		}
		if terminal := ev.Kind == "state" && ev.State.Terminal(); terminal != (i == len(evs)-1) {
			t.Errorf("%s: terminal state event at %d/%d", who, i, len(evs)-1)
		}
	}
	if len(committed) != len(started) {
		t.Errorf("%s: %d runs started but %d reported progress", who, len(started), len(committed))
	}
}

// TestSSEOrderingConcurrentPublishers pins event ordering and history
// replay under concurrent publishers: fig1 fans 12 runs across the
// worker pool, so run-started/run-progress/run-done events are published
// from many goroutines at once. An immediate subscriber watches live; a
// late subscriber connects only after the first run-progress has already
// been published and must still see every event from seq 0 — RunStarted
// before every RunProgress — via history replay. Run under -race, this
// also hammers publish/subscribe.
func TestSSEOrderingConcurrentPublishers(t *testing.T) {
	_, ts := testServer(t, Options{SimWorkers: 4})
	view, code := postJob(t, ts.URL, JobSpec{Exp: "fig1", Scale: 20_000}, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	firstProgress := make(chan struct{})
	earlyDone := make(chan []Event, 1)
	go func() {
		earlyDone <- readEvents(t, ts.URL, view.ID, firstProgress)
	}()

	// The late subscriber joins mid-job, after progress events are
	// already flowing from concurrent pool goroutines.
	<-firstProgress
	late := readEvents(t, ts.URL, view.ID, nil)
	early := <-earlyDone

	checkEventStream(t, "early", early)
	checkEventStream(t, "late", late)

	// Both subscribers saw the same total history.
	if len(early) != len(late) {
		t.Errorf("early saw %d events, late saw %d", len(early), len(late))
	}
}

// TestJobCancellation cancels a large running job over the API and checks
// it resolves cancelled well before it could have finished.
func TestJobCancellation(t *testing.T) {
	_, ts := testServer(t, Options{SimWorkers: 1})
	view, _ := postJob(t, ts.URL, JobSpec{Exp: "fig11", Scale: 2_000_000}, false)

	// Wait for it to start running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobView
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+view.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	for {
		var cur JobView
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State.Terminal() {
			if cur.State != StateCancelled {
				t.Fatalf("state %s, want cancelled", cur.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never resolved")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueBound fills the single worker and the one-deep queue, then
// expects 503 on the next submission.
func TestQueueBound(t *testing.T) {
	_, ts := testServer(t, Options{Jobs: 1, QueueDepth: 1, SimWorkers: 1})
	// Two slow jobs: one occupies the worker, one the queue.
	a, _ := postJob(t, ts.URL, JobSpec{Exp: "fig11", Scale: 1_000_000}, false)
	b, _ := postJob(t, ts.URL, JobSpec{Exp: "fig12", Scale: 1_000_000}, false)
	_, code := postJob(t, ts.URL, JobSpec{Exp: "fig13", Scale: 1_000_000}, false)
	if code != http.StatusServiceUnavailable {
		t.Errorf("third submission got HTTP %d, want 503", code)
	}
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		http.DefaultClient.Do(req)
	}
}

// TestSpecValidationHTTP maps invalid specs to 400 with a one-line error.
// The retired sharding fields are unknown fields now: a body carrying
// one is rejected by the decoder, not silently ignored. Those bodies come
// from FuzzJobSpec's retired-field seeds, which stay as rejection seeds.
func TestSpecValidationHTTP(t *testing.T) {
	_, ts := testServer(t, Options{})
	retired := []string{`{"exp":"fig1","shards":2}`, `{"exp":"fig1","shards":-2}`}
	for _, seed := range []string{"exp-sharded", "exp-sharded-ckpt", "bad-negative-ckpt"} {
		retired = append(retired, fuzzSeed(t, "FuzzJobSpec", seed))
	}
	for _, body := range append([]string{
		`{"exp":"nosuch"}`,
		`{"exp":"all"}`,
		`{"exp":"fig1","scale":-1}`,
		`{"workload":"nosuch"}`,
		`{"workload":"swim","config":"9w-9pX"}`,
		`{"exp":"fig1","workload":"swim"}`,
		`{}`,
		`{"unknown":"field"}`,
	}, retired...) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s got HTTP %d, want 400", body, resp.StatusCode)
		}
		if err != nil || apiErr.Error == "" || strings.Contains(apiErr.Error, "\n") {
			t.Errorf("spec %s: want a one-line error, got %q (%v)", body, apiErr.Error, err)
		}
	}
	for _, body := range retired {
		if _, err := decodeJobSpec(nil, io.NopCloser(strings.NewReader(body))); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("spec %s: want an unknown-field error, got %v", body, err)
		}
	}
}

// fuzzSeed returns the body of one of fuzz target's checked-in corpus
// seeds (testdata/fuzz/<target>/<name>, a single []byte value).
func fuzzSeed(t *testing.T, target, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || len(lines) != 2 {
		t.Fatalf("seed %s/%s is not one []byte value", target, name)
	}
	body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed %s/%s: %v", target, name, err)
	}
	return body
}

// TestMetricsAndHealth checks the observability endpoints carry the
// job/cache counters the acceptance criteria rely on.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := testServer(t, Options{})
	if _, code := postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: 10_000}, true); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: 10_000}, true) // warm hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"sdvd_jobs_submitted_total 2",
		"sdvd_jobs_completed_total 2",
		"sdvd_sims_total",
		"sdvd_hotpath_uop_recycles_total",
		"sdvd_go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// The cache counts runs: fig3 simulates its 12 runs once (12
	// misses), and the warm resubmission looks each up in memory (12
	// hits). Whole lines, so 1 never passes for 12.
	lines := map[string]bool{}
	for _, l := range strings.Split(text, "\n") {
		lines[l] = true
	}
	for _, want := range []string{
		"sdvd_cache_hits_total 12",
		"sdvd_cache_misses_total 12",
		"sdvd_cache_disk_hits_total 0",
		"sdvd_cache_coalesced_total 0",
		"sdvd_sims_total 12",
		"sdvd_cache_lookup_seconds_count 24",
	} {
		if !lines[want] {
			t.Errorf("metrics missing the line %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz: %v", health)
	}
}

// TestTraceArtifactsCrossJobs: two different experiments over the same
// workloads share recordings through the artifact store — the second job
// loads instead of re-recording.
func TestTraceArtifactsCrossJobs(t *testing.T) {
	s, ts := testServer(t, Options{})
	if _, code := postJob(t, ts.URL, JobSpec{Exp: "fig1", Scale: 10_000}, true); code != http.StatusOK {
		t.Fatalf("fig1: HTTP %d", code)
	}
	recordedAfterFirst := s.sched.recorded.Value()
	if recordedAfterFirst == 0 {
		t.Fatal("first job recorded nothing")
	}
	if _, code := postJob(t, ts.URL, JobSpec{Exp: "fig3", Scale: 10_000}, true); code != http.StatusOK {
		t.Fatalf("fig3: HTTP %d", code)
	}
	if s.sched.recorded.Value() != recordedAfterFirst {
		t.Errorf("second job re-recorded traces: %d -> %d", recordedAfterFirst, s.sched.recorded.Value())
	}
	if s.sched.traceLoads.Value() == 0 {
		t.Error("second job loaded no stored traces")
	}
}

// TestJobHistoryBound: terminal jobs beyond the retention bound are
// evicted (404), the newest retained, and results stay reachable through
// the cache by resubmitting.
func TestJobHistoryBound(t *testing.T) {
	_, ts := testServer(t, Options{JobHistory: 2})
	var ids []string
	for _, seed := range []int64{1, 2, 3, 4} {
		view, code := postJob(t, ts.URL, JobSpec{Workload: "compress", Config: "4w-1pV", Scale: 3_000, Seed: seed}, true)
		if code != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d", seed, code)
		}
		ids = append(ids, view.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []JobView
	json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if len(listed) != 2 {
		t.Fatalf("%d jobs retained, want 2", len(listed))
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s answered HTTP %d, want 404", id, resp.StatusCode)
		}
	}
	// The evicted jobs' results are still one resubmission away.
	view, _ := postJob(t, ts.URL, JobSpec{Workload: "compress", Config: "4w-1pV", Scale: 3_000, Seed: 1}, true)
	if !view.CacheHit {
		t.Error("evicted job's result was not served from cache on resubmission")
	}
}

// TestCloseResolvesQueuedJobs: shutting the scheduler down must resolve
// every queued job (a ?wait=1 client must never hang on a job nobody
// will run).
func TestCloseResolvesQueuedJobs(t *testing.T) {
	s := New(Options{Jobs: 1, QueueDepth: 4, SimWorkers: 1})
	// One slow job occupies the worker; the rest sit in the queue.
	var jobs []*Job
	for i, spec := range []JobSpec{
		{Exp: "fig11", Scale: 2_000_000},
		{Exp: "fig12", Scale: 2_000_000},
		{Exp: "fig13", Scale: 2_000_000},
	} {
		norm := mustNorm(t, spec)
		job, err := s.sched.Submit(norm, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, job := range jobs {
		select {
		case <-job.Done():
			if st := job.State(); st != StateCancelled {
				t.Errorf("job %s resolved %s, want cancelled", job.ID, st)
			}
		default:
			t.Errorf("job %s (%s) left unresolved after Close", job.ID, job.State())
		}
	}
	if _, err := s.sched.Submit(mustNorm(t, JobSpec{Exp: "fig1"}), nil); !errors.Is(err, ErrShutdown) {
		t.Errorf("post-Close submit: %v, want ErrShutdown", err)
	}
}

// TestExperimentListing mirrors sdvexp -list.
func TestExperimentListing(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []struct{ ID, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	all := experiments.All()
	if len(got) != len(all) {
		t.Fatalf("%d experiments listed, want %d", len(got), len(all))
	}
	for i := range all {
		if got[i].ID != all[i].ID {
			t.Errorf("experiment %d: %s, want %s", i, got[i].ID, all[i].ID)
		}
	}
}

// TestResultJSONRoundTrip pins the exactness chain at the encoding level:
// a Result with tables survives JSON and renders identically.
func TestResultJSONRoundTrip(t *testing.T) {
	local, err := experiments.Get("fig13")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := local.Run(experiments.NewRunner(experiments.Options{Scale: 10_000, Seed: 1, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Tables: tables}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if renderAll(back.Tables) != renderAll(tables) {
		t.Fatal("tables do not survive a JSON round trip byte-identically")
	}
}

// TestPprofHandler pins the opt-in profiling satellite: the handler
// serves the pprof index and a profile endpoint, and the daemon's API
// mux does NOT carry /debug/pprof (it is a separate listener by
// design).
func TestPprofHandler(t *testing.T) {
	ts := httptest.NewServer(PprofHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "goroutine") {
		t.Errorf("pprof index: HTTP %d, body %.80q", resp.StatusCode, b)
	}
	resp, err = http.Get(ts.URL + "/debug/pprof/symbol")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof symbol: HTTP %d", resp.StatusCode)
	}

	_, api := testServer(t, Options{})
	resp, err = http.Get(api.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("API mux serves /debug/pprof/ (HTTP %d); profiling must stay on its own listener", resp.StatusCode)
	}
}
