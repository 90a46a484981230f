package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// clusterHarness boots a coordinator plus n workers over httptest,
// wiring the workers' heartbeats at a fast cadence so tests never wait
// on the production 1s period.
type clusterHarness struct {
	coord   *Server
	coordTS *httptest.Server
	workers []*Server
	workTS  []*httptest.Server
}

func newClusterHarness(t *testing.T, n int, coordOpts Options) *clusterHarness {
	t.Helper()
	coordOpts.Coordinator = true
	if coordOpts.SimWorkers == 0 {
		coordOpts.SimWorkers = 2
	}
	h := &clusterHarness{}
	h.coord = New(coordOpts)
	h.coordTS = httptest.NewServer(h.coord.Handler())
	t.Cleanup(func() {
		h.coordTS.Close()
		h.coord.Close()
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		w := New(Options{
			Worker:         true,
			JoinURL:        h.coordTS.URL,
			SimWorkers:     2,
			HeartbeatEvery: 50 * time.Millisecond,
		})
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(func() {
			ts.Close()
			w.Close()
		})
		w.StartWorker(ctx, ts.URL)
		h.workers = append(h.workers, w)
		h.workTS = append(h.workTS, ts)
	}
	h.waitWorkers(t, n)
	return h
}

// waitWorkers blocks until the coordinator sees n live workers.
func (h *clusterHarness) waitWorkers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.coord.cluster.liveWorkers() >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d live workers (have %d)", n, h.coord.cluster.liveWorkers())
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestClusterByteIdentical is the tentpole acceptance pin: an
// experiment served by a coordinator with two workers is byte-identical
// to the same spec on a plain single-process daemon, the work actually
// went remote, and the ISSUE's cluster metrics are live.
func TestClusterByteIdentical(t *testing.T) {
	const scale = 20_000
	spec := JobSpec{Exp: "fig1", Scale: scale, Shards: 2, CheckpointEvery: 2000}

	_, plainTS := testServer(t, Options{})
	plainView, code := postJob(t, plainTS.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("plain submit: HTTP %d", code)
	}
	want := renderAll(decodeResult(t, plainView).Tables)

	h := newClusterHarness(t, 2, Options{})
	view, code := postJob(t, h.coordTS.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("cluster submit: HTTP %d", code)
	}
	got := renderAll(decodeResult(t, view).Tables)
	if got != want {
		t.Fatalf("clustered result diverges from single process:\n--- plain ---\n%s\n--- cluster ---\n%s", want, got)
	}

	m := metricsText(t, h.coordTS.URL)
	if v := metricValue(t, m, "sdvd_cluster_workers"); v != 2 {
		t.Errorf("sdvd_cluster_workers = %d, want 2", v)
	}
	if v := metricValue(t, m, "sdvd_cluster_shards_dispatched_total"); v == 0 {
		t.Error("sdvd_cluster_shards_dispatched_total = 0, want > 0")
	}
	if v := metricValue(t, m, "sdvd_cluster_shards_remote_total"); v == 0 {
		t.Error("sdvd_cluster_shards_remote_total = 0: nothing actually ran on a worker")
	}
	if v := metricValue(t, m, "sdvd_cluster_artifact_pulls_total"); v == 0 {
		t.Error("sdvd_cluster_artifact_pulls_total = 0: workers never pulled a recording")
	}
	metricValue(t, m, "sdvd_cluster_requeues_total") // present even when 0

	executed := int64(0)
	for i, w := range h.workers {
		wm := metricsText(t, h.workTS[i].URL)
		executed += metricValue(t, wm, "sdvd_worker_shards_executed_total")
		_ = w
	}
	if executed == 0 {
		t.Error("no worker executed any shard")
	}

	// Observability rides the same harness: the job's timeline must show
	// the dispatch fan-out with remote halves grafted in — spans marked
	// remote carrying the worker's reported execution time — and the
	// latency histograms must have observed the traffic.
	tl, code, body := getTimeline(t, h.coordTS.URL, view.ID)
	if code != http.StatusOK {
		t.Fatalf("cluster timeline: HTTP %d: %s", code, body)
	}
	if n := findSpans(tl.Root, "shard-fanout"); len(n) == 0 {
		t.Error("cluster timeline has no shard-fanout spans")
	}
	if n := findSpans(tl.Root, "shard-remote"); len(n) == 0 {
		t.Error("cluster timeline has no shard-remote spans")
	} else {
		for _, sp := range n {
			if !sp.Remote || sp.Detail == "" {
				t.Errorf("shard-remote span not marked remote or missing worker id: %+v", sp)
			}
		}
	}
	if n := findSpans(tl.Root, "shard-exec"); len(n) == 0 {
		t.Error("cluster timeline has no shard-exec spans (worker never reported exec_us)")
	}
	if !strings.Contains(m, "# TYPE sdvd_shard_rtt_seconds histogram") {
		t.Error("coordinator /metrics missing sdvd_shard_rtt_seconds histogram")
	}
	if v := metricValue(t, m, "sdvd_shard_rtt_seconds_count"); v == 0 {
		t.Error("sdvd_shard_rtt_seconds_count = 0: no RTT observed")
	}
}

// failingWorker answers /v1/shards with 500 after optionally succeeding
// for a while — a worker that dies mid-sweep.
type failingWorker struct {
	inner    http.Handler
	failAt   int64 // shard requests served successfully before failing
	requests atomic.Int64
}

func (f *failingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shards" && f.requests.Add(1) > f.failAt {
		writeError(w, http.StatusInternalServerError, "injected worker failure")
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestClusterRequeueByteIdentical is the chaos pin: a worker that
// advertises many cores (so placement prefers it) and then fails every
// shard mid-sweep forces requeues, and the sweep still completes with
// byte-identical output. Determinism is what makes the requeued
// re-runs safe.
func TestClusterRequeueByteIdentical(t *testing.T) {
	const scale = 20_000
	spec := JobSpec{Exp: "fig1", Scale: scale, Shards: 2, CheckpointEvery: 2000}

	_, plainTS := testServer(t, Options{})
	plainView, code := postJob(t, plainTS.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("plain submit: HTTP %d", code)
	}
	want := renderAll(decodeResult(t, plainView).Tables)

	// One healthy worker plus one poison worker: the poison node
	// advertises 64 cores, so the least-loaded placement sends it
	// (nearly) everything — each such dispatch fails after the second
	// request and must requeue.
	h := newClusterHarness(t, 1, Options{})
	poison := New(Options{
		Worker:         true,
		JoinURL:        h.coordTS.URL,
		SimWorkers:     64,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	ph := &failingWorker{inner: poison.Handler(), failAt: 2}
	pts := httptest.NewServer(ph)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		pts.Close()
		poison.Close()
	})
	poison.StartWorker(ctx, pts.URL)
	h.waitWorkers(t, 2)

	view, code := postJob(t, h.coordTS.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("cluster submit: HTTP %d", code)
	}
	got := renderAll(decodeResult(t, view).Tables)
	if got != want {
		t.Fatal("result diverges after mid-sweep worker failure — requeue broke byte-identity")
	}
	m := metricsText(t, h.coordTS.URL)
	if v := metricValue(t, m, "sdvd_cluster_requeues_total"); v == 0 {
		t.Error("sdvd_cluster_requeues_total = 0: the poison worker never forced a requeue")
	}
}

// TestClusterWorkerExpiry pins liveness: a worker whose heartbeats stop
// drops out of placement after the expiry window.
func TestClusterWorkerExpiry(t *testing.T) {
	coord := New(Options{Coordinator: true, SimWorkers: 1, WorkerExpiry: 50 * time.Millisecond})
	defer coord.Close()
	if _, err := coord.cluster.join("http://127.0.0.1:1", 2); err != nil {
		t.Fatal(err)
	}
	if n := coord.cluster.liveWorkers(); n != 1 {
		t.Fatalf("live workers = %d, want 1", n)
	}
	time.Sleep(80 * time.Millisecond)
	if n := coord.cluster.liveWorkers(); n != 0 {
		t.Fatalf("live workers = %d after expiry, want 0", n)
	}
	// A fresh heartbeat revives it.
	if _, err := coord.cluster.join("http://127.0.0.1:1", 2); err != nil {
		t.Fatal(err)
	}
	if n := coord.cluster.liveWorkers(); n != 1 {
		t.Fatalf("live workers = %d after re-join, want 1", n)
	}
}

// TestClusterJoinValidation pins the join endpoint's input checks.
func TestClusterJoinValidation(t *testing.T) {
	h := newClusterHarness(t, 0, Options{})
	for _, body := range []string{
		`{"url":"","cores":2}`,
		`{"url":"not-a-url","cores":2}`,
		`{"url":"http://ok:1","cores":1,"junk":true}`,
	} {
		resp, err := http.Post(h.coordTS.URL+"/v1/cluster/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("join %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(h.coordTS.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []WorkerView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Errorf("rejected joins still registered workers: %v", views)
	}
}

// flakyArtifacts serves the coordinator's API but corrupts the first
// artifact response and 500s the second, exercising the worker's
// verify-and-retry pull path.
type flakyArtifacts struct {
	inner http.Handler
	gets  atomic.Int64
}

func (f *flakyArtifacts) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/artifacts/") {
		switch f.gets.Add(1) {
		case 1:
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("corrupted bytes"))
			return
		case 2:
			writeError(w, http.StatusInternalServerError, "transient artifact failure")
			return
		}
	}
	f.inner.ServeHTTP(w, r)
}

// TestWorkerPullRetryAndVerify pins the artifact fetch contract: a
// corrupted transfer is detected by content-address verification, a 5xx
// is retried, and the third attempt succeeds — the shard result is
// still byte-identical to a healthy cluster's.
func TestWorkerPullRetryAndVerify(t *testing.T) {
	const scale = 15_000
	// Sharded so every run dispatches several intervals.
	spec := JobSpec{Exp: "fig1", Scale: scale, Shards: 2, CheckpointEvery: 2000}

	_, plainTS := testServer(t, Options{})
	plainView, code := postJob(t, plainTS.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("plain submit: HTTP %d", code)
	}
	want := renderAll(decodeResult(t, plainView).Tables)

	coord := New(Options{Coordinator: true, SimWorkers: 1})
	fa := &flakyArtifacts{inner: coord.Handler()}
	cts := httptest.NewServer(fa)
	t.Cleanup(func() {
		cts.Close()
		coord.Close()
	})

	w := New(Options{Worker: true, JoinURL: cts.URL, SimWorkers: 8, HeartbeatEvery: 50 * time.Millisecond})
	wts := httptest.NewServer(w.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		wts.Close()
		w.Close()
	})
	w.StartWorker(ctx, wts.URL)
	deadline := time.Now().Add(5 * time.Second)
	for coord.cluster.liveWorkers() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	view, code := postJob(t, cts.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("cluster submit: HTTP %d", code)
	}
	if got := renderAll(decodeResult(t, view).Tables); got != want {
		t.Fatal("result diverges after corrupted + failed artifact pulls")
	}
	wm := metricsText(t, wts.URL)
	if v := metricValue(t, wm, "sdvd_worker_artifact_fetch_retries_total"); v < 2 {
		t.Errorf("sdvd_worker_artifact_fetch_retries_total = %d, want >= 2 (corruption + 5xx)", v)
	}
}

// TestShardEndpointValidation pins the worker's /v1/shards input
// checks: bad JSON, an addressless task and an interval its recording
// cannot feed are 4xx (the coordinator must not requeue those).
func TestShardEndpointValidation(t *testing.T) {
	w := New(Options{Worker: true, JoinURL: "http://127.0.0.1:1", SimWorkers: 1})
	defer w.Close()
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	// Seed the worker's trace cache so the out-of-range task resolves its
	// recording without a coordinator.
	b, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(2_000, 1)
	mach, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(2_000 + trace.RecordSlack)
	if err != nil {
		t.Fatal(err)
	}
	w.agent.mu.Lock()
	w.agent.entries["seeded"] = w.agent.order.PushFront(&workerTraceEntry{id: "seeded", tr: tr})
	w.agent.mu.Unlock()
	outOfRange, err := json.Marshal(experiments.ShardTask{
		Cfg: config.MustNamed(4, 1, config.ModeV), Bench: "compress", Trace: "seeded", Measure: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"cfg":{},"bench":"x","replayFrom":0,"warmup":0,"measure":10}`, http.StatusBadRequest}, // no trace address
		{string(outOfRange), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/shards", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST /v1/shards %q: HTTP %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
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
