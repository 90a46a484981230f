package server

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"specvec/internal/config"
	"specvec/internal/experiments"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

// TestJobsShareRuns pins the per-run cache: jobs are renders over run
// results, so fig12 after fig11 on one daemon — the same 216-run sweep
// read two ways — simulates and records nothing, and its bytes equal a
// fresh daemon's. A sim job inside that sweep is a lookup too. Jobs that
// differ only in seed, scale or workload definition share no run.
func TestJobsShareRuns(t *testing.T) {
	const scale = 6_000
	s, ts := testServer(t, Options{})
	counts := func() (sims, recs int64) { return s.sched.sims.Value(), s.sched.recorded.Value() }

	if view, code := postJob(t, ts.URL, JobSpec{Exp: "fig11", Scale: scale}, true); code != http.StatusOK || view.Source != "computed" {
		t.Fatalf("fig11: HTTP %d, source %q", code, view.Source)
	}
	sims, recs := counts()
	if sims == 0 || recs == 0 {
		t.Fatalf("fig11 simulated %d runs over %d recordings", sims, recs)
	}

	warm, _ := postJob(t, ts.URL, JobSpec{Exp: "fig12", Scale: scale}, true)
	decodeResult(t, warm)
	if s2, r2 := counts(); s2 != sims || r2 != recs {
		t.Errorf("fig12 after fig11 ran %d simulations and %d recordings, want 0 and 0", s2-sims, r2-recs)
	}
	if !warm.CacheHit || warm.Source != "memory" {
		t.Errorf("fig12 after fig11: hit=%v source=%q, want a memory hit", warm.CacheHit, warm.Source)
	}
	_, fresh := testServer(t, Options{})
	cold, _ := postJob(t, fresh.URL, JobSpec{Exp: "fig12", Scale: scale}, true)
	decodeResult(t, cold)
	if !bytes.Equal(warm.Result, cold.Result) {
		t.Error("fig12 rendered from fig11's runs differs from a fresh daemon's fig12")
	}

	sim, _ := postJob(t, ts.URL, JobSpec{Workload: "compress", Config: "4w-1pV", Scale: scale}, true)
	decodeResult(t, sim)
	if s2, _ := counts(); s2 != sims || !sim.CacheHit {
		t.Errorf("sim compress/4w-1pV inside the fig11 sweep ran %d simulations (hit=%v)", s2-sims, sim.CacheHit)
	}

	const genA = "wspec: 1\nworkloads:\n  - name: gen.share\n    seed: 3\n    blocks:\n      - gen: stride\n        elems: 128\n        stride: 2\n"
	const genB = "wspec: 1\nworkloads:\n  - name: gen.share\n    seed: 4\n    blocks:\n      - gen: stride\n        elems: 128\n        stride: 2\n"
	for _, spec := range []JobSpec{
		{Workload: "compress", Config: "4w-1pV", Scale: scale, Seed: 2},
		{Workload: "compress", Config: "4w-1pV", Scale: scale + 1},
		{Kind: KindSim, Workload: "gen.share", Config: "4w-1pV", Scale: scale, Specs: genA},
		{Kind: KindSim, Workload: "gen.share", Config: "4w-1pV", Scale: scale, Specs: genB},
	} {
		before, _ := counts()
		view, _ := postJob(t, ts.URL, spec, true)
		decodeResult(t, view)
		if after, _ := counts(); after != before+1 || view.CacheHit {
			t.Errorf("%s shared a run: %d simulations, hit=%v", mustNorm(t, spec).Title(), after-before, view.CacheHit)
		}
	}
}

// TestDefinitionDigestKeys: a generated workload's run key and trace key
// carry the digest of its definition. Two definitions under one name are
// different keys — a restarted daemon on the same cache directory never
// serves a redefined workload's old recording or result — and identical
// definitions, however formatted or wherever they come from (a job
// payload or -spec registration), are the same key.
func TestDefinitionDigestKeys(t *testing.T) {
	const name = "gen.digest"
	def := func(seed string) string {
		return "wspec: 1\nworkloads:\n  - name: " + name + "\n    seed: " + seed + "\n    blocks:\n      - gen: branch\n        count: 64\n        entropy: 30\n"
	}
	reformatted := `{"wspec":1,"workloads":[{"blocks":[{"entropy":30,"count":64,"gen":"branch"}],"seed":5,"name":"` + name + `"}]}`
	cfg := config.MustNamed(4, 1, config.ModeV)
	tc := newTraceCache(4, "")
	keys := func(specs string) (run, tr string) {
		t.Helper()
		opts, _, err := mustNorm(t, JobSpec{Kind: KindSweep, Specs: specs, Scale: 8_000}).runOptions()
		if err != nil {
			t.Fatal(err)
		}
		return experiments.RunKey(opts, cfg, name), scopeTraces(tc, opts).(scopedTraces).key(name)
	}
	runA, trA := keys(def("5"))
	runB, trB := keys(def("6"))
	runA2, trA2 := keys(reformatted)
	if runA == runB || trA == trB {
		t.Errorf("two definitions of %s share keys: run %v, trace %v", name, runA == runB, trA == trB)
	}
	if runA != runA2 || trA != trA2 {
		t.Errorf("identical definitions got different keys: run %v, trace %v", runA != runA2, trA != trA2)
	}

	// The same definition registered by name (sdvd -spec) resolves
	// through the registry to the same keys as the payload.
	f, err := wspec.Parse([]byte(def("5")))
	if err != nil {
		t.Fatal(err)
	}
	if err := wspec.RegisterFile(f); err != nil {
		t.Fatal(err)
	}
	b, err := workload.Get(name)
	if err != nil || b.Digest != wspec.Digest(f.Workloads[0]) {
		t.Fatalf("registered %s: digest %q, err %v", name, b.Digest, err)
	}
	opts := experiments.Options{Scale: 8_000}.WithDefaults()
	if experiments.RunKey(opts, cfg, name) != runA || scopeTraces(tc, opts).(scopedTraces).key(name) != trA {
		t.Error("a registered definition and an identical payload got different keys")
	}
	// Built-ins carry no digest: their trace key is unchanged.
	if got, want := scopeTraces(tc, opts).(scopedTraces).key("compress"), "compress-"+traceScope(opts); got != want {
		t.Errorf("built-in trace key %q, want %q", got, want)
	}
}

// TestConcurrentJobsShareRecordings: two experiment jobs over the same 12
// benchmarks, running at once on a fresh daemon, record each benchmark
// once — a job needing a recording another job is making waits for it.
func TestConcurrentJobsShareRecordings(t *testing.T) {
	_, ts := testServer(t, Options{Jobs: 2})
	var wg sync.WaitGroup
	for _, exp := range []string{"fig1", "fig9"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if view, code := postJob(t, ts.URL, JobSpec{Exp: exp, Scale: 5_000}, true); code != http.StatusOK || view.State != StateDone {
				t.Errorf("%s: HTTP %d, state %q", exp, code, view.State)
			}
		}()
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(strings.Split(string(body), "\n"), "sdvd_trace_recordings_total 12") {
		t.Errorf("metrics lack the line %q:\n%s", "sdvd_trace_recordings_total 12", body)
	}
}
