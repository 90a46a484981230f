package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the harness's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the harness: the
// same workloads, metrics, units, directions and bounds, within the
// limits the file format allows.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default -seconds = %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) || len(f.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d (limit 8)", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness:\n file    %+v\n harness %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer differs from the harness:\n file    %+v\n harness %+v", f.PerLayer, perLayerDefs())
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v exceeds 0.25", d.Name, d.Bound)
		}
	}
	for _, w := range f.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size through the full
// parent/child path, then one traced run with the ladder, and checks that
// every metric BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and a daemon")
	}
	tiny := []string{"-scale", "2000", "-passes", "1", "-seconds", "1", "-specs", "../../examples/workloads"}

	line := runHarness(t, append([]string{"-workload", "all"}, tiny...))
	for _, w := range workloads {
		for _, d := range endToEnd {
			checkMetric(t, line, d.Name+"."+w.name, d)
		}
	}

	line = runHarness(t, append([]string{"-workload", "single-runs", "-trace", t.TempDir()}, tiny...))
	for _, d := range perLayerDefs() {
		checkMetric(t, line, d.Name, d)
	}
}

// TestJudge pins compare's verdicts: a gain needs 9/10 pair wins on the
// better side and no added failures, and setup_s is judged against its
// absolute floor.
func TestJudge(t *testing.T) {
	series := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	lowerMB := metricDef{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name         string
		d            metricDef
		a, b         []float64
		moreFailures bool
		want         string
	}{
		{"lower and steady", lowerMB, series(100, 0.5), series(90, 0.5), false, "better"},
		{"gain voided by failures", lowerMB, series(100, 0.5), series(90, 0.5), true, "unchanged"},
		{"worse beyond bound", lowerMB, series(100, 0.5), series(120, 0.5), false, "worse"},
		{"higher is better", higher, series(100, 0.5), series(110, 0.5), false, "better"},
		{"higher, wrong side", higher, series(100, 0.5), series(80, 0.5), false, "worse"},
		{"spread wider than bound", lowerMB, series(100, 10), series(101, 10), false, "unresolved"},
		{"setup jitter under the floor", setup, series(0.003, 0.002), series(0.004, 0.002), false, "unchanged"},
		{"setup beyond the floor", setup, series(0.003, 0.0005), series(0.09, 0.0005), false, "worse"},
	} {
		if got := judge(tc.d, tc.a, tc.b, tc.moreFailures).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func runHarness(t *testing.T, args []string) resultLine {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("sdvbench %v: last line is not the result: %v\n%s", args, err, out.String())
	}
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("sdvbench %v: exit %d, result %+v\n%s", args, code, line, out.String())
	}
	return line
}

func checkMetric(t *testing.T, line resultLine, key string, d metricDef) {
	t.Helper()
	v, ok := line.Metrics[key]
	if !ok {
		t.Errorf("metric %s not emitted", key)
		return
	}
	if v.Unit != d.Unit {
		t.Errorf("metric %s: unit %q, want %q", key, v.Unit, d.Unit)
	}
}
