package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a re-executed child: every workload runs in fresh child
// processes, so it starts cold and its peak RSS is its own.
const childEnv = "SDVBENCH_CHILD"

// defaultSeconds is BENCHMARK.json's run_seconds: the served-warm loop's
// duration. The other workloads run a fixed number of passes instead, so
// their run length is the same on every commit.
const defaultSeconds = 10

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// settings are the command-line flags; the parent forwards them to its
// children.
type settings struct {
	workload   string
	seed       int64
	seconds    int
	scale      int // 0 = each workload's own scale
	passes     int // 0 = each workload's own number of measuring children
	specs      string
	out        string
	goldenOut  string
	role       string // child only
	traceDir   string // from -trace; "" when untraced
	commandArg []string
}

func parseSettings(args []string) (settings, error) {
	var s settings
	var trace string
	fs := flag.NewFlagSet("sdvbench", flag.ContinueOnError)
	fs.StringVar(&s.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Int64Var(&s.seed, "seed", 1, "workload seed (golden digests exist for seeds 1 and 2)")
	fs.IntVar(&s.seconds, "seconds", defaultSeconds, "measured duration of the served-warm loop")
	fs.StringVar(&trace, "trace", "0", "0 = untraced; 1 or DIR = traced run writing spans.json and layers.json to DIR (default .bench_build/trace)")
	fs.IntVar(&s.scale, "scale", 0, "override every workload's scale (0 = benchmark scales; golden digests are checked only at those)")
	fs.IntVar(&s.passes, "passes", 0, "override every workload's number of measuring children, one pass or -seconds loop each (0 = benchmark counts)")
	fs.StringVar(&s.specs, "specs", "examples/workloads", "directory of workload-spec files for single-runs and the ladder")
	fs.StringVar(&s.out, "out", "", "append this invocation's runs to a result JSON file (input of sdvbench compare)")
	fs.StringVar(&s.goldenOut, "golden-out", "", "recompute golden digests for seeds 1 and 2, write them to this file and exit")
	fs.StringVar(&s.role, "role", roleMeasure, "child only: "+roleSetup+", "+roleMeasure+", "+roleSpans+" or "+roleLadder)
	if err := fs.Parse(args); err != nil {
		return s, err
	}
	if fs.NArg() > 0 {
		return s, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if s.seconds < 1 || s.scale < 0 || s.passes < 0 {
		return s, errors.New("-seconds must be >= 1 and -scale, -passes >= 0")
	}
	switch trace {
	case "", "0":
	case "1":
		s.traceDir = filepath.Join(".bench_build", "trace")
	default:
		s.traceDir = trace
	}
	s.commandArg = args
	return s, nil
}

// childArgs renders the flags a child in the given role needs.
func (s settings) childArgs(workload, role string) []string {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds),
		"-scale", fmt.Sprint(s.scale), "-specs", s.specs, "-role", role}
	if s.traceDir != "" {
		args = append(args, "-trace", s.traceDir)
	}
	return args
}

// childOutcome is what the parent learned from one workload's children,
// or from the ladder's child.
type childOutcome struct {
	name    string      // workload name, or "ladder"
	child   childResult // the measuring children's results, merged
	setups  []float64   // exec-to-ready of every child, s
	rssMB   []float64   // Maxrss of every untraced measuring child
	golden  string
	failed  int      // child failures plus golden and identity mismatches
	errs    []string // child errors plus golden and identity mismatches
	metrics map[string]float64
}

func run(args []string, stdout io.Writer) int {
	s, err := parseSettings(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvbench:", err)
		return 2
	}
	if s.goldenOut != "" {
		if err := writeGolden(s); err != nil {
			fmt.Fprintln(os.Stderr, "sdvbench:", err)
			return 1
		}
		return 0
	}
	wls, err := selectWorkloads(s.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvbench:", err)
		return 2
	}
	if s.traceDir != "" {
		if err := os.MkdirAll(s.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sdvbench:", err)
			return 1
		}
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvbench:", err)
		return 1
	}

	var results []childOutcome
	for _, w := range wls {
		results = append(results, runWorkload(w, s, golden))
	}
	var ladder *childOutcome
	if s.traceDir != "" {
		l := runLadder(s, golden)
		ladder = &l
	}

	report(stdout, s, results, ladder)
	line := resultLine{Metrics: map[string]metricValue{}}
	all := results
	if ladder != nil {
		all = append(all, *ladder)
	}
	ok := true
	for _, r := range all {
		line.Attempted += r.child.Attempted
		line.Failed += r.failed
		ok = ok && r.failed == 0 && len(r.errs) == 0
	}
	// Untraced, a run reports every end-to-end metric per workload.
	// Traced, it reports each workload's own per-layer metrics per workload
	// and the ladder's once, as it does not depend on the workload.
	defs := endToEnd
	if ladder != nil {
		defs = workloadLayers
		for _, d := range ladderDefs() {
			line.Metrics[d.Name] = metricValue{Value: ladder.metrics[d.Name], Unit: d.Unit}
		}
	}
	for _, r := range results {
		for _, d := range defs {
			key := d.Name
			if len(results) > 1 {
				key += "." + r.name
			}
			line.Metrics[key] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
		}
	}
	if ladder != nil {
		if err := writeTraceFiles(s.traceDir, all); err != nil {
			fmt.Fprintln(os.Stderr, "sdvbench:", err)
			ok = false
		}
	}
	if s.out != "" {
		if err := appendResults(s.out, s, all); err != nil {
			fmt.Fprintln(os.Stderr, "sdvbench:", err)
			ok = false
		}
	}
	if line.Attempted == 0 {
		line.Attempted = 1 // a run that attempted nothing failed outright
		line.Failed = max(line.Failed, 1)
		ok = false
	}
	line.Correct = ok
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !ok {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs the workload's children. Each pass is a fresh
// measuring child, so it starts cold and its Maxrss is its own; set-up
// children that exit once ready make up w.setups set-ups in all. A traced
// run instead measures once untraced, once with spans and once untraced
// again, so warm-up and drift do not read as tracing overhead.
func runWorkload(w workloadDef, s settings, golden goldenFile) childOutcome {
	r := childOutcome{name: w.name}
	var roles []string
	if s.traceDir != "" {
		roles = []string{roleMeasure, roleSpans, roleMeasure}
	} else {
		passes := max(w.passes, 1)
		if s.passes > 0 {
			passes = s.passes
		}
		for i := passes; i < w.setups; i++ {
			roles = append(roles, roleSetup)
		}
		for i := 0; i < passes; i++ {
			roles = append(roles, roleMeasure)
		}
	}

	var traced []float64
	extra := map[string][]float64{}
	for i, role := range roles {
		ready, out, rusage, err := spawn(s.childArgs(w.name, role))
		if err != nil {
			r.errs = append(r.errs, fmt.Sprintf("child %d (%s): %v", i, role, err))
		}
		if ready > 0 {
			r.setups = append(r.setups, ready.Seconds())
		}
		if role == roleSetup {
			if ready == 0 {
				r.errs = append(r.errs, fmt.Sprintf("child %d (%s) never became ready: %s", i, role, out))
				r.failed++
			}
			continue
		}
		var c childResult
		if len(out) == 0 {
			r.errs = append(r.errs, fmt.Sprintf("child %d (%s) printed no result", i, role))
			r.failed++
			continue
		}
		if err := json.Unmarshal(out, &c); err != nil {
			r.errs = append(r.errs, fmt.Sprintf("child %d (%s): decoding result: %v", i, role, err))
			r.failed++
			continue
		}
		r.merge(c)
		if role == roleSpans {
			traced = c.Passes
			r.child.Spans = c.Spans
			continue
		}
		r.child.Passes = append(r.child.Passes, c.Passes...)
		if rusage != nil {
			r.rssMB = append(r.rssMB, float64(rusage.Maxrss)/1024) // Linux reports KiB
		}
		for k, v := range c.Extra {
			extra[k] = append(extra[k], v)
		}
		if r.child.Layers == nil {
			r.child.Layers = c.Layers
		}
	}
	if r.failed == 0 && len(r.errs) > 0 {
		r.failed = 1
	}

	scale := w.scale
	if s.scale > 0 {
		scale = s.scale
	}
	var bad []string
	r.golden, bad = golden.check(w.name, s.seed, scale, r.child.Digests)
	if r.golden == "unverified" && r.child.Identity > 0 {
		r.golden = fmt.Sprintf("unverified (identity on %d repeated outputs)", r.child.Identity)
	}
	r.mismatches(bad)

	r.metrics = map[string]float64{
		"setup_s":     median(r.setups),
		"pass_s":      median(r.child.Passes),
		"peak_rss_mb": median(r.rssMB),
	}
	for k, v := range extra {
		r.metrics[k] = median(v)
	}
	for k, v := range r.child.Layers {
		r.metrics[k] = v
	}
	if m := median(r.child.Passes); m > 0 && len(traced) > 0 {
		r.metrics["harness.trace_overhead_frac"] = median(traced)/m - 1
	}
	if r.child.Attempted > 0 {
		r.metrics["failed_frac"] = float64(r.failed) / float64(r.child.Attempted)
	}
	return r
}

// merge folds one measuring child's operations into r. The first child's
// digests stand for the workload; every later child must reproduce each
// of them exactly.
func (r *childOutcome) merge(c childResult) {
	r.child.Attempted += c.Attempted
	r.failed += c.Failed
	r.errs = append(r.errs, c.Errors...)
	r.child.Identity += c.Identity
	if r.child.Digests == nil {
		r.child.Digests = c.Digests
		return
	}
	for _, item := range sortedKeys(c.Digests) {
		want, ok := r.child.Digests[item]
		r.child.Attempted++
		r.child.Identity++
		if !ok || want != c.Digests[item] {
			r.failed++
			r.errs = append(r.errs, item+": output differs between passes")
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runLadder runs the layer ladder in a child of its own. Its daemon serves
// the experiment jobs at served-warm's scale, so at the benchmark scales
// each table must match that workload's golden digest.
func runLadder(s settings, golden goldenFile) childOutcome {
	r := childOutcome{name: "ladder"}
	_, out, _, err := spawn(s.childArgs("all", roleLadder))
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("ladder child: %v", err))
	}
	if len(out) == 0 {
		r.errs = append(r.errs, "ladder child printed no result")
	} else if err := json.Unmarshal(out, &r.child); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("decoding ladder result: %v", err))
	}
	r.failed = r.child.Failed
	r.errs = append(r.errs, r.child.Errors...)
	if r.failed == 0 && len(r.errs) > 0 {
		r.failed = 1
	}
	r.golden = "unverified"
	if _, ok := golden["served-warm"][fmt.Sprint(s.seed)]; ok && s.scale == 0 {
		r.golden = "verified against served-warm"
		r.mismatches(golden.checkItems("served-warm", s.seed, r.child.Digests))
	}
	r.metrics = r.child.Layers
	return r
}

// mismatches counts each golden mismatch as a failed operation.
func (r *childOutcome) mismatches(bad []string) {
	r.failed += len(bad)
	for _, b := range bad {
		r.errs = append(r.errs, "golden mismatch: "+b)
	}
	if len(bad) > 0 {
		r.golden = fmt.Sprintf("MISMATCH on %d outputs", len(bad))
	}
}

// childTimeout kills a hung child, so a run that hangs still ends, as a
// failure, within the three minutes one run may take.
const childTimeout = 160 * time.Second

// spawn runs this binary as a child and returns its exec-to-ready time,
// the output after its ready line, and its resource usage. A child without
// a set-up phase (the ladder), or one that failed before ready, prints
// only its result.
func spawn(args []string) (time.Duration, []byte, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, nil, err
	}
	br := bufio.NewReader(pipe)
	var ready time.Duration
	first, _ := br.ReadString('\n')
	var out []byte
	if strings.TrimSpace(first) == "ready" {
		ready = time.Since(start)
	} else {
		out = []byte(first)
	}
	rest, readErr := io.ReadAll(br)
	out = append(out, rest...)
	waitErr := cmd.Wait()
	var rusage *syscall.Rusage
	if cmd.ProcessState != nil {
		rusage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	}
	return ready, bytes.TrimSpace(out), rusage, errors.Join(readErr, waitErr)
}

// report prints every metric by name with its unit.
func report(w io.Writer, s settings, results []childOutcome, ladder *childOutcome) {
	fmt.Fprintf(w, "sdvbench seed %d, %s, nproc %d, workers %d\n", s.seed, runtime.Version(), runtime.NumCPU(), benchWorkers())
	if ladder != nil {
		fmt.Fprintf(w, "traced run (files in %s): pass_s is over the untraced passes\n", s.traceDir)
	}
	fmt.Fprintf(w, "%-12s %-36s %14s  %-8s %s\n", "workload", "metric", "value", "unit", "note")
	row := func(wl, name string, v float64, unit, note string) {
		fmt.Fprintf(w, "%-12s %-36s %14.6g  %-8s %s\n", wl, name, v, unit, note)
	}
	notes := map[string]func(r childOutcome) string{
		"setup_s": func(r childOutcome) string {
			return fmt.Sprintf("median of %d setups %s", len(r.setups), fmtList(r.setups))
		},
		"peak_rss_mb": func(r childOutcome) string {
			return fmt.Sprintf("median Maxrss of %d measuring children %s", len(r.rssMB), fmtList(r.rssMB))
		},
		"pass_s": func(r childOutcome) string {
			return fmt.Sprintf("median of %d passes%s", len(r.child.Passes), passNote(r.child.Passes))
		},
		"sim_minst_per_s": func(childOutcome) string { return "committed Minst / pass wall, median" },
		"jobs_per_s":      func(childOutcome) string { return "2 closed-loop clients" },
		"latency_p50_ms":  func(r childOutcome) string { return fmt.Sprintf("n=%.0f", r.metrics["latency_samples"]) },
		"latency_p99_ms":  func(r childOutcome) string { return fmt.Sprintf("n=%.0f", r.metrics["latency_samples"]) },
	}
	for _, r := range results {
		printed := map[string]bool{}
		for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
			if v, ok := r.metrics[d.Name]; ok {
				note := ""
				if f := notes[d.Name]; f != nil {
					note = f(r)
				}
				row(r.name, d.Name, v, d.Unit, note)
				printed[d.Name] = true
			}
		}
		row(r.name, "failed_frac", r.metrics["failed_frac"], "frac",
			fmt.Sprintf("%d/%d ops failed, golden: %s", r.failed, r.child.Attempted, r.golden))
		for _, e := range r.errs {
			fmt.Fprintf(w, "%-12s error: %s\n", r.name, e)
		}
		if ladder != nil {
			for _, d := range workloadLayers {
				if !printed[d.Name] {
					row(r.name, d.Name, r.metrics[d.Name], d.Unit, "")
				}
			}
		}
	}
	if ladder == nil {
		return
	}
	missing := map[string]bool{}
	for _, n := range ladder.child.Missing {
		missing[n] = true
	}
	for _, d := range ladderDefs() {
		note := ""
		if missing[d.Name] {
			note = "missing"
		}
		row("ladder", d.Name, ladder.metrics[d.Name], d.Unit, note)
	}
	row("ladder", "failed", float64(ladder.failed), "count",
		fmt.Sprintf("%d/%d ops failed, golden: %s", ladder.failed, ladder.child.Attempted, ladder.golden))
	for _, e := range ladder.errs {
		fmt.Fprintf(w, "%-12s error: %s\n", "ladder", e)
	}
}

func passNote(p []float64) string {
	if len(p) > 8 {
		q := quartiles(p)
		return fmt.Sprintf(", quartiles [%.4g %.4g]", q[0], q[2])
	}
	return " " + fmtList(p)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// writeTraceFiles writes spans.json (every span with its self time, and
// self time summed by span name, per workload and for the ladder) and
// layers.json (the per-layer metrics of each).
func writeTraceFiles(dir string, results []childOutcome) error {
	type spanSet struct {
		Workload   string             `json:"workload"`
		Spans      []span             `json:"spans"`
		SelfByName map[string]float64 `json:"self_s_by_name"`
	}
	var sets []spanSet
	layers := map[string]map[string]float64{}
	for _, r := range results {
		spans := r.child.Spans
		setSelfTimes(spans)
		byName := map[string]float64{}
		for _, sp := range spans {
			byName[sp.Name] += sp.Self
		}
		sets = append(sets, spanSet{r.name, spans, byName})
		defs := workloadLayers
		if r.name == "ladder" {
			defs = ladderDefs()
		}
		l := map[string]float64{}
		for _, d := range defs {
			l[d.Name] = r.metrics[d.Name]
		}
		layers[r.name] = l
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), map[string]any{"workloads": sets}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), layers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so spreads read the same as in any external analysis.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile returns the p-quantile (0..1) of sorted xs by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
