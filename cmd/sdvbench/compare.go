package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// resultFile accumulates runs across invocations (-out appends), so A/B
// runs can be interleaved and compared.
type resultFile struct {
	Runs    []runRecord                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"` // workload (or "ladder") → metric
}

type runRecord struct {
	Command   []string           `json:"command"`
	Go        string             `json:"go"`
	Nproc     int                `json:"nproc"`
	Commit    string             `json:"commit"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Golden    string             `json:"golden"`
	Passes    []float64          `json:"passes"`
	Setups    []float64          `json:"setups"`
	PeakRSS   []float64          `json:"peak_rss_mb"`
	Metrics   map[string]float64 `json:"metrics"`
}

type summary struct {
	Unit   string  `json:"unit,omitempty"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func appendResults(path string, s settings, results []childOutcome) error {
	var f resultFile
	switch b, err := os.ReadFile(path); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	// A traced run records its per-layer metrics only: its set-up and
	// memory include tracing.
	traced := s.traceDir != ""
	units := map[string]string{"failed_frac": "frac"}
	layer := map[string]bool{"failed_frac": true}
	for _, d := range perLayerDefs() {
		units[d.Name], layer[d.Name] = d.Unit, true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
		units[d.Name] = d.Unit
	}
	for _, r := range results {
		metrics := map[string]float64{}
		for k, v := range r.metrics {
			if !traced || layer[k] {
				metrics[k] = v
			}
		}
		f.Runs = append(f.Runs, runRecord{
			Command: append([]string{"sdvbench"}, s.commandArg...), Go: runtime.Version(),
			Nproc: runtime.NumCPU(), Commit: commit, Workload: r.name, Seed: s.seed,
			Traced: traced, Correct: r.failed == 0 && len(r.errs) == 0,
			Attempted: r.child.Attempted, Failed: r.failed, Golden: r.golden,
			Passes: r.child.Passes, Setups: r.setups, PeakRSS: r.rssMB, Metrics: metrics,
		})
	}
	f.Summary = map[string]map[string]summary{}
	for _, name := range append(workloadNames(), "ladder") {
		vals := map[string][]float64{}
		for _, run := range f.Runs {
			if run.Workload != name {
				continue
			}
			for k, v := range run.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		f.Summary[name] = map[string]summary{}
		for k, v := range vals {
			q := quartiles(v)
			f.Summary[name][k] = summary{Unit: units[k], N: len(v), Median: median(v), Q1: q[0], Q3: q[2]}
		}
	}
	return writeJSON(path, f)
}

// compareMain judges B against A for every workload and every end-to-end
// or reported metric by the choosing-metrics rules (see judge), over the
// untraced runs of each file. Failed operations are judged on their own:
// any increase is worse, and it voids a gain.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: sdvbench compare A.json B.json")
		return 2
	}
	var files [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdvbench compare:", err)
			return 2
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "delta", "spreadA", "wins", "verdict")
	for _, wd := range workloads {
		fa, fb := failedFrac(files[0], wd.name), failedFrac(files[1], wd.name)
		moreFailures := fb > fa
		for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
			a, b := runValues(files[0], wd.name, d.Name), runValues(files[1], wd.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(d, a, b, moreFailures)
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+7.2f%% %6.2f%% %6s  %s\n",
				wd.name, d.Name, v.ma, v.mb, 100*v.delta, 100*v.spread, fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
		if fa < 0 || fb < 0 {
			continue
		}
		verdict := "unchanged"
		if moreFailures {
			verdict = "worse"
		}
		fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %8s %7s %6s  %s\n", wd.name, "failed_frac", fa, fb, "", "", "", verdict)
	}
	return 0
}

// runValues returns one metric's values over the untraced, correct runs
// of a workload, in run order.
func runValues(f resultFile, wl, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != wl || r.Traced || !r.Correct {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// failedFrac returns failed over attempted operations across a workload's
// untraced runs, or -1 when it has none.
func failedFrac(f resultFile, wl string) float64 {
	failed, attempted := 0, 0
	for _, r := range f.Runs {
		if r.Workload == wl && !r.Traced {
			failed += r.Failed
			attempted += max(r.Attempted, 1)
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}

type judgement struct {
	ma, mb, delta, spread float64 // delta: signed change of B vs A, positive = worse
	wins, pairs           int
	verdict               string
}

// judge applies the rules: "better" only when B wins at least 9 of 10 of
// at least 10 pairs, its median is on the better side of A's by more than
// A's quartile spread, and no more operations failed; "worse" when B's
// median is worse than A's by more than the allowance; "unresolved" when
// A's own quartile spread exceeds the allowance, unless every B run beats
// every A run; "unchanged" otherwise. The allowance is the bound's share
// of A's median, or the metric's absolute floor if that is larger.
func judge(d metricDef, a, b []float64, moreFailures bool) judgement {
	sign := 1.0 // lower is better
	if d.Better == "higher" {
		sign = -1
	}
	j := judgement{ma: median(a), mb: median(b), pairs: min(len(a), len(b))}
	qa := quartiles(a)
	iqr := qa[2] - qa[0]
	if j.ma != 0 {
		j.delta = sign * (j.mb - j.ma) / math.Abs(j.ma)
		j.spread = iqr / math.Abs(j.ma)
	}
	for i := 0; i < j.pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			j.wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && sign*(x-y) < 0
		}
	}
	gain := -sign * (j.mb - j.ma) // positive = B better
	allowance := max(d.Bound*math.Abs(j.ma), absFloor[d.Name])
	switch {
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && gain > iqr && !moreFailures:
		j.verdict = "better"
	case -gain > allowance:
		j.verdict = "worse"
	case iqr > allowance && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
